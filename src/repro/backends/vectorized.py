"""Vectorized wavefront backend: real wall-clock parallel throughput.

The simulated backend models a multiprocessor; the threaded backend proves
the protocol correct under the GIL.  This backend is the one that actually
runs fast on CPython: it executes the dependence DAG *level by level*
(wavefronts, the §3.2 doconsider decomposition), and runs each wide
wavefront as batched NumPy array operations over all of its iterations at
once — SIMD lanes and memory bandwidth play the role of the paper's
processors, with no per-iteration Python interpretation and no GIL
involvement.  Where the DAG is deep and narrow there is nothing to batch,
and it degrades the way the paper's Figure 6 does at the short-distance
end — to the sequential loop plus a little — instead of paying a NumPy
round-trip per level.

Exactness, not approximation: the executor performs the *same* arithmetic
as the sequential oracle, in the same per-term order, as float64
operations — iterations of one wavefront are mutually independent, so
neither batching them nor walking them one by one changes anything — and
is therefore **bitwise equal** to
:meth:`~repro.ir.loop.IrregularLoop.run_sequential` (a tested property,
not a tolerance).

Mechanics.  The inspector record cuts the level sequence into *segments*
(:func:`~repro.backends.cache.assemble_record`), per level, from the
schedule alone — no option selects a path:

- a maximal run of consecutive levels each narrower than a measured
  constant is a **fused run**: one call of the scalar kernel
  (:func:`~repro.backends.kernel.run_span`) over the run's iterations in
  level-major order with ``wait=None`` — level order has already
  discharged every wait — walking the record's per-term ``codes``
  (``ACC`` / ``WAIT`` / ``OLD``).  A distance-1 chain of 8,000 levels is
  one call;
- every other level is a **bulk level**, all arrays precomputed by the
  inspector: iterations are ordered within the level by term count
  (descending), so term slot ``j`` is live for a *prefix* of the level —
  each slot is one gather + one fused multiply-add over contiguous
  slices, and intra-iteration reads (``check == 0``) select the live
  accumulator via ``np.where`` in the same slot step.

Both read through one doubled value environment ``[y_old | y_new]``:
antidependent and never-written reads come from the old half, true
dependence reads from the renamed half (the paper's ``ynew``), so the
``iter``-array comparison of Figure 5 is baked into the record — as one
gather index for the bulk levels, as the term code for the fused runs,
both derived from the same classification masks.

All structure-dependent preprocessing — the inspector's ``iter`` array,
the wavefront schedule, the execution-ordered term layout, the segments —
lives in an :class:`~repro.backends.cache.InspectorRecord` and is served
by a content-addressed :class:`~repro.backends.cache.InspectorCache`, so
repeated instances of one loop structure skip preprocessing entirely: the
paper's Figure-3 amortization with a hit counter attached.
"""

from __future__ import annotations

import time

import numpy as np

from repro.backends import kernel
from repro.backends.base import (
    Runner,
    check_analyze_mode,
    check_group_sync,
    note_ignored_options,
    note_kernel,
    note_verdict,
    resolve_verdict,
    validate_execution_order,
)
from repro.backends.cache import InspectorCache, InspectorRecord
from repro.core.results import RunResult
from repro.core.sequential import sequential_time
from repro.ir.loop import INIT_EXTERNAL, IrregularLoop
from repro.errors import InvalidLoopError
from repro.machine.costs import CostModel
from repro.obs.spans import CAT_LEVEL, CAT_PHASE

__all__ = ["VectorizedRunner", "log_level"]


def log_level(
    lane: list,
    record: InspectorRecord,
    y_size: int,
    k: int,
    n_levels: int,
    p0: int,
    p1: int,
) -> None:
    """Shadow-log wavefront level ``k`` of ``n_levels`` — execution
    positions ``[p0, p1)`` of ``record`` — onto ``lane``: the handoff
    acquire, one bulk ``R`` (intra-iteration terms are not memory reads),
    one bulk ``W``, the handoff post.  The runner logs each level as it
    executes it; the mutation harness logs the same record over mutated
    level cuts."""
    exec_order, exec_ptr = record.exec_order, record.exec_ptr
    if k > 0:
        lane.append(("a", -k))
    tt0, tt1 = int(exec_ptr[p0]), int(exec_ptr[p1])
    keep = ~record.intra[tt0:tt1]
    ei = record.env_index[tt0:tt1][keep]
    iters = np.repeat(
        exec_order[p0:p1], np.diff(exec_ptr[p0 : p1 + 1])
    )[keep]
    srcs = (ei >= y_size).astype(np.int64)
    if len(ei):
        lane.append(
            ("R", iters, np.where(srcs == 1, ei - y_size, ei), srcs)
        )
    lane.append(
        ("W", exec_order[p0:p1].copy(), record.exec_write[p0:p1].copy())
    )
    if k + 1 < n_levels:
        lane.append(("p", -(k + 1)))


class VectorizedRunner(Runner):
    """Batched wavefront execution with cached inspector results.

    Parameters
    ----------
    cache:
        The :class:`InspectorCache` serving preprocessing results; pass a
        shared instance to amortize across runners (or rely on the
        per-runner default).
    cost_model:
        Used only to report the simulated ``T_seq`` alongside measured
        wall time, so vectorized rows are comparable in mixed tables.
    analyze:
        ``"symbolic"`` runs the symbolic dependence engine
        (:func:`repro.analysis.analyze_loop`) first and, when the verdict
        is elidable (write proven injective, every read slot classified),
        builds the inspector record in closed form
        (:func:`repro.analysis.build_symbolic_record`) — zero inspector
        iterations, and the cache is keyed by the structure-only
        :func:`repro.analysis.symbolic_fingerprint` so loops with
        identical proofs share one entry.  ``"symbolic+check"`` is the
        debug mode: every elided record is cross-checked against the real
        inspector (verdict vs. observed dependences, record vs. record,
        bitwise), raising :class:`~repro.errors.ProofError` on any
        divergence.  ``None`` (default) always runs the runtime inspector.
    """

    name = "vectorized"

    def __init__(
        self,
        cache: InspectorCache | None = None,
        cost_model: CostModel | None = None,
        analyze: str | None = None,
    ):
        self.cache = cache if cache is not None else InspectorCache()
        self.cost_model = cost_model if cost_model is not None else CostModel()
        self.analyze = check_analyze_mode(analyze)

    # ------------------------------------------------------------------
    def _preprocess(self, loop: IrregularLoop, group: int | None = None):
        """Serve the inspector record for ``loop``.

        Returns ``(record, hit, elided, verdict)``.  With ``analyze`` set
        and an elidable verdict, the record is built symbolically (no
        read term is classified against memory) and cached under the
        structure-only fingerprint; otherwise the runtime inspector path
        of :class:`InspectorCache` is used unchanged.

        With a ``group`` size (``run(group_sync=...)``, planned by the
        distance stage), the record's wavefronts are the distance groups
        ``i // group`` instead of the exact DAG levels — usually far fewer, far wider
        levels (:func:`repro.analysis.build_distance_record`).  This
        works even for verdicts that are *not* fully classified: a
        ``min-distance-k`` bound is enough.
        """
        verdict = resolve_verdict(loop, self.analyze)
        if group is not None and group >= 2:
            from repro.analysis import (
                build_distance_record,
                distance_fingerprint,
            )

            record, hit = self.cache.get_or_build(
                loop,
                builder=lambda lp: build_distance_record(
                    lp, group, verdict
                ),
                fingerprint=distance_fingerprint(loop, group),
            )
            return record, hit, False, verdict
        if verdict is not None and verdict.elidable:
            from repro.analysis import (
                build_symbolic_record,
                symbolic_fingerprint,
            )

            record, hit = self.cache.get_or_build(
                loop,
                builder=lambda lp: build_symbolic_record(lp, verdict),
                fingerprint=symbolic_fingerprint(loop),
            )
            if self.analyze == "symbolic+check":
                self._debug_check(loop, record)
            return record, hit, True, verdict
        record, hit = self.cache.get_or_build(loop)
        return record, hit, False, verdict

    def _debug_check(self, loop: IrregularLoop, record) -> None:
        """``analyze="symbolic+check"``: the elided record must equal the
        real inspector's (the verdict itself was cross-checked when it
        was resolved)."""
        from repro.analysis import record_mismatches
        from repro.backends.cache import build_inspector_record
        from repro.errors import ProofError

        problems = record_mismatches(record, build_inspector_record(loop))
        if problems:
            raise ProofError(
                f"{loop.name}: symbolic record diverges from the runtime "
                f"inspector: " + "; ".join(problems)
            )

    # ------------------------------------------------------------------
    def run(
        self,
        loop: IrregularLoop,
        *,
        order: np.ndarray | None = None,
        schedule=None,
        chunk: int | None = None,
        trace: bool = False,
        group_sync: int | None = None,
    ) -> RunResult:
        """Execute ``loop`` as batched wavefronts; see the module doc.

        ``order`` is validated for legality (identically to the other
        backends) but does not change the result: the backend always
        executes in wavefront order, and any legal order produces the same
        values.  ``schedule``/``chunk``/``trace`` have no meaning without
        per-processor scheduling and are ignored (each ignored option is
        recorded in ``result.extras["ignored_options"]``).
        """
        check_group_sync(loop, group_sync)
        if order is not None:
            validate_execution_order(loop, np.asarray(order, dtype=np.int64))
        rec = self._obs_recorder
        kernel.take_tally()  # _result reports this run's spans only

        t0 = time.perf_counter()
        record, hit, elided, verdict = self._preprocess(loop, group_sync)
        t1 = time.perf_counter()
        if rec is not None:
            # The cache lookup/build window IS this backend's inspector
            # phase: Figure 3's preprocessing, amortized across hits (and
            # skipped entirely on the symbolic elision path).
            rec.record(
                "inspector", CAT_PHASE, t0, t1, lane=0,
                cache_hit=bool(hit), elided=elided,
            )
        y = self._execute(loop, record)
        t2 = time.perf_counter()

        result = self._result(
            loop,
            record,
            y,
            hit=hit,
            preprocess_seconds=t1 - t0,
            execute_seconds=t2 - t1,
            elided=elided,
            verdict=verdict,
        )
        if group_sync is not None:
            result.extras["distance_group"] = int(group_sync)
        wavefront_reason = (
            "the vectorized backend has no per-processor schedules; its "
            "execution order is the wavefront decomposition itself"
        )
        ignored = {}
        if schedule is not None:
            ignored["schedule"] = (schedule, wavefront_reason)
        if chunk is not None:
            ignored["chunk"] = (chunk, wavefront_reason)
        if trace:
            ignored["trace"] = (
                True,
                "no simulated timeline exists for batched execution; use "
                "observe=True for wall-clock level spans",
            )
        note_ignored_options(result, self.name, **ignored)
        return result

    def schedule_model(self, loop, *, group_sync=None, **_options) -> dict:
        # Wavefront order whatever ``order`` says; a group size >= 2
        # replaces the DAG levels by the distance groups (_preprocess).
        grouped = group_sync is not None and group_sync >= 2
        return {"backend": self.name, "group": group_sync if grouped else None}

    # ------------------------------------------------------------------
    def run_repeated(
        self,
        loop: IrregularLoop,
        instances: int,
        rhs_sequence=None,
    ) -> RunResult:
        """Run ``instances`` back-to-back executions with one preprocessing.

        The vectorized form of :class:`~repro.core.amortized.
        AmortizedDoacross`: instance ``k`` consumes instance ``k-1``'s
        output (or, for external-init loops, a per-instance ``rhs``), and
        the inspector/wavefront work is fetched from the cache once.
        """
        if instances < 1:
            raise InvalidLoopError(
                f"need at least one instance, got {instances}"
            )
        if rhs_sequence is not None:
            if loop.init_kind != INIT_EXTERNAL:
                raise InvalidLoopError(
                    "rhs_sequence requires an external-init loop"
                )
            rhs_sequence = [
                np.ascontiguousarray(rhs, dtype=np.float64)
                for rhs in rhs_sequence
            ]
            if len(rhs_sequence) != instances:
                raise InvalidLoopError(
                    f"rhs_sequence has {len(rhs_sequence)} entries for "
                    f"{instances} instances"
                )
            for rhs in rhs_sequence:
                if len(rhs) != loop.n:
                    raise InvalidLoopError(
                        f"rhs has {len(rhs)} entries for {loop.n} iterations"
                    )

        kernel.take_tally()
        t0 = time.perf_counter()
        record, hit, elided, verdict = self._preprocess(loop)
        t1 = time.perf_counter()
        y = loop.y0
        for k in range(instances):
            init = rhs_sequence[k] if rhs_sequence is not None else None
            y = self._execute(loop, record, y=y, init_values=init)
        t2 = time.perf_counter()

        result = self._result(
            loop,
            record,
            y,
            hit=hit,
            preprocess_seconds=t1 - t0,
            execute_seconds=t2 - t1,
            elided=elided,
            verdict=verdict,
        )
        result.strategy = "vectorized-wavefront-amortized"
        result.sequential_cycles = instances * result.sequential_cycles
        result.extras["instances"] = instances
        result.extras["inspector_runs"] = 0 if (hit or elided) else 1
        return result

    # ------------------------------------------------------------------
    def _execute(
        self,
        loop: IrregularLoop,
        record: InspectorRecord,
        y: np.ndarray | None = None,
        init_values: np.ndarray | None = None,
    ) -> np.ndarray:
        """One execution against current values ``y`` (defaults to
        ``loop.y0``), segment by segment.  Returns the final ``y`` (a
        fresh array)."""
        n, y_size = loop.n, loop.y_size
        reads = loop.reads
        exec_order = record.exec_order
        exec_ptr = record.exec_ptr
        exec_write = record.exec_write
        env_index = record.env_index
        intra = record.intra
        level_ptr = record.schedule.level_ptr.tolist()
        slot_active, slot_ptr = record.slot_active, record.slot_ptr

        if y is None:
            y = loop.y0
        external = loop.init_kind == INIT_EXTERNAL
        init = None
        if external:
            init = init_values if init_values is not None else loop.init_values
            init_exec = init[exec_order]
        # Bulk levels read coefficients permuted into execution order;
        # fused runs walk the loop's own arrays by iteration number.
        coeff = reads.coeff[record.term_source]

        # Doubled environment: [y_old | y_new].  The old half is never
        # mutated (writes are renamed), the new half is filled level by
        # level and only read by strictly later levels.
        env = np.empty(2 * y_size, dtype=np.float64)
        env[:y_size] = y
        old, new = env[:y_size], env[y_size:]
        span = (
            record.codes, loop.write, reads.ptr, reads.index, reads.coeff,
            init, old, new, new,
        )

        rec = self._obs_recorder
        san = self._san_capture
        n_levels = record.schedule.n_levels
        if san is not None:
            # Shadow lanes are wavefront levels; the synthetic token
            # -(k+1) posted by level k and acquired by level k+1 is the
            # log's rendering of "levels execute strictly in order".
            san.meta["levels"] = n_levels
        # Level spans buffer locally and flush once — a locked record()
        # per wavefront costs ~3µs, which on a many-level loop is a
        # measurable fraction of the whole run (tested budget:
        # observe=True adds <10% wall time).
        buf: list[tuple] = []
        if rec is not None:
            now = rec.now
            t_exec = now()

        segments = zip(
            record.seg_fused.tolist(),
            record.seg_ptr[:-1].tolist(),
            record.seg_ptr[1:].tolist(),
        )
        for fused, k0, k1 in segments:
            if fused:
                # A run of narrow levels: one scalar walk in level-major
                # order, which has already discharged every wait.
                if rec is not None:
                    t_level = now()
                p0, p1 = level_ptr[k0], level_ptr[k1]
                if san is not None:
                    # The walk is level-major and a level's iterations
                    # share no true dependence, so "level k's gathers,
                    # then its scatters, levels in order" is what ran.
                    for k in range(k0, k1):
                        log_level(
                            san.lane(k), record, y_size, k, n_levels,
                            level_ptr[k], level_ptr[k + 1],
                        )
                kernel.run_span(
                    exec_order[p0:p1], *span, cur=int(exec_ptr[p0])
                )
                if rec is not None:
                    buf.append((
                        f"levels[{k0}:{k1}]", CAT_LEVEL, t_level, now(), 0,
                        {"level": k0, "levels": k1 - k0, "width": p1 - p0},
                    ))
                continue
            for k in range(k0, k1):
                if rec is not None:
                    t_level = now()
                p0, p1 = level_ptr[k], level_ptr[k + 1]
                if san is not None:
                    log_level(
                        san.lane(k), record, y_size, k, n_levels, p0, p1
                    )
                if external:
                    acc = init_exec[p0:p1].copy()
                else:
                    acc = env[exec_write[p0:p1]]
                base = exec_ptr[p0 : p1 + 1]
                for j in range(int(slot_ptr[k + 1] - slot_ptr[k])):
                    m = int(slot_active[slot_ptr[k] + j])
                    kk = base[:m] + j
                    vals = env[env_index[kk]]
                    a = acc[:m]
                    # Same op order as the oracle: acc += coeff * value,
                    # value = live accumulator for intra-iteration reads.
                    acc[:m] = a + coeff[kk] * np.where(intra[kk], a, vals)
                new[exec_write[p0:p1]] = acc
                if rec is not None:
                    buf.append((
                        f"level[{k}]", CAT_LEVEL, t_level, now(), 0,
                        {"level": k, "width": p1 - p0},
                    ))

        if rec is not None:
            t_post = now()
            buf.append((
                "executor", CAT_PHASE, t_exec, t_post, 0,
                {"levels": n_levels},
            ))
            rec.record_batch(buf)
        out = np.array(y, dtype=np.float64, copy=True)
        if n:
            out[exec_write] = new[exec_write]
        if rec is not None:
            # The copy-back of renamed values into y is this backend's
            # (tiny) postprocessor phase.
            rec.record("postprocessor", CAT_PHASE, t_post, rec.now(), lane=0)
        return out

    # ------------------------------------------------------------------
    def _result(
        self,
        loop: IrregularLoop,
        record: InspectorRecord,
        y: np.ndarray,
        hit: bool,
        preprocess_seconds: float,
        execute_seconds: float,
        elided: bool = False,
        verdict=None,
    ) -> RunResult:
        schedule = record.schedule
        result = RunResult(
            loop_name=loop.name,
            strategy="vectorized-wavefront",
            processors=1,
            y=y,
            total_cycles=0,
            sequential_cycles=sequential_time(loop, self.cost_model),
            cost_model=self.cost_model,
            schedule=f"wavefront({schedule.n_levels} levels)",
            order_label=f"wavefront(levels={schedule.n_levels})",
            wall_seconds=preprocess_seconds + execute_seconds,
        )
        cache_stats = self.cache.stats()
        result.extras.update(
            {
                "levels": schedule.n_levels,
                "max_width": schedule.max_width(),
                "average_width": schedule.average_width(),
                "fused_levels": record.fused_levels,
                "cache_hit": hit,
                "cache_hits_total": cache_stats["hits"],
                "cache_misses_total": cache_stats["misses"],
                "preprocess_seconds": preprocess_seconds,
                "execute_seconds": execute_seconds,
                "plan": record.plan.describe(),
            }
        )
        note_verdict(result, self.analyze, verdict, elided)
        met = self._obs_metrics
        note_kernel(result, met, [kernel.take_tally()])
        if met is not None:
            met.count("inspector_cache_hits", 1 if hit else 0)
            met.count("inspector_cache_misses", 0 if hit else 1)
            # Inspection work actually performed this run: zero on a cache
            # hit or when the symbolic proof elided the inspector, the
            # full loop otherwise (the acceptance metric for elision).
            ran_inspector = not (hit or elided)
            met.count(
                "inspector_iterations", loop.n if ran_inspector else 0
            )
            met.count(
                "inspector_terms_classified",
                loop.reads.total_terms if ran_inspector else 0,
            )
            met.count("inspector_elisions", 1 if elided else 0)
            met.gauge("inspector_cache_hits_total", cache_stats["hits"])
            met.gauge("inspector_cache_misses_total", cache_stats["misses"])
            met.gauge("inspector_cache_entries", cache_stats["entries"])
            met.gauge("inspector_cache_bytes", cache_stats["bytes"])
            met.gauge("inspector_cache_evictions_total", cache_stats["evictions"])
            met.gauge("levels_cache_hits_total", cache_stats["levels_hits"])
            met.gauge("levels_cache_misses_total", cache_stats["levels_misses"])
            met.gauge("levels", schedule.n_levels)
            # One sample per level, fused or not: the width profile is a
            # property of the loop, not of how its levels were executed —
            # so it is summarized here, outside the timed window (8,000
            # samples cost 40 us, 5 % of a compiled chain run).
            met.observe_many("level_width", schedule.level_sizes())
            met.gauge("max_width", schedule.max_width())
            met.gauge("fused_runs", record.fused_runs)
            met.gauge("fused_levels", record.fused_levels)
            met.count("iterations", loop.n)
        return result
