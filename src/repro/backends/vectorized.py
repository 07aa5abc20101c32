"""Vectorized wavefront backend: the executor as one level-ordered walk.

The paper's executor (§2.2, Figure 5) is one rule per term, applied in
any order in which every writer comes before its readers.  The §3.2
level-major order of the wavefront schedule is such an order, so this
backend executes a loop as *one* call of the scalar kernel
(:func:`~repro.backends.kernel.run_span`) over the schedule's ``order``
with ``wait=None`` — level order has already discharged every wait —
followed by the copy-back of the renamed values.  With a compiler that
call is the compiled walk (:mod:`~repro.backends.native`, GIL released);
without one it is the Python walk, several times slower on wide loops (a
stated cost, not a second path; EXPERIMENTS.md).  The name is historical:
wide wavefronts were once NumPy batches, and a compiled walk beat them on
every benchmark workload.

Exactness, not approximation: the walk performs the *same* arithmetic as
the sequential oracle, in the same per-term order, as float64 operations
— iterations of one wavefront are mutually independent, so the order
they run in changes nothing — and is therefore **bitwise equal** to
:meth:`~repro.ir.loop.IrregularLoop.run_sequential` (a tested property,
not a tolerance).

Mechanics.  ``OLD`` terms read a copy of the caller's ``y`` (never
written during the walk), ``WAIT`` terms the renamed buffer (the paper's
``ynew``), ``ACC`` terms the iteration's live accumulator; the record's
term codes are the ``iter``-array compare of Figure 5, done once by the
inspector.  After the walk every written element is copied from the
renamed buffer into the copy, which is the result.

All structure-dependent preprocessing — the inspector's ``iter`` array,
the wavefront schedule, the term codes — lives in an
:class:`~repro.backends.cache.InspectorRecord` and is served by a
content-addressed :class:`~repro.backends.cache.InspectorCache`, so
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
    check_repeated,
    note_ignored_options,
    note_kernel,
    note_verdict,
    resolve_verdict,
    validate_execution_order,
)
from repro.backends.cache import InspectorCache, InspectorRecord
from repro.backends.kernel import ACC, WAIT, term_positions
from repro.core.results import RunResult
from repro.core.sequential import sequential_time
from repro.ir.loop import INIT_EXTERNAL, IrregularLoop
from repro.machine.costs import CostModel
from repro.obs.spans import CAT_LEVEL, CAT_PHASE

__all__ = ["VectorizedRunner", "log_levels"]


def log_levels(capture, record: InspectorRecord, loop: IrregularLoop, cuts) -> None:
    """Shadow-log the walk of ``record`` onto ``capture``, one lane per
    level: level ``k`` — positions ``cuts[k]:cuts[k+1]`` of
    ``record.schedule.order`` — is the handoff acquire, one bulk ``R``
    (accumulator terms are not memory reads), one bulk ``W``, the handoff
    post.  The synthetic token ``-(k+1)``, posted by level ``k`` and
    acquired by level ``k+1``, is the log's rendering of "levels execute
    strictly in order"; the walk is level-major and a level's iterations
    share no true dependence, so "level ``k``'s reads, then its writes,
    levels in order" is what ran.  The runner logs the record's own level
    cuts; the mutation harness logs the same record over mutated cuts."""
    order, reads = record.schedule.order, loop.reads
    terms, counts = term_positions(reads.ptr, order)
    term_ptr = np.zeros(len(order) + 1, dtype=np.int64)
    np.cumsum(counts, out=term_ptr[1:])
    readers = np.repeat(order, counts)
    index = reads.index[terms]
    read = record.codes != ACC
    renamed = (record.codes == WAIT).astype(np.int64)
    n_levels = len(cuts) - 1
    capture.meta["levels"] = n_levels
    for k in range(n_levels):
        lane = capture.lane(k)
        p0, p1 = int(cuts[k]), int(cuts[k + 1])
        t0, t1 = int(term_ptr[p0]), int(term_ptr[p1])
        if k > 0:
            lane.append(("a", -k))
        keep = read[t0:t1]
        if keep.any():
            lane.append((
                "R", readers[t0:t1][keep], index[t0:t1][keep],
                renamed[t0:t1][keep],
            ))
        lane.append(("W", order[p0:p1].copy(), loop.write[order[p0:p1]]))
        if k + 1 < n_levels:
            lane.append(("p", -(k + 1)))


class VectorizedRunner(Runner):
    """Wavefront-ordered execution, one walk, with cached inspector
    results.

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
        """Execute ``loop`` as one walk of its wavefronts; see the module
        doc.

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
                "no simulated timeline exists for the level walk; use "
                "observe=True for wall-clock spans",
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
        rhs_sequence = check_repeated(loop, instances, rhs_sequence)
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
        ``loop.y0``): one walk of the record's level-major order, then the
        copy-back.  Returns the final ``y`` (a fresh array)."""
        reads, schedule = loop.reads, record.schedule
        init = None
        if loop.init_kind == INIT_EXTERNAL:
            init = init_values if init_values is not None else loop.init_values
        # ``out`` serves the old values during the walk, which writes only
        # the renamed buffer ``new``, and receives the new ones after it.
        out = np.array(loop.y0 if y is None else y, dtype=np.float64)
        new = np.empty_like(out)

        rec, san = self._obs_recorder, self._san_capture
        n_levels = schedule.n_levels
        if san is not None:
            log_levels(san, record, loop, schedule.level_ptr)
        if rec is not None:
            t_exec = rec.now()
        kernel.run_span(
            schedule.order, record.codes, loop.write, reads.ptr, reads.index,
            reads.coeff, init, out, new, new,
        )
        if rec is not None:
            t_post = rec.now()
            rec.record_batch([
                (
                    f"levels[0:{n_levels}]", CAT_LEVEL, t_exec, t_post, 0,
                    {"level": 0, "levels": n_levels, "width": loop.n},
                ),
                ("executor", CAT_PHASE, t_exec, t_post, 0, {"levels": n_levels}),
            ])
        out[loop.write] = new[loop.write]
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
            # One sample per level: the width profile is a property of the
            # loop, not of how it was executed — so it is summarized here,
            # outside the timed window (8,000 samples cost 40 us).
            met.observe_many("level_width", schedule.level_sizes())
            met.gauge("max_width", schedule.max_width())
            met.count("iterations", loop.n)
        return result
