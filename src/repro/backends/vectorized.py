"""Vectorized wavefront backend: the executor as one level-ordered walk.

The paper's executor (§2.2, Figure 5) is one rule per term, applied in
any order in which every writer comes before its readers.  The §3.2
level-major order of the wavefront schedule is such an order, so this
backend executes a loop as *one* call of the scalar kernel
(:func:`~repro.backends.kernel.run_span`) over the schedule's ``order``
with ``wait=None`` — level order has already discharged every wait —
followed, when antidependences made it rename, by the copy-back of the
renamed values.  With a compiler that
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

Mechanics.  The walk streams: the record holds the loop's ``write`` /
``ptr`` / ``index`` gathered into level order once (none when that order
is the identity), and reads them by position; the coefficients and
initial values are this call's, read from the loop (``coeff`` at each
position's stored offset, ``init`` at its iteration).  ``ACC`` terms read
the iteration's live accumulator; the record's term codes are the
``iter``-array compare of Figure 5, done once by the inspector.  The
result is a copy of the caller's ``y``, which the walk renames only when
it must: the paper's ``ynew`` exists to remove antidependences (§2.2),
and level order can run an antidependence's writer before its reader.
When the inspector found one, ``OLD`` terms read the copy (never written
during the walk), ``WAIT`` terms the renamed buffer, and every written
element is copied back from it after the walk (Figure 3's postprocessor).
When it found none, every ``OLD`` term reads an element no iteration
writes, so the walk reads and writes the copy in place — no ``ynew``, no
copy-back.  ``result.extras["walk"]`` says which layout ran and whether
it renamed.

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
    Execution,
    WallClockRunner,
    check_repeated,
    level_placement,
    resolve_verdict,
)
from repro.backends.cache import InspectorCache, InspectorRecord, loop_fingerprint
from repro.backends.kernel import Placement
from repro.core.results import RunResult
from repro.ir.loop import INIT_EXTERNAL, IrregularLoop
from repro.machine.costs import DEFAULT_COST_MODEL, CostModel
from repro.obs.spans import CAT_LEVEL, CAT_PHASE

__all__ = ["VectorizedRunner"]


class VectorizedRunner(WallClockRunner):
    """Wavefront-ordered execution, one walk, with cached inspector
    results.

    A run's ``order`` is validated for legality (identically to the other
    backends) but does not change the result: the backend always executes
    in wavefront order, and any legal order produces the same values.
    ``schedule``/``chunk``/``trace`` have no meaning without
    per-processor scheduling and are ignored (each noted in
    ``extras["ignored_options"]``).  ``planned`` is how
    :func:`~repro.passes.execute.execute_plan` hands over the record
    :func:`~repro.passes.plan.plan_loop` already fetched or built, with
    whether that lookup hit; it is reported as this run's lookup.

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
    strategy = "vectorized-wavefront"

    def __init__(
        self,
        cache: InspectorCache | None = None,
        cost_model: CostModel | None = None,
        analyze: str | None = None,
    ):
        super().__init__(analyze=analyze)
        self.cache = cache if cache is not None else InspectorCache()
        self.cost_model = cost_model if cost_model is not None else DEFAULT_COST_MODEL

    # ------------------------------------------------------------------
    def _preprocess(
        self,
        loop: IrregularLoop,
        key: str | None = None,
        verdict=None,
        group: int | None = None,
        planned=None,
    ):
        """Serve the inspector record for ``loop``.

        Returns ``(record, hit, elided)``.  With an elidable ``verdict``
        (``analyze`` set), the record is built symbolically (no read term
        is classified against memory) and cached under the structure-only
        fingerprint; otherwise the runtime inspector path of
        :class:`InspectorCache` is used unchanged.

        With a ``group`` size (``run(group_sync=...)``, planned by the
        distance stage), the record's wavefronts are the distance groups
        ``i // group`` instead of the exact DAG levels — usually far fewer, far wider
        levels (:func:`repro.analysis.build_distance_record`).  This
        works even for verdicts that are *not* fully classified: a
        ``min-distance-k`` bound is enough.

        ``key`` is the loop's :func:`loop_fingerprint` when the caller
        has it.  ``planned`` is ``(record, hit)`` from the plan: served as
        is while the record's fingerprint is ``key``, so the cache is not
        consulted a second time.
        """
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
            return record, hit, False
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
            return record, hit, True
        if planned is not None and planned[0].fingerprint == key:
            return planned[0], planned[1], False
        record, hit = self.cache.get_or_build(loop, fingerprint=key)
        return record, hit, False

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
    def _execute(
        self, loop, key, order, verdict, strip, group,
        planned: tuple[InspectorRecord, bool] | None = None,
    ) -> Execution:
        rec = self._obs_recorder
        kernel.take_tally()  # report this run's spans only
        t0 = time.perf_counter()
        record, hit, elided = self._preprocess(
            loop, key, verdict, group, planned
        )
        t1 = time.perf_counter()
        if rec is not None:
            # The cache lookup/build window IS this backend's inspector
            # phase: Figure 3's preprocessing, amortized across hits (and
            # skipped entirely on the symbolic elision path).
            rec.record(
                "inspector", CAT_PHASE, t0, t1, lane=0,
                cache_hit=bool(hit), elided=elided,
            )
        y = self._walk(loop, record)
        return self._done(
            loop, record, y, hit, elided, t1 - t0, time.perf_counter() - t1
        )

    def schedule_model(self, loop, *, group_sync=None, **_options) -> Placement:
        # Wavefront order whatever ``order`` says; a group size >= 2
        # replaces the DAG levels by the distance groups (_preprocess).
        if group_sync is not None and group_sync >= 2:
            return Placement.groups(loop.n, group_sync, self.name)
        return level_placement(loop)

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
        key = loop_fingerprint(loop)
        t0 = time.perf_counter()
        verdict = resolve_verdict(loop, self.analyze)
        kernel.take_tally()
        record, hit, elided = self._preprocess(loop, key, verdict)
        t1 = time.perf_counter()
        y = loop.y0
        for k in range(instances):
            init = rhs_sequence[k] if rhs_sequence is not None else None
            y = self._walk(loop, record, y=y, init_values=init)
        t2 = time.perf_counter()

        done = self._done(loop, record, y, hit, elided, t1 - t0, t2 - t1)
        result = self._result(loop, done, verdict, t2 - t0)
        result.strategy = "vectorized-wavefront-amortized"
        result.sequential_cycles = instances * result.sequential_cycles
        result.extras["instances"] = instances
        result.extras["inspector_runs"] = 0 if (hit or elided) else 1
        return result

    # ------------------------------------------------------------------
    def _walk(
        self,
        loop: IrregularLoop,
        record: InspectorRecord,
        y: np.ndarray | None = None,
        init_values: np.ndarray | None = None,
    ) -> np.ndarray:
        """One execution against current values ``y`` (defaults to
        ``loop.y0``): one walk of the record's level-major order, renamed
        and copied back only when the record says so.  Returns the final
        ``y`` (a fresh array)."""
        reads, schedule, layout = loop.reads, record.schedule, record.layout
        init = None
        if loop.init_kind == INIT_EXTERNAL:
            init = init_values if init_values is not None else loop.init_values
        if layout is None:  # the identity order: the loop's own arrays
            write, ptr, index, start = loop.write, reads.ptr, reads.index, None
        else:
            write, ptr, index, start = (
                layout.write, layout.ptr, layout.index, layout.start
            )
        # ``out`` is a copy of the caller's values.  With an antidependence
        # it serves the old values during the walk, which writes only the
        # renamed buffer ``new``, and receives the new ones after it;
        # without one the walk reads and writes it in place.
        out = np.array(loop.y0 if y is None else y, dtype=np.float64)
        new = np.empty_like(out) if record.renames else out

        rec, san = self._obs_recorder, self._san_capture
        n_levels = schedule.n_levels
        if san is not None:
            # The walk below, as one span event of its one lane.
            san.lane(0).append(("s", schedule.order, record.codes))
        if rec is not None:
            t_exec = rec.now()
        kernel.run_span(
            schedule.order, record.codes, write, ptr, index, reads.coeff,
            init, out, new, new, start=start,
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
        if record.renames:
            out[loop.write] = new[loop.write]
        if rec is not None:
            # The copy-back of renamed values into y is this backend's
            # (tiny, or with nothing renamed, empty) postprocessor phase.
            rec.record("postprocessor", CAT_PHASE, t_post, rec.now(), lane=0)
        return out

    # ------------------------------------------------------------------
    def _done(
        self,
        loop: IrregularLoop,
        record: InspectorRecord,
        y: np.ndarray,
        hit: bool,
        elided: bool,
        preprocess_seconds: float,
        execute_seconds: float,
    ) -> Execution:
        schedule = record.schedule

        def finish(result: RunResult) -> None:
            """The level and cache extras and counters, after the timed
            window."""
            result.extras.update(
                {
                    "levels": schedule.n_levels,
                    "walk": {
                        "layout": "identity" if record.layout is None else "gathered",
                        "renamed": record.renames,
                    },
                    "max_width": schedule.max_width(),
                    "average_width": schedule.average_width(),
                    "cache_hit": hit,
                    "cache_hits_total": self.cache.hits,
                    "cache_misses_total": self.cache.misses,
                    "preprocess_seconds": preprocess_seconds,
                    "execute_seconds": execute_seconds,
                    "plan": record.plan.describe(),
                }
            )
            met = self._obs_metrics
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
                # stats() sums every cached record's bytes: observed runs only.
                cache_stats = self.cache.stats()
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

        return Execution(
            y,
            f"wavefront({schedule.n_levels} levels)",
            [kernel.take_tally()],
            elided,
            order_label=f"wavefront(levels={schedule.n_levels})",
            finish=finish,
        )
