"""Real-thread backend: the doacross protocol on actual concurrency.

The paper's protocol is a *correctness* claim as much as a performance one:
with the inspector's ``iter`` array and per-element ``ready`` flags, any
interleaving of iterations across processors produces the sequential result.
This backend checks that claim on real ``threading`` threads — per-element
``threading.Event`` objects play the ``ready`` flags, a ``threading.Barrier``
separates the three phases, and iterations are distributed cyclically so
each thread executes its positions in increasing order (the deadlock-freedom
precondition, DESIGN.md §6).

No timing is reported: under CPython's GIL these threads interleave rather
than run in parallel, which is exactly why the *performance* experiments use
the simulated backend instead (DESIGN.md §3).

Observability: when the :class:`~repro.backends.hooks.Observe` hook
attaches a span recorder, each worker emits wall-clock spans for its
inspector/executor/postprocessor slices, and the executor additionally
splits into alternating ``compute``/``wait`` spans at every *blocking*
``ready`` wait — by construction the children exactly tile their phase
span, the measured analogue of the simulated trace/stats accounting
invariant (tested).  Flag-check / busy-wait counters land in the unified
metrics registry under the same names the simulated
:class:`~repro.machine.stats.ProcessorStats` uses.
"""

from __future__ import annotations

import threading
import time

import numpy as np

from repro.backends import kernel
from repro.backends.kernel import Placement
from repro.backends.base import (
    NON_NATURAL_GROUP,
    Runner,
    check_analyze_mode,
    check_group_sync,
    execution_positions,
    note_ignored_options,
    note_kernel,
    note_verdict,
    resolve_verdict,
    validate_execution_order,
)
# A module, not names: ``cache`` is still initialising when the package
# import reaches this one (cache → core → core.verify → threaded).
from repro.backends import cache as inspector_cache
from repro.core.results import RunResult
from repro.core.sequential import sequential_time
from repro.core.workspace import MAXINT
from repro.errors import WaitTimeout
from repro.ir.loop import INIT_EXTERNAL, IrregularLoop
from repro.machine.costs import CostModel
from repro.obs.spans import CAT_PHASE

__all__ = ["ThreadedRunner"]


class ThreadedRunner(Runner):
    """Runs the preprocessed doacross on real Python threads.

    ``analyze="symbolic"`` consults the symbolic dependence engine
    (:func:`repro.analysis.analyze_loop`) first: when the write subscript
    is *proven* injective, the ``iter`` array is filled in closed form by
    the main thread before any worker starts, and the workers skip their
    phase-1 inspector loops entirely (zero inspector iterations).
    ``analyze="symbolic+check"`` additionally cross-checks the verdict
    against the runtime inspector on every run, raising
    :class:`~repro.errors.ProofError` on divergence.
    """

    name = "threaded"

    def __init__(
        self,
        threads: int = 4,
        analyze: str | None = None,
        wait_timeout: float = 60.0,
    ):
        if threads < 1:
            raise ValueError(f"need at least one thread, got {threads}")
        if wait_timeout <= 0:
            raise ValueError(
                f"wait_timeout must be > 0, got {wait_timeout}"
            )
        self.threads = threads
        self.analyze = check_analyze_mode(analyze)
        #: Ceiling (seconds) on any single blocking ``ready`` wait; a
        #: correct schedule sets every awaited flag, so exceeding this
        #: means the schedule is corrupted and :class:`WaitTimeout` is
        #: raised instead of hanging the pool (same contract as the
        #: multiproc backend's WaitLadder).
        self.wait_timeout = wait_timeout

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
        """Execute ``loop`` on real threads and return a
        :class:`RunResult` (measured wall clock; no cycle model — the GIL
        forbids timing claims, DESIGN.md §3).

        Iterations are always distributed cyclically (the deadlock-freedom
        precondition), so ``schedule``/``chunk`` are ignored; ``trace`` has
        no simulated timeline to record and is ignored too.  Every ignored
        option is recorded in ``result.extras["ignored_options"]``.
        """
        check_group_sync(loop, group_sync)
        # Hashing checks ``write`` is injective; free once the loop is.
        inspector_cache.loop_fingerprint(loop)
        verdict = resolve_verdict(loop, self.analyze)
        # Prefilling iter in closed form is sound exactly when no two
        # iterations write one element — which the verdict proves.
        elide = verdict is not None and verdict.write_injective
        group, group_refused = self._group(order, group_sync)
        t0 = time.perf_counter()
        y, tallies = self._execute(
            loop, order=order, prefill_iter=elide, group=group
        )
        wall = time.perf_counter() - t0
        cm = CostModel()
        result = RunResult(
            loop_name=loop.name,
            strategy="threaded-doacross",
            processors=self.threads,
            y=y,
            total_cycles=0,
            sequential_cycles=sequential_time(loop, cm),
            cost_model=cm,
            schedule=f"cyclic({self.threads} threads)",
            wall_seconds=wall,
        )
        note_verdict(result, self.analyze, verdict, elide)
        note_kernel(result, self._obs_metrics, tallies)
        if group is not None:
            result.extras["distance_group"] = int(group)
        ignored = {}
        cyclic_reason = (
            "the threaded backend always distributes iterations cyclically "
            "(deadlock-freedom precondition, DESIGN.md §6)"
        )
        if schedule is not None:
            ignored["schedule"] = (schedule, cyclic_reason)
        if chunk is not None:
            ignored["chunk"] = (chunk, cyclic_reason)
        if trace:
            ignored["trace"] = (
                True,
                "no simulated timeline exists on real threads; use "
                "observe=True for wall-clock spans",
            )
        if group_refused:
            ignored["group_sync"] = (group_sync, group_refused)
            if self._obs_metrics is not None:
                self._obs_metrics.count("sync_elision_fallbacks", 1)
        note_ignored_options(result, self.name, **ignored)
        return result

    @staticmethod
    def _group(order, group_sync: int | None) -> tuple[int | None, str]:
        """The group size that runs, and why a requested one does not:
        group-synchronous elision (``plan_distance_elision``) is only sound
        in natural order — the distance bound is on iteration numbers."""
        if group_sync is None or order is None:
            return group_sync, ""
        return None, NON_NATURAL_GROUP

    def schedule_model(
        self, loop, *, order=None, group_sync=None, **_options
    ) -> Placement:
        group = self._group(order, group_sync)[0]
        if group is not None:
            return Placement.groups(loop.n, group, self.name)
        # Strips of one position dealt to the threads that run (_execute).
        t = min(self.threads, max(loop.n, 1))
        pos = execution_positions(loop.n, order)
        return Placement.flagged(
            pos, kernel.lane_of(pos, 1, t), 1, f"threaded({t} threads)"
        )

    def run_preprocessed(
        self, loop: IrregularLoop, order: np.ndarray | None = None
    ) -> RunResult:
        """Execute ``loop`` with ``self.threads`` threads.

        Returns a :class:`RunResult` like every other runner (the final
        values are in ``.y``, semantically equal to the sequential oracle —
        tested).  Prior releases returned the bare ``y`` array.
        """
        return self.run(loop, order=order)

    def _execute(
        self,
        loop: IrregularLoop,
        order: np.ndarray | None = None,
        prefill_iter: bool = False,
        group: int | None = None,
    ) -> tuple[np.ndarray, list]:
        """The three-phase protocol on real threads; returns final ``y``
        and each thread's :func:`kernel.take_tally`.

        With ``prefill_iter`` (symbolic elision, write proven injective),
        ``iter`` is filled once on the calling thread and the workers skip
        phase 1.  With ``group`` (a proven dependence-distance lower
        bound, natural order only), the executor runs group-synchronously:
        no per-element ready flags at all — every cross-iteration true
        dependence is proven to reach into a strictly earlier group, so
        one barrier per group of ``group`` iterations discharges every
        wait and nothing is posted."""
        if order is not None:
            order = np.asarray(order, dtype=np.int64)
            validate_execution_order(loop, order)

        n = loop.n
        t_count = min(self.threads, max(n, 1))
        write = loop.write
        ptr, r_idx, r_coeff = loop.reads.ptr, loop.reads.index, loop.reads.coeff
        init = loop.init_values if loop.init_kind == INIT_EXTERNAL else None

        y = loop.y0.copy()
        ynew = np.zeros(loop.y_size, dtype=np.float64)
        iter_arr = np.full(loop.y_size, MAXINT, dtype=np.int64)
        if prefill_iter:
            # Closed-form inspector: injectivity is proven, so no fill
            # order matters and the workers' phase-1 loops are skipped.
            iter_arr[write] = np.arange(n, dtype=np.int64)
        # Group-synchronous runs never touch per-element flags.
        ready = (
            None
            if group is not None
            else [threading.Event() for _ in range(loop.y_size)]
        )
        n_groups = 0 if group is None else -(-n // group)
        barrier = threading.Barrier(t_count)
        failures: list[BaseException] = []
        failure_lock = threading.Lock()
        tallies: list[tuple] = []
        rec = self._obs_recorder
        met = self._obs_metrics
        san = self._san_capture

        def wait(idx) -> None:
            # Bounded form of the Figure-5 busy-wait: a correct schedule
            # always sets the flag, so an expired deadline means the
            # schedule (or iter array) is corrupted — diagnose, don't hang.
            if not ready[idx].wait(self.wait_timeout):
                raise WaitTimeout(
                    f"busy-wait on element {idx} exceeded "
                    f"{self.wait_timeout:g}s; the schedule (or its iter "
                    f"array) is corrupted — a correct doacross schedule "
                    f"sets every awaited ready flag",
                    element=int(idx),
                    waited_seconds=self.wait_timeout,
                )

        def post(w) -> None:
            ready[w].set()

        def worker(tid: int) -> None:
            busy_waits = 0
            wait_seconds = 0.0
            events = None if san is None else san.lane(tid)
            # Span rows buffer locally (plain tuples, no lock, no object
            # construction) and flush in one record_batch call at the end —
            # per-span locking in the executor hot loop would double the
            # wall time of wait-heavy runs (tested budget: <10% overhead).
            # Blocking waits are even leaner: one (w0, w1, element) triple
            # per wait, expanded into the compute/wait tiling at drain time.
            buf: list[tuple] = []
            waits: list[tuple] = []
            now = time.perf_counter

            def timed_wait(idx) -> None:
                # The observed run's wait: a blocking busy-wait notes its
                # interval; the compute/wait span tiling is expanded from
                # these triples at drain time.
                nonlocal busy_waits, wait_seconds
                if ready[idx].is_set():
                    return
                busy_waits += 1
                w0 = now()
                wait(idx)
                w1 = now()
                waits.append((w0, w1, idx))
                wait_seconds += w1 - w0

            try:
                # Cyclic deal = strips of one position; each thread walks
                # its positions in increasing order.
                positions = kernel.lane_positions(0, n, 1, t_count, tid)
                its = positions if order is None else order[positions]

                # Phase 1: inspector — each thread fills its slice of iter
                # (skipped entirely when the symbolic proof prefilled it).
                if rec is not None:
                    t_phase = now()
                if not prefill_iter:
                    iter_arr[write[its]] = its
                if rec is not None:
                    buf.append((
                        "inspector", CAT_PHASE, t_phase, now(), tid,
                        {"elided": prefill_iter},
                    ))
                if events is not None:
                    events.append(("b", 0))
                barrier.wait()

                # Phase 2: executor (Figure 5).  When observed, the
                # blocking waits split the phase into compute/wait spans
                # that exactly tile it.
                if rec is not None:
                    t_phase = now()
                codes = kernel.classify_terms(ptr, r_idx, iter_arr, its, 1)
                n_waits = int(np.count_nonzero(codes == kernel.WAIT))
                span = (write, ptr, r_idx, r_coeff, init, y, ynew, ynew)
                if group is None:
                    kernel.run_span(
                        its, codes, *span, events=events, post=post,
                        wait=wait if rec is None else timed_wait,
                    )
                else:
                    # One barrier per group stands in for every post/wait
                    # pair: the proven distance bound puts each renamed
                    # read's writer in a strictly earlier group.
                    cuts = np.searchsorted(
                        positions, np.arange(n_groups + 1) * group
                    )
                    cur = 0
                    for gk in range(n_groups):
                        cur = kernel.run_span(
                            its[cuts[gk]:cuts[gk + 1]], codes, *span,
                            cur=cur, events=events,
                        )
                        if events is not None:
                            events.append(("b", ("g", gk)))
                        barrier.wait()
                tallies.append(kernel.take_tally())
                if rec is not None:
                    t_end = now()
                    buf.append(
                        ("executor", CAT_PHASE, t_phase, t_end, tid, None)
                    )
                    rec.record_wait_segments(tid, t_phase, t_end, waits)
                if events is not None:
                    events.append(("b", 1))
                barrier.wait()

                # Phase 3: postprocessor — reset scratch, copy back.
                if rec is not None:
                    t_phase = now()
                for w in write[its]:
                    iter_arr[w] = MAXINT
                    y[w] = ynew[w]
                    if ready is not None:
                        ready[w].clear()
                if rec is not None:
                    buf.append(
                        ("postprocessor", CAT_PHASE, t_phase, now(), tid, None)
                    )
                    rec.record_batch(buf)
                if met is not None:
                    flagged = group is None
                    met.count("flag_checks", n_waits if flagged else 0)
                    met.count("flag_sets", len(its) if flagged else 0)
                    met.count("busy_waits", busy_waits)
                    met.count("wait_seconds", wait_seconds)
                    met.count("iterations", len(its))
                    met.count(
                        "inspector_iterations", 0 if prefill_iter else len(its)
                    )
                    if not flagged:
                        # sync_elisions = posts never set (one per
                        # iteration) + waits never performed (one per
                        # cross-iteration renamed read).
                        met.count("sync_elisions", len(its) + n_waits)
                        if tid == 0:
                            met.count("group_barriers", n_groups)
            except BaseException as exc:  # pragma: no cover - defensive
                with failure_lock:
                    failures.append(exc)
                barrier.abort()

        threads = [
            threading.Thread(target=worker, args=(tid,), daemon=True)
            for tid in range(t_count)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        if failures:
            # A worker that dies aborts the barrier, so sibling threads
            # fail with BrokenBarrierError; surface the root cause.
            for exc in failures:
                if not isinstance(exc, threading.BrokenBarrierError):
                    raise exc
            raise failures[0]
        return y, tallies
