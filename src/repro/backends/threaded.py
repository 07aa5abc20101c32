"""Real-thread backend: the doacross protocol on actual concurrency.

The paper's protocol is a *correctness* claim as much as a performance one:
with the inspector's ``iter`` array and per-element ``ready`` flags, any
interleaving of iterations across processors produces the sequential result.
This backend checks that claim on real ``threading`` threads.  It is the
lane protocol of :mod:`repro.backends.lanes` — the same phase tasks the
multiproc backend's worker processes run — over plain NumPy arrays
allocated per run (``iter``, a ``uint8`` ``ready`` flag per element,
``ynew``, ``y``).  Iterations are dealt cyclically (strips of one
position), so each thread executes its positions in increasing order (the
deadlock-freedom precondition, DESIGN.md §6); a ``threading.Barrier``
separates the phases and the distance-group rounds, and every blocking
wait is bounded by a :class:`~repro.backends.waitladder.WaitLadder`.

Under CPython's GIL these threads interleave rather than run in parallel,
which is why the *performance* experiments use the simulated backend
(DESIGN.md §3); ``wall_seconds`` is the measured wall clock of the run.

Observability: when the :class:`~repro.backends.hooks.Observe` hook
attaches a span recorder, each lane's inspector/executor/postprocessor
slices become phase spans, and the executor splits into alternating
``compute``/``wait`` spans at every *blocking* ``ready`` wait — the
children exactly tile their phase span, the measured analogue of the
simulated trace/stats accounting invariant (tested).  Flag-check /
busy-wait counters land in the unified metrics registry under the same
names the simulated :class:`~repro.machine.stats.ProcessorStats` uses.
"""

from __future__ import annotations

import threading
import time

import numpy as np

from repro.backends import kernel, lanes
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
from repro.backends.waitladder import WaitLadder
from repro.core.results import RunResult
from repro.core.sequential import sequential_time
from repro.core.workspace import MAXINT
from repro.ir.loop import INIT_EXTERNAL, IrregularLoop
from repro.machine.costs import CostModel

__all__ = ["ThreadedRunner"]

#: The thread ladder's first two rungs.  A polling thread holds the GIL
#: its writer needs, so a long spin only delays the post it waits for:
#: ten polls catch a flag set at the last GIL hand-off.  Its sleep exists
#: to hand the GIL over, not to free a core, so it starts as short as the
#: timer allows (any sleep took about 60 us where this was measured, so
#: 1 us means "the shortest").  On two vCPUs, against the process
#: ladder's 100 polls and 50 us, this took the wait-bound ``fig4_chain``
#: and ``trisolve_5pt`` call sequences from 585 to 297 and from 1,344 to
#: 724 ms; 0 to 30 polls were within noise of each other.
_SPIN, _SLEEP = 10, 1e-6


class ThreadedRunner(Runner):
    """Runs the preprocessed doacross on real Python threads.

    ``analyze="symbolic"`` consults the symbolic dependence engine
    (:func:`repro.analysis.analyze_loop`) first: when the write subscript
    is *proven* injective, the ``iter`` array is filled in closed form by
    the calling thread before any lane starts, and the inspector phase is
    skipped (zero inspector iterations).  ``analyze="symbolic+check"``
    additionally cross-checks the verdict against the runtime inspector
    on every run, raising :class:`~repro.errors.ProofError` on divergence.
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
        #: Ceiling (seconds) on any single blocking ``ready`` wait — the
        #: timeout rung of the run's :class:`WaitLadder`; a correct
        #: schedule sets every awaited flag, so exceeding this means the
        #: schedule is corrupted and :class:`WaitTimeout` is raised
        #: instead of hanging the run.
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
        if order is not None:
            order = np.asarray(order, dtype=np.int64)
            validate_execution_order(loop, order)
        y, tallies = self._execute(loop, order, elide, group)
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
        if self._obs_metrics is not None and self.analyze is not None:
            self._obs_metrics.count("inspector_elisions", 1 if elide else 0)
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
        # Strips of one position dealt to the threads (_execute).
        t = self.threads
        pos = execution_positions(loop.n, order)
        return Placement.flagged(
            pos, kernel.lane_of(pos, 1, t), 1, f"threaded({t} threads)"
        )

    def run_preprocessed(
        self, loop: IrregularLoop, order: np.ndarray | None = None
    ) -> RunResult:
        """Execute ``loop`` with ``self.threads`` threads; the final
        values are in ``.y``, equal to the sequential oracle (tested)."""
        return self.run(loop, order=order)

    def _execute(
        self,
        loop: IrregularLoop,
        order: np.ndarray | None,
        prefill: bool,
        group: int | None,
    ) -> tuple[np.ndarray, list]:
        """The lane protocol on this run's arrays; returns the final ``y``
        and each lane's :func:`kernel.take_tally`.

        With ``prefill`` (symbolic elision, write proven injective),
        ``iter`` is filled once on the calling thread and the inspector
        phase is skipped.  With ``group`` (a proven dependence-distance
        lower bound, natural order only), the executor runs one barrier
        round per group of ``group`` iterations and no flag is touched."""
        n = loop.n
        external = loop.init_kind == INIT_EXTERNAL
        views = {
            "write": loop.write,
            "ptr": loop.reads.ptr,
            "index": loop.reads.index,
            "coeff": loop.reads.coeff,
            "init": loop.init_values if external else None,
            "order": order,
            "y": loop.y0.copy(),
            "ynew": np.zeros(loop.y_size, dtype=np.float64),
            "iter": np.full(loop.y_size, MAXINT, dtype=np.int64),
            "ready": np.zeros(loop.y_size, dtype=np.uint8),
        }
        rec, san = self._obs_recorder, self._san_capture
        opts = {
            "chunk": 1,
            "workers": self.threads,
            "has_order": order is not None,
            "external": external,
            "observe": rec is not None,
            "ladder": WaitLadder(
                spin=_SPIN, sleep_initial=_SLEEP, timeout=self.wait_timeout
            ),
            "sanitize": san is not None,
            "window": (0, n),
        }
        if prefill:
            lanes.prefill(views["iter"], loop, None, rec, elided=True)
        plan = lanes.steps(n, group, prefill, opts)
        payloads = self._team(plan, views, n, self.threads)
        tallies = lanes.merge(plan, payloads, rec, self._obs_metrics, san)
        return views["y"], tallies

    @staticmethod
    def _team(plan: list, views: dict, n: int, workers: int) -> list:
        """Run every step of ``plan`` on ``workers`` threads, a barrier
        after each; returns each step's payloads, one per lane.  A lane
        that fails (or ships a sanitized timeout home) breaks the barrier,
        so no lane starts a step after it."""
        out = [[None] * workers for _ in plan]
        barrier = threading.Barrier(workers)
        failures: list[BaseException] = []

        def lane(wid: int) -> None:
            sess = {"views": views, "n": n, "codes": {}}
            try:
                for k, (kind, opts) in enumerate(plan):
                    out[k][wid] = payload = lanes.TASKS[kind](sess, opts, wid)
                    if "wait_timeout" in payload:
                        barrier.abort()
                        return
                    barrier.wait()
            except threading.BrokenBarrierError:
                pass
            except BaseException as exc:
                failures.append(exc)
                barrier.abort()

        threads = [
            threading.Thread(target=lane, args=(wid,), daemon=True)
            for wid in range(workers)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        if failures:
            raise failures[0]
        return out
