"""Real-thread backend: the doacross protocol on actual concurrency.

The paper's protocol is a *correctness* claim as much as a performance one:
with the inspector's ``iter`` array and per-element ``ready`` flags, any
interleaving of iterations across processors produces the sequential result.
This backend checks that claim on real ``threading`` threads.  It is the
:class:`~repro.backends.lanes.LaneRunner` — the phase tasks, strip rules
and run sequence of the multiproc backend's worker processes — over plain
NumPy arrays allocated per run (``iter``, a ``uint8`` ``ready`` flag per
element, ``ynew``, ``y``).  Iterations are dealt cyclically (strips of
one position), so each thread executes its positions in increasing order
(the deadlock-freedom precondition, DESIGN.md §6); a ``threading.Barrier``
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

import numpy as np

from repro.backends import lanes
from repro.backends.waitladder import WaitLadder
from repro.core.workspace import MAXINT
from repro.ir.loop import INIT_EXTERNAL, IrregularLoop

__all__ = ["ThreadedRunner"]


class ThreadedRunner(lanes.LaneRunner):
    """Runs the preprocessed doacross on real Python threads.

    Iterations are always distributed cyclically (strips of one
    position, the deadlock-freedom precondition), so the ``schedule`` and
    ``chunk`` run options are ignored; ``trace`` has no simulated
    timeline to record and is ignored too (each noted in
    ``extras["ignored_options"]``).  No cycle model: the GIL forbids
    timing claims (DESIGN.md §3).

    ``analyze="symbolic"`` consults the symbolic dependence engine
    (:func:`repro.analysis.analyze_loop`) first: when the write subscript
    is *proven* injective, the ``iter`` array is filled in closed form by
    the calling thread before any lane starts, and the inspector phase is
    skipped (zero inspector iterations).  ``analyze="symbolic+check"``
    additionally cross-checks the verdict against the runtime inspector
    on every run, raising :class:`~repro.errors.ProofError` on divergence.
    """

    name = "threaded"
    strategy = "threaded-doacross"
    schedule_format = "cyclic({workers} threads)"
    label_format = "threaded({workers} threads)"

    def __init__(
        self,
        threads: int = 4,
        analyze: str | None = None,
        wait_timeout: float = 60.0,
    ):
        super().__init__(threads, analyze=analyze)
        if wait_timeout <= 0:
            raise ValueError(
                f"wait_timeout must be > 0, got {wait_timeout}"
            )
        self.threads = threads
        #: Ceiling (seconds) on any single blocking ``ready`` wait — the
        #: timeout rung of :attr:`ladder`; a correct schedule sets every
        #: awaited flag, so exceeding this means the schedule is
        #: corrupted and :class:`WaitTimeout` is raised instead of
        #: hanging the run.
        self.wait_timeout = wait_timeout
        self.ladder = WaitLadder(timeout=wait_timeout)

    def _strip(self, n: int, chunk: int | None) -> int:
        return 1

    def _open(self, loop: IrregularLoop, key: str, order) -> dict:
        external = loop.init_kind == INIT_EXTERNAL
        return {
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

    def _close(self, views: dict) -> np.ndarray:
        return views["y"]

    def _phases(self, plan: list, views: dict, n: int) -> list:
        """Every step of ``plan`` on ``workers`` threads, a barrier after
        each.  A lane that fails (or ships a sanitized timeout home)
        breaks the barrier, so no lane starts a step after it."""
        workers = self.workers
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
