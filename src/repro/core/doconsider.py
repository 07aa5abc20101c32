"""The doconsider transformation: wavefront iteration reordering.

Paper §3.2: "A modified loop was produced by carrying out the loop
iterations in a more advantageous order.  This reordering of loop iterations
leaves the inter-iteration dependencies unchanged but reduces the effects of
these dependencies on performance."  The mechanism — reference [4], *The
Doconsider Loop* — schedules iterations level by level through the
true-dependence DAG: all iterations whose dependencies are satisfied form a
wavefront and run concurrently.

Here the reordering composes with the preprocessed doacross exactly as in
the paper: the executor still resolves every reference at run time through
``iter``/``ready`` (synchronization is *not* removed), but because whole
wavefronts are adjacent in the new order, processors almost never arrive at
a ``ready`` flag before its writer has finished.

Cost accounting: the wavefront computation is itself runtime preprocessing.
For triangular solves it is amortized over the many solves performed per
factorization (the standard practice in the Saltz et al. line of work), so
by default it is *reported* (``extras["reorder_cycles_modeled"]``) but not
added to the makespan; pass ``include_reorder_cost=True`` to charge it.
"""

from __future__ import annotations

import numpy as np

from repro.core.doacross import PreprocessedDoacross
from repro.core.results import RunResult
from repro.graph.depgraph import DependenceGraph
from repro.graph.levels import LevelSchedule, compute_levels
from repro.ir.loop import IrregularLoop

__all__ = ["level_order", "Doconsider"]


def level_order(loop: IrregularLoop) -> tuple[np.ndarray, LevelSchedule]:
    """Wavefront execution order for ``loop``.

    Returns ``(order, schedule)``: ``order[p]`` is the original iteration to
    run at position ``p``; ``schedule`` carries the level decomposition.
    """
    schedule = compute_levels(loop)
    return schedule.order, schedule


def modeled_reorder_cycles(
    loop: IrregularLoop,
    graph: DependenceGraph,
    processors: int,
    schedule: LevelSchedule | None = None,
    item_cycles: int = 4,
    barrier_cycles: int | None = None,
) -> int:
    """Modeled cost of computing the wavefronts at run time.

    The standard parallel algorithm (as in reference [4]): initialize
    in-degrees (touch every iteration and edge once, fully parallel), then
    peel frontiers — each round emits the current zero-in-degree set and
    decrements its out-edges, with a barrier per round.  The rounds
    serialize across levels, so the modeled cost is::

        ceil((n + edges)/P)·c  +  Σ_levels [ceil((|level| + out_edges)/P)·c + B]

    where ``c`` is the per-touched-item cost and ``B`` the barrier.  Deep
    DAGs (many levels) therefore pay real preprocessing — the reason this
    cost is amortized over repeated solves rather than paid per solve.
    """
    if schedule is None:
        schedule = compute_levels(graph)
    if barrier_cycles is None:
        barrier_cycles = 20 + 4 * processors  # CostModel.barrier defaults

    def share(work: int) -> int:
        return -(-work // processors) * item_cycles  # ceil division

    total = share(loop.n + graph.edge_count) + barrier_cycles
    out_degrees = graph.out_degrees()
    for k in range(schedule.n_levels):
        members = schedule.order[
            schedule.level_ptr[k] : schedule.level_ptr[k + 1]
        ]
        frontier_work = len(members) + int(out_degrees[members].sum())
        total += share(frontier_work) + barrier_cycles
    return total


class Doconsider:
    """Preprocessed doacross with doconsider (level) reordering.

    Wraps a :class:`~repro.core.doacross.PreprocessedDoacross`; see module
    docstring for the reorder-cost accounting convention.
    """

    def __init__(
        self,
        doacross: PreprocessedDoacross | None = None,
        include_reorder_cost: bool = False,
        **doacross_kwargs,
    ):
        self.doacross = (
            doacross
            if doacross is not None
            else PreprocessedDoacross(**doacross_kwargs)
        )
        self.include_reorder_cost = include_reorder_cost

    def run(self, loop: IrregularLoop, **run_kwargs) -> RunResult:
        """Compute the wavefront order and run the preprocessed doacross in
        it; level counts, widest wavefront, and the modeled reorder cost
        land in ``result.extras``."""
        graph = DependenceGraph.from_loop(loop)
        schedule = compute_levels(graph)
        order = schedule.order
        result = self.doacross.run(
            loop,
            order=order,
            order_label=f"doconsider(levels={schedule.n_levels})",
            **run_kwargs,
        )
        result.strategy = "doconsider-doacross"
        reorder_cycles = modeled_reorder_cycles(
            loop,
            graph,
            self.doacross.machine.processors,
            schedule=schedule,
        )
        result.extras["reorder_cycles_modeled"] = reorder_cycles
        result.extras["n_levels"] = schedule.n_levels
        result.extras["max_wavefront"] = schedule.max_width()
        if self.include_reorder_cost:
            result.total_cycles += reorder_cycles
            result.extras["reorder_cost_included"] = True
        return result
