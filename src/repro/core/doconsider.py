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

The reordering is :class:`~repro.core.doacross.PreprocessedDoacross`'s
``reorder="doconsider"`` (``PlanSpec(reorder="doconsider")`` on the
planned path); this module holds its cost model.

Cost accounting: the wavefront computation is itself runtime preprocessing.
For triangular solves it is amortized over the many solves performed per
factorization (the standard practice in the Saltz et al. line of work), so
a doconsider run *reports* it (``extras["reorder_cycles_modeled"]``) and
never adds it to the makespan; the amortization experiment (``table2``)
charges it once per ``k`` solves itself.
"""

from __future__ import annotations

import numpy as np

from repro.graph.levels import LevelSchedule, compute_levels
from repro.ir.analysis import dependence_pairs
from repro.ir.loop import IrregularLoop

__all__ = ["modeled_reorder_cycles"]


def modeled_reorder_cycles(
    loop: IrregularLoop,
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
    ``edges`` counts the loop's
    :func:`~repro.ir.analysis.dependence_pairs`, and a level's out-edges
    are the pairs whose writer it holds.
    """
    pairs = dependence_pairs(loop)
    if schedule is None:
        schedule = compute_levels(loop)
    if barrier_cycles is None:
        barrier_cycles = 20 + 4 * processors  # CostModel.barrier defaults

    def share(work):
        return -(-work // processors) * item_cycles  # ceil division

    frontier_work = schedule.level_sizes() + np.bincount(
        schedule.levels[pairs[:, 0]], minlength=schedule.n_levels
    )
    return (
        share(loop.n + len(pairs))
        + int(share(frontier_work).sum())
        + (schedule.n_levels + 1) * barrier_cycles
    )
