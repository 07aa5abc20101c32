"""Critical-path analysis of the dependence DAG, without building it.

The longest weighted path through the true-dependence DAG is a lower bound
on any parallel schedule's makespan; ``total_work / critical_path`` bounds
the achievable speedup regardless of processor count.  The benchmark reports
use these to show how close the preprocessed doacross (natural and
doconsider-reordered) comes to the structural limit of each problem.

Weights are per-iteration executor cycles (overhead + terms), so the bound
is in the same units as the simulated runs.
"""

from __future__ import annotations

import numpy as np

from repro.ir.loop import IrregularLoop
from repro.machine.costs import CostModel

__all__ = ["iteration_weights", "critical_path_cycles", "ideal_speedup"]


def iteration_weights(
    loop: IrregularLoop, cost_model: CostModel
) -> np.ndarray:
    """Executor cycle cost of each iteration (no waits, no dispatch)."""
    work = cost_model.effective_work(loop.work)
    term_counts = loop.reads.term_counts()
    return (
        cost_model.exec_iter_overhead
        + work.overhead
        + term_counts * (work.term + cost_model.dep_check)
        + cost_model.flag_set
    ).astype(np.int64)


def critical_path_cycles(loop: IrregularLoop, cost_model: CostModel) -> int:
    """A lower bound on any schedule's makespan from the dependence DAG.

    Dependence chains *pipeline*: a reader's setup work overlaps its
    writer's execution, so after the awaited flag flips only the post-wake
    cost remains (flag check + term consume + flag set).  The bound is
    therefore: iteration ``r`` finishes no earlier than the latest of (a)
    its own full weight and (b) any earlier writer's finish plus the
    minimal post-wake step — one sweep of the max-plus recurrence
    (:func:`repro.backends.native.max_plus`) with ``start = weights −
    step`` and ``step``.
    """
    from repro.backends import native  # that package imports repro.graph

    weights = iteration_weights(loop, cost_model)
    work = cost_model.effective_work(loop.work)
    step = cost_model.flag_check + work.term_consume + cost_model.flag_set
    reads = loop.reads
    finish, _, _ = native.max_plus(
        reads.ptr, reads.index, loop.y_size,
        write=loop.write, start=weights - step, step=step,
    )
    return int(finish.max()) if loop.n else 0


def ideal_speedup(loop: IrregularLoop, cost_model: CostModel) -> float:
    """Structural speedup bound: total executor work over the critical path.

    This ignores inspector/postprocessor/barrier overheads and assumes
    unlimited processors — an optimistic ceiling the measured runs must stay
    under (tested invariant).
    """
    if loop.n == 0:
        return 1.0
    total = int(iteration_weights(loop, cost_model).sum())
    path = critical_path_cycles(loop, cost_model)
    if path == 0:
        return 1.0
    return total / path
