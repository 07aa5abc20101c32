"""Sequential oracle and sequential cost model.

``T_seq`` in the paper is "the time required to solve a problem using an
optimized sequential version" — the *original* loop of Figure 1/4/7, with no
dependence checks, no renaming, no flags.  :func:`sequential_time` charges
exactly those costs; :func:`run_reference` wraps the value-level oracle in a
:class:`~repro.core.results.RunResult` so sequential rows fit the same
report tables as parallel runs.
"""

from __future__ import annotations

import numpy as np

from repro.core.results import RunResult
from repro.ir.loop import IrregularLoop
from repro.machine.costs import DEFAULT_COST_MODEL, CostModel

__all__ = ["sequential_time", "run_reference"]


def sequential_time(loop: IrregularLoop, cost_model: CostModel) -> int:
    """Simulated cycles of the optimized sequential loop.

    Vectorized: ``Σ_i (overhead + terms_i · term)`` with the loop's own
    :class:`~repro.machine.costs.WorkProfile` (or the model's default).
    """
    work = cost_model.effective_work(loop.work)
    return int(loop.n * work.overhead + loop.reads.total_terms * work.term)


def run_reference(
    loop: IrregularLoop, cost_model: CostModel | None = None
) -> RunResult:
    """Execute the loop sequentially; the semantic and timing reference."""
    cm = cost_model if cost_model is not None else DEFAULT_COST_MODEL
    y = loop.run_sequential()
    cycles = sequential_time(loop, cm)
    return RunResult(
        loop_name=loop.name,
        strategy="sequential",
        processors=1,
        y=np.asarray(y),
        total_cycles=cycles,
        sequential_cycles=cycles,
        cost_model=cm,
        schedule="none",
    )
