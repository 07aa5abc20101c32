"""Extension experiment ("Table 2"): amortization over repeated solves.

The paper's triangular solves live inside Krylov iterations: the *same*
loop executes tens of times per factorization.  This experiment extends
Table 1 with the amortized execution modes that context enables, reporting
**per-solve** simulated time over ``k`` consecutive solves of each
Table-1 problem:

- ``full``        — the Table-1 baseline: full inspector/executor/
  postprocessor pipeline every solve, natural order;
- ``reordered``   — full pipeline in doconsider order, wavefront
  computation charged once and spread over the ``k`` solves;
- ``amortized``   — single inspector shared across solves (reduced
  between-instance postprocessor), natural order;
- ``amort+reord`` — both: shared inspector, doconsider order, one
  wavefront computation over ``k`` solves.

Expected (and asserted) shape: each column improves on the previous for
the chain-dominated point-stencil problems, and ``amort+reord`` wins
everywhere.

Run: ``python -m repro table2 [--small] [k]``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.bench.harness import ExperimentRow, require
from repro.bench.reporting import format_table
from repro.core.amortized import AmortizedDoacross
from repro.core.doacross import PreprocessedDoacross
from repro.core.doconsider import Doconsider, modeled_reorder_cycles
from repro.graph.levels import compute_levels
from repro.machine.costs import DEFAULT_COST_MODEL, CostModel
from repro.sparse.ilu import ilu0
from repro.sparse.spe import paper_problems
from repro.sparse.trisolve import lower_solve_loop, solve_lower_unit

__all__ = ["AmortizedTableResult", "run_amortized_table"]

MODES = ("full", "reordered", "amortized", "amort+reord")


@dataclass
class AmortizedTableResult:
    """Per-solve cycles for each problem × execution mode."""

    processors: int
    instances: int
    small: bool
    rows: list[ExperimentRow] = field(default_factory=list)

    def check_shape(self) -> None:
        """Shape assertions.

        Always: inspector amortization helps (``amortized < full``) and
        composes with reordering (``amort+reord < reordered``).  At full
        problem sizes additionally: ``amort+reord`` beats the full
        pipeline, a reordered mode is the overall cheapest, and the
        chain-dominated 5-PT stencil gains the most (more than 1.5x).  (On
        the reduced test grids the one-time wavefront computation can
        legitimately outweigh the savings over few instances — which is
        itself the point of amortizing it.)
        """
        for r in self.rows:
            per_solve = {m: r.metrics[m] for m in MODES}
            if per_solve["amortized"] >= per_solve["full"]:
                raise AssertionError(
                    f"{r.label}: inspector amortization did not help"
                )
            if per_solve["amort+reord"] >= per_solve["reordered"]:
                raise AssertionError(
                    f"{r.label}: amortization does not compose with "
                    f"reordering"
                )
            if self.small:
                continue
            best = min(per_solve, key=per_solve.get)
            if per_solve["amort+reord"] > per_solve["full"]:
                raise AssertionError(
                    f"{r.label}: amort+reord ({per_solve['amort+reord']:.0f}) "
                    f"worse than full pipeline ({per_solve['full']:.0f})"
                )
            if best not in ("amort+reord", "reordered"):
                raise AssertionError(
                    f"{r.label}: cheapest mode is {best}, expected a "
                    f"reordered mode"
                )
        if not self.small:
            gains = {
                r.label: r.metrics["full"] / r.metrics["amort+reord"]
                for r in self.rows
            }
            require(
                gains["5-PT"] == max(gains.values()) and gains["5-PT"] > 1.5,
                f"5-PT gain {gains['5-PT']:.2f} is not the largest, or not "
                f"above 1.5",
            )

    def report(self) -> str:
        table_rows = [
            (
                r.label,
                r.params["n"],
                round(r.metrics["full"]),
                round(r.metrics["reordered"]),
                round(r.metrics["amortized"]),
                round(r.metrics["amort+reord"]),
                r.metrics["full"] / r.metrics["amort+reord"],
            )
            for r in self.rows
        ]
        return format_table(
            [
                "problem",
                "n",
                "full/solve",
                "reord/solve",
                "amort/solve",
                "amort+reord",
                "gain",
            ],
            table_rows,
            title=(
                f'"Table 2" — per-solve cycles over {self.instances} '
                f"consecutive solves (P={self.processors}"
                f"{', reduced grids' if self.small else ''})"
            ),
        )


def run_amortized_table(
    processors: int = 16,
    instances: int = 10,
    small: bool = False,
    cost_model: CostModel | None = None,
) -> AmortizedTableResult:
    """Run the amortization experiment over the Table-1 problems."""
    cm = cost_model if cost_model is not None else DEFAULT_COST_MODEL
    runner = PreprocessedDoacross(processors=processors, cost_model=cm)
    amortized_runner = AmortizedDoacross(doacross=runner)
    doconsider = Doconsider(doacross=runner)
    out = AmortizedTableResult(
        processors=processors, instances=instances, small=small
    )

    for name, A in paper_problems(small=small).items():
        L, _ = ilu0(A)
        rhs = np.ones(A.n_rows)
        loop = lower_solve_loop(L, rhs, name=name)
        reference = solve_lower_unit(L, rhs)
        schedule = compute_levels(loop)
        reorder_once = modeled_reorder_cycles(
            loop, processors, schedule=schedule
        )

        # Mode 1: full pipeline, natural order (the Table-1 baseline).
        full = runner.run(loop)
        assert np.allclose(full.y, reference)

        # Mode 2: full pipeline, doconsider order; reorder charged once.
        reordered = doconsider.run(loop)
        assert np.allclose(reordered.y, reference)
        reordered_per_solve = reordered.total_cycles + reorder_once / instances

        # Mode 3: amortized inspector, natural order.
        amortized = amortized_runner.run(loop, instances)
        assert np.allclose(amortized.y, reference)  # external init: last
        amortized_per_solve = amortized.total_cycles / instances

        # Mode 4: amortized inspector + doconsider order.
        both = amortized_runner.run(
            loop,
            instances,
            order=schedule.order,
            order_label=f"doconsider(levels={schedule.n_levels})",
        )
        assert np.allclose(both.y, reference)
        both_per_solve = (both.total_cycles + reorder_once) / instances

        out.rows.append(
            ExperimentRow(
                label=name,
                params={"n": A.n_rows, "levels": schedule.n_levels},
                result=full,
                metrics={
                    "full": float(full.total_cycles),
                    "reordered": float(reordered_per_solve),
                    "amortized": float(amortized_per_solve),
                    "amort+reord": float(both_per_solve),
                    # The integer totals those per-solve costs divide.
                    "reorder_once_cycles": reorder_once,
                    "reordered_cycles": reordered.total_cycles,
                    "amortized_cycles": amortized.total_cycles,
                    "amort_reord_cycles": both.total_cycles,
                },
            )
        )
    return out
