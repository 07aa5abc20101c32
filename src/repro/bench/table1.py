"""Table 1: preprocessed doacross times for sparse triangular matrices.

Regenerates the paper's Table 1: for each of the five test problems (SPE2,
SPE5, 5-PT, 7-PT, 9-PT), the time of

- the **preprocessed doacross** in natural iteration order,
- the **preprocessed doacross after doconsider rearrangement** (wavefront
  order), and
- the **optimized sequential** solve,

all for the Figure-7 forward substitution on the unit-lower ILU(0) factor,
on 16 simulated processors.

Shape acceptance (DESIGN.md §2, enforced by :meth:`Table1Result.check_shape`):
for every matrix ``T_seq > T_plain ≥ T_reordered``; plain efficiencies land
in a low band and reordered efficiencies in a higher band (the paper reports
0.32–0.46 and 0.63–0.75 respectively), and at the paper's sizes reordering
buys the chain-dominated 5-PT solve more than 1.5x (paper: 37/19 ≈ 1.9).

Run: ``python -m repro table1 [--small] [--json PATH]`` (``--small``:
reduced grids, a fast smoke version).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.bench.harness import ExperimentRow, check_within, require
from repro.bench.reporting import format_table
from repro.core.doacross import PreprocessedDoacross
from repro.machine.costs import CostModel
from repro.sparse.ilu import ilu0
from repro.sparse.spe import paper_problems
from repro.sparse.trisolve import lower_solve_loop, solve_lower_unit

__all__ = ["Table1Result", "run_table1", "PAPER_TABLE1"]

#: The paper's Table 1, for side-by-side reporting:
#: name -> (doacross_ms, rearranged_ms, sequential_ms).
PAPER_TABLE1 = {
    "SPE2": (34, 21, 223),
    "SPE5": (45, 23, 241),
    "5-PT": (37, 19, 192),
    "7-PT": (84, 56, 616),
    "9-PT": (97, 58, 698),
}

#: Acceptance bands for the measured efficiencies (full-size problems).
PLAIN_BAND = (0.20, 0.65)
REORDERED_BAND = (0.50, 0.80)
#: The headline effect, full size: natural / reordered time on 5-PT.
MIN_5PT_REORDER_GAIN = 1.5


@dataclass
class Table1Result:
    """Measured rows of the Table-1 experiment."""

    processors: int
    small: bool
    rows: list[ExperimentRow] = field(default_factory=list)

    def row(self, name: str) -> ExperimentRow:
        for r in self.rows:
            if r.label == name:
                return r
        raise KeyError(name)

    # ------------------------------------------------------------------
    def check_shape(self) -> None:
        """Assert the paper's qualitative findings (raises on violation)."""
        for r in self.rows:
            seq = r.metrics["sequential_cycles"]
            plain = r.metrics["plain_cycles"]
            reordered = r.metrics["reordered_cycles"]
            if not seq > plain:
                raise AssertionError(
                    f"{r.label}: parallel ({plain}) not faster than "
                    f"sequential ({seq})"
                )
            if not plain >= reordered:
                raise AssertionError(
                    f"{r.label}: doconsider reordering ({reordered}) slower "
                    f"than natural order ({plain})"
                )
            if not self.small:
                check_within(
                    r.metrics["plain_efficiency"],
                    *PLAIN_BAND,
                    label=f"{r.label} plain efficiency",
                )
                check_within(
                    r.metrics["reordered_efficiency"],
                    *REORDERED_BAND,
                    label=f"{r.label} reordered efficiency",
                )
        if not self.small:
            five_pt = self.row("5-PT").metrics
            gain = five_pt["plain_cycles"] / five_pt["reordered_cycles"]
            require(
                gain > MIN_5PT_REORDER_GAIN,
                f"5-PT: reordering gain {gain:.2f} not above "
                f"{MIN_5PT_REORDER_GAIN}",
            )

    # ------------------------------------------------------------------
    def report(self) -> str:
        table_rows = []
        for r in self.rows:
            paper = PAPER_TABLE1.get(r.label)
            table_rows.append(
                (
                    r.label,
                    r.params["n"],
                    r.params["lower_nnz"],
                    r.metrics["plain_ms"],
                    r.metrics["reordered_ms"],
                    r.metrics["sequential_ms"],
                    r.metrics["plain_efficiency"],
                    r.metrics["reordered_efficiency"],
                    r.params["n_levels"],
                    f"{paper[0]}/{paper[1]}/{paper[2]}" if paper else "-",
                )
            )
        return format_table(
            [
                "problem",
                "n",
                "L nnz",
                "doacross ms",
                "rearranged ms",
                "sequential ms",
                "eff plain",
                "eff reord",
                "levels",
                "paper ms (pl/re/seq)",
            ],
            table_rows,
            title=(
                f"Table 1 — preprocessed doacross times for sparse "
                f"triangular matrices (P={self.processors}"
                f"{', reduced grids' if self.small else ''}); simulated ms"
            ),
        )


def run_table1(
    processors: int = 16,
    small: bool = False,
    cost_model: CostModel | None = None,
    verify_values: bool = True,
) -> Table1Result:
    """Run the Table-1 experiment.

    ``small=True`` uses structurally identical reduced grids (fast smoke
    runs for tests); the full version uses the paper's exact sizes.
    """
    runner = PreprocessedDoacross(processors=processors, cost_model=cost_model)
    out = Table1Result(processors=processors, small=small)

    for name, A in paper_problems(small=small).items():
        L, _U = ilu0(A)
        rhs = np.arange(1.0, A.n_rows + 1) / A.n_rows
        loop = lower_solve_loop(L, rhs, name=name)

        plain = runner.run(loop)
        reordered = runner.run(loop, reorder="doconsider")
        if verify_values:
            reference = solve_lower_unit(L, rhs)
            if not np.allclose(plain.y, reference):
                raise AssertionError(f"{name}: natural-order values wrong")
            if not np.allclose(reordered.y, reference):
                raise AssertionError(f"{name}: reordered values wrong")

        out.rows.append(
            ExperimentRow(
                label=name,
                params={
                    "n": A.n_rows,
                    "lower_nnz": L.nnz,
                    "n_levels": reordered.extras["n_levels"],
                },
                result=plain,
                metrics={
                    "sequential_cycles": plain.sequential_cycles,
                    "plain_cycles": plain.total_cycles,
                    "reordered_cycles": reordered.total_cycles,
                    "sequential_ms": plain.sequential_ms,
                    "plain_ms": plain.total_ms,
                    "reordered_ms": reordered.total_ms,
                    "plain_efficiency": plain.efficiency,
                    "reordered_efficiency": reordered.efficiency,
                },
            )
        )
    return out
