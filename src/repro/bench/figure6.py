"""Figure 6: efficiency of the preprocessed doacross test loop.

Regenerates the paper's Figure 6: parallel efficiency on 16 processors of
the Figure-4 loop with ``N = 10000``, ``M ∈ {1, 5}``, ``L = 1..14``
(``a(i) = 2i``, ``b(i) = 2i``, ``nbrs(j) = 2j − L``).

Shape acceptance (DESIGN.md §2, enforced by :meth:`Figure6Result.check_shape`
wherever the sweep runs — the command below and the tier-1 tests):

- odd-``L`` efficiencies are flat (pure-overhead plateau) with the ``M=5``
  plateau above the ``M=1`` plateau — the paper reports ≈0.33 and ≈0.50;
- even-``L`` efficiencies rise monotonically with ``L`` for both ``M``,
  staying below the odd plateau.

Run: ``python -m repro figure6 [N] [--json PATH]``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.bench.harness import (
    ExperimentRow,
    check_monotone_nondecreasing,
    check_within,
)
from repro.bench.reporting import ascii_chart, format_table
from repro.core.doacross import PreprocessedDoacross
from repro.machine.costs import CostModel
from repro.workloads.testloop import dependence_distances, make_test_loop

__all__ = ["Figure6Result", "run_figure6"]

#: The paper's reported plateaus and our acceptance half-widths.
PAPER_PLATEAU = {1: 0.33, 5: 0.50}
PLATEAU_TOLERANCE = 0.06


@dataclass
class Figure6Result:
    """All measured points of the Figure-6 sweep."""

    n: int
    processors: int
    rows: list[ExperimentRow] = field(default_factory=list)

    def efficiencies(self, m: int, parity: str | None = None) -> list[tuple[int, float]]:
        """``(L, efficiency)`` points for one ``M`` series, optionally
        filtered to ``parity`` ``"odd"``/``"even"``."""
        out = []
        for row in self.rows:
            if row.params["m"] != m:
                continue
            l = row.params["l"]
            if parity == "odd" and l % 2 == 0:
                continue
            if parity == "even" and l % 2 == 1:
                continue
            out.append((l, row.result.efficiency))
        return sorted(out)

    def plateau(self, m: int) -> float:
        """Mean odd-``L`` efficiency (the overhead plateau)."""
        pts = self.efficiencies(m, parity="odd")
        return sum(e for _, e in pts) / len(pts)

    # ------------------------------------------------------------------
    def check_shape(self) -> None:
        """Assert the paper's qualitative findings (raises on violation)."""
        ms = sorted({row.params["m"] for row in self.rows})
        for m in ms:
            odd = [e for _, e in self.efficiencies(m, parity="odd")]
            # Even-L points split by whether they actually carry a true
            # dependence: L=2 with M=1 (say) has only the intra-iteration
            # reference (distance 0) and sits on the plateau like odd L.
            even_dep = [
                e
                for l, e in self.efficiencies(m, parity="even")
                if dependence_distances(m, l)
            ]
            even_free = [
                e
                for l, e in self.efficiencies(m, parity="even")
                if not dependence_distances(m, l)
            ]
            plateau_points = odd + even_free
            # Plateau flatness: dependence-free points in a tight band.
            if plateau_points:
                spread = max(plateau_points) - min(plateau_points)
                if spread > 0.02:
                    raise AssertionError(
                        f"M={m}: zero-dependence plateau not flat "
                        f"(spread {spread:.4f})"
                    )
            # Plateau level vs the paper (only for the paper's M values).
            if m in PAPER_PLATEAU and odd:
                check_within(
                    self.plateau(m),
                    PAPER_PLATEAU[m] - PLATEAU_TOLERANCE,
                    PAPER_PLATEAU[m] + PLATEAU_TOLERANCE,
                    label=f"M={m} odd-L plateau",
                )
            # Dependence-carrying even L: monotone rise, below the plateau.
            if even_dep:
                check_monotone_nondecreasing(
                    even_dep,
                    tolerance=0.005,
                    label=f"M={m} even-L efficiencies",
                )
                if odd and max(even_dep) > max(odd) + 0.01:
                    raise AssertionError(
                        f"M={m}: even-L efficiency exceeds the "
                        f"zero-dependence plateau"
                    )
        if 1 in ms and 5 in ms:
            if self.plateau(5) <= self.plateau(1):
                raise AssertionError(
                    "M=5 plateau should exceed M=1 plateau (per-iteration "
                    "overheads amortize over more terms)"
                )

    # ------------------------------------------------------------------
    def report(self) -> str:
        table_rows = [
            (
                row.params["m"],
                row.params["l"],
                "odd" if row.params["l"] % 2 else "even",
                row.result.efficiency,
                row.result.speedup,
                row.result.wait_cycles,
            )
            for row in self.rows
        ]
        table = format_table(
            ["M", "L", "parity", "efficiency", "speedup", "busy-wait cyc"],
            table_rows,
            title=(
                f"Figure 6 — preprocessed doacross efficiencies "
                f"(N={self.n}, P={self.processors})"
            ),
        )
        series = {
            f"M={m}": [(float(l), e) for l, e in self.efficiencies(m)]
            for m in sorted({row.params["m"] for row in self.rows})
        }
        chart = ascii_chart(
            series,
            x_label="L",
            y_label="parallel efficiency",
            y_max=0.6,
        )
        plateaus = "  ".join(
            f"M={m}: plateau={self.plateau(m):.3f} (paper ≈{PAPER_PLATEAU.get(m, float('nan')):.2f})"
            for m in sorted({row.params["m"] for row in self.rows})
            if self.efficiencies(m, parity="odd")
        )
        return f"{table}\n\n{chart}\n\n{plateaus}\n"


def run_figure6(
    n: int = 10000,
    processors: int = 16,
    ms: tuple[int, ...] = (1, 5),
    ls: tuple[int, ...] = tuple(range(1, 15)),
    cost_model: CostModel | None = None,
) -> Figure6Result:
    """Run the Figure-6 sweep; smaller ``n`` gives a faster smoke version
    with the same qualitative shape."""
    runner = PreprocessedDoacross(processors=processors, cost_model=cost_model)
    out = Figure6Result(n=n, processors=processors)
    for m in ms:
        for l in ls:
            loop = make_test_loop(n=n, m=m, l=l)
            result = runner.run(loop)
            out.rows.append(
                ExperimentRow(
                    label=f"M={m},L={l}",
                    params={"m": m, "l": l},
                    result=result,
                )
            )
    return out
