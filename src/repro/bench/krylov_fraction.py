"""Extension experiment: the Krylov motivation, quantified per problem.

Section 3.2's framing sentence — triangular solves "account for a large
fraction of the sequential execution time of linear solvers that use
Krylov methods" — plus the payoff the paper is implicitly after: if the
solves parallelize, the *whole solver* speeds up.  For each appendix
problem this experiment runs the appropriate ILU(0)-preconditioned Krylov
solver (CG for the SPD stencils, restarted GMRES for the nonsymmetric
SPE block operators) twice:

- with sequential triangular solves, measuring the preconditioner's
  fraction of total solver cycles;
- with the solves executed as doconsider-reordered preprocessed doacross
  loops on ``P`` simulated processors, measuring the solve and
  whole-solver speedups (identical numerics, asserted).

Run: ``python -m repro krylov [--small]``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.bench.harness import ExperimentRow
from repro.bench.reporting import format_table
from repro.core.doacross import PreprocessedDoacross
from repro.core.doconsider import Doconsider
from repro.machine.costs import DEFAULT_COST_MODEL, CostModel
from repro.sparse.krylov import IluPreconditioner, cg, gmres
from repro.sparse.spe import paper_problems

__all__ = ["KrylovFractionResult", "run_krylov_fraction"]

#: Which solver applies to which problem (the SPE block operators are
#: nonsymmetric; the point stencils are SPD).
SOLVER_FOR = {
    "SPE2": "gmres",
    "SPE5": "gmres",
    "5-PT": "cg",
    "7-PT": "cg",
    "9-PT": "cg",
}


@dataclass
class KrylovFractionResult:
    """Per-problem Krylov measurements."""

    processors: int
    small: bool
    rows: list[ExperimentRow] = field(default_factory=list)

    def check_shape(self) -> None:
        """The paper's claim and its payoff, as assertions: solves dominate
        sequential solver time (fraction > 0.5 for every problem; measured
        ≈ 0.60–0.65) and parallelizing them speeds up the whole solver
        (> 2× at full sizes; measured ≈ 2.2×)."""
        for r in self.rows:
            if r.metrics["precond_fraction_seq"] <= 0.5:
                raise AssertionError(
                    f"{r.label}: preconditioner fraction "
                    f"{r.metrics['precond_fraction_seq']:.2f} not 'large'"
                )
            floor = 1.0 if self.small else 2.0
            if r.metrics["solver_speedup"] < floor:
                raise AssertionError(
                    f"{r.label}: whole-solver speedup "
                    f"{r.metrics['solver_speedup']:.2f} below {floor}"
                )

    def report(self) -> str:
        return format_table(
            [
                "problem",
                "solver",
                "iters",
                "precond frac (seq)",
                "solve speedup",
                "solver speedup",
                "precond frac (par)",
            ],
            [
                (
                    r.label,
                    r.params["solver"],
                    r.params["iterations"],
                    r.metrics["precond_fraction_seq"],
                    r.metrics["solve_speedup"],
                    r.metrics["solver_speedup"],
                    r.metrics["precond_fraction_par"],
                )
                for r in self.rows
            ],
            title=(
                f"Krylov motivation — ILU(0)-preconditioned solvers, "
                f"triangular solves sequential vs parallel doacross "
                f"(P={self.processors}"
                f"{', reduced grids' if self.small else ''})"
            ),
        )


def _solve(solver: str, A, b, preconditioner, tol: float):
    if solver == "cg":
        return cg(A, b, preconditioner=preconditioner, tol=tol)
    return gmres(A, b, preconditioner=preconditioner, tol=tol)


def run_krylov_fraction(
    processors: int = 16,
    small: bool = False,
    tol: float = 1e-8,
    cost_model: CostModel | None = None,
) -> KrylovFractionResult:
    """Run the experiment over the five appendix problems."""
    cm = cost_model if cost_model is not None else DEFAULT_COST_MODEL
    runner = Doconsider(
        doacross=PreprocessedDoacross(processors=processors, cost_model=cm)
    )
    out = KrylovFractionResult(processors=processors, small=small)

    for name, A in paper_problems(small=small).items():
        solver = SOLVER_FOR[name]
        rng = np.random.default_rng(13)
        b = rng.normal(size=A.n_rows)

        seq_pc = IluPreconditioner(A, cost_model=cm)
        x_seq, rep_seq = _solve(solver, A, b, seq_pc, tol)
        if not rep_seq.converged:
            raise AssertionError(f"{name}: sequential-{solver} diverged")

        par_pc = IluPreconditioner(A, cost_model=cm, runner=runner)
        x_par, rep_par = _solve(solver, A, b, par_pc, tol)
        if not np.allclose(x_seq, x_par, rtol=1e-9, atol=1e-12):
            raise AssertionError(
                f"{name}: parallel preconditioning changed the solution"
            )
        if rep_seq.iterations != rep_par.iterations:
            raise AssertionError(
                f"{name}: iteration counts diverged "
                f"({rep_seq.iterations} vs {rep_par.iterations})"
            )

        out.rows.append(
            ExperimentRow(
                label=name,
                params={
                    "solver": solver,
                    "n": A.n_rows,
                    "iterations": rep_seq.iterations,
                },
                metrics={
                    "precond_fraction_seq": rep_seq.precond_fraction,
                    "precond_fraction_par": rep_par.precond_fraction,
                    "solve_speedup": (
                        rep_seq.precond_cycles / rep_par.precond_cycles
                    ),
                    "solver_speedup": (
                        rep_seq.total_cycles / rep_par.total_cycles
                    ),
                    "sequential_solver_cycles": rep_seq.total_cycles,
                    "parallel_solver_cycles": rep_par.total_cycles,
                    "sequential_precond_cycles": rep_seq.precond_cycles,
                    "parallel_precond_cycles": rep_par.precond_cycles,
                },
            )
        )
    return out
