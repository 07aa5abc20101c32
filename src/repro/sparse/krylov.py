"""Preconditioned conjugate gradients — the paper's motivating consumer.

Section 3.2 motivates the whole Table-1 experiment with one sentence: "The
solution of these sparse triangular systems accounts for a large fraction
of the sequential execution time of linear solvers that use Krylov
methods."  This module makes that claim executable:

- :func:`cg` — preconditioned conjugate gradients over our CSR matrices
  (SPD operators; the stencil problems qualify), with exact per-operation
  cycle accounting in the same cost model as everything else;
- :class:`IluPreconditioner` — applies ``(LU)⁻¹`` via the Figure-7 forward
  and backward substitutions, either sequentially or through a parallel
  doacross runner (so the whole-solver effect of parallelizing the
  triangular solves — the Amdahl story — is measurable);
- :class:`PCGReport` — iterations, residual history, and the cycle
  breakdown (matvec / triangular solves / vector ops) that reproduces the
  paper's "large fraction" observation.

Cycle accounting conventions: a matvec touches every nonzero once
(``nnz · term + n · overhead`` at the default work profile); vector ops
(axpy, dot) cost 2 cycles/element; each triangular solve costs its loop's
sequential time, or — when a parallel runner is supplied — that runner's
simulated makespan.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.sequential import sequential_time
from repro.errors import MatrixFormatError
from repro.machine.costs import DEFAULT_COST_MODEL, CostModel
from repro.sparse.csr import CSRMatrix
from repro.sparse.ilu import ilu0
from repro.sparse.trisolve import (
    lower_solve_loop,
    solve_lower_unit,
    solve_upper,
    upper_solve_loop,
)

__all__ = [
    "PCGReport",
    "IluPreconditioner",
    "JacobiPreconditioner",
    "cg",
    "gmres",
]

#: Cycles per element for one vector operation (axpy / dot / copy).
VECTOR_OP_CYCLES = 2


@dataclass
class PCGReport:
    """Outcome and cycle breakdown of one preconditioned CG run."""

    converged: bool
    iterations: int
    residuals: list[float] = field(default_factory=list)
    matvec_cycles: int = 0
    precond_cycles: int = 0
    vector_cycles: int = 0

    @property
    def total_cycles(self) -> int:
        return self.matvec_cycles + self.precond_cycles + self.vector_cycles

    @property
    def precond_fraction(self) -> float:
        """Fraction of solver time spent applying the preconditioner — the
        paper's "large fraction" claim, as a number."""
        total = self.total_cycles
        return self.precond_cycles / total if total else 0.0

    def summary(self) -> str:
        return (
            f"PCG: {'converged' if self.converged else 'NOT converged'} in "
            f"{self.iterations} iterations; cycles: matvec="
            f"{self.matvec_cycles} precond={self.precond_cycles} "
            f"vector={self.vector_cycles} "
            f"(preconditioner fraction {self.precond_fraction:.2f})"
        )


class JacobiPreconditioner:
    """Diagonal scaling ``M⁻¹ = diag(A)⁻¹`` — the cheap baseline."""

    def __init__(self, A: CSRMatrix, cost_model: CostModel | None = None):
        diag = A.diagonal()
        if np.any(diag == 0):
            raise MatrixFormatError("Jacobi needs a zero-free diagonal")
        self.inv_diag = 1.0 / diag
        self.cost_model = cost_model if cost_model is not None else DEFAULT_COST_MODEL

    def apply(self, r: np.ndarray) -> tuple[np.ndarray, int]:
        """Returns ``(M⁻¹ r, cycles)``."""
        return r * self.inv_diag, len(r) * VECTOR_OP_CYCLES


class IluPreconditioner:
    """ILU(0) preconditioner applied via the Figure-7 substitutions.

    Parameters
    ----------
    A:
        The operator to factor.
    runner:
        Optional parallel runner (anything with
        ``run(loop) -> RunResult``, e.g. a
        :class:`~repro.core.doacross.PreprocessedDoacross`; with
        ``reorder="doconsider"`` it runs each solve in wavefront order).
        When given, each substitution's *charged cycles* are the runner's
        simulated parallel makespan instead of the sequential time; values
        are identical either way (tested).
    """

    def __init__(
        self,
        A: CSRMatrix,
        cost_model: CostModel | None = None,
        runner=None,
    ):
        self.L, self.U = ilu0(A)
        self.cost_model = cost_model if cost_model is not None else DEFAULT_COST_MODEL
        self.runner = runner
        # Sequential substitution costs are rhs-independent; cache them.
        probe = np.zeros(A.n_rows)
        self._seq_lower = sequential_time(
            lower_solve_loop(self.L, probe), self.cost_model
        )
        self._seq_upper = sequential_time(
            upper_solve_loop(self.U, probe), self.cost_model
        )

    @property
    def sequential_apply_cycles(self) -> int:
        """Cost of one sequential ``(LU)⁻¹`` application."""
        return self._seq_lower + self._seq_upper

    def apply(self, r: np.ndarray) -> tuple[np.ndarray, int]:
        """Returns ``(M⁻¹ r, cycles)``."""
        if self.runner is None:
            y = solve_lower_unit(self.L, r)
            x = solve_upper(self.U, y)
            return x, self.sequential_apply_cycles
        lower = self.runner.run(lower_solve_loop(self.L, r))
        upper = self.runner.run(upper_solve_loop(self.U, lower.y))
        return upper.y, lower.total_cycles + upper.total_cycles


def cg(
    A: CSRMatrix,
    b: np.ndarray,
    preconditioner=None,
    tol: float = 1e-8,
    maxiter: int | None = None,
    x0: np.ndarray | None = None,
    cost_model: CostModel | None = None,
) -> tuple[np.ndarray, PCGReport]:
    """Preconditioned conjugate gradients for SPD ``A``.

    Returns ``(x, report)``.  Convergence criterion:
    ``|r| <= tol * |b|`` (2-norms).  The report's cycle breakdown uses the
    shared cost model; every preconditioner application's cost comes from
    the preconditioner itself (which is how a parallel-doacross
    preconditioner changes the whole-solver account).
    """
    if A.n_rows != A.n_cols:
        raise MatrixFormatError("cg needs a square (SPD) matrix")
    b = np.asarray(b, dtype=np.float64)
    if b.shape != (A.n_rows,):
        raise MatrixFormatError(
            f"b must have shape ({A.n_rows},), got {b.shape}"
        )
    cm = cost_model if cost_model is not None else DEFAULT_COST_MODEL
    n = A.n_rows
    if maxiter is None:
        maxiter = 10 * n
    matvec_cost = A.nnz * cm.work.term + n * cm.work.overhead

    report = PCGReport(converged=False, iterations=0)
    x = np.zeros(n) if x0 is None else np.asarray(x0, dtype=np.float64).copy()

    r = b - A.matvec(x)
    report.matvec_cycles += matvec_cost
    report.vector_cycles += n * VECTOR_OP_CYCLES
    b_norm = float(np.linalg.norm(b)) or 1.0
    report.residuals.append(float(np.linalg.norm(r)) / b_norm)
    if report.residuals[-1] <= tol:
        report.converged = True
        return x, report

    if preconditioner is None:
        z = r.copy()
    else:
        z, cycles = preconditioner.apply(r)
        report.precond_cycles += cycles
    p = z.copy()
    rz = float(r @ z)
    report.vector_cycles += 2 * n * VECTOR_OP_CYCLES

    for k in range(1, maxiter + 1):
        Ap = A.matvec(p)
        report.matvec_cycles += matvec_cost
        pAp = float(p @ Ap)
        if pAp <= 0:
            raise MatrixFormatError(
                "non-positive curvature: matrix is not SPD"
            )
        alpha = rz / pAp
        x += alpha * p
        r -= alpha * Ap
        report.vector_cycles += 4 * n * VECTOR_OP_CYCLES
        report.iterations = k
        report.residuals.append(float(np.linalg.norm(r)) / b_norm)
        if report.residuals[-1] <= tol:
            report.converged = True
            break
        if preconditioner is None:
            z = r.copy()
        else:
            z, cycles = preconditioner.apply(r)
            report.precond_cycles += cycles
        rz_new = float(r @ z)
        beta = rz_new / rz
        rz = rz_new
        p = z + beta * p
        report.vector_cycles += 3 * n * VECTOR_OP_CYCLES

    return x, report


def gmres(
    A: CSRMatrix,
    b: np.ndarray,
    preconditioner=None,
    tol: float = 1e-8,
    restart: int = 30,
    maxiter: int | None = None,
    x0: np.ndarray | None = None,
    cost_model: CostModel | None = None,
) -> tuple[np.ndarray, PCGReport]:
    """Restarted GMRES(m) for general square ``A``.

    The paper's reservoir problems (SPE2, SPE5) are nonsymmetric, so CG
    does not apply; GMRES with the ILU(0) preconditioner is the standard
    pairing.  Right preconditioning is used (the reported residuals are
    true residuals of ``A x = b``); the Arnoldi least-squares problem is
    maintained incrementally with Givens rotations.

    Returns ``(x, report)`` with the same cycle-accounted
    :class:`PCGReport` as :func:`cg` (``iterations`` counts inner Arnoldi
    steps across restarts).
    """
    if A.n_rows != A.n_cols:
        raise MatrixFormatError("gmres needs a square matrix")
    b = np.asarray(b, dtype=np.float64)
    if b.shape != (A.n_rows,):
        raise MatrixFormatError(
            f"b must have shape ({A.n_rows},), got {b.shape}"
        )
    if restart < 1:
        raise MatrixFormatError(f"restart must be >= 1, got {restart}")
    cm = cost_model if cost_model is not None else DEFAULT_COST_MODEL
    n = A.n_rows
    if maxiter is None:
        maxiter = 10 * n
    matvec_cost = A.nnz * cm.work.term + n * cm.work.overhead

    report = PCGReport(converged=False, iterations=0)
    x = np.zeros(n) if x0 is None else np.asarray(x0, dtype=np.float64).copy()
    b_norm = float(np.linalg.norm(b)) or 1.0

    while report.iterations < maxiter:
        r = b - A.matvec(x)
        report.matvec_cycles += matvec_cost
        report.vector_cycles += n * VECTOR_OP_CYCLES
        beta = float(np.linalg.norm(r))
        if not report.residuals:
            report.residuals.append(beta / b_norm)
        if beta / b_norm <= tol:
            report.converged = True
            return x, report

        m = restart
        V = np.zeros((m + 1, n))
        Z = np.zeros((m, n))  # preconditioned directions (right precond)
        H = np.zeros((m + 1, m))
        cs = np.zeros(m)
        sn = np.zeros(m)
        g = np.zeros(m + 1)
        g[0] = beta
        V[0] = r / beta

        k = 0
        for j in range(m):
            if report.iterations >= maxiter:
                break
            if preconditioner is None:
                z = V[j]
            else:
                z, cycles = preconditioner.apply(V[j])
                report.precond_cycles += cycles
            Z[j] = z
            w = A.matvec(z)
            report.matvec_cycles += matvec_cost
            # Modified Gram-Schmidt.
            for i in range(j + 1):
                H[i, j] = float(w @ V[i])
                w = w - H[i, j] * V[i]
            report.vector_cycles += 2 * (j + 1) * n * VECTOR_OP_CYCLES
            H[j + 1, j] = float(np.linalg.norm(w))
            report.vector_cycles += n * VECTOR_OP_CYCLES
            lucky = H[j + 1, j] <= 1e-14 * max(beta, 1.0)
            if not lucky:
                V[j + 1] = w / H[j + 1, j]
            # Apply accumulated Givens rotations to the new column.
            for i in range(j):
                h_i = cs[i] * H[i, j] + sn[i] * H[i + 1, j]
                H[i + 1, j] = -sn[i] * H[i, j] + cs[i] * H[i + 1, j]
                H[i, j] = h_i
            denom = float(np.hypot(H[j, j], H[j + 1, j]))
            if denom == 0.0:
                cs[j], sn[j] = 1.0, 0.0
            else:
                cs[j] = H[j, j] / denom
                sn[j] = H[j + 1, j] / denom
            H[j, j] = cs[j] * H[j, j] + sn[j] * H[j + 1, j]
            H[j + 1, j] = 0.0
            g[j + 1] = -sn[j] * g[j]
            g[j] = cs[j] * g[j]

            report.iterations += 1
            k = j + 1
            report.residuals.append(abs(float(g[j + 1])) / b_norm)
            if report.residuals[-1] <= tol or lucky:
                break

        if k > 0:
            # Back-substitute the k x k triangular system H y = g.
            y = np.zeros(k)
            for i in range(k - 1, -1, -1):
                y[i] = (g[i] - H[i, i + 1 : k] @ y[i + 1 :]) / H[i, i]
            x = x + Z[:k].T @ y
            report.vector_cycles += k * n * VECTOR_OP_CYCLES

        if report.residuals[-1] <= tol:
            # Confirm with a true residual (restarted GMRES bookkeeping can
            # drift); loop re-enters and exits at the top check.
            continue

    # maxiter exhausted: final true-residual check.
    r = b - A.matvec(x)
    report.matvec_cycles += matvec_cost
    report.converged = float(np.linalg.norm(r)) / b_norm <= tol
    return x, report
