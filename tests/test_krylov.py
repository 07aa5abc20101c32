"""Tests for preconditioned CG and the preconditioner cost accounting."""

import numpy as np
import pytest

from repro.core.doacross import PreprocessedDoacross
from repro.errors import MatrixFormatError
from repro.machine.costs import CostModel
from repro.sparse.csr import CSRMatrix
from repro.sparse.krylov import (
    IluPreconditioner,
    JacobiPreconditioner,
    cg,
)
from repro.sparse.stencils import five_point, nine_point


@pytest.fixture(scope="module")
def system():
    A = five_point(12, 12)
    rng = np.random.default_rng(5)
    b = rng.normal(size=A.n_rows)
    x_ref = np.linalg.solve(A.to_dense(), b)
    return A, b, x_ref


class TestPlainCG:
    def test_solves_spd_system(self, system):
        A, b, x_ref = system
        x, report = cg(A, b, tol=1e-10)
        assert report.converged
        np.testing.assert_allclose(x, x_ref, rtol=1e-6, atol=1e-8)

    def test_residuals_reach_tolerance(self, system):
        A, b, _ = system
        _, report = cg(A, b, tol=1e-10)
        assert report.residuals[-1] <= 1e-10
        assert report.residuals[0] > report.residuals[-1]

    def test_zero_rhs_immediate(self, system):
        A, _, _ = system
        x, report = cg(A, np.zeros(A.n_rows))
        assert report.converged
        assert report.iterations == 0
        np.testing.assert_allclose(x, 0.0)

    def test_maxiter_caps(self, system):
        A, b, _ = system
        _, report = cg(A, b, tol=1e-14, maxiter=3)
        assert not report.converged
        assert report.iterations == 3

    def test_non_spd_detected(self):
        dense = np.array([[1.0, 0.0], [0.0, -1.0]])
        with pytest.raises(MatrixFormatError, match="SPD"):
            cg(CSRMatrix.from_dense(dense), np.array([1.0, 1.0]))

    def test_shape_validation(self, system):
        A, _, _ = system
        with pytest.raises(MatrixFormatError):
            cg(A, np.ones(3))


class TestPreconditioners:
    def test_jacobi_preserves_solution(self, system):
        A, b, x_ref = system
        x, report = cg(A, b, preconditioner=JacobiPreconditioner(A), tol=1e-10)
        assert report.converged
        np.testing.assert_allclose(x, x_ref, rtol=1e-6, atol=1e-8)

    def test_ilu_preserves_solution(self, system):
        A, b, x_ref = system
        x, report = cg(A, b, preconditioner=IluPreconditioner(A), tol=1e-10)
        assert report.converged
        np.testing.assert_allclose(x, x_ref, rtol=1e-6, atol=1e-8)

    def test_ilu_cuts_iterations(self, system):
        """The reason anyone pays for triangular solves at all."""
        A, b, _ = system
        _, plain = cg(A, b, tol=1e-10)
        _, ilu = cg(A, b, preconditioner=IluPreconditioner(A), tol=1e-10)
        assert ilu.iterations < plain.iterations / 2

    def test_ilu_on_nine_point(self):
        A = nine_point(10, 10)
        b = np.ones(A.n_rows)
        x, report = cg(A, b, preconditioner=IluPreconditioner(A), tol=1e-9)
        assert report.converged
        np.testing.assert_allclose(A.matvec(x), b, atol=1e-7)

    def test_jacobi_rejects_zero_diagonal(self):
        dense = np.array([[0.0, 1.0], [1.0, 1.0]])
        with pytest.raises(MatrixFormatError):
            JacobiPreconditioner(CSRMatrix.from_dense(dense))


class TestCycleAccounting:
    def test_trisolve_dominates_sequential_pcg(self, system):
        """The paper's motivating claim, as an assertion: triangular solves
        account for a large fraction of sequential PCG time."""
        A, b, _ = system
        _, report = cg(A, b, preconditioner=IluPreconditioner(A), tol=1e-10)
        assert report.precond_fraction > 0.4

    def test_parallel_preconditioner_changes_only_cycles(self, system):
        A, b, _ = system
        runner = PreprocessedDoacross(processors=16, reorder="doconsider")
        seq_pc = IluPreconditioner(A)
        par_pc = IluPreconditioner(A, runner=runner)
        x_seq, rep_seq = cg(A, b, preconditioner=seq_pc, tol=1e-10)
        x_par, rep_par = cg(A, b, preconditioner=par_pc, tol=1e-10)
        np.testing.assert_allclose(x_seq, x_par, rtol=1e-12)
        assert rep_seq.iterations == rep_par.iterations
        assert rep_par.precond_cycles < rep_seq.precond_cycles

    def test_parallel_preconditioner_speeds_whole_solver(self, system):
        """The Amdahl payoff the paper is after."""
        A, b, _ = system
        runner = PreprocessedDoacross(processors=16, reorder="doconsider")
        _, rep_seq = cg(A, b, preconditioner=IluPreconditioner(A), tol=1e-10)
        _, rep_par = cg(
            A, b, preconditioner=IluPreconditioner(A, runner=runner), tol=1e-10
        )
        assert rep_par.total_cycles < rep_seq.total_cycles

    def test_breakdown_sums(self, system):
        A, b, _ = system
        _, report = cg(A, b, preconditioner=JacobiPreconditioner(A), tol=1e-8)
        assert report.total_cycles == (
            report.matvec_cycles
            + report.precond_cycles
            + report.vector_cycles
        )

    def test_summary_string(self, system):
        A, b, _ = system
        _, report = cg(A, b, tol=1e-8)
        s = report.summary()
        assert "converged" in s
        assert "matvec=" in s

    def test_sequential_apply_cycles_cached(self, system):
        A, _, _ = system
        pc = IluPreconditioner(A, cost_model=CostModel())
        c1 = pc.sequential_apply_cycles
        _, cycles = pc.apply(np.ones(A.n_rows))
        assert cycles == c1
