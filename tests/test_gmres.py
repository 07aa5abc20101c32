"""Tests for restarted GMRES (the nonsymmetric Krylov consumer)."""

import numpy as np
import pytest

from repro.core.doacross import PreprocessedDoacross
from repro.errors import MatrixFormatError
from repro.sparse.block import block_seven_point
from repro.sparse.csr import CSRMatrix
from repro.sparse.krylov import IluPreconditioner, gmres
from repro.sparse.stencils import five_point


@pytest.fixture(scope="module")
def nonsymmetric_system():
    """A small SPE-style (nonsymmetric, diagonally dominant) system."""
    A = block_seven_point(3, 3, 2, block=3, seed=4)
    rng = np.random.default_rng(1)
    b = rng.normal(size=A.n_rows)
    x_ref = np.linalg.solve(A.to_dense(), b)
    return A, b, x_ref


class TestGmres:
    def test_solves_nonsymmetric_system(self, nonsymmetric_system):
        A, b, x_ref = nonsymmetric_system
        x, report = gmres(A, b, tol=1e-10)
        assert report.converged
        np.testing.assert_allclose(x, x_ref, rtol=1e-6, atol=1e-8)

    def test_ilu_preconditioning_cuts_iterations(self, nonsymmetric_system):
        A, b, _ = nonsymmetric_system
        _, plain = gmres(A, b, tol=1e-10)
        _, ilu = gmres(A, b, preconditioner=IluPreconditioner(A), tol=1e-10)
        assert ilu.converged
        assert ilu.iterations < plain.iterations

    def test_restarting_still_converges(self, nonsymmetric_system):
        A, b, x_ref = nonsymmetric_system
        x, report = gmres(A, b, tol=1e-9, restart=5)
        assert report.converged
        np.testing.assert_allclose(x, x_ref, rtol=1e-5, atol=1e-7)

    def test_works_on_spd_too(self):
        A = five_point(8, 8)
        b = np.ones(A.n_rows)
        x, report = gmres(A, b, tol=1e-9)
        assert report.converged
        np.testing.assert_allclose(A.matvec(x), b, atol=1e-7)

    def test_zero_rhs_immediate(self, nonsymmetric_system):
        A, _, _ = nonsymmetric_system
        x, report = gmres(A, np.zeros(A.n_rows))
        assert report.converged
        assert report.iterations == 0
        np.testing.assert_allclose(x, 0.0)

    def test_maxiter_caps_and_reports_nonconvergence(
        self, nonsymmetric_system
    ):
        A, b, _ = nonsymmetric_system
        _, report = gmres(A, b, tol=1e-14, maxiter=2)
        assert not report.converged
        assert report.iterations <= 2

    def test_residual_history_decreases_overall(self, nonsymmetric_system):
        A, b, _ = nonsymmetric_system
        _, report = gmres(A, b, tol=1e-10)
        assert report.residuals[-1] < report.residuals[0]

    def test_validation(self, nonsymmetric_system):
        A, b, _ = nonsymmetric_system
        with pytest.raises(MatrixFormatError):
            gmres(A, np.ones(3))
        with pytest.raises(MatrixFormatError):
            gmres(A, b, restart=0)
        with pytest.raises(MatrixFormatError):
            gmres(CSRMatrix.from_dense(np.ones((2, 3))), np.ones(2))

    def test_parallel_preconditioner_identical_solves(
        self, nonsymmetric_system
    ):
        A, b, _ = nonsymmetric_system
        runner = PreprocessedDoacross(processors=8, reorder="doconsider")
        x_seq, rep_seq = gmres(
            A, b, preconditioner=IluPreconditioner(A), tol=1e-9
        )
        x_par, rep_par = gmres(
            A, b, preconditioner=IluPreconditioner(A, runner=runner), tol=1e-9
        )
        np.testing.assert_allclose(x_seq, x_par, rtol=1e-12)
        assert rep_par.precond_cycles < rep_seq.precond_cycles

    def test_lucky_breakdown_on_identity(self):
        """A = I: the Krylov space degenerates after one vector; GMRES must
        take the lucky-breakdown path and return the exact solution."""
        A = CSRMatrix.from_dense(np.eye(6))
        b = np.arange(1.0, 7.0)
        x, report = gmres(A, b, tol=1e-12)
        assert report.converged
        assert report.iterations == 1
        np.testing.assert_allclose(x, b)

    def test_precond_fraction_large_for_ilu(self, nonsymmetric_system):
        """The paper's motivation holds for the SPE-style problems too."""
        A, b, _ = nonsymmetric_system
        _, report = gmres(
            A, b, preconditioner=IluPreconditioner(A), tol=1e-10
        )
        assert report.precond_fraction > 0.4
