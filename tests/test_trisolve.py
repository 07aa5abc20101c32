"""Tests for triangular solves and the Figure-7 loop encodings."""

import numpy as np
import pytest
import scipy.linalg

from repro.errors import MatrixFormatError
from repro.ir.accesses import ReadTable
from repro.machine.costs import WorkProfile
from repro.sparse.csr import CSRMatrix
from repro.sparse.ilu import ilu0
from repro.sparse.stencils import five_point
from repro.sparse.trisolve import (
    TRISOLVE_WORK,
    lower_solve_loop,
    solve_lower_unit,
    solve_upper,
    upper_solve_loop,
)


@pytest.fixture
def factors():
    A = five_point(7, 7)
    L, U = ilu0(A)
    rhs = np.linspace(-1.0, 2.0, A.n_rows)
    return L, U, rhs


class TestSequentialSolves:
    def test_lower_matches_scipy(self, factors):
        L, _, rhs = factors
        ours = solve_lower_unit(L, rhs)
        ref = scipy.linalg.solve_triangular(
            L.to_dense(), rhs, lower=True, unit_diagonal=True
        )
        np.testing.assert_allclose(ours, ref, rtol=1e-12)

    def test_upper_matches_scipy(self, factors):
        _, U, rhs = factors
        ours = solve_upper(U, rhs)
        ref = scipy.linalg.solve_triangular(U.to_dense(), rhs, lower=False)
        np.testing.assert_allclose(ours, ref, rtol=1e-10)

    def test_full_preconditioner_application(self, factors):
        """L U x = rhs via the two solves matches a dense solve."""
        L, U, rhs = factors
        x = solve_upper(U, solve_lower_unit(L, rhs))
        ref = np.linalg.solve(L.to_dense() @ U.to_dense(), rhs)
        np.testing.assert_allclose(x, ref, rtol=1e-9)

    def test_lower_requires_unit_diagonal(self, factors):
        _, U, rhs = factors
        with pytest.raises(MatrixFormatError, match="unit-lower"):
            solve_lower_unit(U.transpose(), rhs)

    def test_rhs_shape_checked(self, factors):
        L, _, _ = factors
        with pytest.raises(MatrixFormatError):
            solve_lower_unit(L, np.ones(3))

    def test_upper_zero_diagonal_rejected(self):
        U = CSRMatrix.from_dense(np.array([[1.0, 2.0], [0.0, 1.0]]))
        U.data[U.indptr[1]] = 0.0  # zero the (1,1) pivot in place
        with pytest.raises(MatrixFormatError, match="zero diagonal"):
            solve_upper(U, np.ones(2))


class TestLoopEncodings:
    def test_lower_loop_matches_direct_solve(self, factors):
        L, _, rhs = factors
        loop = lower_solve_loop(L, rhs)
        np.testing.assert_allclose(
            loop.run_sequential(), solve_lower_unit(L, rhs), rtol=1e-12
        )

    def test_lower_loop_shape(self, factors):
        L, _, rhs = factors
        loop = lower_solve_loop(L, rhs)
        assert loop.n == L.n_rows
        assert loop.reads.total_terms == L.nnz - L.n_rows  # strict lower
        assert loop.work is TRISOLVE_WORK
        assert isinstance(loop.work, WorkProfile)

    def test_lower_loop_term_coefficients_negated(self, factors):
        L, _, rhs = factors
        loop = lower_solve_loop(L, rhs)
        # Figure 7: y(i) = rhs(i) - a(j) * y(column(j)).
        i = int(np.argmax(loop.reads.term_counts()))
        idx, coeff = loop.reads.terms_of(i)
        for j, c in zip(idx, coeff):
            assert c == -L.get(i, int(j))

    def test_upper_loop_matches_direct_solve(self, factors):
        _, U, rhs = factors
        loop = upper_solve_loop(U, rhs)
        np.testing.assert_allclose(
            loop.run_sequential(), solve_upper(U, rhs), rtol=1e-10
        )

    def test_upper_loop_reversed_iteration_space(self, factors):
        _, U, rhs = factors
        loop = upper_solve_loop(U, rhs)
        # Iteration p writes row n-1-p.
        assert loop.write[0] == U.n_rows - 1
        assert loop.write[-1] == 0

    def test_custom_name(self, factors):
        L, _, rhs = factors
        assert lower_solve_loop(L, rhs, name="X").name == "X"


class TestBulkChecksAndTables:
    """The bulk checks name the row the per-row loops named, and the
    backward-substitution table holds the per-row loop's bits."""

    @pytest.mark.parametrize(
        "dense, row",
        [
            (np.array([[1.0, 0.0], [2.0, 1.0]]), None),
            (np.array([[2.0, 0.0], [2.0, 1.0]]), 0),  # diagonal not 1.0
            (np.array([[1.0, 0.0], [2.0, 0.0]]), 1),  # no diagonal
            (np.array([[1.0, 3.0], [0.0, 1.0]]), 0),  # trailing entry off-diagonal
            (np.array([[0.0, 0.0], [0.0, 1.0]]), 0),  # empty row
        ],
    )
    def test_unit_lower_check(self, dense, row):
        L = CSRMatrix.from_dense(dense)
        if row is None:
            lower_solve_loop(L, np.ones(2))
            return
        with pytest.raises(
            MatrixFormatError, match=f"^row {row} is not unit-lower-triangular"
        ):
            lower_solve_loop(L, np.ones(2))

    @pytest.mark.parametrize(
        "dense, message",
        [
            (np.array([[2.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 3.0]]),
             "row 1 has no leading diagonal entry"),
            (np.array([[0.0, 1.0, 0.0], [0.0, 2.0, 1.0], [0.0, 0.0, 3.0]]),
             "row 0 has no leading diagonal entry"),
            (np.array([[1.0, 0.0], [0.0, 0.0]]),
             "row 1 has no leading diagonal entry"),
        ],
    )
    def test_upper_check_names_the_last_bad_row(self, dense, message):
        """Iteration order is bottom row first, so the highest bad row is
        the one reported."""
        with pytest.raises(MatrixFormatError, match=f"^{message}$"):
            upper_solve_loop(CSRMatrix.from_dense(dense), np.ones(len(dense)))

    def test_upper_zero_pivot_stored(self):
        U = CSRMatrix(3, 3, [0, 2, 3, 4], [0, 2, 1, 2], [0.0, 1.0, 2.0, 3.0])
        with pytest.raises(MatrixFormatError, match="^zero diagonal in row 0$"):
            upper_solve_loop(U, np.ones(3))

    @pytest.mark.parametrize("k", [1, 2, 9])
    def test_upper_table_bits(self, k):
        _, U = ilu0(five_point(k, k + 1))
        rhs = np.random.default_rng(k).normal(size=U.n_rows)
        loop = upper_solve_loop(U, rhs)
        n = U.n_rows
        per_row, init = [], np.zeros(n)
        for p in range(n):
            cols, vals = U.row(n - 1 - p)
            init[p] = rhs[n - 1 - p] / vals[0]
            per_row.append(
                [(int(cols[j]), -vals[j] / vals[0]) for j in range(1, len(cols))]
            )
        want = ReadTable.from_lists(per_row)
        np.testing.assert_array_equal(loop.reads.ptr, want.ptr)
        np.testing.assert_array_equal(loop.reads.index, want.index)
        np.testing.assert_array_equal(
            loop.reads.coeff.view(np.int64), want.coeff.view(np.int64)
        )
        np.testing.assert_array_equal(
            loop.init_values.view(np.int64), init.view(np.int64)
        )

    def test_upper_empty(self):
        loop = upper_solve_loop(CSRMatrix(0, 0, [0], [], []), np.ones(0))
        assert loop.n == 0
