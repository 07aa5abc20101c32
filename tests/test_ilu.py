"""Tests for ILU(0), with dense LU (SciPy) as the oracle where exact and
the scalar IKJ loop as the bitwise oracle."""

import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MatrixFormatError, SingularMatrixError
from repro.sparse.coo import COOBuilder
from repro.sparse.csr import CSRMatrix
from repro.sparse.ilu import ilu0
from repro.sparse.spe import paper_problems
from repro.sparse.stencils import five_point, nine_point, seven_point

from tests.conftest import no_compiler


# -- the differential reference: the scalar IKJ loop, row by row ---------
def _reference_diagonal_positions(A: CSRMatrix) -> np.ndarray:
    """Flat data index of each row's diagonal entry (must exist)."""
    pos = np.empty(A.n_rows, dtype=np.int64)
    for i in range(A.n_rows):
        lo, hi = A.indptr[i], A.indptr[i + 1]
        cols = A.indices[lo:hi]
        k = np.searchsorted(cols, i)
        if k >= len(cols) or cols[k] != i:
            raise SingularMatrixError(i)
        pos[i] = lo + k
    return pos


def reference_ilu0(A: CSRMatrix) -> tuple[CSRMatrix, CSRMatrix]:
    """Saad alg. 10.4 on ``A``'s pattern, one scalar update at a time."""
    if A.n_rows != A.n_cols:
        raise MatrixFormatError(
            f"ILU(0) needs a square matrix, got {A.n_rows}x{A.n_cols}"
        )
    n = A.n_rows
    indptr, indices = A.indptr, A.indices
    data = A.data.copy()
    diag_pos = _reference_diagonal_positions(A)

    for i in range(n):
        lo, hi = indptr[i], indptr[i + 1]
        row_cols = indices[lo:hi]
        # O(1) column → flat-position lookup within row i.
        col_to_pos = {int(c): lo + t for t, c in enumerate(row_cols)}
        for kk in range(lo, int(diag_pos[i])):
            k = int(indices[kk])
            pivot = data[diag_pos[k]]
            if pivot == 0.0:
                raise SingularMatrixError(k)
            mult = data[kk] / pivot
            data[kk] = mult
            # Row update restricted to A's pattern: a[i,j] -= mult * a[k,j]
            # for j > k present in both rows.
            for pp in range(int(diag_pos[k]) + 1, int(indptr[k + 1])):
                j = int(indices[pp])
                target = col_to_pos.get(j)
                if target is not None:
                    data[target] -= mult * data[pp]
        if data[diag_pos[i]] == 0.0:
            raise SingularMatrixError(i)

    factored = CSRMatrix(n, n, indptr.copy(), indices.copy(), data)
    L = factored.lower_triangle(unit=True)
    U = factored.upper_triangle()
    return L, U


def assert_same_factors(got, want) -> None:
    for g, w in zip(got, want):
        assert g.shape == w.shape
        np.testing.assert_array_equal(g.indptr, w.indptr)
        np.testing.assert_array_equal(g.indices, w.indices)
        np.testing.assert_array_equal(g.data.view(np.int64), w.data.view(np.int64))


def outcome(factor, A):
    """``("ok", (L, U))`` or ``(type, message, row)``, with every warning
    an error: the wavefront factorization must not divide by zero where
    the scalar loop stops first."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return "ok", factor(A)
        except MatrixFormatError as exc:
            return type(exc), str(exc), getattr(exc, "row", None)


def assert_same_outcome(A) -> None:
    got, want = outcome(ilu0, A), outcome(reference_ilu0, A)
    if want[0] == "ok":
        assert got[0] == "ok", got
        assert_same_factors(got[1], want[1])
    else:
        assert got == want


def random_pattern(n, pairs, seed, dominant=True) -> CSRMatrix:
    """A non-symmetric pattern: the diagonal plus ``pairs``; values from
    ``seed``, diagonally dominant or small integers (exact cancellations,
    so zero pivots) with ``dominant=False``."""
    rng = np.random.default_rng(seed)
    rows = np.array([i for i, _ in pairs], dtype=np.int64)
    cols = np.array([j for _, j in pairs], dtype=np.int64)
    off = rows != cols
    rows, cols = rows[off], cols[off]
    builder = COOBuilder(n)
    if dominant:
        vals = rng.normal(size=len(rows))
        diag = np.bincount(rows, np.abs(vals), minlength=n) + 1.0
        diag *= rng.choice([-1.0, 1.0], size=n)
    else:
        vals = rng.choice([-2.0, -1.0, 1.0, 2.0], size=len(rows))
        diag = rng.choice([1.0, 2.0, 3.0], size=n)
    builder.add_batch(rows, cols, vals)
    builder.add_batch(np.arange(n), np.arange(n), diag)
    return builder.to_csr()


patterns = st.integers(1, 40).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            max_size=5 * n,
        ),
        st.integers(0, 2**32 - 1),
    )
)


class TestBitwiseAgainstTheScalarLoop:
    """The wavefront factorization is the scalar IKJ, bit for bit."""

    @pytest.mark.parametrize(
        "A",
        [
            five_point(1, 1),
            five_point(1, 9),
            five_point(9, 1),
            five_point(23, 17),
            nine_point(1, 6),
            nine_point(6, 1),
            nine_point(19, 21),
            seven_point(1, 1, 1),
            seven_point(1, 1, 8),
            seven_point(8, 1, 1),
            seven_point(7, 6, 5),
        ],
        ids=repr,
    )
    def test_stencils(self, A):
        assert_same_factors(ilu0(A), reference_ilu0(A))

    @pytest.mark.parametrize("name", sorted(paper_problems(small=True)))
    def test_paper_problems(self, name):
        A = paper_problems(small=True)[name]
        assert_same_factors(ilu0(A), reference_ilu0(A))

    @given(pattern=patterns)
    @settings(max_examples=80, deadline=None)
    def test_random_dominant_patterns(self, pattern):
        A = random_pattern(*pattern)
        assert_same_factors(ilu0(A), reference_ilu0(A))

    @given(pattern=patterns)
    @settings(max_examples=80, deadline=None)
    def test_random_cancelling_patterns(self, pattern):
        """Small integers cancel exactly: some factor, some stop at a zero
        pivot; either way the outcome is the scalar loop's."""
        assert_same_outcome(random_pattern(*pattern, dominant=False))

    def test_levels_without_a_compiler(self):
        """The level sweep's Python body gives the same factors."""
        A = nine_point(11, 13)
        with no_compiler():
            got = ilu0(A)
        assert_same_factors(got, reference_ilu0(A))


class TestErrorParity:
    def test_zero_pivot_mid_matrix(self):
        """Row 5's pivot eliminates to exactly zero while rows below it
        depend on it, and row 10 (a level-0 row, so earlier in wavefront
        order) holds a stored zero pivot: the error names row 5, as the
        scalar loop does, and nothing is divided by zero."""
        n = 12
        b = COOBuilder(n)
        b.add_batch(np.arange(n), np.arange(n), np.full(n, 2.0))
        b.add_batch(np.arange(1, 5), np.arange(4), np.full(4, -1.0))
        b.add_batch([5, 4], [4, 5], [2.0, 2.0])  # pivot 5: 2 - (2/2)*2
        b.add_batch(np.arange(6, 10), np.arange(5, 9), np.full(4, -1.0))
        b.add_batch([10, 11, 11], [10, 10, 5], [-2.0, -1.0, -1.0])
        A = b.to_csr()
        assert A.get(10, 10) == 0.0 and A.get(5, 5) == 2.0
        got = outcome(ilu0, A)
        assert got == outcome(reference_ilu0, A)
        assert got == (
            SingularMatrixError, "zero or missing diagonal entry in row 5", 5
        )

    def test_missing_diagonal(self):
        dense = five_point(4, 4).to_dense()
        dense[6, 6] = dense[11, 11] = 0.0  # outside the pattern
        A = CSRMatrix.from_dense(dense)
        assert outcome(ilu0, A) == outcome(reference_ilu0, A)
        assert outcome(ilu0, A)[2] == 6

    def test_non_square(self):
        A = CSRMatrix.from_dense(np.ones((3, 2)))
        assert outcome(ilu0, A) == outcome(reference_ilu0, A)
        assert outcome(ilu0, A)[0] is MatrixFormatError

    def test_empty(self):
        A = CSRMatrix(0, 0, [0], [], [])
        assert_same_outcome(A)
        L, U = ilu0(A)
        assert L.shape == U.shape == (0, 0)


class TestFactorShapes:
    def test_l_unit_lower(self):
        L, _ = ilu0(five_point(4, 4))
        dense = L.to_dense()
        np.testing.assert_allclose(np.diag(dense), np.ones(16))
        np.testing.assert_allclose(np.triu(dense, 1), 0.0)

    def test_u_upper_with_pivots(self):
        _, U = ilu0(five_point(4, 4))
        dense = U.to_dense()
        np.testing.assert_allclose(np.tril(dense, -1), 0.0)
        assert (np.diag(dense) != 0).all()

    def test_pattern_preserved(self):
        """ILU(0) admits no fill: L/U patterns equal A's triangles."""
        A = five_point(5, 5)
        L, U = ilu0(A)
        lower = A.lower_triangle()
        upper = A.upper_triangle()
        np.testing.assert_array_equal(L.indptr, lower.indptr)
        np.testing.assert_array_equal(L.indices, lower.indices)
        np.testing.assert_array_equal(U.indptr, upper.indptr)
        np.testing.assert_array_equal(U.indices, upper.indices)


class TestExactness:
    def test_tridiagonal_is_exact(self):
        """Tridiagonal patterns have no LU fill, so ILU(0) == LU."""
        n = 12
        dense = (
            np.diag(np.full(n, 4.0))
            + np.diag(np.full(n - 1, -1.0), 1)
            + np.diag(np.full(n - 1, -1.5), -1)
        )
        L, U = ilu0(CSRMatrix.from_dense(dense))
        np.testing.assert_allclose(
            L.to_dense() @ U.to_dense(), dense, atol=1e-12
        )

    def test_dense_pattern_matches_scipy_lu(self):
        rng = np.random.default_rng(3)
        dense = rng.normal(size=(8, 8)) + 8 * np.eye(8)
        L, U = ilu0(CSRMatrix.from_dense(dense))
        # No pivoting in ILU(0); diagonally dominant A keeps plain LU stable.
        _, l_ref, u_ref = scipy.linalg.lu(dense)
        np.testing.assert_allclose(L.to_dense(), l_ref, atol=1e-10)
        np.testing.assert_allclose(U.to_dense(), u_ref, atol=1e-10)

    def test_residual_vanishes_on_pattern(self):
        """The defining ILU(0) property: (LU − A) is zero at every position
        inside A's sparsity pattern."""
        A = five_point(6, 6)
        L, U = ilu0(A)
        residual = L.to_dense() @ U.to_dense() - A.to_dense()
        mask = A.to_dense() != 0
        mask[np.diag_indices_from(mask)] = True
        assert np.abs(residual[mask]).max() < 1e-12

    def test_reasonable_preconditioner_for_paper_problems(self):
        """|LU − A| off-pattern stays bounded for all five test problems
        (small versions) — the factors are usable preconditioners."""
        for name, A in paper_problems(small=True).items():
            L, U = ilu0(A)
            residual = np.abs(
                L.to_dense() @ U.to_dense() - A.to_dense()
            ).max()
            scale = np.abs(A.to_dense()).max()
            assert residual < 0.5 * scale, name


class TestErrors:
    def test_non_square_rejected(self):
        A = CSRMatrix.from_dense(np.ones((2, 3)))
        with pytest.raises(MatrixFormatError, match="square"):
            ilu0(A)

    def test_missing_diagonal_rejected(self):
        dense = np.array([[1.0, 1.0], [1.0, 0.0]])  # (1,1) outside pattern
        with pytest.raises(SingularMatrixError) as exc:
            ilu0(CSRMatrix.from_dense(dense))
        assert exc.value.row == 1

    def test_zero_pivot_rejected(self):
        # Elimination drives the (1,1) pivot to exactly zero.
        dense = np.array([[2.0, 2.0], [2.0, 2.0]])
        with pytest.raises(SingularMatrixError):
            ilu0(CSRMatrix.from_dense(dense))

    def test_input_not_modified(self):
        A = five_point(4, 4)
        before = A.data.copy()
        ilu0(A)
        np.testing.assert_allclose(A.data, before)
