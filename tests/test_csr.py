"""Tests for the CSR matrix, with SciPy and dense NumPy as oracles."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MatrixFormatError
from repro.sparse.csr import CSRMatrix


def random_dense(n_rows, n_cols, density=0.3, seed=0):
    rng = np.random.default_rng(seed)
    dense = rng.normal(size=(n_rows, n_cols))
    dense[rng.random((n_rows, n_cols)) > density] = 0.0
    return dense


class TestConstruction:
    def test_from_dense_roundtrip(self):
        dense = random_dense(6, 8, seed=1)
        A = CSRMatrix.from_dense(dense)
        np.testing.assert_allclose(A.to_dense(), dense)

    def test_validation_indptr_length(self):
        with pytest.raises(MatrixFormatError, match="indptr length"):
            CSRMatrix(2, 2, [0, 1], [0], [1.0])

    def test_validation_indptr_endpoints(self):
        with pytest.raises(MatrixFormatError, match="endpoints"):
            CSRMatrix(1, 1, [0, 2], [0], [1.0])

    def test_validation_monotone_indptr(self):
        with pytest.raises(MatrixFormatError):
            CSRMatrix(2, 3, [0, 2, 1], [0, 1, 2], [1.0, 1.0, 1.0])

    def test_validation_column_range(self):
        with pytest.raises(MatrixFormatError, match="column index"):
            CSRMatrix(1, 2, [0, 1], [2], [1.0])

    def test_validation_sorted_rows(self):
        with pytest.raises(MatrixFormatError, match="unsorted"):
            CSRMatrix(1, 3, [0, 2], [2, 0], [1.0, 1.0])

    def test_validation_duplicate_columns(self):
        with pytest.raises(MatrixFormatError, match="unsorted or duplicate"):
            CSRMatrix(1, 3, [0, 2], [1, 1], [1.0, 1.0])


class TestOperations:
    def test_matvec_matches_dense(self):
        dense = random_dense(7, 5, seed=2)
        A = CSRMatrix.from_dense(dense)
        x = np.arange(5.0)
        np.testing.assert_allclose(A.matvec(x), dense @ x)

    def test_matvec_shape_check(self):
        A = CSRMatrix.from_dense(np.eye(3))
        with pytest.raises(MatrixFormatError):
            A.matvec(np.ones(4))

    def test_get(self):
        A = CSRMatrix.from_dense([[0.0, 2.0], [3.0, 0.0]])
        assert A.get(0, 1) == 2.0
        assert A.get(0, 0) == 0.0

    def test_diagonal(self):
        dense = random_dense(5, 5, seed=3)
        A = CSRMatrix.from_dense(dense)
        np.testing.assert_allclose(A.diagonal(), np.diag(dense))

    def test_row_nnz(self):
        A = CSRMatrix.from_dense([[1.0, 1.0], [0.0, 0.0]])
        np.testing.assert_array_equal(A.row_nnz(), [2, 0])

    def test_transpose_matches_scipy(self):
        dense = random_dense(6, 9, seed=4)
        A = CSRMatrix.from_dense(dense)
        T = A.transpose()
        np.testing.assert_allclose(T.to_dense(), dense.T)
        assert T.shape == (9, 6)

    def test_transpose_empty(self):
        A = CSRMatrix(2, 3, [0, 0, 0], [], [])
        assert A.transpose().shape == (3, 2)

    def test_copy_is_independent(self):
        A = CSRMatrix.from_dense(np.eye(2))
        B = A.copy()
        B.data[0] = 99.0
        assert A.get(0, 0) == 1.0


class TestTriangles:
    def test_lower_upper_split(self):
        dense = random_dense(6, 6, density=0.6, seed=5)
        np.fill_diagonal(dense, 1.0)
        A = CSRMatrix.from_dense(dense)
        np.testing.assert_allclose(
            A.lower_triangle().to_dense(), np.tril(dense)
        )
        np.testing.assert_allclose(
            A.upper_triangle().to_dense(), np.triu(dense)
        )
        np.testing.assert_allclose(
            A.strict_lower_triangle().to_dense(), np.tril(dense, -1)
        )

    def test_unit_lower(self):
        dense = random_dense(5, 5, density=0.8, seed=6)
        np.fill_diagonal(dense, 3.0)
        A = CSRMatrix.from_dense(dense)
        L = A.lower_triangle(unit=True)
        np.testing.assert_allclose(L.diagonal(), np.ones(5))
        np.testing.assert_allclose(
            np.tril(L.to_dense(), -1), np.tril(dense, -1)
        )

    def test_unit_lower_requires_diagonal_pattern(self):
        dense = np.array([[1.0, 0.0], [1.0, 0.0]])  # row 1 lacks diagonal
        A = CSRMatrix.from_dense(dense)
        with pytest.raises(MatrixFormatError, match="no diagonal"):
            A.lower_triangle(unit=True)


class TestAgainstScipy:
    @pytest.mark.parametrize("seed", range(3))
    def test_matvec_against_scipy(self, seed):
        dense = random_dense(20, 20, density=0.2, seed=seed)
        ours = CSRMatrix.from_dense(dense)
        theirs = sp.csr_matrix(dense)
        x = np.random.default_rng(seed).normal(size=20)
        np.testing.assert_allclose(ours.matvec(x), theirs @ x)

    def test_structure_against_scipy(self):
        dense = random_dense(15, 15, density=0.25, seed=9)
        ours = CSRMatrix.from_dense(dense)
        theirs = sp.csr_matrix(dense)
        np.testing.assert_array_equal(ours.indptr, theirs.indptr)
        np.testing.assert_array_equal(ours.indices, theirs.indices)


# -- the one-pass checks against per-row references ----------------------
def reference_unsorted_row(indptr, indices):
    """The first row whose columns are unsorted or repeated, else None."""
    for i in range(len(indptr) - 1):
        row = indices[indptr[i] : indptr[i + 1]]
        if len(row) > 1 and np.any(np.diff(row) <= 0):
            return i
    return None


@st.composite
def raw_rows(draw):
    """``(n_cols, rows)``: rows of column lists, some empty, some sorted
    and unique, some with repeats or out of order."""
    n_cols = draw(st.integers(1, 6))
    cols = st.lists(st.integers(0, n_cols - 1), max_size=5)
    rows = draw(
        st.lists(
            st.one_of(cols, cols.map(lambda c: sorted(set(c)))), max_size=8
        )
    )
    return n_cols, rows


class TestOnePassValidation:
    @given(raw=raw_rows())
    @settings(max_examples=150, deadline=None)
    def test_accepts_and_rejects_like_the_row_loop(self, raw):
        n_cols, rows = raw
        indptr = np.zeros(len(rows) + 1, dtype=np.int64)
        indptr[1:] = np.cumsum([len(r) for r in rows])
        indices = np.array([c for r in rows for c in r], dtype=np.int64)
        bad = reference_unsorted_row(indptr, indices)
        data = np.ones(len(indices))
        if bad is None:
            A = CSRMatrix(len(rows), n_cols, indptr, indices, data)
            dense = np.zeros((len(rows), n_cols))
            for i, r in enumerate(rows):
                dense[i, r] = 1.0
            np.testing.assert_array_equal(A.to_dense(), dense)
            np.testing.assert_array_equal(
                A.diagonal(), np.diag(dense)[: min(dense.shape)]
            )
        else:
            with pytest.raises(MatrixFormatError) as exc:
                CSRMatrix(len(rows), n_cols, indptr, indices, data)
            assert str(exc.value) == (
                f"row {bad} has unsorted or duplicate column indices"
            )

    def test_a_repeat_across_a_row_start_is_fine(self):
        """Row 0 ends at column 2 and row 2 (after an empty row) starts
        at column 0: no row is unsorted."""
        A = CSRMatrix(3, 3, [0, 2, 2, 4], [1, 2, 0, 2], np.ones(4))
        assert A.nnz == 4

    @pytest.mark.parametrize("missing", [0, 3, 5])
    def test_unit_lower_names_the_first_row_without_a_diagonal(self, missing):
        dense = np.tril(np.ones((6, 6)))
        dense[missing, missing] = 0.0
        dense[5, 5] = 0.0
        A = CSRMatrix.from_dense(dense)
        with pytest.raises(
            MatrixFormatError,
            match=f"^row {missing} has no diagonal entry; cannot unit-scale$",
        ):
            A.lower_triangle(unit=True)

    def test_unit_lower_on_an_empty_row(self):
        A = CSRMatrix(2, 2, [0, 1, 1], [0], [5.0])
        with pytest.raises(MatrixFormatError, match="^row 1 has no diagonal"):
            A.lower_triangle(unit=True)
