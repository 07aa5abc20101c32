"""Compressed-sparse-row matrix.

A deliberately small, self-contained CSR implementation — the substrate the
Figure-7 triangular-solve loop walks (``low(i)``/``high(i)`` are exactly
``indptr[i]``/``indptr[i+1]``, ``column(j)`` is ``indices[j]``, ``a(j)`` is
``data[j]``).  Column indices within each row are kept sorted; duplicate
summing happens at construction (:class:`~repro.sparse.coo.COOBuilder`).
"""

from __future__ import annotations

import numpy as np

from repro.errors import MatrixFormatError

__all__ = ["CSRMatrix"]


class CSRMatrix:
    """CSR matrix with sorted, duplicate-free rows."""

    __slots__ = ("n_rows", "n_cols", "indptr", "indices", "data")

    def __init__(self, n_rows: int, n_cols: int, indptr, indices, data):
        self.n_rows = int(n_rows)
        self.n_cols = int(n_cols)
        self.indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        self.indices = np.ascontiguousarray(indices, dtype=np.int64)
        self.data = np.ascontiguousarray(data, dtype=np.float64)
        self._validate()

    def _validate(self) -> None:
        if len(self.indptr) != self.n_rows + 1:
            raise MatrixFormatError(
                f"indptr length {len(self.indptr)} != n_rows+1 = "
                f"{self.n_rows + 1}"
            )
        if self.indptr[0] != 0 or self.indptr[-1] != len(self.indices):
            raise MatrixFormatError("indptr endpoints inconsistent with nnz")
        if len(self.indices) != len(self.data):
            raise MatrixFormatError("indices/data length mismatch")
        if len(self.indptr) > 1 and np.any(np.diff(self.indptr) < 0):
            raise MatrixFormatError("indptr must be non-decreasing")
        if len(self.indices):
            if self.indices.min() < 0 or self.indices.max() >= self.n_cols:
                raise MatrixFormatError("column index out of range")
        # Sorted, duplicate-free rows: the column step is positive
        # everywhere except where a row starts.
        step_ok = np.diff(self.indices) > 0
        starts = self.indptr[1:-1]
        step_ok[starts[(starts > 0) & (starts < len(self.indices))] - 1] = True
        if not step_ok.all():
            first = int(np.argmin(step_ok)) + 1  # first offending position
            i = int(np.searchsorted(self.indptr, first, side="right")) - 1
            raise MatrixFormatError(
                f"row {i} has unsorted or duplicate column indices"
            )

    # ------------------------------------------------------------------
    @classmethod
    def from_dense(cls, dense) -> "CSRMatrix":
        """Build from a dense array, dropping exact zeros."""
        dense = np.asarray(dense, dtype=np.float64)
        if dense.ndim != 2:
            raise MatrixFormatError("dense input must be 2-D")
        rows, cols = np.nonzero(dense)
        n_rows, n_cols = dense.shape
        indptr = np.zeros(n_rows + 1, dtype=np.int64)
        indptr[1:] = np.cumsum(np.bincount(rows, minlength=n_rows))
        return cls(n_rows, n_cols, indptr, cols, dense[rows, cols])

    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_rows, self.n_cols)

    @property
    def nnz(self) -> int:
        return len(self.indices)

    def row(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """``(columns, values)`` views of row ``i``."""
        lo, hi = self.indptr[i], self.indptr[i + 1]
        return self.indices[lo:hi], self.data[lo:hi]

    def row_nnz(self) -> np.ndarray:
        return np.diff(self.indptr)

    def row_of(self) -> np.ndarray:
        """The row of every stored entry (length ``nnz``)."""
        return np.repeat(
            np.arange(self.n_rows, dtype=np.int64), np.diff(self.indptr)
        )

    def get(self, i: int, j: int) -> float:
        """Entry ``(i, j)`` (0.0 when outside the pattern)."""
        cols, vals = self.row(i)
        k = np.searchsorted(cols, j)
        if k < len(cols) and cols[k] == j:
            return float(vals[k])
        return 0.0

    def to_dense(self) -> np.ndarray:
        out = np.zeros(self.shape, dtype=np.float64)
        out[self.row_of(), self.indices] = self.data
        return out

    def matvec(self, x) -> np.ndarray:
        """``A @ x``, computed segment-wise (vectorized)."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.n_cols,):
            raise MatrixFormatError(
                f"matvec expects shape ({self.n_cols},), got {x.shape}"
            )
        products = self.data * x[self.indices]
        out = np.zeros(self.n_rows, dtype=np.float64)
        if len(products):
            np.add.at(out, self.row_of(), products)
        return out

    def diagonal(self) -> np.ndarray:
        """The main diagonal (zeros where outside the pattern)."""
        out = np.zeros(min(self.n_rows, self.n_cols), dtype=np.float64)
        on = self.indices == self.row_of()
        out[self.indices[on]] = self.data[on]
        return out

    # ------------------------------------------------------------------
    def _filtered(self, keep_mask: np.ndarray) -> "CSRMatrix":
        """New matrix keeping only the flagged entries."""
        indptr = np.zeros(self.n_rows + 1, dtype=np.int64)
        np.cumsum(
            np.bincount(self.row_of()[keep_mask], minlength=self.n_rows),
            out=indptr[1:],
        )
        return CSRMatrix(
            self.n_rows,
            self.n_cols,
            indptr,
            self.indices[keep_mask],
            self.data[keep_mask],
        )

    def lower_triangle(self, unit: bool = False) -> "CSRMatrix":
        """The lower triangle (diagonal included).

        ``unit=True`` replaces the diagonal values with exact ones — the
        form the Figure-7 unit-lower solve consumes.
        """
        out = self._filtered(self.indices <= self.row_of())
        if unit:
            # A kept row's diagonal, if present, is its last entry.
            last = out.indptr[1:] - 1
            has = out.indptr[1:] > out.indptr[:-1]
            has[has] = out.indices[last[has]] == np.flatnonzero(has)
            if not has.all():
                i = int(np.argmin(has))
                raise MatrixFormatError(
                    f"row {i} has no diagonal entry; cannot unit-scale"
                )
            out.data[last] = 1.0
        return out

    def strict_lower_triangle(self) -> "CSRMatrix":
        return self._filtered(self.indices < self.row_of())

    def upper_triangle(self) -> "CSRMatrix":
        return self._filtered(self.indices >= self.row_of())

    def transpose(self) -> "CSRMatrix":
        """CSR transpose (CSC reinterpretation + re-bucketing)."""
        if self.nnz == 0:
            return CSRMatrix(
                self.n_cols,
                self.n_rows,
                np.zeros(self.n_cols + 1, dtype=np.int64),
                np.empty(0, dtype=np.int64),
                np.empty(0, dtype=np.float64),
            )
        row_of = self.row_of()
        order = np.lexsort((row_of, self.indices))
        new_rows = self.indices[order]
        indptr = np.zeros(self.n_cols + 1, dtype=np.int64)
        indptr[1:] = np.cumsum(np.bincount(new_rows, minlength=self.n_cols))
        return CSRMatrix(
            self.n_cols, self.n_rows, indptr, row_of[order], self.data[order]
        )

    def copy(self) -> "CSRMatrix":
        return CSRMatrix(
            self.n_rows,
            self.n_cols,
            self.indptr.copy(),
            self.indices.copy(),
            self.data.copy(),
        )

    def __repr__(self) -> str:
        return (
            f"CSRMatrix({self.n_rows}x{self.n_cols}, nnz={self.nnz})"
        )
