"""Sparse triangular solves and the Figure-7 loop encoding.

The paper's Figure 7 (1-based)::

    do i = 1, n
        y(i) = rhs(i)
        do j = low(i), high(i)
            y(i) = y(i) - a(j) * y(column(j))
        end do
    end do

— a unit-lower-triangular forward substitution over a CSR structure, whose
inter-iteration dependencies are determined by the runtime contents of
``column``.  :func:`lower_solve_loop` encodes it as an
:class:`~repro.ir.loop.IrregularLoop` so every doacross strategy can run it;
:func:`solve_lower_unit` is the sequential reference; :func:`solve_upper` /
:func:`upper_solve_loop` complete the ILU(0) preconditioner application
(backward substitution, encoded by reversing the iteration space and
scaling each row by its pivot so the loop stays in the division-free
Figure-7 shape).
"""

from __future__ import annotations

import numpy as np

from repro.errors import MatrixFormatError
from repro.ir.accesses import ReadTable
from repro.ir.loop import INIT_EXTERNAL, IrregularLoop
from repro.ir.subscript import AffineSubscript
from repro.machine.costs import WorkProfile
from repro.sparse.csr import CSRMatrix

__all__ = [
    "TRISOLVE_WORK",
    "solve_lower_unit",
    "solve_upper",
    "lower_solve_loop",
    "upper_solve_loop",
]

#: Per-iteration work of the Figure-7 source loop.  A triangular-solve row
#: is several times heavier than a Figure-4 term: per iteration it loads the
#: ``low(i)``/``high(i)`` bounds and ``rhs(i)`` and stores ``y(i)``
#: (``overhead=8``); per term it loads ``a(j)`` and ``column(j)`` and forms
#: the indirect address (``term_setup=10``) before loading ``y(column(j))``
#: and doing the multiply-subtract (``term_consume=5``).  These ratios (term
#: ≈ 2× the default profile's, consume ≈ ⅓ of term) reproduce the paper's
#: relative overhead level for Table 1 — see DESIGN.md §7 and EXPERIMENTS.md.
TRISOLVE_WORK = WorkProfile(overhead=8, term_setup=10, term_consume=5)


def _require_unit_lower(L: CSRMatrix) -> None:
    if L.n_rows != L.n_cols:
        raise MatrixFormatError("triangular solve needs a square matrix")
    last = L.indptr[1:] - 1
    ok = L.indptr[1:] > L.indptr[:-1]
    rows = np.flatnonzero(ok)
    ok[rows] = (L.indices[last[rows]] == rows) & (L.data[last[rows]] == 1.0)
    if not ok.all():
        raise MatrixFormatError(
            f"row {int(np.argmin(ok))} is not unit-lower-triangular (needs "
            f"trailing diagonal entry 1.0)"
        )


def solve_lower_unit(L: CSRMatrix, rhs) -> np.ndarray:
    """Sequential forward substitution with unit diagonal (Figure 7).

    The sequential reference solver: a scalar row loop on purpose, the
    order every parallel result is checked against."""
    _require_unit_lower(L)
    rhs = np.asarray(rhs, dtype=np.float64)
    if rhs.shape != (L.n_rows,):
        raise MatrixFormatError(
            f"rhs must have shape ({L.n_rows},), got {rhs.shape}"
        )
    y = np.zeros(L.n_rows, dtype=np.float64)
    for i in range(L.n_rows):
        cols, vals = L.row(i)
        # All but the trailing diagonal entry are strictly lower.
        acc = rhs[i]
        for k in range(len(cols) - 1):
            acc -= vals[k] * y[cols[k]]
        y[i] = acc
    return y


def solve_upper(U: CSRMatrix, rhs) -> np.ndarray:
    """Sequential backward substitution (general diagonal).

    The sequential reference solver: a scalar row loop on purpose, like
    :func:`solve_lower_unit`."""
    if U.n_rows != U.n_cols:
        raise MatrixFormatError("triangular solve needs a square matrix")
    rhs = np.asarray(rhs, dtype=np.float64)
    if rhs.shape != (U.n_rows,):
        raise MatrixFormatError(
            f"rhs must have shape ({U.n_rows},), got {rhs.shape}"
        )
    y = np.zeros(U.n_rows, dtype=np.float64)
    for i in range(U.n_rows - 1, -1, -1):
        cols, vals = U.row(i)
        if len(cols) == 0 or cols[0] != i:
            raise MatrixFormatError(f"row {i} has no leading diagonal entry")
        acc = rhs[i]
        for k in range(1, len(cols)):
            acc -= vals[k] * y[cols[k]]
        if vals[0] == 0.0:
            raise MatrixFormatError(f"zero diagonal in row {i}")
        y[i] = acc / vals[0]
    return y


def lower_solve_loop(
    L: CSRMatrix, rhs, name: str | None = None
) -> IrregularLoop:
    """Encode the Figure-7 forward substitution as an irregular loop.

    Iteration ``i`` writes ``y[i]`` (affine identity subscript — note the
    paper still times the *full* preprocessed doacross on this loop, which
    is what Table 1 reports; the §2.3 linear shortcut is an ablation) and
    reads one term per strictly-lower nonzero: ``-L[i,j] · y[j]``.
    """
    _require_unit_lower(L)
    rhs = np.asarray(rhs, dtype=np.float64)
    if rhs.shape != (L.n_rows,):
        raise MatrixFormatError(
            f"rhs must have shape ({L.n_rows},), got {rhs.shape}"
        )
    n = L.n_rows
    # Strictly-lower part: every row's entries except the trailing diagonal.
    counts = L.row_nnz() - 1
    ptr = np.zeros(n + 1, dtype=np.int64)
    ptr[1:] = np.cumsum(counts)
    keep = np.ones(L.nnz, dtype=bool)
    keep[L.indptr[1:] - 1] = False  # drop each row's diagonal entry
    index = L.indices[keep]
    coeff = -L.data[keep]
    reads = ReadTable(ptr, index, coeff)
    return IrregularLoop(
        n=n,
        y_size=n,
        write_subscript=AffineSubscript(1, 0),
        reads=reads,
        init_kind=INIT_EXTERNAL,
        init_values=rhs,
        y0=np.zeros(n, dtype=np.float64),
        name=name if name is not None else f"trisolve(n={n},nnz={L.nnz})",
        work=TRISOLVE_WORK,
    )


def upper_solve_loop(
    U: CSRMatrix, rhs, name: str | None = None
) -> IrregularLoop:
    """Encode backward substitution as an irregular loop.

    Iteration ``p`` executes original row ``r = n−1−p`` (so dependencies
    point backward in the loop's iteration space); each row is pre-scaled by
    its pivot, turning the division into the division-free Figure-7 form:
    ``y[r] = rhs[r]/U[r,r] − Σ_{j>r} (U[r,j]/U[r,r]) · y[j]``.
    """
    if U.n_rows != U.n_cols:
        raise MatrixFormatError("triangular solve needs a square matrix")
    rhs = np.asarray(rhs, dtype=np.float64)
    if rhs.shape != (U.n_rows,):
        raise MatrixFormatError(
            f"rhs must have shape ({U.n_rows},), got {rhs.shape}"
        )
    n = U.n_rows
    # Iteration p is row r = n-1-p; its leading entry must be the pivot.
    rows = np.arange(n - 1, -1, -1, dtype=np.int64)
    lo, hi = U.indptr[rows], U.indptr[rows + 1]
    lead = hi > lo
    lead[lead] = U.indices[lo[lead]] == rows[lead]
    pivot = np.zeros(n, dtype=np.float64)
    pivot[lead] = U.data[lo[lead]]
    bad = np.flatnonzero(~lead | (pivot == 0.0))
    if len(bad):
        p = int(bad[0])
        if not lead[p]:
            raise MatrixFormatError(
                f"row {n - 1 - p} has no leading diagonal entry"
            )
        raise MatrixFormatError(f"zero diagonal in row {n - 1 - p}")
    init_values = rhs[rows] / pivot
    # Each iteration's terms: its row past the pivot, columns ascending.
    counts = hi - lo - 1
    ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=ptr[1:])
    at = np.arange(ptr[-1], dtype=np.int64)
    at += np.repeat(lo + 1 - ptr[:-1], counts)
    reads = ReadTable(
        ptr, U.indices[at], -U.data[at] / np.repeat(pivot, counts)
    )
    return IrregularLoop(
        n=n,
        y_size=n,
        write_subscript=AffineSubscript(-1, n - 1),
        reads=reads,
        init_kind=INIT_EXTERNAL,
        init_values=init_values,
        y0=np.zeros(n, dtype=np.float64),
        name=name if name is not None else f"upper-trisolve(n={n})",
        work=TRISOLVE_WORK,
    )
