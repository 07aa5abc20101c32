"""ILU(0) incomplete factorization.

The paper's triangular systems "arise from incompletely factored matrices"
(§3.2).  ILU(0) computes ``A ≈ L·U`` where the factors' sparsity patterns
equal the lower/upper triangles of ``A`` — no fill-in is admitted.  That
pattern preservation is what makes the substitution in DESIGN.md §3 sound:
the dependence DAG of the ``L`` solve is fixed by ``A``'s pattern alone.

Algorithm: the standard row-oriented IKJ formulation (Saad, *Iterative
Methods for Sparse Linear Systems*, alg. 10.4), restricted to ``A``'s
pattern.  ``L`` is unit lower triangular (unit diagonal stored explicitly so
the Figure-7 solve can consume it directly); ``U`` carries the pivots.

IKJ's row loop is a loop of the paper's own kind: row ``i`` reads the
finished rows ``k`` of its strict lower pattern, so its dependence DAG is
the ``L`` solve's, and so are its wavefronts.  It is run the paper's way,
inspected once and then executed wavefront by wavefront:

- *Symbolic phase* (:func:`_schedule`).  Each row's diagonal position, by
  one ``searchsorted`` over the ``row·n + col`` keys; each strict-lower
  entry ``(i, k)``'s *step*, its rank among row ``i``'s lower entries; the
  update triples ``(target = pos(i, j), source = pos(k, j), mult =
  pos(i, k))`` for every ``j > k`` in both rows; and row levels from one
  unit-step :func:`repro.backends.native.max_plus` sweep, the one
  :func:`~repro.graph.levels.compute_levels` makes.  Entries and triples
  are sorted into ``(level, step)`` groups.
- *Numeric phase* (:func:`_factor`).  Per group, one division
  ``data[kk] = data[kk] / data[pivot]`` and one update ``data[target] =
  data[target] - data[mult] * data[source]``.

Why the bits are those of the scalar loop: rows of one level are
independent (pivots and sources lie in rows of lower levels, a multiplier
at a column below every target of its row), so no group reads what it
writes; within a group every target is distinct; each entry receives its
updates in the scalar order, ascending ``k``, one step per group; and each
update is one multiply and then one subtract, never fused.  A zero pivot
met before a division stops every row from its own on, so nothing is
divided by zero; the rows below the first zero pivot are exact, so the
error names the row the scalar loop would.
"""

from __future__ import annotations

import numpy as np

from repro.errors import MatrixFormatError, SingularMatrixError
from repro.sparse.csr import CSRMatrix

__all__ = ["ilu0"]


def _diagonal_positions(keys: np.ndarray, n: int) -> np.ndarray:
    """Flat data index of each row's diagonal entry (must exist), from
    the ascending ``row·n + col`` keys."""
    want = np.arange(n, dtype=np.int64) * (n + 1)
    pos = np.searchsorted(keys, want)
    found = pos < len(keys)
    found[found] = keys[pos[found]] == want[found]
    if not found.all():
        raise SingularMatrixError(int(np.argmin(found)))
    return pos


def _schedule(A: CSRMatrix, diag: np.ndarray, keys: np.ndarray):
    """The symbolic phase: ``(kk, pivot, e_bounds, target, source, mult,
    t_bounds)``, entries and triples in ``(level, step)`` order, group
    ``g`` holding ``[e_bounds[g], e_bounds[g+1])`` and ``[t_bounds[g],
    t_bounds[g+1])`` of them."""
    from repro.backends import native  # that package imports repro.sparse

    n, indptr, indices = A.n_rows, A.indptr, A.indices
    lower_ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(diag - indptr[:-1], out=lower_ptr[1:])
    row_of = A.row_of()
    kk = np.flatnonzero(indices < row_of)  # strict lower, row-major
    row, col = row_of[kk], indices[kk]
    level = native.max_plus(lower_ptr, col, n, step=1)[0]
    step = kk - indptr[row]
    group = level[row] * (int(step.max(initial=0)) + 1) + step
    # Candidates: for lower entry e = (i, k), row k's entries past its
    # diagonal; a triple where (i, j) is in row i too.
    reps = (indptr[1:] - diag - 1)[col]
    entry = np.repeat(np.arange(len(kk), dtype=np.int64), reps)
    source = np.arange(len(entry), dtype=np.int64)
    source += np.repeat(diag[col] + 1 - (np.cumsum(reps) - reps), reps)
    want = row[entry] * n + indices[source]
    target = np.searchsorted(keys, want)
    np.minimum(target, len(keys) - 1, out=target)
    hit = keys[target] == want
    entry, source, target = entry[hit], source[hit], target[hit]

    e_order = np.argsort(group, kind="stable")
    e_group = group[e_order]
    heads = np.ones(len(kk), dtype=bool)
    heads[1:] = e_group[1:] != e_group[:-1]
    heads = np.flatnonzero(heads)
    t_group = group[entry]
    t_order = np.argsort(t_group, kind="stable")
    t_bounds = np.searchsorted(t_group[t_order], e_group[heads])
    return (
        kk[e_order],
        diag[col][e_order],
        [*heads.tolist(), len(kk)],
        target[t_order],
        source[t_order],
        kk[entry[t_order]],
        [*t_bounds.tolist(), len(entry)],
    )


def _factor(indptr: np.ndarray, data: np.ndarray, schedule) -> None:
    """The numeric phase, in place on ``data``: group by group."""
    kk, pivot, e_bounds, target, source, mult, t_bounds = schedule
    stop = len(data)  # entries at or past the first zero pivot's row
    for g in range(len(e_bounds) - 1):
        e = slice(e_bounds[g], e_bounds[g + 1])
        at, piv = kk[e], data[pivot[e]]
        if not piv.all():  # a finished row with a zero pivot
            k = np.searchsorted(indptr, pivot[e][piv == 0.0].min(), "right")
            stop = min(stop, int(indptr[k - 1]))
        t = slice(t_bounds[g], t_bounds[g + 1])
        tgt, mlt, src = target[t], mult[t], source[t]
        if stop < len(data):
            keep = at < stop
            at, piv = at[keep], piv[keep]
            keep = tgt < stop
            tgt, mlt, src = tgt[keep], mlt[keep], src[keep]
        data[at] = data[at] / piv
        data[tgt] = data[tgt] - data[mlt] * data[src]


def ilu0(A: CSRMatrix) -> tuple[CSRMatrix, CSRMatrix]:
    """Factor ``A ≈ L·U`` on ``A``'s pattern.

    Returns ``(L, U)``: ``L`` unit lower triangular (explicit 1.0 diagonal),
    ``U`` upper triangular including the pivots.  Raises
    :class:`~repro.errors.SingularMatrixError` on a zero pivot or a missing
    diagonal (the first such row) and
    :class:`~repro.errors.MatrixFormatError` on a non-square input.

    Exactness property (tested): when ``A``'s pattern already contains all
    LU fill (e.g. dense or tridiagonal patterns), ``L·U == A`` to rounding.
    """
    if A.n_rows != A.n_cols:
        raise MatrixFormatError(
            f"ILU(0) needs a square matrix, got {A.n_rows}x{A.n_cols}"
        )
    n = A.n_rows
    keys = A.row_of() * n + A.indices  # ascending: sorted rows
    diag = _diagonal_positions(keys, n)
    data = A.data.copy()
    _factor(A.indptr, data, _schedule(A, diag, keys))
    zero = np.flatnonzero(data[diag] == 0.0)
    if len(zero):
        raise SingularMatrixError(int(zero[0]))

    factored = CSRMatrix(n, n, A.indptr.copy(), A.indices.copy(), data)
    L = factored.lower_triangle(unit=True)
    U = factored.upper_triangle()
    return L, U
