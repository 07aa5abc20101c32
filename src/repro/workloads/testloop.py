"""The paper's Figure-4 test loop.

Original (1-based Fortran)::

    do i = 1, N
        do j = 1, M
            y(a(i)) = y(a(i)) + val(j) * y(b(i) + nbrs(j))
        end do
    end do

with the Figure-6 initialization ``a(i) = 2i``, ``b(i) = 2i``,
``nbrs(j) = 2j − L``.  The read offset of term ``j`` in iteration ``i`` is
``2i + 2j − L``; since writes land on even indices ``2w``, the element is
written by iteration ``w = i + j − L/2`` when ``L`` is even and by no
iteration when ``L`` is odd.  Hence the paper's observations:

- odd ``L``: no cross-iteration dependencies at all — the efficiency
  plateau measures pure inspector/executor overhead;
- even ``L``: term ``j`` carries a true dependence of distance ``L/2 − j``
  (for ``j < L/2``), an intra-iteration reference at ``j = L/2``, and an
  antidependence for ``j > L/2``.  Larger ``L`` pushes the binding (last
  true-dependent) term earlier in the term sequence and stretches the
  distances, so pipelined efficiency rises monotonically with ``L``.

0-based mapping (DESIGN.md §8): iteration ``i₀ = i − 1 ∈ 0..N−1``; all
``y`` indices are shifted by ``L + 2`` so the smallest read offset
(``4 − L``, possibly negative in 1-based Fortran with suitable bounds)
becomes a valid 0-based index.  The uniform shift leaves the dependence
structure untouched.
"""

from __future__ import annotations

import numpy as np

from repro.errors import InvalidLoopError
from repro.ir.accesses import ReadSlot, ReadTable
from repro.ir.loop import INIT_OLD_VALUE, IrregularLoop
from repro.ir.subscript import AffineSubscript

__all__ = ["make_test_loop", "dependence_distances"]


def make_test_loop(
    n: int,
    m: int,
    l: int,
    val: np.ndarray | None = None,
    y0_value: float = 1.0,
) -> IrregularLoop:
    """Build the Figure-4 loop with the Figure-6 parameterization.

    Parameters
    ----------
    n, m, l:
        The paper's ``N`` (outer iterations), ``M`` (terms per iteration),
        and ``L`` (the ``nbrs`` offset parameter, 1..14 in Figure 6).
    val:
        The ``val(j)`` coefficients (length ``m``).  Defaults to
        ``0.5 / m`` for every term, which keeps the recurrence bounded over
        arbitrarily long dependence chains.
    y0_value:
        Initial value of every ``y`` element.
    """
    if n < 1:
        raise InvalidLoopError(f"test loop needs n >= 1, got {n}")
    if m < 1:
        raise InvalidLoopError(f"test loop needs m >= 1, got {m}")
    if l < 1:
        raise InvalidLoopError(f"test loop needs l >= 1, got {l}")
    if val is None:
        val = np.full(m, 0.5 / m, dtype=np.float64)
    else:
        val = np.asarray(val, dtype=np.float64)
        if val.shape != (m,):
            raise InvalidLoopError(
                f"val must have shape ({m},), got {val.shape}"
            )

    shift = l + 2
    # a(i) = 2i, 1-based  →  i₀ ↦ 2(i₀ + 1) + shift.
    write_subscript = AffineSubscript(2, 2 + shift)

    # offset(i, j) = b(i) + nbrs(j) = 2i + 2j − L, then shifted, for the
    # paper's 1-based i and j: one (n,) and one (n, m) allocation, filled a
    # column per term (an outer add walks rows of m, about twice as slow).
    b_shifted = np.arange(2 + shift, 2 * n + 2 + shift, 2, dtype=np.int64)
    index_matrix = np.empty((n, m), dtype=np.int64)
    for j in range(1, m + 1):
        np.add(b_shifted, 2 * j - l, out=index_matrix[:, j - 1])
    coeff_matrix = np.tile(val, (n, 1))
    reads = ReadTable.from_uniform(index_matrix, coeff_matrix)

    # The largest offset is the last iteration's last term's.
    y_size = max(write_subscript(n - 1), int(b_shifted[-1]) + 2 * m - l) + 1
    y0 = np.full(y_size, y0_value, dtype=np.float64)
    # Term j₀ reads offset(i₀) = 2·i₀ + (4 + 2j₀ − L + shift): affine in the
    # loop index, so the whole read side is declared symbolically.
    slots = [
        ReadSlot(AffineSubscript(2, 4 + 2 * j0 - l + shift))
        for j0 in range(m)
    ]
    return IrregularLoop(
        n=n,
        y_size=y_size,
        write_subscript=write_subscript,
        reads=reads,
        init_kind=INIT_OLD_VALUE,
        y0=y0,
        name=f"figure4(N={n},M={m},L={l})",
        read_slots=slots,
    )


def dependence_distances(m: int, l: int) -> list[int]:
    """True-dependence distances carried by the Figure-4 loop's terms.

    For odd ``L`` the list is empty.  For even ``L``, term ``j`` (1-based)
    carries distance ``L/2 − j`` when that is positive; ``j = L/2`` is the
    intra-iteration reference and larger ``j`` are antidependencies.
    """
    if l % 2 == 1:
        return []
    half = l // 2
    return [half - j for j in range(1, m + 1) if half - j >= 1]
