"""Per-iteration read-term tables.

Each iteration of the normalized loop accumulates a sum of terms
``coeff · y[index]``.  The number of terms may vary per iteration (the
Figure-7 triangular solve reads one term per off-diagonal nonzero of the
row), so the table is stored in CSR style: ``ptr`` (length ``n+1``) delimits
each iteration's slice of the flat ``index`` and ``coeff`` arrays.  All three
arrays are contiguous NumPy arrays, so dependence analysis over them
vectorizes (per the hpc-parallel guides: keep the set-up work in array ops,
reserve Python loops for the irreducible executor core).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from repro.errors import InvalidLoopError

__all__ = ["ReadTable", "ReadSlot", "read_table_from_slots"]


@dataclass(frozen=True)
class ReadSlot:
    """Symbolic description of one read term: iteration ``i`` (for
    ``start <= i < stop``) reads ``y[subscript(i)]``.

    A loop may declare a list of slots alongside its materialized
    :class:`ReadTable`; the contract is that iteration ``i``'s terms are
    exactly its active slots in increasing slot order.  The symbolic
    analysis (``repro.analysis``) consumes the declarations;
    :func:`~repro.analysis.cross_check` (the ``VERDICT-CHECK`` lint rule)
    checks them against the materialized arrays.
    """

    subscript: "object"  # repro.ir.subscript.Subscript (avoid import cycle)
    start: int = 0
    stop: Optional[int] = None

    def active_range(self, n: int) -> tuple[int, int]:
        """Clamped ``[start, stop)`` over a loop of ``n`` iterations."""
        lo = max(0, int(self.start))
        hi = n if self.stop is None else min(n, int(self.stop))
        return lo, max(lo, hi)

    def is_active(self, i: int, n: int) -> bool:
        lo, hi = self.active_range(n)
        return lo <= i < hi


def read_table_from_slots(
    slots: Sequence[ReadSlot],
    coeffs: Sequence[float],
    n: int,
) -> ReadTable:
    """Materialize a :class:`ReadTable` from slot declarations.

    Produces the canonical layout (iteration-major, slots in increasing
    order within each iteration), so a table built this way satisfies the
    slot contract by construction.  ``coeffs`` gives one constant
    coefficient per slot.
    """
    if len(coeffs) != len(slots):
        raise InvalidLoopError(
            f"{len(slots)} slots but {len(coeffs)} coefficients"
        )
    ranges = [slot.active_range(n) for slot in slots]
    counts = np.zeros(n, dtype=np.int64)
    for lo, hi in ranges:
        counts[lo:hi] += 1
    ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=ptr[1:])
    iters = np.concatenate(
        [np.arange(lo, hi, dtype=np.int64) for lo, hi in ranges]
    ) if slots else np.empty(0, dtype=np.int64)
    slot_ids = np.concatenate(
        [np.full(hi - lo, j, dtype=np.int64) for j, (lo, hi) in enumerate(ranges)]
    ) if slots else np.empty(0, dtype=np.int64)
    order = np.lexsort((slot_ids, iters))
    index = np.empty(len(iters), dtype=np.int64)
    coeff = np.empty(len(iters), dtype=np.float64)
    for j, (slot, (lo, hi)) in enumerate(zip(slots, ranges)):
        if hi > lo:
            mask = slot_ids[order] == j
            index[mask] = slot.subscript.materialize(hi)[lo:hi]
            coeff[mask] = float(coeffs[j])
    return ReadTable(ptr, index, coeff)


class ReadTable:
    """CSR-style table of read terms: iteration ``i`` reads
    ``index[ptr[i]:ptr[i+1]]`` with coefficients ``coeff[ptr[i]:ptr[i+1]]``.
    """

    __slots__ = ("ptr", "index", "coeff")

    def __init__(self, ptr, index, coeff):
        self.ptr = np.ascontiguousarray(ptr, dtype=np.int64)
        self.index = np.ascontiguousarray(index, dtype=np.int64)
        self.coeff = np.ascontiguousarray(coeff, dtype=np.float64)
        self._validate()

    def _validate(self) -> None:
        if self.ptr.ndim != 1 or self.index.ndim != 1 or self.coeff.ndim != 1:
            raise InvalidLoopError("read table arrays must be 1-D")
        if len(self.ptr) == 0:
            raise InvalidLoopError("read table ptr must have length n+1 >= 1")
        if self.ptr[0] != 0:
            raise InvalidLoopError(f"read table ptr[0] must be 0, got {self.ptr[0]}")
        if len(self.index) != len(self.coeff):
            raise InvalidLoopError(
                f"index ({len(self.index)}) and coeff ({len(self.coeff)}) "
                f"lengths differ"
            )
        if self.ptr[-1] != len(self.index):
            raise InvalidLoopError(
                f"ptr[-1]={self.ptr[-1]} does not match term count "
                f"{len(self.index)}"
            )
        if np.any(self.ptr[1:] < self.ptr[:-1]):  # no (n,) temporary
            raise InvalidLoopError("read table ptr must be non-decreasing")

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_lists(
        cls,
        per_iteration: Iterable[Sequence[tuple[int, float]]],
    ) -> "ReadTable":
        """Build from ``[[(index, coeff), ...], ...]`` (one list per
        iteration).  Convenient for tests and small examples."""
        ptr = [0]
        idx: list[int] = []
        coeff: list[float] = []
        for terms in per_iteration:
            for j, c in terms:
                idx.append(j)
                coeff.append(c)
            ptr.append(len(idx))
        return cls(
            np.asarray(ptr, dtype=np.int64),
            np.asarray(idx, dtype=np.int64),
            np.asarray(coeff, dtype=np.float64),
        )

    @classmethod
    def from_uniform(cls, index_matrix, coeff_matrix) -> "ReadTable":
        """Build from dense ``(n, m)`` matrices: iteration ``i`` reads
        ``index_matrix[i, :]`` with ``coeff_matrix[i, :]``.  This is the
        Figure-4 shape — exactly ``M`` terms per iteration."""
        index_matrix = np.asarray(index_matrix, dtype=np.int64)
        coeff_matrix = np.asarray(coeff_matrix, dtype=np.float64)
        if index_matrix.shape != coeff_matrix.shape or index_matrix.ndim != 2:
            raise InvalidLoopError(
                f"uniform read table needs matching 2-D matrices, got "
                f"{index_matrix.shape} and {coeff_matrix.shape}"
            )
        n, m = index_matrix.shape
        ptr = np.arange(n + 1, dtype=np.int64)
        ptr *= m  # in place: one allocation
        return cls(ptr, index_matrix.reshape(-1), coeff_matrix.reshape(-1))

    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of iterations."""
        return len(self.ptr) - 1

    @property
    def total_terms(self) -> int:
        return len(self.index)

    def terms_of(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """``(indices, coeffs)`` views for iteration ``i``."""
        lo, hi = self.ptr[i], self.ptr[i + 1]
        return self.index[lo:hi], self.coeff[lo:hi]

    def term_count(self, i: int) -> int:
        return int(self.ptr[i + 1] - self.ptr[i])

    def term_counts(self) -> np.ndarray:
        """Vector of per-iteration term counts."""
        return np.diff(self.ptr)

    def iteration_of_term(self) -> np.ndarray:
        """For each flat term, the iteration it belongs to (vectorized
        inverse of ``ptr``, used by the dependence analysis)."""
        return np.repeat(
            np.arange(self.n, dtype=np.int64), np.diff(self.ptr)
        )

    def check_bounds(self, y_size: int) -> None:
        """Raise if any read index falls outside ``[0, y_size)``."""
        if len(self.index) == 0:
            return
        lo = int(self.index.min())
        hi = int(self.index.max())
        if lo < 0 or hi >= y_size:
            raise InvalidLoopError(
                f"read index out of range: min={lo}, max={hi}, "
                f"y_size={y_size}"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ReadTable(n={self.n}, terms={self.total_terms})"
