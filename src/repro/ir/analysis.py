"""Dependence analysis over :class:`~repro.ir.loop.IrregularLoop`.

This module answers, from the materialized subscript values, the questions a
parallelizing compiler would ask — plus the ones it *cannot* answer before
run time (which is the paper's premise).  The runtime transformation uses
only the statically-known parts (:func:`plan_transform` in
:mod:`repro.ir.transform`); the full value-level analysis here serves

- the **doconsider** reordering (it needs the true-dependence DAG),
- the benchmark harness (dependence statistics for reports), and
- the test suite (oracles for the executor's three-way classification).

Every read term falls in exactly one category, mirroring Figure 5's
``check = iter(offset) - i`` trichotomy:

- ``TRUE``  (``writer < reader``): true dependence — executor must wait.
- ``INTRA`` (``writer == reader``): intra-iteration — read the accumulator.
- ``ANTI``  (``writer > reader``): antidependence — read the old value.
- ``NONE``  (element never written): read the old value.

All functions are vectorized NumPy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ir.loop import IrregularLoop

__all__ = [
    "CAT_TRUE",
    "CAT_INTRA",
    "CAT_ANTI",
    "CAT_NONE",
    "writer_map",
    "classify_reads",
    "dependence_pairs",
    "dependence_triples",
    "sorted_unique",
    "is_doall",
    "uniform_distance",
    "observed_distances",
    "summarize_dependences",
    "DependenceSummary",
]

CAT_TRUE = 0
CAT_INTRA = 1
CAT_ANTI = 2
CAT_NONE = 3


def writer_map(loop: IrregularLoop) -> np.ndarray:
    """For each element of ``y``: the iteration that writes it, or ``-1``.

    This is the value-level analogue of the paper's ``iter`` array
    (with ``-1`` in place of ``MAXINT``).
    """
    writers = np.full(loop.y_size, -1, dtype=np.int64)
    writers[loop.write] = np.arange(loop.n, dtype=np.int64)
    return writers


def classify_reads(
    loop: IrregularLoop,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Classify every flat read term.

    Returns ``(readers, writers, categories)``, each of length
    ``loop.reads.total_terms``:

    - ``readers[k]`` — the iteration issuing term ``k``;
    - ``writers[k]`` — the iteration writing the element term ``k`` reads
      (``-1`` if unwritten);
    - ``categories[k]`` — one of :data:`CAT_TRUE`, :data:`CAT_INTRA`,
      :data:`CAT_ANTI`, :data:`CAT_NONE`.
    """
    readers = loop.reads.iteration_of_term()
    writers = writer_map(loop)[loop.reads.index]
    categories = np.full(len(readers), CAT_NONE, dtype=np.int8)
    written = writers >= 0
    categories[written & (writers < readers)] = CAT_TRUE
    categories[written & (writers == readers)] = CAT_INTRA
    categories[written & (writers > readers)] = CAT_ANTI
    return readers, writers, categories


#: Largest ``n`` whose ``writer * n + reader`` edge key fits in int64.
_MAX_KEYED_N = 3_037_000_499


def sorted_unique(values: np.ndarray) -> np.ndarray:
    """``np.unique(values)`` of a 1-D integer array, bitwise, by a sort and
    an adjacent compare: NumPy 2.4's hash-based ``unique`` takes ~20x as
    long (40k random int64 keys: 5.1 against 0.27 ms)."""
    s = np.sort(values)
    if not len(s):
        return s
    keep = np.empty(len(s), dtype=bool)
    keep[0] = True
    np.not_equal(s[1:], s[:-1], out=keep[1:])
    return s[keep]


def _unique_pairs(writers: np.ndarray, readers: np.ndarray, n: int) -> np.ndarray:
    """Deduplicate ``(writer, reader)`` edges of an ``n``-iteration loop
    into a lexicographically sorted ``(m, 2)`` array.

    Sorts one int64 key per edge instead of ``np.unique(..., axis=0)``'s
    structured view of the rows (several times slower); ``reader < n``
    makes key order the lexicographic pair order.
    """
    if not len(writers):
        return np.empty((0, 2), dtype=np.int64)
    if n > _MAX_KEYED_N:
        return np.unique(np.stack([writers, readers], axis=1), axis=0)
    keys = sorted_unique(writers * n + readers)
    return np.stack(np.divmod(keys, n), axis=1)


def dependence_pairs(
    loop: IrregularLoop,
    classified: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """Unique true-dependence edges as an ``(m, 2)`` array of
    ``(writer, reader)`` iteration pairs, lexicographically sorted.
    ``classified`` is the loop's :func:`classify_reads`, when the caller
    already holds it."""
    readers, writers, categories = (
        classify_reads(loop) if classified is None else classified
    )
    mask = categories == CAT_TRUE
    return _unique_pairs(writers[mask], readers[mask], loop.n)


def dependence_triples(
    loop: IrregularLoop,
    classified: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """Unique true-dependence ``(writer, reader, element)`` triples as a
    lexicographically sorted ``(k, 3)`` array: the sanitizer's contract
    (:func:`repro.sanitize.detector.required_pairs`).

    An iteration writes one element, so a triple is its ``(writer,
    reader)`` edge plus ``loop.write[writer]``: one int64 key per triple,
    deduplicated by :func:`dependence_pairs`.
    """
    pairs = dependence_pairs(loop, classified)
    return np.column_stack([pairs, loop.write[pairs[:, 0]]]).astype(np.int64)


def is_doall(loop: IrregularLoop) -> bool:
    """True when no cross-iteration true dependence exists.

    Intra-iteration reads and antidependencies do not inhibit a doall once
    writes are renamed into ``ynew`` — the paper's transformation does that
    renaming anyway, so only true dependencies order iterations.
    """
    _, _, categories = classify_reads(loop)
    return not np.any(categories == CAT_TRUE)


def uniform_distance(loop: IrregularLoop) -> int | None:
    """If every true dependence has one common distance ``d > 0``, return
    ``d``; otherwise ``None``.

    A uniform distance is what the *classic* doacross needs a priori; this
    check is how the benchmark's classic baseline validates its eligibility.
    Loops with no true dependencies also return ``None`` (they are doall).
    """
    pairs = dependence_pairs(loop)
    if len(pairs) == 0:
        return None
    distances = pairs[:, 1] - pairs[:, 0]
    d = int(distances[0])
    if np.all(distances == d):
        return d
    return None


def observed_distances(loop: IrregularLoop) -> np.ndarray:
    """Sorted unique distances of the loop's true dependences.

    Empty for doall loops; a single-element array is the value-level
    counterpart of the symbolic constant-distance verdict
    (:mod:`repro.analysis`), which the cross-checker compares against.
    """
    pairs = dependence_pairs(loop)
    if len(pairs) == 0:
        return np.empty(0, dtype=np.int64)
    return np.unique(pairs[:, 1] - pairs[:, 0])


@dataclass(frozen=True)
class DependenceSummary:
    """Dependence statistics for reports and shape checks."""

    n: int
    total_terms: int
    true_terms: int
    intra_terms: int
    anti_terms: int
    unwritten_terms: int
    unique_true_edges: int
    min_distance: int | None
    max_distance: int | None
    #: Iterations that are the target of at least one true dependence.
    dependent_iterations: int

    @property
    def dependence_fraction(self) -> float:
        """Fraction of iterations ordered after some other iteration."""
        if self.n == 0:
            return 0.0
        return self.dependent_iterations / self.n


def summarize_dependences(
    loop: IrregularLoop,
    classified: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> DependenceSummary:
    """Compute a :class:`DependenceSummary` for ``loop``; ``classified``
    is its :func:`classify_reads` when the caller already holds it."""
    readers, writers, categories = (
        classify_reads(loop) if classified is None else classified
    )
    true_mask = categories == CAT_TRUE
    pairs = _unique_pairs(writers[true_mask], readers[true_mask], loop.n)
    min_d: int | None = None
    max_d: int | None = None
    dependent = 0
    if len(pairs):
        distances = pairs[:, 1] - pairs[:, 0]
        min_d, max_d = int(distances.min()), int(distances.max())
        targets = np.zeros(loop.n, dtype=bool)
        targets[pairs[:, 1]] = True
        dependent = int(np.count_nonzero(targets))
    return DependenceSummary(
        n=loop.n,
        total_terms=len(categories),
        true_terms=int(true_mask.sum()),
        intra_terms=int((categories == CAT_INTRA).sum()),
        anti_terms=int((categories == CAT_ANTI).sum()),
        unwritten_terms=int((categories == CAT_NONE).sum()),
        unique_true_edges=len(pairs),
        min_distance=min_d,
        max_distance=max_d,
        dependent_iterations=dependent,
    )
