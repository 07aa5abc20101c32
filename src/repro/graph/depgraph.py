"""The true-dependence DAG of an irregular loop.

Nodes are iterations ``0..n-1``; there is an edge ``w → r`` for every unique
true dependence (iteration ``r`` reads an element written by ``w < r``).
Because every edge points forward in the original iteration order, the graph
is acyclic by construction and natural order is already topological — which
is why a forward sweep suffices for level computation.

Storage is CSR (two flat arrays), built vectorized from the analysis layer.

The library builds no graph (levels and cycle bounds are one sweep of
:func:`repro.backends.native.max_plus`); this module stays because the
benchmark's structure layer (``benchmarks/e2e/layers.py``) imports it.
"""

from __future__ import annotations

import numpy as np

from repro.ir.analysis import dependence_pairs
from repro.ir.loop import IrregularLoop

__all__ = ["DependenceGraph"]


class DependenceGraph:
    """CSR adjacency of the true-dependence DAG.

    Attributes
    ----------
    n:
        Number of iterations (nodes).
    succ_ptr, succ:
        CSR successors: the readers depending on iteration ``w`` are
        ``succ[succ_ptr[w]:succ_ptr[w+1]]``.
    pred_ptr, pred:
        CSR predecessors: the writers iteration ``r`` depends on.
    """

    def __init__(self, n: int, edges: np.ndarray):
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        if len(edges) and (
            edges.min() < 0 or edges.max() >= n or np.any(edges[:, 0] >= edges[:, 1])
        ):
            raise ValueError(
                "dependence edges must satisfy 0 <= writer < reader < n"
            )
        self.n = n
        self.edge_count = len(edges)

        # Successors grouped by writer.
        order = np.argsort(edges[:, 0], kind="stable") if len(edges) else []
        by_writer = edges[order] if len(edges) else edges
        self.succ_ptr = np.zeros(n + 1, dtype=np.int64)
        if len(edges):
            counts = np.bincount(by_writer[:, 0], minlength=n)
            self.succ_ptr[1:] = np.cumsum(counts)
        self.succ = by_writer[:, 1].copy() if len(edges) else np.empty(0, np.int64)

        # Predecessors grouped by reader.
        order = np.argsort(edges[:, 1], kind="stable") if len(edges) else []
        by_reader = edges[order] if len(edges) else edges
        self.pred_ptr = np.zeros(n + 1, dtype=np.int64)
        if len(edges):
            counts = np.bincount(by_reader[:, 1], minlength=n)
            self.pred_ptr[1:] = np.cumsum(counts)
        self.pred = by_reader[:, 0].copy() if len(edges) else np.empty(0, np.int64)

    @classmethod
    def from_loop(cls, loop: IrregularLoop) -> "DependenceGraph":
        return cls(loop.n, dependence_pairs(loop))

    def successors(self, w: int) -> np.ndarray:
        return self.succ[self.succ_ptr[w] : self.succ_ptr[w + 1]]

    def predecessors(self, r: int) -> np.ndarray:
        return self.pred[self.pred_ptr[r] : self.pred_ptr[r + 1]]

    def in_degrees(self) -> np.ndarray:
        return np.diff(self.pred_ptr)

    def out_degrees(self) -> np.ndarray:
        return np.diff(self.succ_ptr)

    def sources(self) -> np.ndarray:
        """Iterations with no predecessors (runnable immediately)."""
        return np.nonzero(self.in_degrees() == 0)[0]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DependenceGraph(n={self.n}, edges={self.edge_count})"
