"""Level (wavefront) scheduling of the dependence DAG.

The doconsider transformation reorders loop iterations so that all
iterations of one *level* — iterations whose true dependencies are all
satisfied by previous levels — are contiguous.  Level of an iteration:
``0`` if it has no predecessors, else ``1 + max(level of predecessors)``.

Every true dependence points backwards in iteration order (the
per-iteration read contract: iteration ``i`` reads what an *earlier*
iteration wrote), so natural order is already topological and the levels
are one forward pass over the terms — ``level[i] = 1 + max level[w]`` over
the terms of ``i`` whose writer ``w = iter[idx]`` is earlier — with no
dependence graph built and no edge deduplicated.  That pass is compiled
(:func:`repro.backends.native.wavefront_levels`, the same object as the
executor's walk); a :class:`DependenceGraph`'s predecessor lists go
through the same body.  Where no compiled object exists, the NumPy
frontier below (:func:`_wavefront_levels`, Kahn by waves over the graph)
computes the same levels.  Sorting by ``(level, original index)`` then
yields the reordered execution sequence, which by construction makes
every dependence point backward in execution order (the property
:func:`repro.backends.base.validate_execution_order` demands).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph.depgraph import DependenceGraph
from repro.ir.analysis import sorted_unique
from repro.ir.loop import IrregularLoop

__all__ = ["compute_levels", "LevelSchedule"]


@dataclass
class LevelSchedule:
    """A wavefront decomposition of a loop's iterations.

    Attributes
    ----------
    levels:
        ``levels[i]`` — the wavefront index of iteration ``i``.
    order:
        Execution order: iterations sorted by ``(level, index)``.
    level_ptr:
        CSR boundaries into ``order``: level ``k`` is
        ``order[level_ptr[k]:level_ptr[k+1]]``.
    body:
        Which body :func:`compute_levels` ran: ``"native"``, or
        ``"frontier (<reason>)"``; ``None`` for levels derived otherwise.
    """

    levels: np.ndarray
    order: np.ndarray
    level_ptr: np.ndarray
    body: str | None = None

    @classmethod
    def from_levels(
        cls, levels: np.ndarray, body: str | None = None
    ) -> "LevelSchedule":
        """The deterministic layout for given per-iteration levels —
        however they were derived (the DAG, a proven distance, distance
        groups).  A stable sort by level keeps ties in index order."""
        n = len(levels)
        order = np.argsort(levels, kind="stable").astype(np.int64, copy=False)
        n_levels = int(levels.max()) + 1 if n else 0
        level_ptr = np.zeros(n_levels + 1, dtype=np.int64)
        if n:
            level_ptr[1:] = np.cumsum(np.bincount(levels, minlength=n_levels))
        return cls(levels=levels, order=order, level_ptr=level_ptr, body=body)

    @property
    def n_levels(self) -> int:
        return len(self.level_ptr) - 1

    @property
    def n(self) -> int:
        return len(self.order)

    def level_sizes(self) -> np.ndarray:
        return np.diff(self.level_ptr)

    def slices(self):
        """Iterate ``(lo, hi)`` boundaries into ``order``, one per level —
        the wavefront batches the vectorized backend executes."""
        for k in range(self.n_levels):
            yield int(self.level_ptr[k]), int(self.level_ptr[k + 1])

    def max_width(self) -> int:
        """Widest wavefront — an upper bound on exploitable parallelism at
        any instant."""
        sizes = self.level_sizes()
        return int(sizes.max()) if len(sizes) else 0

    def average_width(self) -> float:
        """Mean iterations per wavefront — the classic level-scheduling
        parallelism estimate ``n / n_levels``."""
        if self.n_levels == 0:
            return 0.0
        return self.n / self.n_levels

    def validate(self, graph: DependenceGraph) -> None:
        """Assert the wavefront property: every edge crosses levels
        strictly upward (tested invariant, DESIGN.md §6)."""
        for w in range(graph.n):
            for r in graph.successors(w):
                if self.levels[w] >= self.levels[r]:
                    raise AssertionError(
                        f"edge {w}→{r} does not ascend levels "
                        f"({self.levels[w]} → {self.levels[r]})"
                    )


#: Waves narrower than this are walked edge by edge instead of through the
#: NumPy frontier step (~20 us a wave whatever its width, against ~0.5 us
#: an edge).  The frontier's ``compute_levels`` in ms (graph included),
#: pinned, best of 12, at 1 (never
#: scalar) / 2 / 16 / 64 / 128: ``fig4_chain`` 107 / 6.1 / 6.1 / 6.1 / 6.1,
#: ``trisolve_5pt`` 6.9 / 6.8 / 6.5 / 6.7 / 9.5, ``krylov_churn`` 3.1 /
#: 3.1 / 3.0 / 2.9 / 3.0, ``fig4_doall`` 0.7 throughout — flat from 2 to
#: 64, so the value only has to sit inside that range.
_SCALAR_BELOW = 16


def compute_levels(source: IrregularLoop | DependenceGraph) -> LevelSchedule:
    """Compute the wavefront decomposition of a loop (or its DAG): the
    compiled recurrence, else the NumPy frontier (module doc); the
    schedule's ``body`` says which ran.

    A loop whose write or read subscripts leave ``y`` — an index array
    mutated after construction — raises
    :class:`~repro.errors.InvalidLoopError` on either body.
    """
    from repro.backends import native  # that package imports this module

    if isinstance(source, DependenceGraph):
        got = native.wavefront_levels(source.pred_ptr, source.pred)
    else:
        reads = source.reads
        got = native.wavefront_levels(
            reads.ptr, reads.index, source.write, source.y_size
        )
    if not isinstance(got, str):
        return LevelSchedule.from_levels(got, "native")
    if isinstance(source, DependenceGraph):
        graph = source
    else:
        source.check_subscripts()
        graph = DependenceGraph.from_loop(source)
    return LevelSchedule.from_levels(
        _wavefront_levels(graph), f"frontier ({got})"
    )


def _wavefront_levels(graph: DependenceGraph) -> np.ndarray:
    """Kahn by waves: wave ``k`` holds the nodes whose last predecessor
    completed in wave ``k-1``, which is exactly the longest-path level.
    The body that runs when there is no compiled object.

    One algorithm, two step sizes chosen per wave from its width.  A wide
    wave is one NumPy step (gather the successor edges, decrement their
    targets, keep what reached zero): Python-level cost per *level*, array
    work per edge.  A narrow wave — a chain, the tip of a triangular
    solve — is walked edge by edge through ``memoryview``s of the very
    same arrays, so moving between the two converts nothing and a DAG may
    alternate freely.
    """
    n = graph.n
    levels = np.zeros(n, dtype=np.int64)
    indeg = graph.in_degrees().astype(np.int64)
    succ_ptr, succ = graph.succ_ptr, graph.succ
    s_levels, s_indeg, s_ptr, s_succ = map(
        memoryview, (levels, indeg, succ_ptr, succ)
    )
    frontier = np.flatnonzero(indeg == 0)
    lvl = 0
    while len(frontier):
        if len(frontier) < _SCALAR_BELOW:
            wave = frontier.tolist()
            while wave and len(wave) < _SCALAR_BELOW:
                ready = []
                for w in wave:
                    s_levels[w] = lvl
                    for e in range(s_ptr[w], s_ptr[w + 1]):
                        r = s_succ[e]
                        s_indeg[r] -= 1
                        if not s_indeg[r]:
                            ready.append(r)
                wave = ready
                lvl += 1
            frontier = np.array(wave, dtype=np.int64)
            continue
        levels[frontier] = lvl
        starts = succ_ptr[frontier]
        counts = succ_ptr[frontier + 1] - starts
        total = int(counts.sum())
        if total == 0:
            break
        # Every successor edge leaving the frontier, flat.
        targets = succ[
            np.arange(total, dtype=np.int64)
            + np.repeat(starts - (np.cumsum(counts) - counts), counts)
        ]
        np.subtract.at(indeg, targets, 1)  # O(edges); a bincount is O(n)
        frontier = sorted_unique(targets[indeg[targets] == 0])
        lvl += 1
    return levels
