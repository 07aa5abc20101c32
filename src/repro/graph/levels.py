"""Level (wavefront) scheduling of the dependence DAG.

The doconsider transformation reorders loop iterations so that all
iterations of one *level* — iterations whose true dependencies are all
satisfied by previous levels — are contiguous.  Level of an iteration:
``0`` if it has no predecessors, else ``1 + max(level of predecessors)``.

Every true dependence points backwards in iteration order (the
per-iteration read contract), so natural order is already topological and
the levels are one forward sweep of the max-plus recurrence
(:func:`repro.backends.native.max_plus`) with a time per *element*: its
writer's level plus one.  No dependence graph is built; one is still
accepted, swept through its predecessor lists, because the benchmark's
structure layer (``benchmarks/e2e/layers.py``) times
``compute_levels(graph)``.  Sorting by ``(level, original index)`` then
yields the reordered execution sequence, which by construction makes
every dependence point backward in execution order (the property
:func:`repro.backends.base.validate_execution_order` demands).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.graph.depgraph import DependenceGraph
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
        Which body of the sweep :func:`compute_levels` ran: ``"native"``,
        or ``"python (<reason>)"``; ``None`` for levels derived otherwise.
    """

    levels: np.ndarray
    order: np.ndarray
    level_ptr: np.ndarray
    body: str | None = None
    _max_width: int | None = field(
        default=None, init=False, repr=False, compare=False
    )

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
        any instant.  Computed once per schedule: a warm call reports it
        twice (the run's extras and its plan's audit)."""
        if self._max_width is None:
            sizes = self.level_sizes()
            self._max_width = int(sizes.max()) if len(sizes) else 0
        return self._max_width

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


def compute_levels(source: IrregularLoop | DependenceGraph) -> LevelSchedule:
    """Compute the wavefront decomposition of a loop (or its DAG): one
    sweep with unit step (module doc); ``body`` says which body ran.

    A loop whose write or read subscripts leave ``y`` raises
    :class:`~repro.errors.InvalidLoopError`, one whose write is not
    injective :class:`~repro.errors.OutputDependenceError` (an index array
    mutated after construction), on either body.
    """
    from repro.backends import native  # that package imports this module

    if isinstance(source, DependenceGraph):
        times, _, body = native.max_plus(
            source.pred_ptr, source.pred, source.n, step=1
        )
    else:
        reads = source.reads
        times, _, body = native.max_plus(
            reads.ptr, reads.index, source.y_size, write=source.write, step=1
        )
        times = times[source.write]
    times -= 1
    return LevelSchedule.from_levels(times, body)
