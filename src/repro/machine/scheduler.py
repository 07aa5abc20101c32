"""Iteration-to-processor scheduling policies.

The paper's parallel loops hand iterations to processors either statically or
via *self-scheduling* (a shared fetch-and-add counter).  This module provides
both families plus a guided variant, behind one small interface used by the
backends:

- static schedules precompute each processor's chunk list
  (:meth:`IterationSchedule.chunks_for`) and answer which processor runs
  each position as one array (:meth:`IterationSchedule.lanes`);
- dynamic schedules hand out chunks on demand (:meth:`IterationSchedule.claim`)
  in the order processors reach the dispatch counter — the engine's strict
  global-time ordering makes the claim order causally correct.

All policies share one crucial property, verified by tests: **every
processor receives its iterations in increasing position order**.  Together
with the doacross invariant that dependencies point backward in execution
order, this guarantees the busy-wait executor cannot deadlock (the smallest
unfinished iteration is always currently executable — see DESIGN.md §6).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ScheduleError

__all__ = [
    "SCHEDULE_KINDS",
    "IterationSchedule",
    "StaticBlockSchedule",
    "StaticCyclicSchedule",
    "DynamicSchedule",
    "GuidedSchedule",
    "make_schedule",
]

#: Kind strings accepted by :func:`make_schedule`.
SCHEDULE_KINDS = ("block", "cyclic", "dynamic", "guided")


class IterationSchedule:
    """Base class: a policy for distributing ``n`` iterations over ``p``
    processors.

    Subclasses set :attr:`is_dynamic` and implement either
    :meth:`chunks_for` (static) or :meth:`claim` (dynamic).
    """

    is_dynamic = False

    def __init__(self, n: int, processors: int):
        if n < 0:
            raise ScheduleError(f"iteration count must be >= 0, got {n}")
        if processors < 1:
            raise ScheduleError(f"processor count must be >= 1, got {processors}")
        self.n = n
        self.processors = processors

    def chunks_for(self, proc: int) -> list[tuple[int, int]]:
        """Static chunk list ``[(start, stop), ...]`` for ``proc``."""
        raise NotImplementedError

    def claim(self) -> tuple[int, int] | None:
        """Dynamically claim the next chunk, or ``None`` when exhausted."""
        raise NotImplementedError

    def reset(self) -> None:
        """Restore a dynamic schedule for reuse (static schedules: no-op)."""

    # ------------------------------------------------------------------
    def lanes(self) -> np.ndarray:
        """The processor each position is dealt to (static schedules):
        position ``p`` runs on processor ``lanes()[p]``.

        Read off :meth:`chunks_for` here, with a coverage count: a chunk
        outside ``0..n`` or a position dealt twice or never raises
        :class:`ScheduleError`.  The built-in static schedules answer in
        closed form instead.  The order *within* a processor's chunk list
        is not looked at (:meth:`validate_partition` does that).
        """
        n = self.n
        dealt = [self.chunks_for(proc) for proc in range(self.processors)]
        chunks = np.array(
            [chunk for chunks in dealt for chunk in chunks], dtype=np.int64
        ).reshape(-1, 2)
        start, stop = chunks[:, 0], chunks[:, 1]
        bad = np.nonzero((start < 0) | (start > stop) | (stop > n))[0]
        if len(bad):
            k = int(bad[0])
            raise ScheduleError(
                f"chunk ({int(start[k])}, {int(stop[k])}) out of range "
                f"for n={n}"
            )
        sizes = stop - start
        pos = np.repeat(start - (np.cumsum(sizes) - sizes), sizes)
        pos += np.arange(len(pos), dtype=np.int64)
        times = np.bincount(pos, minlength=n)
        if (times != 1).any():
            twice = np.nonzero(times > 1)[0]
            if len(twice):
                raise ScheduleError(f"iteration {int(twice[0])} assigned twice")
            missing = np.nonzero(times == 0)[0]
            raise ScheduleError(
                f"{len(missing)} iteration(s) unassigned, first: "
                f"{int(missing[0])}"
            )
        lanes = np.empty(n, dtype=np.int64)
        lanes[pos] = np.repeat(
            np.repeat(np.arange(self.processors), [len(c) for c in dealt]),
            sizes,
        )
        return lanes

    def validate_partition(self) -> None:
        """Check that a *static* schedule covers 0..n exactly once, every
        processor's chunks in increasing order.

        Raises :class:`ScheduleError` on overlap, gap or disorder.  Dynamic
        schedules are validated by construction (a single monotone
        counter).
        """
        if self.is_dynamic:
            return
        IterationSchedule.lanes(self)
        for proc in range(self.processors):
            prev_stop = -1
            for start, stop in self.chunks_for(proc):
                if start < prev_stop:
                    raise ScheduleError(
                        f"processor {proc} receives iterations out of order"
                    )
                prev_stop = stop


class StaticBlockSchedule(IterationSchedule):
    """Contiguous blocks: processor ``p`` gets iterations
    ``[p*ceil(n/P), ...)`` (the classic ``parallel do`` blocking of the
    paper's Figure-3 pre/postprocessing loops)."""

    def chunks_for(self, proc: int) -> list[tuple[int, int]]:
        if not 0 <= proc < self.processors:
            raise ScheduleError(f"no processor {proc} (P={self.processors})")
        # Balanced blocks: first (n % P) processors get one extra iteration.
        base, extra = divmod(self.n, self.processors)
        start = proc * base + min(proc, extra)
        stop = start + base + (1 if proc < extra else 0)
        if start == stop:
            return []
        return [(start, stop)]

    def lanes(self) -> np.ndarray:
        base, extra = divmod(self.n, self.processors)
        pos = np.arange(self.n, dtype=np.int64)
        longer = extra * (base + 1)  # positions in the (base + 1)-long blocks
        return np.where(
            pos < longer,
            pos // (base + 1),
            extra + (pos - longer) // max(base, 1),
        )


class StaticCyclicSchedule(IterationSchedule):
    """Chunked round-robin: chunk ``k`` (of ``chunk`` iterations) goes to
    processor ``k mod P``."""

    def __init__(self, n: int, processors: int, chunk: int = 1):
        super().__init__(n, processors)
        if chunk < 1:
            raise ScheduleError(f"chunk must be >= 1, got {chunk}")
        self.chunk = chunk

    def chunks_for(self, proc: int) -> list[tuple[int, int]]:
        if not 0 <= proc < self.processors:
            raise ScheduleError(f"no processor {proc} (P={self.processors})")
        out = []
        stride = self.chunk * self.processors
        start = proc * self.chunk
        while start < self.n:
            out.append((start, min(start + self.chunk, self.n)))
            start += stride
        return out

    def lanes(self) -> np.ndarray:
        pos = np.arange(self.n, dtype=np.int64)
        return (pos // self.chunk) % self.processors


class DynamicSchedule(IterationSchedule):
    """Self-scheduling via a shared counter, ``chunk`` iterations per grab.

    This is the paper's default executor schedule: each grab models a
    fetch-and-add on a shared variable, serialized through the machine's
    dispatch resource (the backend charges ``cost_model.dispatch`` per
    claim)."""

    is_dynamic = True

    def __init__(self, n: int, processors: int, chunk: int = 4):
        super().__init__(n, processors)
        if chunk < 1:
            raise ScheduleError(f"chunk must be >= 1, got {chunk}")
        self.chunk = chunk
        self._next = 0

    def claim(self) -> tuple[int, int] | None:
        if self._next >= self.n:
            return None
        start = self._next
        stop = min(start + self.chunk, self.n)
        self._next = stop
        return start, stop

    def reset(self) -> None:
        self._next = 0


class GuidedSchedule(IterationSchedule):
    """Guided self-scheduling: chunk size decays with remaining work,
    ``max(min_chunk, ceil(remaining / (2 P)))``.

    Large early chunks amortize dispatch cost; small late chunks balance the
    tail.  Included as an ablation point (DESIGN.md §5, Abl. A)."""

    is_dynamic = True

    def __init__(self, n: int, processors: int, min_chunk: int = 1):
        super().__init__(n, processors)
        if min_chunk < 1:
            raise ScheduleError(f"min_chunk must be >= 1, got {min_chunk}")
        self.min_chunk = min_chunk
        self._next = 0

    def claim(self) -> tuple[int, int] | None:
        if self._next >= self.n:
            return None
        remaining = self.n - self._next
        size = -(-remaining // (2 * self.processors))  # ceil division
        if size < self.min_chunk:
            size = self.min_chunk
        start = self._next
        stop = min(start + size, self.n)
        self._next = stop
        return start, stop

    def reset(self) -> None:
        self._next = 0


def make_schedule(
    kind: str, n: int, processors: int, chunk: int = 4
) -> IterationSchedule:
    """Factory: ``kind`` is one of ``"block"``, ``"cyclic"``, ``"dynamic"``,
    ``"guided"``.  ``chunk`` is the cyclic/dynamic chunk size or the guided
    minimum chunk."""
    if kind == "block":
        return StaticBlockSchedule(n, processors)
    if kind == "cyclic":
        return StaticCyclicSchedule(n, processors, chunk=chunk)
    if kind == "dynamic":
        return DynamicSchedule(n, processors, chunk=chunk)
    if kind == "guided":
        return GuidedSchedule(n, processors, min_chunk=chunk)
    raise ScheduleError(
        f"unknown schedule kind {kind!r}; expected block/cyclic/dynamic/guided"
    )
