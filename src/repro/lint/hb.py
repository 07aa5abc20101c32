"""Happens-before race checking of backend schedules.

The executor protocol is only correct if, for every true dependence
``w → r`` found by the value-level analysis
(:func:`repro.ir.analysis.dependence_pairs`), the backend's schedule
*orders* the write of ``w`` before the read of ``r``.  Each backend
induces that order differently:

- **vectorized** — a barrier between wavefront levels
  (:meth:`~repro.graph.levels.LevelSchedule.slices`): the write happens
  before the read iff ``level(w) < level(r)``;
- **threaded** — program order within a thread (cyclic position
  assignment, increasing positions) plus the per-element ``ready`` events
  the executor actually waits on (it waits iff ``iter[element] < i``);
- **simulated** — the same protocol with the iteration→processor map
  coming from an :class:`~repro.machine.scheduler.IterationSchedule`
  (the simulated event order: each processor issues its positions in
  increasing order, ``WaitFlag`` edges supply cross-processor ordering).

This module builds those partial orders as small vectorized models and
checks every dependence edge against them.  An edge the model does not
cover is a **race**: some interleaving of the schedule lets the reader
observe the element before its writer stores it.  The check is
deliberately direct (no transitive closure): the doacross protocol covers
every true dependence edge *directly* — by a level barrier, by same-worker
program order, or by a wait on the written element — so direct coverage is
both sound and exact for uncorrupted schedules (tested), while corrupted
schedules (a swapped level pair, a stale ``iter`` entry) show up as races.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.backends import kernel
from repro.backends.base import inverse_permutation
from repro.graph.levels import LevelSchedule, compute_levels
from repro.ir.analysis import dependence_pairs, writer_map
from repro.ir.loop import IrregularLoop
from repro.machine.scheduler import IterationSchedule, make_schedule

__all__ = [
    "Race",
    "RaceReport",
    "LevelHappensBefore",
    "WorkerHappensBefore",
    "GroupHappensBefore",
    "waits_from_iter",
    "level_happens_before",
    "group_happens_before",
    "threaded_happens_before",
    "multiproc_happens_before",
    "simulated_happens_before",
    "check_dependence_coverage",
    "check_backend_schedule",
    "RACE_CHECKED_BACKENDS",
]

#: The backends whose schedule :func:`check_backend_schedule` models.
RACE_CHECKED_BACKENDS = ("vectorized", "threaded", "multiproc", "simulated")


@dataclass(frozen=True)
class Race:
    """One true dependence the schedule fails to order.

    ``writer``/``reader`` are iteration indices; ``element`` is the ``y``
    index written by ``writer`` and read by ``reader``.
    """

    writer: int
    reader: int
    element: int

    def describe(self) -> str:
        return (
            f"iteration {self.reader} reads y[{self.element}] written by "
            f"iteration {self.writer} with no happens-before edge between "
            f"them"
        )


@dataclass(frozen=True)
class RaceReport:
    """Outcome of checking one schedule against one loop's dependences."""

    loop_name: str
    schedule_label: str
    checked_edges: int
    races: tuple[Race, ...]

    @property
    def passed(self) -> bool:
        return not self.races

    def summary(self) -> str:
        head = (
            f"race check [{self.schedule_label}] on {self.loop_name}: "
            f"{self.checked_edges} true-dependence edge(s)"
        )
        if self.passed:
            return f"{head} — all covered (no races)"
        lines = [f"{head} — {len(self.races)} RACE(S)"]
        lines += [f"  {race.describe()}" for race in self.races]
        return "\n".join(lines)

    def as_dict(self) -> dict:
        return {
            "loop": self.loop_name,
            "schedule": self.schedule_label,
            "checked_edges": self.checked_edges,
            "passed": self.passed,
            "races": [
                {
                    "writer": r.writer,
                    "reader": r.reader,
                    "element": r.element,
                }
                for r in self.races
            ],
        }


# ----------------------------------------------------------------------
# Happens-before models
# ----------------------------------------------------------------------
class LevelHappensBefore:
    """Barrier-ordered wavefronts: ``w`` happens before ``r`` iff ``w``'s
    level is strictly lower (the vectorized backend's execution model)."""

    def __init__(self, levels: np.ndarray, label: str = "level-schedule"):
        self.levels = np.asarray(levels, dtype=np.int64)
        self.label = label

    def covers(
        self,
        writers: np.ndarray,
        readers: np.ndarray,
        elements: np.ndarray,
    ) -> np.ndarray:
        return self.levels[writers] < self.levels[readers]


class WorkerHappensBefore:
    """Per-worker program order plus explicit element waits.

    ``w`` happens before ``r`` iff they run on the same worker with ``w``
    at an earlier position, or ``r`` performs a blocking wait on the
    element ``w`` writes (the write subscript is injective, so the element
    identifies its writer's ``ready`` flag uniquely).
    """

    def __init__(
        self,
        worker: np.ndarray,
        pos: np.ndarray,
        wait_keys: np.ndarray,
        y_size: int,
        label: str,
    ):
        self.worker = np.asarray(worker, dtype=np.int64)
        self.pos = np.asarray(pos, dtype=np.int64)
        #: Sorted encoded ``reader * y_size + element`` wait pairs.
        self.wait_keys = np.asarray(wait_keys, dtype=np.int64)
        self.y_size = y_size
        self.label = label

    def covers(
        self,
        writers: np.ndarray,
        readers: np.ndarray,
        elements: np.ndarray,
    ) -> np.ndarray:
        program_order = (self.worker[writers] == self.worker[readers]) & (
            self.pos[writers] < self.pos[readers]
        )
        keys = readers * np.int64(self.y_size) + elements
        waited = np.isin(keys, self.wait_keys, assume_unique=False)
        return program_order | waited


class GroupHappensBefore:
    """Group-synchronous order: the distance-elided execution mode.

    When the dependence-test battery proves every cross-iteration true
    dependence has distance >= ``group``, the backends run natural-order
    groups of ``group`` consecutive iterations with one barrier between
    groups and no per-element flags.  ``w`` happens before ``r`` iff
    ``w``'s group is strictly earlier — which covers every true
    dependence exactly when the bound holds (``r - w >= group`` puts the
    writer below the reader's group floor).
    """

    def __init__(self, group: int, label: str = "group-sync"):
        if group < 1:
            raise ValueError(f"group size must be >= 1, got {group}")
        self.group = int(group)
        self.label = label

    def covers(
        self,
        writers: np.ndarray,
        readers: np.ndarray,
        elements: np.ndarray,
    ) -> np.ndarray:
        return writers // self.group < readers // self.group


def group_happens_before(
    group: int, backend: str = "threaded"
) -> GroupHappensBefore:
    """The order a distance-elided (``group_sync``) run induces."""
    return GroupHappensBefore(group, label=f"{backend}/group({group})")


def _positions(loop: IrregularLoop, order: np.ndarray | None) -> np.ndarray:
    if order is None:
        return np.arange(loop.n, dtype=np.int64)
    return inverse_permutation(np.asarray(order, dtype=np.int64))


def _wait_keys(
    loop: IrregularLoop,
    iter_array: np.ndarray | None,
    chunk: int,
    pos: np.ndarray | None = None,
) -> np.ndarray:
    """Encoded ``(reader, element)`` pairs of the terms the executor
    kernel codes :data:`~repro.backends.kernel.WAIT` — the same
    classification the backends execute by."""
    if iter_array is None:
        iter_array = writer_map(loop)
    reads = loop.reads
    codes = kernel.classify_terms(
        reads.ptr,
        reads.index,
        np.asarray(iter_array, dtype=np.int64),
        np.arange(loop.n, dtype=np.int64),
        chunk,
        pos,
    )
    waited = codes == kernel.WAIT
    readers = reads.iteration_of_term()[waited]
    return np.unique(readers * np.int64(loop.y_size) + reads.index[waited])


def waits_from_iter(
    loop: IrregularLoop, iter_array: np.ndarray | None = None
) -> np.ndarray:
    """Encoded ``(reader, element)`` pairs the executor blocks on.

    The Figure-5 executor waits on ``ready[element]`` exactly when
    ``iter[element] < i`` — so the wait set is a pure function of the
    ``iter`` array the inspector produced.  Pass a corrupted ``iter``
    (stale entry, swapped writer) to model a broken inspector; the default
    is the correct :func:`~repro.ir.analysis.writer_map` contents.
    """
    return _wait_keys(loop, iter_array, chunk=1)


# ----------------------------------------------------------------------
# Builders, one per backend family
# ----------------------------------------------------------------------
def level_happens_before(
    source: IrregularLoop | LevelSchedule,
) -> LevelHappensBefore:
    """The vectorized backend's order, read off the wavefront slices."""
    schedule = (
        source
        if isinstance(source, LevelSchedule)
        else compute_levels(source)
    )
    # Rebuild level-of-iteration from the slices the backend executes —
    # checking the object the executor consumes, not the one the
    # inspector intended.
    levels = np.full(schedule.n, -1, dtype=np.int64)
    for k, (lo, hi) in enumerate(schedule.slices()):
        levels[schedule.order[lo:hi]] = k
    return LevelHappensBefore(
        levels, label=f"vectorized/levels({schedule.n_levels})"
    )


def _protocol_happens_before(
    loop: IrregularLoop,
    workers: int,
    chunk: int,
    iter_array: np.ndarray | None,
    order: np.ndarray | None,
    label: str,
) -> WorkerHappensBefore:
    """The flag protocol's order under the executor kernel's placement:
    strips of ``chunk`` positions dealt round-robin to ``workers`` lanes,
    each walked in increasing order, plus a wait per ``WAIT``-coded
    term."""
    pos = _positions(loop, order)
    return WorkerHappensBefore(
        worker=kernel.lane_of(pos, chunk, workers),
        pos=pos,
        wait_keys=_wait_keys(loop, iter_array, chunk, pos),
        y_size=loop.y_size,
        label=label,
    )


def threaded_happens_before(
    loop: IrregularLoop,
    threads: int,
    iter_array: np.ndarray | None = None,
    order: np.ndarray | None = None,
) -> WorkerHappensBefore:
    """The threaded backend's order: cyclic position→thread assignment
    (strips of one position; each thread walks its positions in
    increasing order) plus the ``ready``-event waits derived from
    ``iter_array``."""
    t = min(threads, max(loop.n, 1))
    return _protocol_happens_before(
        loop, t, 1, iter_array, order, f"threaded({t} threads)"
    )


def multiproc_happens_before(
    loop: IrregularLoop,
    workers: int,
    chunk: int | None = None,
    iter_array: np.ndarray | None = None,
    order: np.ndarray | None = None,
) -> WorkerHappensBefore:
    """The multiproc backend's order: contiguous position chunks of size
    ``chunk`` (``None``: the backend's default) dealt round-robin to
    workers, plus the ``ready``-flag ladder waits.

    The backend skips the flag for a true dependence whose writer sits
    *earlier in the reader's own chunk* (the worker itself wrote ``ynew``
    moments before — the kernel codes it ``LOCAL``), so those edges are
    not in the wait set here — they are covered by same-worker program
    order instead, and a corrupted ``iter_array`` disturbs exactly the
    waits the real executor would drop.
    """
    if chunk is None:
        chunk = kernel.default_chunk(loop.n, workers)
    return _protocol_happens_before(
        loop, workers, chunk, iter_array, order,
        f"multiproc({workers} workers, chunk={chunk})",
    )


def simulated_happens_before(
    loop: IrregularLoop,
    processors: int,
    schedule: IterationSchedule | str | None = None,
    chunk: int = 1,
    iter_array: np.ndarray | None = None,
    order: np.ndarray | None = None,
) -> WorkerHappensBefore:
    """The simulated backend's order: the iteration schedule's
    position→processor map plus ``WaitFlag`` edges from ``iter_array``.

    Static schedules expose their chunk lists directly.  Dynamic
    schedules hand chunks out in claim order to whichever processor
    reaches the dispatch counter first; the processor identity is
    timing-dependent, so each claimed chunk is modeled as its own worker
    — a conservative order (chunk-internal sequencing is kept, cross-chunk
    ordering must come from waits), which the protocol satisfies because
    the executor waits on *every* true dependence regardless of placement.
    """
    n = loop.n
    if isinstance(schedule, IterationSchedule):
        sched = schedule
        sched.reset()
    else:
        sched = make_schedule(
            "cyclic" if schedule is None else schedule,
            n,
            processors,
            chunk=chunk,
        )
    pos = _positions(loop, order)

    worker_of_position = np.full(n, -1, dtype=np.int64)
    if sched.is_dynamic:
        wid = 0
        while True:
            claim = sched.claim()
            if claim is None:
                break
            worker_of_position[claim[0] : claim[1]] = wid
            wid += 1
        sched.reset()
        label = f"simulated/{type(sched).__name__}(dynamic)"
    else:
        for proc in range(sched.processors):
            for lo, hi in sched.chunks_for(proc):
                worker_of_position[lo:hi] = proc
        label = f"simulated/{type(sched).__name__}({processors}p)"
    return WorkerHappensBefore(
        worker=worker_of_position[pos],
        pos=pos,
        wait_keys=waits_from_iter(loop, iter_array),
        y_size=loop.y_size,
        label=label,
    )


# ----------------------------------------------------------------------
# The checker
# ----------------------------------------------------------------------
def check_dependence_coverage(
    loop: IrregularLoop,
    hb: LevelHappensBefore | WorkerHappensBefore,
    max_races: int = 20,
) -> RaceReport:
    """Verify every true-dependence edge is covered by ``hb``.

    Returns a :class:`RaceReport`; at most ``max_races`` uncovered edges
    are materialized as :class:`Race` records (the count in the summary is
    always exact).
    """
    pairs = dependence_pairs(loop)
    if len(pairs) == 0:
        return RaceReport(
            loop_name=loop.name,
            schedule_label=hb.label,
            checked_edges=0,
            races=(),
        )
    writers, readers = pairs[:, 0], pairs[:, 1]
    elements = loop.write[writers]
    covered = hb.covers(writers, readers, elements)
    bad = np.nonzero(~covered)[0]
    races = tuple(
        Race(
            writer=int(writers[k]),
            reader=int(readers[k]),
            element=int(elements[k]),
        )
        for k in bad[:max_races]
    )
    report = RaceReport(
        loop_name=loop.name,
        schedule_label=hb.label,
        checked_edges=len(pairs),
        races=races,
    )
    if len(bad) > max_races:
        # Preserve the true count in the label rather than dropping it.
        report = RaceReport(
            loop_name=report.loop_name,
            schedule_label=f"{report.schedule_label} (+{len(bad) - max_races} more races)",
            checked_edges=report.checked_edges,
            races=report.races,
        )
    return report


def check_backend_schedule(
    loop: IrregularLoop,
    backend: str = "vectorized",
    *,
    processors: int = 16,
    schedule: IterationSchedule | str | None = None,
    chunk: int | None = None,
    order: np.ndarray | None = None,
    group: int | None = None,
) -> RaceReport:
    """Race-check the schedule a named backend would execute.

    ``backend`` is one of ``"vectorized"`` (wavefront levels),
    ``"threaded"`` (cyclic threads + events), ``"multiproc"`` (round-robin
    position chunks + ladder waits), or ``"simulated"`` (iteration
    schedule + flags).  This is the entry point behind
    ``validate="static"``.  ``chunk=None`` means the backend's default
    (1 on the simulated machine; threads always deal single positions).

    ``group`` models the distance-elided (group-synchronous) mode the
    distance stage (``plan_distance_elision``) plans: natural-order groups
    of ``group`` iterations with
    one barrier between them and no per-element flags.  It replaces the
    backend's flag-based order — the check then verifies the battery's
    distance bound really covers every materialized dependence edge.
    """
    if group is not None:
        if order is not None:
            raise ValueError(
                "group-synchronous execution only applies in natural "
                "order; drop order= or group="
            )
        if backend == "simulated":
            raise ValueError(
                "the simulated backend has no group-synchronous mode"
            )
        return check_dependence_coverage(
            loop, group_happens_before(group, backend)
        )
    if backend == "vectorized":
        hb: LevelHappensBefore | WorkerHappensBefore = level_happens_before(
            loop
        )
    elif backend == "threaded":
        hb = threaded_happens_before(loop, processors, order=order)
    elif backend == "multiproc":
        hb = multiproc_happens_before(
            loop, processors, chunk=chunk, order=order
        )
    elif backend == "simulated":
        hb = simulated_happens_before(
            loop,
            processors,
            schedule=schedule,
            chunk=1 if chunk is None else chunk,
            order=order,
        )
    else:
        raise ValueError(
            f"unknown backend {backend!r} for race checking; expected "
            f"{'/'.join(RACE_CHECKED_BACKENDS)}"
        )
    return check_dependence_coverage(loop, hb)
