"""Happens-before race checking of backend schedules: one coverage rule.

The executor protocol is only correct if, for every true dependence
``w → r`` found by the value-level analysis
(:func:`repro.ir.analysis.dependence_pairs`), the schedule *orders* the
write of ``w`` before the read of ``r``.  Every backend states its
schedule as one :class:`~repro.backends.kernel.Placement` (its
``schedule_model``: the lanes, strip size and barrier cuts it executes
by), and one rule decides each edge on element ``e``:

- ``cut[w] < cut[r]`` — a barrier lies between them (wavefront levels,
  distance groups);
- ``lane[w] == lane[r]`` and ``pos[w] < pos[r]`` — program order;
- the placement has flags and ``r``'s term reading ``e`` is coded
  :data:`~repro.backends.kernel.WAIT` by
  :func:`~repro.backends.kernel.classify_terms` — the Figure-5 wait,
  ``iter(e) < r`` across lanes, the per-iteration read contract of
  arXiv 1406.3484 over the kernel's own inputs.

An edge none of the three covers is a **race**: some interleaving of the
schedule lets the reader observe the element before its writer stores
it.  The check is deliberately direct (no transitive closure): the
doacross protocol covers every true dependence edge directly, so direct
coverage is both sound and exact for uncorrupted schedules (tested),
while corrupted ones (a swapped level pair, a stale ``iter`` entry) show
up as races.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.backends import kernel, make_runner
from repro.backends.kernel import Placement
from repro.ir.analysis import dependence_pairs, writer_map
from repro.ir.loop import IrregularLoop
from repro.machine.scheduler import IterationSchedule

__all__ = [
    "Race",
    "RaceReport",
    "check_dependence_coverage",
    "check_backend_schedule",
    "RACE_CHECKED_BACKENDS",
]

#: The backends whose schedule :func:`check_backend_schedule` checks.
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
# The checker
# ----------------------------------------------------------------------
def check_dependence_coverage(
    loop: IrregularLoop,
    placement: Placement,
    max_races: int = 20,
    *,
    iter_array: np.ndarray | None = None,
) -> RaceReport:
    """Verify every true-dependence edge is covered by ``placement``.

    ``iter_array`` is the inspector output the flag waits are classified
    from (default: the correct :func:`~repro.ir.analysis.writer_map`); pass
    a corrupted one to model a broken inspector.  Returns a
    :class:`RaceReport`; at most ``max_races`` uncovered edges are
    materialized as :class:`Race` records (the count in the label is
    always exact).
    """
    pairs = dependence_pairs(loop)
    if len(pairs) == 0:
        return RaceReport(loop.name, placement.label, 0, ())
    writers, readers = pairs[:, 0], pairs[:, 1]
    elements = loop.write[writers]
    cut, pos, lane = placement.cut, placement.pos, placement.lane
    covered = cut[writers] < cut[readers]
    if lane is not None:
        covered |= (lane[writers] == lane[readers]) & (
            pos[writers] < pos[readers]
        )
    if placement.flags:
        reads = loop.reads
        codes = kernel.classify_terms(
            reads.ptr,
            reads.index,
            writer_map(loop) if iter_array is None else iter_array,
            np.arange(loop.n, dtype=np.int64),
            placement.chunk,
            pos,
        )
        waited = codes == kernel.WAIT
        y_size = np.int64(loop.y_size)
        wait_keys = reads.iteration_of_term()[waited] * y_size + reads.index[waited]
        covered |= np.isin(readers * y_size + elements, wait_keys)
    bad = np.nonzero(~covered)[0]
    races = tuple(
        Race(
            writer=int(writers[k]),
            reader=int(readers[k]),
            element=int(elements[k]),
        )
        for k in bad[:max_races]
    )
    label = placement.label
    if len(bad) > max_races:
        # Preserve the true count in the label rather than dropping it.
        label = f"{label} (+{len(bad) - max_races} more races)"
    return RaceReport(loop.name, label, len(pairs), races)


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
    """Race-check the schedule a named backend would execute: the
    placement ``make_runner(backend, processors=processors)`` resolves
    for these options (its ``schedule_model``), under the one rule.

    ``backend`` is one of :data:`RACE_CHECKED_BACKENDS`; ``chunk=None``
    means the backend's default.  ``group`` is the run's ``group_sync``:
    the distance-elided mode the distance stage
    (``plan_distance_elision``) plans, natural-order groups of ``group``
    iterations with one barrier between them and no flags — the check
    then verifies the distance bound really covers every materialized
    dependence edge.  A group the runner would not run (multiproc: not a
    multiple of its chunk; vectorized: below 2) leaves the placement it
    runs instead, which the label names.
    """
    if backend not in RACE_CHECKED_BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r} for race checking; expected "
            f"{'/'.join(RACE_CHECKED_BACKENDS)}"
        )
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
        if group < 1:
            raise ValueError(f"group size must be >= 1, got {group}")
    placement = make_runner(backend, processors=processors).schedule_model(
        loop, order=order, schedule=schedule, chunk=chunk, group_sync=group
    )
    return check_dependence_coverage(loop, placement)
