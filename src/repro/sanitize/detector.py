"""Replay shadow logs and check witnessed happens-before.

The detector answers one question: *did this particular execution order
every cross-iteration true dependence with synchronization it actually
performed?*  The static checkers answer the planned-order version of the
question; this module answers it for the run the backend really did.

One replay, in two steps:

- A **worklist replay** (:class:`_Replay`) walks each lane's
  synchronization events only — posts, acquires, barriers.  Each lane
  owns a sparse :class:`~repro.sanitize.vclock.VectorClock` holding the
  cross-lane knowledge it has acquired; its own component is implicit
  (its lane-local time, the index of its current event).  Lanes advance
  until they block on an acquire whose token is unposted or a barrier
  whose participants are incomplete; a global stall means the run's log
  cannot be linearized — every blocked lane yields a violation and is
  force-advanced so the remainder of the log is still examined.  Clock
  snapshots are taken only at joins (acquire/barrier), so memory is
  O(joins x lanes), not O(events).
- **One NumPy pass** (:func:`_check`) over every lane's accesses, as
  columns, checks each required triple's read occurrences: stale and
  missing reads and writes, program order on one lane, and — by a clock
  lookup, for cross-lane occurrences only — a witnessed edge.  A span
  event (the vectorized backend's one-lane walk) enters it through
  :func:`~repro.backends.kernel.span_events`, never as tuples.

Required read-after-write pairs come from
:func:`repro.ir.analysis.classify_reads` — *not* from
``dependence_pairs``, which collapses per-element information the
violation messages need.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Any, Dict, Hashable, List, Tuple

import numpy as np

from repro.backends import kernel
from repro.ir.analysis import CAT_TRUE, classify_reads
from repro.sanitize.events import (
    EV_ACQUIRE,
    EV_BARRIER,
    EV_POST,
    EV_READ,
    EV_SPAN,
    EV_WRITE,
    SRC_NEW,
    SRC_OLD,
)
from repro.sanitize.shadow import ShadowCapture
from repro.sanitize.vclock import VectorClock

__all__ = [
    "Violation",
    "SanitizeReport",
    "detect",
    "required_pairs",
    "MAX_REPORTED",
]

#: Violations materialized into the report; the rest are only counted.
MAX_REPORTED = 50

# Violation kinds
V_MISSING_WRITE = "missing-write"
V_MISSING_READ = "missing-read"
V_STALE_READ = "stale-read"
V_NO_HB_EDGE = "no-hb-edge"
V_UNSATISFIED_ACQUIRE = "unsatisfied-acquire"
V_UNSATISFIED_BARRIER = "unsatisfied-barrier"
V_UNEXPECTED_NEW_READ = "unexpected-new-read"


@dataclass
class Violation:
    """One witnessed protocol violation.

    ``writer``/``reader`` are *iterations*; ``writer_lane``/
    ``reader_lane`` are the shadow-log lanes (thread id, ``(pid, wid)``
    pair, simulated processor, speculative chunk, or the vectorized walk's
    lane 0) that performed them.
    """

    kind: str
    element: int | None = None
    writer: int | None = None
    reader: int | None = None
    writer_lane: Hashable | None = None
    reader_lane: Hashable | None = None
    token: Hashable | None = None
    detail: str = ""

    def describe(self) -> str:
        bits = [self.kind]
        if self.element is not None:
            bits.append(f"element {self.element}")
        if self.writer is not None or self.reader is not None:
            w = "?" if self.writer is None else str(self.writer)
            r = "?" if self.reader is None else str(self.reader)
            bits.append(f"iterations {w}->{r}")
        if self.writer_lane is not None or self.reader_lane is not None:
            wl = "?" if self.writer_lane is None else str(self.writer_lane)
            rl = "?" if self.reader_lane is None else str(self.reader_lane)
            bits.append(f"lanes {wl}->{rl}")
        if self.token is not None:
            bits.append(f"token {self.token}")
        if self.detail:
            bits.append(self.detail)
        return ": ".join((bits[0], "; ".join(bits[1:]))) if len(bits) > 1 \
            else bits[0]

    def as_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "element": self.element,
            "writer": self.writer,
            "reader": self.reader,
            "writer_lane": _jsonable(self.writer_lane),
            "reader_lane": _jsonable(self.reader_lane),
            "token": _jsonable(self.token),
            "detail": self.detail,
        }


def _jsonable(value: Any) -> Any:
    if isinstance(value, tuple):
        return list(value)
    if isinstance(value, np.integer):
        return int(value)
    return value


@dataclass
class SanitizeReport:
    """The detector's verdict over one run's shadow logs."""

    violations: List[Violation] = field(default_factory=list)
    counts: Dict[str, int] = field(default_factory=dict)
    pairs_checked: int = 0
    events: int = 0
    lanes: int = 0
    backend: str | None = None
    notes: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.counts

    @property
    def total_violations(self) -> int:
        return sum(self.counts.values())

    def _count(self, kind: str) -> None:
        self.counts[kind] = self.counts.get(kind, 0) + 1

    def add(self, violation: Violation) -> None:
        self._count(violation.kind)
        if len(self.violations) < MAX_REPORTED:
            self.violations.append(violation)

    def summary(self) -> str:
        where = f" [{self.backend}]" if self.backend else ""
        if self.ok:
            return (
                f"sanitizer{where}: clean — {self.pairs_checked} "
                f"dependence pair(s) checked over {self.events} event(s) "
                f"on {self.lanes} lane(s)"
            )
        kinds = ", ".join(
            f"{k}×{v}" for k, v in sorted(self.counts.items())
        )
        lines = [
            f"sanitizer{where}: {self.total_violations} violation(s) "
            f"({kinds}) over {self.pairs_checked} pair(s), "
            f"{self.events} event(s), {self.lanes} lane(s)"
        ]
        for v in self.violations[:8]:
            lines.append(f"  - {v.describe()}")
        hidden = self.total_violations - min(
            len(self.violations), 8
        )
        if hidden > 0:
            lines.append(f"  ... and {hidden} more")
        return "\n".join(lines)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "ok": self.ok,
            "backend": self.backend,
            "pairs_checked": self.pairs_checked,
            "events": self.events,
            "lanes": self.lanes,
            "counts": dict(self.counts),
            "total_violations": self.total_violations,
            "violations": [v.as_dict() for v in self.violations],
            "notes": list(self.notes),
            "summary": self.summary(),
        }


def _required(loop) -> np.ndarray:
    """:func:`required_pairs` as a sorted ``(k, 3)`` array."""
    readers, writers, categories = classify_reads(loop)
    mask = categories == CAT_TRUE
    trip = np.stack([writers[mask], readers[mask], loop.reads.index[mask]], 1)
    return np.unique(trip.astype(np.int64), axis=0)


def required_pairs(loop) -> List[Tuple[int, int, int]]:
    """The sanitizer's contract: the unique ``(writer_iteration,
    reader_iteration, element)`` triples the §2.2 protocol must order —
    every cross-iteration true-dependence read term, each to be covered
    by a witnessed happens-before edge."""
    return [(int(w), int(r), int(e)) for w, r, e in _required(loop)]


def _split(events: List[tuple], loop):
    """One lane's log as ``(accesses, sync, length)``: the access columns
    ``(time, iteration, element, src)`` (``src`` -1 for a write), the
    synchronization events as ``(time, kind, arg)``, and the number of
    scalar events.  ``time`` is the lane-local index of a scalar event; a
    span event stands for the events
    :func:`~repro.backends.kernel.span_events` lists."""
    rows: List[tuple] = []
    parts: List[tuple] = []
    sync: List[tuple] = []
    t = 0
    for ev in events:
        kind = ev[0]
        if kind == EV_READ:
            rows.append((t, ev[1], ev[2], ev[3]))
        elif kind == EV_WRITE:
            rows.append((t, ev[1], ev[2], -1))
        elif kind == EV_SPAN:
            r = loop.reads
            cols = kernel.span_events(ev[1], ev[2], loop.write, r.ptr, r.index)
            width = len(cols[0])
            parts.append((np.arange(t, t + width), *cols))
            t += width
            continue
        else:
            sync.append((t, kind, ev[1]))
        t += 1
    if rows or not parts:
        parts.append(tuple(np.array(rows, dtype=np.int64).reshape(-1, 4).T))
    if len(parts) == 1:
        return parts[0], sync, t
    cols = tuple(map(np.concatenate, zip(*parts)))
    by_time = np.argsort(cols[0])
    return tuple(c[by_time] for c in cols), sync, t


class _Replay:
    """Worklist replay of the lanes' synchronization events.

    A lane's time is the index of its current scalar event; ``now`` is the
    time a lane has run to and ``pos`` its next synchronization event.
    Every access between two synchronization events runs with the lane,
    so only the synchronization events are walked.  Each run of a lane
    (one :meth:`_advance` that moved) is numbered: run number, then time,
    is the order the accesses were met in."""

    def __init__(
        self,
        sync: Dict[Hashable, List[tuple]],
        length: Dict[Hashable, int],
        report: SanitizeReport,
    ):
        self.report = report
        self.lanes: List[Hashable] = sorted(
            sync, key=lambda lid: (str(type(lid)), str(lid))
        )
        self.sync, self.length = sync, length
        self.pos: Dict[Hashable, int] = {lid: 0 for lid in self.lanes}
        self.now: Dict[Hashable, int] = {lid: 0 for lid in self.lanes}
        self.vc: Dict[Hashable, VectorClock] = {
            lid: VectorClock() for lid in self.lanes
        }
        # Clock checkpoints: (times, snapshots) per lane, taken at joins.
        self.checkpoints: Dict[Hashable, Tuple[List[int], List[VectorClock]]]
        self.checkpoints = {lid: ([], []) for lid in self.lanes}
        # First post wins: flags stay set, and re-posting must not grant
        # later acquirers more knowledge than the flag's value implies.
        self.posted: Dict[Hashable, Tuple[Hashable, int, VectorClock]] = {}
        # Unreleased barrier generations: lane -> index of its arrival.
        self.barrier_arrivals: Dict[Hashable, Dict[Hashable, int]] = {}
        self.blocked: Dict[Hashable, tuple] = {}
        # Per lane: (end time, run number) of each run.
        self.runs: Dict[Hashable, Tuple[List[int], List[int]]]
        self.runs = {lid: ([], []) for lid in self.lanes}
        self.n_runs = 0

    def _checkpoint(self, lane: Hashable, t: int) -> None:
        times, snaps = self.checkpoints[lane]
        snapshot = self.vc[lane].copy()
        if times and times[-1] == t:
            snaps[-1] = snapshot
        else:
            times.append(t)
            snaps.append(snapshot)

    def clock_at(self, lane: Hashable, t: int) -> VectorClock | None:
        """The lane's cross-lane clock in effect at time ``t`` (the last
        checkpoint at or before it)."""
        times, snaps = self.checkpoints[lane]
        k = bisect_right(times, t)
        return snaps[k - 1] if k else None

    def run(self) -> None:
        while True:
            progress = False
            for lane in self.lanes:
                progress = self._advance(lane) or progress
            if all(self.now[lid] >= self.length[lid] for lid in self.lanes):
                return
            if not progress:
                self._break_stall()

    def _advance(self, lane: Hashable) -> bool:
        """Run one lane until it blocks or exhausts its log; True if its
        time moved."""
        sync, k, start = self.sync[lane], self.pos[lane], self.now[lane]
        vc = self.vc[lane]
        end = self.length[lane]
        while k < len(sync):
            t, kind, arg = sync[k]
            if kind == EV_POST:
                if arg not in self.posted:
                    snapshot = vc.copy()
                    snapshot.advance(lane, t + 1)
                    self.posted[arg] = (lane, t + 1, snapshot)
            elif kind == EV_ACQUIRE:
                post = self.posted.get(arg)
                if post is None:
                    self.blocked[lane] = ("a", arg)
                    end = t
                    break
                vc.join(post[2])
                self._checkpoint(lane, t)
                self.blocked.pop(lane, None)
            elif kind == EV_BARRIER:
                arrivals = self.barrier_arrivals.setdefault(arg, {})
                arrivals.setdefault(lane, k)
                if len(arrivals) < len(self.lanes):
                    self.blocked[lane] = ("b", arg)
                    end = t
                    break
                # Moves this lane past the barrier, with everyone else.
                self._release_barrier(arg)
                k = self.pos[lane]
                continue
            k += 1
        self.pos[lane], self.now[lane] = k, end
        if end <= start:
            return False
        ends, runs = self.runs[lane]
        ends.append(end)
        runs.append(self.n_runs)
        self.n_runs += 1
        return True

    def _merge(self, arrivals: Dict[Hashable, int]) -> None:
        """Join the clocks of the lanes that arrived at one barrier."""
        times = {lane: self.sync[lane][k][0] for lane, k in arrivals.items()}
        merged = VectorClock()
        for lane, t in times.items():
            merged.join(self.vc[lane])
            merged.advance(lane, t + 1)
        for lane, t in times.items():
            self.vc[lane].join(merged)
            self._checkpoint(lane, t)

    def _release_barrier(self, gen: Hashable) -> None:
        """All lanes arrived at ``gen``: join everyone into everyone."""
        arrivals = self.barrier_arrivals.pop(gen)
        self._merge(arrivals)
        for lane, k in arrivals.items():
            self.pos[lane], self.now[lane] = k + 1, self.sync[lane][k][0] + 1
            if self.blocked.get(lane, (None,))[0] == "b":
                del self.blocked[lane]

    def _break_stall(self) -> None:
        """No lane can advance: the log cannot be linearized.  Report
        each blocked lane and force it past its blocking event so the
        rest of the log is still checked."""
        report = self.report
        for lane in self.lanes:
            k = self.pos[lane]
            if k >= len(self.sync[lane]):
                continue
            why = self.blocked.pop(lane, None)
            if why is not None and why[0] == "a":
                report.add(
                    Violation(
                        V_UNSATISFIED_ACQUIRE,
                        reader_lane=lane,
                        token=why[1],
                        detail=(
                            "wait acquired a flag no post ever set "
                            "(run stalled here)"
                        ),
                    )
                )
            elif why is not None and why[0] == "b":
                report.add(
                    Violation(
                        V_UNSATISFIED_BARRIER,
                        reader_lane=lane,
                        token=why[1],
                        detail=(
                            "barrier generation never completed: "
                            f"{len(self.barrier_arrivals.get(why[1], {}))}"
                            f"/{len(self.lanes)} lane(s) arrived"
                        ),
                    )
                )
            # Force past the blocking event without granting knowledge.
            self.pos[lane], self.now[lane] = k + 1, self.sync[lane][k][0] + 1
        # Partially-arrived barriers still merge what they can, so
        # later accesses on the arrived lanes keep their genuine edges.
        for gen in list(self.barrier_arrivals):
            self._merge(self.barrier_arrivals.pop(gen))

    def met(self, lane: Hashable, times: np.ndarray) -> np.ndarray:
        """The run number each access of ``lane`` at ``times`` was met in."""
        ends, runs = self.runs[lane]
        return np.asarray(runs, dtype=np.int64)[
            np.searchsorted(ends, times, side="right")
        ]


def _check(
    replay: _Replay,
    accesses: Dict[Hashable, tuple],
    triples: np.ndarray,
    report: SanitizeReport,
    partial: bool,
    y_size: int,
) -> None:
    """Check every required triple against its read occurrences, and
    every renamed read against the triples, in one pass over all lanes'
    accesses in the order the replay met them: the first write met of an
    element is its write, and violations are reported in that order."""
    lanes = replay.lanes
    cols = [accesses[lid] for lid in lanes]
    time, it, elem, src = (
        cols[0] if len(cols) == 1 else map(np.concatenate, zip(*cols))
    )
    lane = np.repeat(np.arange(len(lanes)), [len(c[0]) for c in cols])
    if len(lanes) > 1:
        met = np.concatenate(
            [replay.met(lid, c[0]) for lid, c in zip(lanes, cols)]
        )
        seq = met * (int(time.max(initial=0)) + 1) + time
        if not (seq[1:] > seq[:-1]).all():
            order = np.argsort(seq)
            time, it, elem, src, lane = (
                a[order] for a in (time, it, elem, src, lane)
            )
    base = max(y_size, int(elem.max(initial=-1)) + 1)
    key = it * base + elem

    # The first write of each (iteration, element), and the time a
    # reader's clock must reach; a sentinel past the end: never written.
    w = src == -1
    w_key, first = np.unique(key[w], return_index=True)
    first = np.flatnonzero(w)[first]
    w_key = np.append(w_key, -1)
    w_lane = np.append(lane[first], -1)
    w_time = np.append(time[first] + 1, 0)

    # The triple (if any) each read occurrence is for; each triple's
    # occurrences grouped in the order met.
    t_key = triples[:, 1] * base + triples[:, 2]
    by_reader = np.argsort(t_key)
    at = np.searchsorted(t_key[by_reader], key)
    hit = (np.append(t_key[by_reader], -1)[at] == key) & ~w
    occ = np.flatnonzero(hit)
    tri = by_reader[at[occ]]
    grouped = np.argsort(tri, kind="stable")
    occ, tri = occ[grouped], tri[grouped]
    wanted = triples[tri, 0] * base + triples[tri, 2]
    at = np.searchsorted(w_key[:-1], wanted)
    written = w_key[at] == wanted
    wl, wt = w_lane[at], w_time[at]
    o_lane, o_time = lane[occ], time[occ]

    stale = src[occ] == SRC_OLD
    linked = ~stale & written
    reversed_ = linked & (wl == o_lane) & (wt > o_time)
    unordered = np.zeros(len(occ), dtype=bool)
    for k in np.flatnonzero(linked & (wl != o_lane)):
        vc = replay.clock_at(lanes[o_lane[k]], int(o_time[k]))
        unordered[k] = vc is None or not vc.covers(lanes[wl[k]], int(wt[k]))
    bad = stale | reversed_ | unordered
    missing = np.zeros(0, dtype=np.int64)
    if not partial:
        bad |= ~stale & ~written
        missing = np.flatnonzero(np.bincount(tri, minlength=len(triples)) == 0)

    report.pairs_checked += len(triples)
    found = np.flatnonzero(bad)
    # Triples in order, each one's occurrences in the order met.
    which = np.concatenate([found, -1 - missing])
    for j in which[np.argsort(
        np.concatenate([tri[found], missing]), kind="stable"
    )]:
        if j < 0:
            w_it, r_it, e = map(int, triples[-1 - j])
            report.add(Violation(
                V_MISSING_READ, element=e, writer=w_it, reader=r_it,
                detail="required read never logged",
            ))
            continue
        w_it, r_it, e = map(int, triples[tri[j]])
        reader_lane = lanes[o_lane[j]]
        if stale[j]:
            report.add(Violation(
                V_STALE_READ, element=e, writer=w_it, reader=r_it,
                writer_lane=lanes[wl[j]] if written[j] else None,
                reader_lane=reader_lane,
                detail=(
                    "reader took the untouched input value where the "
                    "renamed value was required"
                ),
            ))
        elif not written[j]:
            report.add(Violation(
                V_MISSING_WRITE, element=e, writer=w_it, reader=r_it,
                reader_lane=reader_lane, detail="required write never logged",
            ))
        else:
            report.add(Violation(
                V_NO_HB_EDGE, element=e, writer=w_it, reader=r_it,
                writer_lane=lanes[wl[j]], reader_lane=reader_lane,
                detail="program order reversed on one lane" if reversed_[j]
                else (
                    "no witnessed post/wait or barrier edge orders the "
                    "write before the read"
                ),
            ))
    if partial:
        return
    # Renamed reads no triple allows: one report per (reader, element),
    # in the order the pair was first met, naming its first such lane.
    stray = np.flatnonzero((src == SRC_NEW) & ~hit)
    if not len(stray):
        return
    keys, first_new = np.unique(key[stray], return_index=True)
    all_keys, first_met = np.unique(key[~w], return_index=True)
    for k in np.argsort(first_met[np.searchsorted(all_keys, keys)]):
        report.add(Violation(
            V_UNEXPECTED_NEW_READ,
            element=int(keys[k] % base),
            reader=int(keys[k] // base),
            reader_lane=lanes[lane[stray[first_new[k]]]],
            detail=(
                "read of the renamed vector where no true dependence "
                "exists (corrupt iter array?)"
            ),
        ))


def detect(
    capture: ShadowCapture,
    loop,
    partial: bool = False,
) -> SanitizeReport:
    """Check one run's shadow logs against the loop's true dependences.

    ``partial=True`` relaxes the completeness checks (missing reads and
    writes, unexpected new-value reads): it is used when the run died
    mid-flight (e.g. :class:`~repro.errors.WaitTimeout`), where only
    violations among the events actually witnessed are meaningful.
    """
    report = SanitizeReport(
        events=capture.total_events(),
        lanes=len(capture.lanes),
        backend=capture.meta.get("backend"),
    )
    triples = _required(loop)
    has_access_events = any(
        ev[0] in (EV_READ, EV_WRITE, EV_SPAN)
        for events in capture.lanes.values()
        for ev in events
    )
    if not has_access_events and not partial:
        # A run with synchronization events but no accesses means the
        # execution strategy is uninstrumented (the simulated doall /
        # classic strategies).  Under partial=True the same shape means the
        # run stalled before its first access — replay what *was*
        # logged, so blocked acquires still get named.
        if len(triples):
            report.notes.append(
                "no shadow accesses logged: execution strategy is "
                "uninstrumented; nothing checked"
            )
        return report

    split = {lid: _split(evs, loop) for lid, evs in capture.lanes.items()}
    replay = _Replay(
        {lid: s[1] for lid, s in split.items()},
        {lid: s[2] for lid, s in split.items()},
        report,
    )
    replay.run()
    accesses = {lid: s[0] for lid, s in split.items()}
    _check(replay, accesses, triples, report, partial, int(loop.y_size))
    return report
