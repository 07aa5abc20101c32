"""Replay shadow logs and check witnessed happens-before.

The detector answers one question: *did this particular execution order
every cross-iteration true dependence with synchronization it actually
performed?*  The static checkers answer the planned-order version of the
question; this module answers it for the run the backend really did.

Two replay strategies share one report format:

- The **general path** (:class:`_Replay`) performs a worklist replay of
  the per-lane event lists.  Each lane owns a sparse
  :class:`~repro.sanitize.vclock.VectorClock` holding the cross-lane
  knowledge it has acquired; its own component is implicit (the index of
  the current event).  Lanes advance until they block on an acquire
  whose token is unposted or a barrier whose participants are
  incomplete; a global stall means the run's log cannot be linearized —
  every blocked lane yields a violation and is force-advanced so the
  remainder of the log is still examined.  Clock snapshots are taken
  only at joins (acquire/barrier), so memory is O(joins x lanes), not
  O(events).
- The **level fast path** (:func:`_detect_levels`) handles the
  vectorized backend, whose lanes are wavefront levels chained by
  synthetic tokens.  A chain of L levels would give the general path
  O(L^2) clock components (L can be ~n for a distance-1 chain), so the
  fast path checks ``write_level < read_level`` with numpy and a
  prefix-sum over broken chain links instead.

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

from repro.ir.analysis import CAT_TRUE, classify_reads, writer_map
from repro.sanitize.events import (
    EV_ACQUIRE,
    EV_BARRIER,
    EV_BULK_READ,
    EV_BULK_WRITE,
    EV_POST,
    EV_READ,
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
    pair, simulated processor, or wavefront level) that performed them.
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


def required_pairs(loop) -> List[Tuple[int, int, int]]:
    """The sanitizer's contract: the unique ``(writer_iteration,
    reader_iteration, element)`` triples the §2.2 protocol must order —
    every cross-iteration true-dependence read term, each to be covered
    by a witnessed happens-before edge."""
    readers, writers, categories = classify_reads(loop)
    mask = categories == CAT_TRUE
    if not mask.any():
        return []
    elems = np.asarray(loop.reads.index)[mask]
    trip = np.stack(
        [writers[mask], readers[mask], elems.astype(np.int64)], axis=1
    )
    trip = np.unique(trip, axis=0)
    return [(int(w), int(r), int(e)) for w, r, e in trip]


class _Replay:
    """Worklist replay of per-lane event lists (general path)."""

    def __init__(self, capture: ShadowCapture, report: SanitizeReport):
        self.report = report
        self.lanes: List[Hashable] = sorted(
            capture.lanes, key=lambda lid: (str(type(lid)), str(lid))
        )
        self.events: Dict[Hashable, List[tuple]] = {
            lid: self._expand(capture.lanes[lid]) for lid in self.lanes
        }
        self.pos: Dict[Hashable, int] = {lid: 0 for lid in self.lanes}
        self.vc: Dict[Hashable, VectorClock] = {
            lid: VectorClock() for lid in self.lanes
        }
        # Clock checkpoints: (event indices, snapshots) per lane, taken
        # only when a join changes the clock.
        self.checkpoints: Dict[Hashable, Tuple[List[int], List[VectorClock]]]
        self.checkpoints = {lid: ([], []) for lid in self.lanes}
        # First post wins: flags stay set, and re-posting must not grant
        # later acquirers more knowledge than the flag's value implies.
        self.posted: Dict[Hashable, Tuple[Hashable, int, VectorClock]] = {}
        self.barrier_arrivals: Dict[Hashable, Dict[Hashable, int]] = {}
        self.blocked: Dict[Hashable, tuple] = {}
        # Access records for the checking pass.
        self.writes: Dict[Tuple[int, int], Tuple[Hashable, int]] = {}
        self.reads: Dict[Tuple[int, int], List[Tuple[Hashable, int, int]]]
        self.reads = {}

    @staticmethod
    def _expand(events: List[tuple]) -> List[tuple]:
        """Expand bulk read/write events into scalar ones."""
        if not any(ev[0] in (EV_BULK_READ, EV_BULK_WRITE) for ev in events):
            return events
        out: List[tuple] = []
        for ev in events:
            kind = ev[0]
            if kind == EV_BULK_READ:
                _, iters, elems, srcs = ev
                for i, e, s in zip(iters, elems, srcs):
                    out.append((EV_READ, int(i), int(e), int(s)))
            elif kind == EV_BULK_WRITE:
                _, iters, elems = ev
                for i, e in zip(iters, elems):
                    out.append((EV_WRITE, int(i), int(e)))
            else:
                out.append(ev)
        return out

    def _checkpoint(self, lane: Hashable, idx: int) -> None:
        indices, snaps = self.checkpoints[lane]
        snapshot = self.vc[lane].copy()
        if indices and indices[-1] == idx:
            snaps[-1] = snapshot
        else:
            indices.append(idx)
            snaps.append(snapshot)

    def clock_at(self, lane: Hashable, idx: int) -> VectorClock | None:
        """The lane's cross-lane clock in effect at event index ``idx``
        (the last checkpoint at or before it)."""
        indices, snaps = self.checkpoints[lane]
        k = bisect_right(indices, idx)
        return snaps[k - 1] if k else None

    def run(self) -> None:
        while True:
            progress = self._sweep()
            if all(
                self.pos[lid] >= len(self.events[lid]) for lid in self.lanes
            ):
                return
            if not progress:
                self._break_stall()

    def _sweep(self) -> bool:
        progress = False
        for lane in self.lanes:
            if self._advance(lane):
                progress = True
        return progress

    def _advance(self, lane: Hashable) -> bool:
        """Run one lane until it blocks or exhausts its log; True if it
        processed at least one event."""
        events = self.events[lane]
        idx = self.pos[lane]
        moved = False
        vc = self.vc[lane]
        while idx < len(events):
            ev = events[idx]
            kind = ev[0]
            if kind == EV_READ:
                _, it, elem, src = ev
                self.reads.setdefault((it, elem), []).append(
                    (lane, idx, src)
                )
            elif kind == EV_WRITE:
                _, it, elem = ev
                self.writes.setdefault((it, elem), (lane, idx + 1))
            elif kind == EV_POST:
                token = ev[1]
                if token not in self.posted:
                    snapshot = vc.copy()
                    snapshot.advance(lane, idx + 1)
                    self.posted[token] = (lane, idx + 1, snapshot)
            elif kind == EV_ACQUIRE:
                token = ev[1]
                post = self.posted.get(token)
                if post is None:
                    self.blocked[lane] = ("a", token, idx)
                    self.pos[lane] = idx
                    return moved
                vc.join(post[2])
                self._checkpoint(lane, idx)
                self.blocked.pop(lane, None)
            elif kind == EV_BARRIER:
                gen = ev[1]
                arrivals = self.barrier_arrivals.setdefault(gen, {})
                arrivals.setdefault(lane, idx)
                if len(arrivals) < len(self.lanes):
                    self.blocked[lane] = ("b", gen, idx)
                    self.pos[lane] = idx
                    return moved
                self._release_barrier(gen)
                # _release_barrier advanced this lane past the barrier.
                idx = self.pos[lane]
                vc = self.vc[lane]
                moved = True
                continue
            idx += 1
            moved = True
        self.pos[lane] = idx
        return moved

    def _release_barrier(self, gen: Hashable) -> None:
        """All lanes arrived at ``gen``: join everyone into everyone."""
        arrivals = self.barrier_arrivals[gen]
        merged = VectorClock()
        for lane, idx in arrivals.items():
            merged.join(self.vc[lane])
            merged.advance(lane, idx + 1)
        for lane, idx in arrivals.items():
            self.vc[lane].join(merged)
            self._checkpoint(lane, idx)
            self.pos[lane] = idx + 1
            if self.blocked.get(lane, (None,))[0] == "b":
                del self.blocked[lane]

    def _break_stall(self) -> None:
        """No lane can advance: the log cannot be linearized.  Report
        each blocked lane and force it past its blocking event so the
        rest of the log is still checked."""
        report = self.report
        stalled = [
            lid
            for lid in self.lanes
            if self.pos[lid] < len(self.events[lid])
        ]
        for lane in stalled:
            why = self.blocked.pop(lane, None)
            idx = self.pos[lane]
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
            self.pos[lane] = idx + 1
        # Partially-arrived barriers still merge what they can, so
        # later accesses on the arrived lanes keep their genuine edges.
        for gen, arrivals in list(self.barrier_arrivals.items()):
            if 0 < len(arrivals) < len(self.lanes):
                merged = VectorClock()
                for lane, idx in arrivals.items():
                    merged.join(self.vc[lane])
                    merged.advance(lane, idx + 1)
                for lane, idx in arrivals.items():
                    self.vc[lane].join(merged)
                    self._checkpoint(lane, idx)
                del self.barrier_arrivals[gen]


def _check_pairs(
    replay: _Replay,
    triples: List[Tuple[int, int, int]],
    report: SanitizeReport,
    partial: bool,
) -> None:
    allowed_new = {(r, e) for _, r, e in triples}
    for w_it, r_it, elem in triples:
        report.pairs_checked += 1
        write = replay.writes.get((w_it, elem))
        occurrences = replay.reads.get((r_it, elem))
        if occurrences is None:
            if not partial:
                report.add(
                    Violation(
                        V_MISSING_READ,
                        element=elem,
                        writer=w_it,
                        reader=r_it,
                        detail="required read never logged",
                    )
                )
            continue
        for r_lane, r_idx, src in occurrences:
            if src == SRC_OLD:
                report.add(
                    Violation(
                        V_STALE_READ,
                        element=elem,
                        writer=w_it,
                        reader=r_it,
                        writer_lane=None if write is None else write[0],
                        reader_lane=r_lane,
                        detail=(
                            "reader took the untouched input value where "
                            "the renamed value was required"
                        ),
                    )
                )
                continue
            if write is None:
                if not partial:
                    report.add(
                        Violation(
                            V_MISSING_WRITE,
                            element=elem,
                            writer=w_it,
                            reader=r_it,
                            reader_lane=r_lane,
                            detail="required write never logged",
                        )
                    )
                continue
            w_lane, w_time = write
            if w_lane == r_lane:
                if w_time <= r_idx:
                    continue
                edge = "program order reversed on one lane"
            else:
                vc = replay.clock_at(r_lane, r_idx)
                if vc is not None and vc.covers(w_lane, w_time):
                    continue
                edge = (
                    "no witnessed post/wait or barrier edge orders the "
                    "write before the read"
                )
            report.add(
                Violation(
                    V_NO_HB_EDGE,
                    element=elem,
                    writer=w_it,
                    reader=r_it,
                    writer_lane=w_lane,
                    reader_lane=r_lane,
                    detail=edge,
                )
            )
    if partial:
        return
    for (r_it, elem), occurrences in replay.reads.items():
        if (r_it, elem) in allowed_new:
            continue
        for r_lane, _, src in occurrences:
            if src == SRC_NEW:
                report.add(
                    Violation(
                        V_UNEXPECTED_NEW_READ,
                        element=elem,
                        reader=r_it,
                        reader_lane=r_lane,
                        detail=(
                            "read of the renamed vector where no true "
                            "dependence exists (corrupt iter array?)"
                        ),
                    )
                )
                break


def _lookup(
    sorted_keys: np.ndarray,
    sorted_values: np.ndarray,
    queries: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Binary-search ``queries`` in ``sorted_keys``; return a found mask
    and the matched values (``-1`` where unmatched)."""
    found = np.zeros(len(queries), dtype=bool)
    values = np.full(len(queries), -1, dtype=np.int64)
    if len(sorted_keys) == 0 or len(queries) == 0:
        return found, values
    ix = np.searchsorted(sorted_keys, queries)
    clamped = np.minimum(ix, len(sorted_keys) - 1)
    found = sorted_keys[clamped] == queries
    values[found] = sorted_values[clamped[found]]
    return found, values


def _detect_levels(
    capture: ShadowCapture,
    loop,
    report: SanitizeReport,
    partial: bool,
) -> None:
    """Numpy fast path for level-structured (vectorized) logs.

    Lane k is wavefront level k; the synthetic chain token ``-(k+1)``
    posted by level k and acquired by level k+1 makes the inter-level
    ordering transitive, so happens-before degenerates to
    ``write_level < read_level`` with every chain link between them
    intact.  Within a level all gathers precede all scatters, so a
    same-level pair is unordered.
    """
    n_levels = int(capture.meta["levels"])
    y_size = int(loop.y_size)

    acquired = np.zeros(n_levels + 1, dtype=bool)
    posted = np.zeros(n_levels + 1, dtype=bool)
    write_level = np.full(y_size, -1, dtype=np.int64)
    r_iters: List[np.ndarray] = []
    r_elems: List[np.ndarray] = []
    r_srcs: List[np.ndarray] = []
    r_levels: List[np.ndarray] = []
    for k in range(n_levels):
        for ev in capture.lanes.get(k, ()):
            kind = ev[0]
            if kind == EV_ACQUIRE:
                acquired[-int(ev[1])] = True
            elif kind == EV_POST:
                posted[-int(ev[1])] = True
            elif kind == EV_BULK_WRITE:
                write_level[np.asarray(ev[2], dtype=np.int64)] = k
            elif kind == EV_BULK_READ:
                elems = np.asarray(ev[2], dtype=np.int64)
                r_iters.append(np.asarray(ev[1], dtype=np.int64))
                r_elems.append(elems)
                r_srcs.append(np.asarray(ev[3], dtype=np.int64))
                r_levels.append(np.full(len(elems), k, dtype=np.int64))
            elif kind == EV_WRITE:
                write_level[int(ev[2])] = k
            elif kind == EV_READ:
                r_iters.append(np.asarray([ev[1]], dtype=np.int64))
                r_elems.append(np.asarray([ev[2]], dtype=np.int64))
                r_srcs.append(np.asarray([ev[3]], dtype=np.int64))
                r_levels.append(np.asarray([k], dtype=np.int64))

    # Chain link k (level k-1 -> level k) is intact iff level k-1 posted
    # token -k and level k acquired it.  cum[k] counts broken links at
    # or below k, so levels w < r are ordered iff cum[r] == cum[w].
    intact = posted[1:n_levels] & acquired[1:n_levels]
    broken = np.zeros(n_levels, dtype=np.int64)
    if n_levels > 1:
        broken[1:] = ~intact
        for k in np.nonzero(~intact)[0]:
            report.add(
                Violation(
                    V_UNSATISFIED_ACQUIRE,
                    reader_lane=int(k) + 1,
                    token=-(int(k) + 1),
                    detail=(
                        "level chain broken: level handoff token never "
                        "posted/acquired"
                    ),
                )
            )
    cum = np.cumsum(broken)

    if r_iters:
        li = np.concatenate(r_iters)
        le = np.concatenate(r_elems)
        ls = np.concatenate(r_srcs)
        ll = np.concatenate(r_levels)
    else:
        li = le = ls = ll = np.empty(0, dtype=np.int64)

    readers, writers, categories = classify_reads(loop)
    mask = categories == CAT_TRUE
    report.pairs_checked += int(mask.sum())
    if not mask.any() and len(li) == 0:
        return
    q_r = readers[mask].astype(np.int64)
    q_e = np.asarray(loop.reads.index, dtype=np.int64)[mask]
    q_w = writers[mask].astype(np.int64)

    key_all = li * y_size + le
    new_mask = ls == SRC_NEW
    key_new = key_all[new_mask]
    lvl_new = ll[new_mask]
    order = np.argsort(key_new, kind="stable")
    key_new_s, lvl_new_s = key_new[order], lvl_new[order]
    key_old_s = np.sort(key_all[~new_mask])

    key_q = q_r * y_size + q_e
    # Locate each required read among the logged new-value reads.
    found_new, r_lv = _lookup(key_new_s, lvl_new_s, key_q)
    found_old, _ = _lookup(key_old_s, key_old_s, key_q)

    w_lv = write_level[q_e]

    safe_w = np.maximum(w_lv, 0)
    safe_r = np.maximum(r_lv, 0)
    ordered = (
        found_new
        & (w_lv >= 0)
        & (w_lv < r_lv)
        & (cum[safe_r] == cum[safe_w])
    )
    bad = ~ordered
    for k in np.nonzero(bad)[0]:
        w_it, r_it, elem = int(q_w[k]), int(q_r[k]), int(q_e[k])
        if found_old[k] and not found_new[k]:
            report.add(
                Violation(
                    V_STALE_READ,
                    element=elem,
                    writer=w_it,
                    reader=r_it,
                    writer_lane=None if w_lv[k] < 0 else int(w_lv[k]),
                    detail=(
                        "reader took the untouched input value where "
                        "the renamed value was required"
                    ),
                )
            )
        elif not found_new[k]:
            if not partial:
                report.add(
                    Violation(
                        V_MISSING_READ,
                        element=elem,
                        writer=w_it,
                        reader=r_it,
                        detail="required read never logged",
                    )
                )
        elif w_lv[k] < 0:
            if not partial:
                report.add(
                    Violation(
                        V_MISSING_WRITE,
                        element=elem,
                        writer=w_it,
                        reader=r_it,
                        reader_lane=int(r_lv[k]),
                        detail="required write never logged",
                    )
                )
        else:
            same = "same wavefront level" if w_lv[k] == r_lv[k] else None
            late = "write scheduled after the read" \
                if w_lv[k] > r_lv[k] else None
            report.add(
                Violation(
                    V_NO_HB_EDGE,
                    element=elem,
                    writer=w_it,
                    reader=r_it,
                    writer_lane=int(w_lv[k]),
                    reader_lane=int(r_lv[k]),
                    detail=same or late or (
                        "level chain between writer and reader is broken"
                    ),
                )
            )

    if partial:
        return
    # New-value reads outside the required set.
    if len(key_new):
        key_req_s = np.sort(key_q)
        known, _ = _lookup(key_req_s, key_req_s, key_new)
        stray = np.nonzero(~known)[0]
        seen: set = set()
        for k in stray:
            pair = (int(key_new[k]) // y_size, int(key_new[k]) % y_size)
            if pair in seen:
                continue
            seen.add(pair)
            report.add(
                Violation(
                    V_UNEXPECTED_NEW_READ,
                    element=pair[1],
                    reader=pair[0],
                    reader_lane=int(lvl_new[k]),
                    detail=(
                        "read of the renamed vector where no true "
                        "dependence exists (corrupt iter array?)"
                    ),
                )
            )


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
    triples = required_pairs(loop)
    has_access_events = any(
        ev[0] in (EV_READ, EV_WRITE, EV_BULK_READ, EV_BULK_WRITE)
        for events in capture.lanes.values()
        for ev in events
    )
    if not has_access_events and not partial:
        # A run with synchronization events but no accesses means the
        # execution strategy is uninstrumented (the simulated doall /
        # classic strategies).  Under partial=True the same shape means the
        # run stalled before its first access — replay what *was*
        # logged, so blocked acquires still get named.
        report.pairs_checked = 0
        if triples:
            report.notes.append(
                "no shadow accesses logged: execution strategy is "
                "uninstrumented; nothing checked"
            )
        return report

    if capture.meta.get("levels"):
        _detect_levels(capture, loop, report, partial)
        return report

    replay = _Replay(capture, report)
    replay.run()
    _check_pairs(replay, triples, report, partial)
    return report
