"""Execution tracing: per-processor timelines of simulated runs.

When a :class:`Tracer` is attached to an engine, every state change is
recorded as a ``(processor, start, end, kind)`` segment:

- ``compute`` — useful work (including flag checks/sets and resource holds);
- ``wait``    — busy-waiting on an unset ``ready`` flag;
- ``queue``   — queued for a serial resource (dispatch counter, bus).

The trace supports exact accounting cross-checks against
:class:`~repro.machine.stats.ProcessorStats` (tested invariant) and renders
a Gantt-style ASCII chart — the fastest way to *see* why a schedule loses:
chains show up as staircases of ``.`` (wait) between slivers of ``#``
(compute).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["SEG_COMPUTE", "SEG_WAIT", "SEG_QUEUE", "Segment", "Tracer"]

SEG_COMPUTE = "compute"
SEG_WAIT = "wait"
SEG_QUEUE = "queue"

@dataclass(frozen=True)
class Segment:
    """One contiguous state interval on one processor."""

    proc: int
    start: int
    end: int
    kind: str

    @property
    def length(self) -> int:
        return self.end - self.start


class Tracer:
    """Collects segments during one engine phase (or several)."""

    def __init__(self) -> None:
        self.segments: list[Segment] = []

    def record(self, proc: int, start: int, end: int, kind: str) -> None:
        """Record a segment; zero-length segments are dropped, adjacent
        same-kind segments on the same processor are merged."""
        if end <= start:
            return
        if self.segments:
            last = self.segments[-1]
            if (
                last.proc == proc
                and last.kind == kind
                and last.end == start
            ):
                self.segments[-1] = Segment(proc, last.start, end, kind)
                return
        self.segments.append(Segment(proc, start, end, kind))

    # ------------------------------------------------------------------
    def by_processor(self) -> dict[int, list[Segment]]:
        out: dict[int, list[Segment]] = {}
        for seg in self.segments:
            out.setdefault(seg.proc, []).append(seg)
        for segs in out.values():
            segs.sort(key=lambda s: s.start)
        return out

    def total(self, kind: str, proc: int | None = None) -> int:
        """Total cycles in segments of ``kind`` (optionally one processor)."""
        return sum(
            s.length
            for s in self.segments
            if s.kind == kind and (proc is None or s.proc == proc)
        )

    def span(self) -> int:
        if not self.segments:
            return 0
        return max(s.end for s in self.segments)

    def validate_non_overlapping(self) -> None:
        """Assert each processor's segments are disjoint and ordered (a
        simulator-sanity invariant, exercised by tests)."""
        for proc, segs in self.by_processor().items():
            for a, b in zip(segs, segs[1:]):
                if b.start < a.end:
                    raise AssertionError(
                        f"processor {proc}: segment {b} overlaps {a}"
                    )

    # ------------------------------------------------------------------
    def to_spans(self, offset: int = 0) -> list:
        """The trace as :class:`~repro.obs.spans.Span` objects (cycle
        clock), shifted by ``offset`` — the bridge from the simulated
        backend's per-processor timeline into the unified telemetry model.
        Segment kinds map one-to-one onto span categories."""
        from repro.obs.spans import CAT_COMPUTE, CAT_QUEUE, CAT_WAIT, Span

        category = {
            SEG_COMPUTE: CAT_COMPUTE,
            SEG_WAIT: CAT_WAIT,
            SEG_QUEUE: CAT_QUEUE,
        }
        return [
            Span(
                name=seg.kind,
                cat=category[seg.kind],
                start=float(seg.start + offset),
                end=float(seg.end + offset),
                lane=seg.proc,
            )
            for seg in self.segments
        ]

    # ------------------------------------------------------------------
    def gantt(self, width: int = 72) -> str:
        """ASCII Gantt chart: one row per processor, ``#`` compute,
        ``.`` busy-wait, ``~`` resource queueing, space idle — the spans
        of :meth:`to_spans` drawn by :func:`repro.obs.export.gantt`."""
        if not self.segments:
            return "(empty trace)"
        from repro.obs.export import gantt
        from repro.obs.telemetry import CLOCK_CYCLES, Telemetry

        return gantt(
            Telemetry(backend="simulated", clock=CLOCK_CYCLES, spans=self.to_spans()),
            width,
        )
