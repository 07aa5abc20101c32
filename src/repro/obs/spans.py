"""Structured spans: the unit of the cross-backend telemetry model.

A :class:`Span` is one named, categorized time interval on one *lane*
(processor, thread, or the whole construct).  Every backend emits the same
span vocabulary so the paper's accounting argument — preprocessing cost
amortized over executor busy-wait savings (§2.2–§3) — can be read off any
backend, not just the simulated one:

- category ``"phase"`` spans named ``inspector`` / ``executor`` /
  ``postprocessor`` mirror Figure 3's pipeline stages;
- category ``"wait"`` spans are the busy-waits of Figure 2/5 (simulated:
  :data:`~repro.machine.trace.SEG_WAIT` segments; threaded and multiproc:
  blocking :class:`~repro.backends.waitladder.WaitLadder` waits);
- category ``"compute"`` / ``"queue"`` spans match the simulated
  :class:`~repro.machine.trace.Tracer` segment kinds;
- category ``"level"`` spans are the vectorized backend's walk over the
  wavefronts (§3.2 doconsider decomposition), one span for all levels;
- one category ``"run"`` span brackets the whole construct.

Span times are floats in the clock of the enclosing
:class:`~repro.obs.telemetry.Telemetry` blob — wall-clock seconds for the
threaded/vectorized backends, simulated cycles for the simulated backend.

:class:`SpanRecorder` is the collection point backends write into.  It is
thread-safe and deliberately tiny: recording a span is one lock acquire
and one list append, cheap enough to leave enabled for whole benchmark
runs.  Hot loops that would otherwise record tens of thousands of spans
hand over raw rows instead: :meth:`record_batch` rows, and — the one
compute/wait tiling of the threaded and multiproc executors — one
``(w0, w1, element)`` triple per blocking wait to
:meth:`record_wait_segments`; ``Span`` objects are materialized lazily,
outside the timed region.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

__all__ = [
    "CAT_RUN",
    "CAT_PHASE",
    "CAT_LEVEL",
    "CAT_COMPUTE",
    "CAT_WAIT",
    "CAT_QUEUE",
    "CAT_BARRIER",
    "SPAN_CATEGORIES",
    "WHOLE_RUN_LANE",
    "Span",
    "SpanRecorder",
]

CAT_RUN = "run"
CAT_PHASE = "phase"
CAT_LEVEL = "level"
CAT_COMPUTE = "compute"
CAT_WAIT = "wait"
CAT_QUEUE = "queue"
CAT_BARRIER = "barrier"

#: Every category a conforming telemetry blob may use.
SPAN_CATEGORIES = (
    CAT_RUN,
    CAT_PHASE,
    CAT_LEVEL,
    CAT_COMPUTE,
    CAT_WAIT,
    CAT_QUEUE,
    CAT_BARRIER,
)

#: Lane value for spans that belong to the construct as a whole rather
#: than to one processor/thread.
WHOLE_RUN_LANE = -1


@dataclass(frozen=True)
class Span:
    """One contiguous interval of categorized activity on one lane.

    Attributes
    ----------
    name:
        What happened (``"inspector"``, ``"levels[0:8]"``, ``"wait"`` ...).
    cat:
        One of :data:`SPAN_CATEGORIES`.
    start, end:
        Interval bounds in the telemetry clock (``end >= start``).
    lane:
        Processor/thread index, or :data:`WHOLE_RUN_LANE` for
        construct-wide spans.
    attrs:
        Small JSON-safe payload (cache hit flag, wavefront width, ...).
    """

    name: str
    cat: str
    start: float
    end: float
    lane: int = WHOLE_RUN_LANE
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def shifted(self, offset: float) -> "Span":
        """The same span translated by ``offset`` along the time axis."""
        return Span(
            name=self.name,
            cat=self.cat,
            start=self.start + offset,
            end=self.end + offset,
            lane=self.lane,
            attrs=self.attrs,
        )

    def as_dict(self) -> dict:
        """JSON-safe flat form (the schema the exporters consume)."""
        return {
            "name": self.name,
            "cat": self.cat,
            "start": float(self.start),
            "end": float(self.end),
            "lane": int(self.lane),
            "attrs": dict(self.attrs),
        }


class SpanRecorder:
    """Thread-safe span sink the instrumented backends write into.

    ``now()`` reads the wall clock (``time.perf_counter``); backends whose
    time axis is simulated cycles construct spans from their own clocks and
    feed them through :meth:`record` / :meth:`extend` directly.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        # Raw (name, cat, start, end, lane, attrs|None) rows from
        # record_batch(), materialized into Span objects on first read —
        # keeps Span construction out of the workers' timed region.
        self._pending: list[tuple] = []
        # (lane, start, end, waits) tiles from record_wait_segments().
        self._pending_segments: list[tuple] = []

    @staticmethod
    def now() -> float:
        return time.perf_counter()

    def record(
        self,
        name: str,
        cat: str,
        start: float,
        end: float,
        lane: int = WHOLE_RUN_LANE,
        **attrs,
    ) -> None:
        """Append one span; zero/negative-length spans are dropped (they
        carry no accounting weight and only clutter exports)."""
        if end <= start:
            return
        span = Span(name=name, cat=cat, start=start, end=end, lane=lane, attrs=attrs)
        with self._lock:
            self.spans.append(span)

    def extend(self, spans: list[Span]) -> None:
        with self._lock:
            self.spans.extend(spans)

    def record_batch(self, rows: list[tuple]) -> None:
        """Hand over many spans as raw ``(name, cat, start, end, lane,
        attrs_or_None)`` rows in one lock acquire.

        The hot-loop contract: callers append plain tuples to a thread-local
        list (no locking, no object construction) and flush once per worker.
        Rows become :class:`Span` objects lazily — the first
        :meth:`normalized` (or :meth:`drain_pending`) call pays the
        construction cost, which the instrumented wrapper only issues after
        the wall clock has been read.  Zero/negative-length rows are dropped
        at materialization, matching :meth:`record`."""
        with self._lock:
            self._pending.extend(rows)

    def record_wait_segments(
        self,
        lane: int,
        start: float,
        end: float,
        waits: list[tuple],
    ) -> None:
        """Compact form of the executor's alternating compute/wait tiling.

        ``waits`` is a list of ``(w0, w1, element)`` blocking-wait triples
        inside ``[start, end)``, in time order.  Materialization expands
        them into the usual alternating ``compute``/``wait`` spans that
        exactly tile ``[start, end)`` — the backend's hot loop only pays
        one 3-tuple append per blocking wait, and the expansion (two Span
        constructions per wait) runs outside the timed region."""
        with self._lock:
            self._pending_segments.append((lane, start, end, waits))

    def drain_pending(self) -> None:
        """Materialize buffered :meth:`record_batch` rows and
        :meth:`record_wait_segments` tiles into ``spans``."""
        with self._lock:
            pending, self._pending = self._pending, []
            segments, self._pending_segments = self._pending_segments, []
            out = self.spans.append
            for name, cat, start, end, lane, attrs in pending:
                if end <= start:
                    continue
                out(
                    Span(
                        name=name,
                        cat=cat,
                        start=start,
                        end=end,
                        lane=lane,
                        attrs={} if attrs is None else attrs,
                    )
                )
            for lane, start, end, waits in segments:
                seg = start
                for w0, w1, elem in waits:
                    if w0 > seg:
                        out(Span("compute", CAT_COMPUTE, seg, w0, lane, {}))
                    if w1 > w0:
                        out(
                            Span(
                                "wait", CAT_WAIT, w0, w1, lane,
                                {"element": int(elem)},
                            )
                        )
                    seg = w1
                if end > seg:
                    out(Span("compute", CAT_COMPUTE, seg, end, lane, {}))

    @contextmanager
    def span(
        self, name: str, cat: str = CAT_PHASE, lane: int = WHOLE_RUN_LANE, **attrs
    ) -> Iterator[None]:
        """Context manager recording the enclosed wall-clock interval."""
        start = self.now()
        try:
            yield
        finally:
            self.record(name, cat, start, self.now(), lane=lane, **attrs)

    def normalized(self) -> list[Span]:
        """All spans shifted so the earliest start sits at t=0, sorted by
        start time (the form :class:`~repro.obs.telemetry.Telemetry`
        stores)."""
        self.drain_pending()
        with self._lock:
            spans = list(self.spans)
        if not spans:
            return []
        t0 = min(s.start for s in spans)
        return sorted(
            (s.shifted(-t0) for s in spans), key=lambda s: (s.start, s.lane)
        )
