"""Telemetry exporters: Chrome trace-event JSON, JSONL spans, ASCII Gantt.

Three consumers of the one span model:

- :func:`chrome_trace` / :func:`write_chrome_trace` emit the Chrome
  trace-event format (the ``traceEvents`` array of complete ``"X"``
  events), loadable in ``chrome://tracing`` / Perfetto.  Wall-clock spans
  are converted to microseconds; cycle-clock spans map one cycle to one
  microsecond (recorded in ``otherData.time_unit`` so the axis is never
  ambiguous).
- :func:`spans_jsonl` / :func:`write_spans_jsonl` emit one JSON object per
  span — the grep/jq-friendly sink for ad-hoc analysis; and
  :func:`read_spans_jsonl` loads one back into a
  :class:`~repro.obs.telemetry.Telemetry` (the ``repro explain
  --telemetry`` input path), so the JSONL format round-trips.
- :func:`gantt` renders the wall-clock analogue of the simulated
  :meth:`~repro.machine.trace.Tracer.gantt` chart: one row per lane,
  ``#`` compute, ``.`` busy-wait, ``~`` queued — so a threaded run and a
  simulated run of the same loop can be compared glyph for glyph.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.obs.spans import (
    CAT_COMPUTE,
    CAT_LEVEL,
    CAT_QUEUE,
    CAT_WAIT,
    WHOLE_RUN_LANE,
    Span,
)
from repro.obs.telemetry import CLOCK_WALL, Telemetry, telemetry_from_dict

__all__ = [
    "chrome_trace",
    "write_chrome_trace",
    "spans_jsonl",
    "write_spans_jsonl",
    "read_spans_jsonl",
    "gantt",
]


def chrome_trace(telemetry: Telemetry) -> dict:
    """The Chrome trace-event representation of ``telemetry``.

    Lanes become ``tid`` values (whole-run spans land on tid 0, lane ``k``
    on tid ``k + 1``); metadata events name the threads so the viewer
    shows ``construct`` / ``lane 0`` / ``lane 1`` ... instead of bare
    numbers.  Metrics ride along in ``otherData``.
    """
    scale = 1e6 if telemetry.clock == CLOCK_WALL else 1.0
    events: list[dict] = [
        {
            "ph": "M",
            "pid": 0,
            "tid": 0,
            "name": "process_name",
            "args": {"name": f"repro[{telemetry.backend}]"},
        },
        {
            "ph": "M",
            "pid": 0,
            "tid": 0,
            "name": "thread_name",
            "args": {"name": "construct"},
        },
    ]
    for lane in telemetry.lanes():
        events.append(
            {
                "ph": "M",
                "pid": 0,
                "tid": lane + 1,
                "name": "thread_name",
                "args": {"name": f"lane {lane}"},
            }
        )
    for span in telemetry.spans:
        tid = 0 if span.lane == WHOLE_RUN_LANE else span.lane + 1
        events.append(
            {
                "ph": "X",
                "pid": 0,
                "tid": tid,
                "name": span.name,
                "cat": span.cat,
                "ts": span.start * scale,
                "dur": span.duration * scale,
                "args": dict(span.attrs),
            }
        )
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "backend": telemetry.backend,
            "clock": telemetry.clock,
            "schema_version": telemetry.schema_version,
            "time_unit": (
                "microseconds" if telemetry.clock == CLOCK_WALL else "cycles-as-us"
            ),
            "metrics": telemetry.metrics.as_dict(),
        },
    }


def write_chrome_trace(telemetry: Telemetry, path: str | Path) -> Path:
    """Write the Chrome trace to ``path`` and return it."""
    path = Path(path)
    path.write_text(
        json.dumps(chrome_trace(telemetry), indent=2) + "\n", encoding="utf-8"
    )
    return path


# ----------------------------------------------------------------------
def spans_jsonl(telemetry: Telemetry) -> str:
    """One JSON object per line: a header record, then every span."""
    lines = [
        json.dumps(
            {
                "record": "telemetry",
                "schema_version": telemetry.schema_version,
                "backend": telemetry.backend,
                "clock": telemetry.clock,
                "metrics": telemetry.metrics.as_dict(),
            }
        )
    ]
    for span in telemetry.spans:
        lines.append(json.dumps({"record": "span", **span.as_dict()}))
    return "\n".join(lines) + "\n"


def write_spans_jsonl(telemetry: Telemetry, path: str | Path) -> Path:
    path = Path(path)
    path.write_text(spans_jsonl(telemetry), encoding="utf-8")
    return path


def read_spans_jsonl(source: str | Path) -> Telemetry:
    """Load a :func:`spans_jsonl` export back into a validated
    :class:`Telemetry` — the write format's inverse, and the path by which
    ``repro explain --telemetry`` diagnoses a previously saved run.

    ``source`` is a path or raw JSONL text.  Raises ``ValueError`` on a
    missing/duplicate header record or unknown record kinds, and
    :class:`~repro.errors.TelemetryError` if the reassembled blob fails
    schema validation.
    """
    text = source if isinstance(source, str) and "\n" in source else None
    if text is None:
        text = Path(source).read_text(encoding="utf-8")
    header: dict | None = None
    spans: list[dict] = []
    for pos, line in enumerate(text.splitlines()):
        if not line.strip():
            continue
        obj = json.loads(line)
        kind = obj.get("record")
        if kind == "telemetry":
            if header is not None:
                raise ValueError(
                    f"line {pos + 1}: duplicate telemetry header record"
                )
            header = obj
        elif kind == "span":
            spans.append({k: v for k, v in obj.items() if k != "record"})
        else:
            raise ValueError(
                f"line {pos + 1}: unknown record kind {kind!r}"
            )
    if header is None:
        raise ValueError("no telemetry header record in JSONL input")
    return telemetry_from_dict(
        {
            "schema_version": header.get("schema_version"),
            "backend": header.get("backend"),
            "clock": header.get("clock"),
            "metrics": header.get("metrics"),
            "spans": spans,
        }
    )


# ----------------------------------------------------------------------
_GANTT_GLYPH = {CAT_COMPUTE: "#", CAT_WAIT: ".", CAT_QUEUE: "~", CAT_LEVEL: "#"}

#: Overwrite precedence when spans share a column at chart resolution:
#: compute wins over wait wins over queue.
_GANTT_RANK = {" ": 0, "~": 1, ".": 2, "#": 3}


def _format_extent(telemetry: Telemetry, extent: float) -> str:
    if telemetry.clock == CLOCK_WALL:
        return f"{extent * 1e3:.3f} ms"
    return f"{extent:.0f} cycles"


def gantt(telemetry: Telemetry, width: int = 72) -> str:
    """ASCII Gantt chart over per-lane activity spans.

    Renders compute/wait/queue (and vectorized per-level) spans; phase and
    run spans are accounting envelopes, not activity, and are skipped.
    The simulated :meth:`~repro.machine.trace.Tracer.gantt` draws through
    this function too, so a threaded wall-clock run and a simulated cycle
    run read the same way: staircases of ``.`` are serialized busy-waits,
    dense ``#`` is a pipelined schedule.
    """
    drawable: list[Span] = [
        s
        for s in telemetry.spans
        if s.cat in _GANTT_GLYPH and (s.lane >= 0 or s.cat == CAT_LEVEL)
    ]
    if not drawable:
        return "(no activity spans to draw)"
    span_end = max(s.end for s in drawable)
    if span_end <= 0:
        return "(no activity spans to draw)"
    lanes = sorted({max(s.lane, 0) for s in drawable})
    rows = {lane: [" "] * width for lane in lanes}
    for s in drawable:
        row = rows[max(s.lane, 0)]
        c0 = int(s.start / span_end * width)
        c1 = max(c0 + 1, int(s.end / span_end * width))
        glyph = _GANTT_GLYPH[s.cat]
        for c in range(c0, min(c1, width)):
            if _GANTT_RANK[glyph] > _GANTT_RANK[row[c]]:
                row[c] = glyph
    lines = [
        f"t = 0 .. {_format_extent(telemetry, span_end)}   "
        f"('#' compute, '.' busy-wait, '~' queued, ' ' idle)"
    ]
    for lane in lanes:
        lines.append(f"p{lane:<3d}|{''.join(rows[lane])}|")
    return "\n".join(lines)
