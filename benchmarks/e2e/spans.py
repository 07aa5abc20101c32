"""Span recorder for the traced run.

Spans are recorded from the benchmark's side, around its calls into each
layer of the library (spans inside ``src/`` are a later issue).  They are
kept in memory, written as JSON lines when the run ends, and reduced to
self time per span name: a span's duration minus the part of it that its
child spans cover.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path


class SpanRecorder:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self._traces = 0

    @contextmanager
    def span(self, name: str, **attrs):
        """Record one span; a span opened with no parent starts a trace."""
        parent = self._stack[-1] if self._stack else None
        if parent is None:
            self._traces += 1
        record = {
            "trace": self._traces,
            "id": len(self.spans),
            "parent": None if parent is None else parent["id"],
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            **attrs,
        }
        self.spans.append(record)
        self._stack.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> dict[str, float]:
        """Total self seconds per span name."""
        covered: dict[int, float] = {}
        for s in self.spans:
            if s["parent"] is not None:
                covered[s["parent"]] = covered.get(s["parent"], 0.0) + (
                    s["end"] - s["start"]
                )
        out: dict[str, float] = {}
        for s in self.spans:
            own = (s["end"] - s["start"]) - covered.get(s["id"], 0.0)
            out[s["name"]] = out.get(s["name"], 0.0) + own
        return out

    def durations(self, name: str, **attrs) -> list[float]:
        return [
            s["end"] - s["start"]
            for s in self.spans
            if s["name"] == name and all(s.get(k) == v for k, v in attrs.items())
        ]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")
