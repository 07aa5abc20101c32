"""Observability: cross-backend telemetry for the doacross pipeline.

The paper's whole argument is an accounting argument — preprocessing cost
amortized against executor busy-wait savings (§2.2–§3, Figure 6, Table 1).
The simulated backend always had that accounting
(:class:`~repro.machine.stats.PhaseStats`,
:class:`~repro.machine.trace.Tracer`); this package extends it to the
backends that run on real hardware, under one schema:

- :mod:`repro.obs.spans` — structured :class:`Span` intervals
  (phase / wavefront-level / compute / wait / queue) and the thread-safe
  :class:`SpanRecorder` backends emit into.
- :mod:`repro.obs.metrics` — the :class:`MetricsRegistry` of named
  counters/gauges/histograms unifying what used to live piecemeal in
  ``ProcessorStats``, the :class:`~repro.backends.cache.InspectorCache`
  counters, and the vectorized level widths.
- :mod:`repro.obs.telemetry` — the serializable :class:`Telemetry` blob
  attached to :class:`~repro.core.results.RunResult` and its schema
  validator :func:`validate_telemetry`.
- :mod:`repro.obs.export` — Chrome trace-event JSON
  (``chrome://tracing``-loadable), JSONL span sink, and the ASCII
  :func:`~repro.obs.export.gantt` mirroring the simulated Gantt chart.
- :mod:`repro.obs.instrument` — :func:`telemetry_from_result`, the
  cycle-clock telemetry of a simulated run.  Observation is selected
  with ``PlanSpec(observe=True)`` (the
  :class:`~repro.backends.hooks.Observe` run hook).
- :mod:`repro.obs.doctor` / :mod:`repro.obs.findings` — the perf
  doctor: structured findings from one run's telemetry, each with a
  machine-readable recommendation (a plan option to try next).  The
  auto-tuner reads none of it: it trains on wall time
  (:mod:`repro.passes.autotune`).
- :mod:`repro.obs.cli` — ``python -m repro explain``: one planned,
  observed, diagnosed run of any builtin workload on any backend,
  reported (or exported).
"""

from repro.obs.export import (
    chrome_trace,
    gantt,
    read_spans_jsonl,
    spans_jsonl,
    write_chrome_trace,
    write_spans_jsonl,
)
from repro.obs.instrument import telemetry_from_result
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import (
    CAT_BARRIER,
    CAT_COMPUTE,
    CAT_LEVEL,
    CAT_PHASE,
    CAT_QUEUE,
    CAT_RUN,
    CAT_WAIT,
    SPAN_CATEGORIES,
    WHOLE_RUN_LANE,
    Span,
    SpanRecorder,
)
from repro.obs.telemetry import (
    CLOCK_CYCLES,
    CLOCK_WALL,
    PHASE_NAMES,
    TELEMETRY_SCHEMA_VERSION,
    Telemetry,
    telemetry_from_dict,
    validate_telemetry,
)

__all__ = [
    # spans
    "Span",
    "SpanRecorder",
    "SPAN_CATEGORIES",
    "WHOLE_RUN_LANE",
    "CAT_RUN",
    "CAT_PHASE",
    "CAT_LEVEL",
    "CAT_COMPUTE",
    "CAT_WAIT",
    "CAT_QUEUE",
    "CAT_BARRIER",
    # metrics
    "MetricsRegistry",
    # telemetry
    "Telemetry",
    "telemetry_from_dict",
    "validate_telemetry",
    "TELEMETRY_SCHEMA_VERSION",
    "CLOCK_WALL",
    "CLOCK_CYCLES",
    "PHASE_NAMES",
    # instrumentation
    "telemetry_from_result",
    # exporters
    "chrome_trace",
    "write_chrome_trace",
    "spans_jsonl",
    "write_spans_jsonl",
    "read_spans_jsonl",
    "gantt",
]
