"""Cycle-clock telemetry for the simulated backend.

An observed run (``PlanSpec(observe=True)``, the
:class:`~repro.backends.hooks.Observe` hook) comes back with
``result.telemetry`` — a :class:`~repro.obs.telemetry.Telemetry` blob of
phase spans, per-lane activity spans, and unified metrics.  The
wall-clock backends emit their spans themselves; the simulated machine
already accounts every cycle in :class:`~repro.machine.stats.PhaseStats`
and (with ``trace``) the :class:`~repro.machine.trace.Tracer`, and
:func:`telemetry_from_result` re-expresses that accounting as the same
span/metric schema, so the two time axes can be read side by side.
"""

from __future__ import annotations

from repro.core.results import RunResult
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import (
    CAT_BARRIER,
    CAT_PHASE,
    CAT_RUN,
    WHOLE_RUN_LANE,
    Span,
)
from repro.obs.telemetry import CLOCK_CYCLES, PHASE_NAMES, Telemetry

__all__ = ["telemetry_from_result"]


def telemetry_from_result(
    result: RunResult, metrics: MetricsRegistry | None = None
) -> Telemetry:
    """Cycle-clock telemetry synthesized from a simulated backend's
    :class:`RunResult`.

    The phase spans are laid out sequentially from the
    :class:`~repro.core.results.PhaseBreakdown` (inspector → executor →
    postprocessor, with the barrier budget split evenly between phase
    boundaries, ending exactly at ``total_cycles``); per-processor
    compute/wait/queue spans come from the executor
    :class:`~repro.machine.trace.Tracer` when the run recorded one; the
    metrics registry is filled from every phase's
    :class:`~repro.machine.stats.ProcessorStats`.
    """
    metrics = metrics if metrics is not None else MetricsRegistry()
    spans: list[Span] = []
    b = result.breakdown
    present = [
        (name, float(getattr(b, name)))
        for name in PHASE_NAMES
        if getattr(b, name) > 0
    ]
    barrier_each = float(b.barriers) / len(present) if present else 0.0
    cursor = 0.0
    executor_start = 0.0
    for name, length in present:
        if name == "executor":
            executor_start = cursor
        spans.append(
            Span(name=name, cat=CAT_PHASE, start=cursor, end=cursor + length)
        )
        cursor += length
        if barrier_each > 0:
            spans.append(
                Span(
                    name="barrier",
                    cat=CAT_BARRIER,
                    start=cursor,
                    end=cursor + barrier_each,
                )
            )
            cursor += barrier_each
    total = max(float(result.total_cycles), cursor)
    spans.append(
        Span(
            name="run",
            cat=CAT_RUN,
            start=0.0,
            end=total,
            lane=WHOLE_RUN_LANE,
            attrs={"strategy": result.strategy},
        )
    )

    tracer = result.extras.get("trace")
    if tracer is not None and hasattr(tracer, "to_spans"):
        spans.extend(tracer.to_spans(offset=int(executor_start)))

    for phase in result.phases:
        for proc in phase.processors:
            for name, value in proc.as_metrics().items():
                if value:
                    metrics.count(name, value)
    if b.barriers:
        metrics.count("barrier_cycles", b.barriers)
    metrics.gauge("processors", result.processors)
    metrics.gauge("total_cycles", result.total_cycles)

    spans.sort(key=lambda s: (s.start, s.lane))
    return Telemetry(
        backend="simulated", clock=CLOCK_CYCLES, spans=spans, metrics=metrics
    )
