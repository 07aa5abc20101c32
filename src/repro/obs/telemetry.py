"""The telemetry blob: one schema for every backend's run accounting.

A :class:`Telemetry` bundles the spans and metrics of one run together
with the clock they are expressed in.  The schema is deliberately
backend-agnostic — the simulated backend fills it from
:class:`~repro.machine.stats.PhaseStats` cycles, the threaded and
vectorized backends from measured wall clock — so a single consumer (the
exporters, the ``explain`` CLI, the benchmark artifacts) reads all three.
The shared-schema contract is pinned by ``tests/test_obs_schema.py`` and
enforced at runtime by :func:`validate_telemetry`.

Serialized form (``as_dict``)::

    {
      "schema_version": 1,
      "backend": "threaded",
      "clock": "wall_seconds",          # or "cycles"
      "spans":   [{"name", "cat", "start", "end", "lane", "attrs"}, ...],
      "metrics": {"counters": {...}, "gauges": {...}, "histograms": {...}}
    }
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import TelemetryError
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import CAT_PHASE, CAT_RUN, SPAN_CATEGORIES, Span

__all__ = [
    "TELEMETRY_SCHEMA_VERSION",
    "CLOCK_WALL",
    "CLOCK_CYCLES",
    "PHASE_NAMES",
    "Telemetry",
    "telemetry_from_dict",
    "validate_telemetry",
]

TELEMETRY_SCHEMA_VERSION = 1

#: Clock identifiers: what one unit of ``start``/``end`` means.
CLOCK_WALL = "wall_seconds"
CLOCK_CYCLES = "cycles"

#: The Figure-3 pipeline stages every backend reports as phase spans.
PHASE_NAMES = ("inspector", "executor", "postprocessor")


@dataclass
class Telemetry:
    """Spans + metrics of one run, in one clock.

    Attributes
    ----------
    backend:
        The innermost runner's ``name`` (``simulated``/``threaded``/
        ``vectorized``).
    clock:
        :data:`CLOCK_WALL` or :data:`CLOCK_CYCLES`.
    spans:
        Normalized (earliest start at 0), start-sorted span list.
    metrics:
        The run's :class:`~repro.obs.metrics.MetricsRegistry`.
    """

    backend: str
    clock: str
    spans: list[Span] = field(default_factory=list)
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)
    schema_version: int = TELEMETRY_SCHEMA_VERSION

    # ------------------------------------------------------------------
    def span_total(self) -> float:
        """End of the latest span (the telemetry-visible makespan)."""
        return max((s.end for s in self.spans), default=0.0)

    def phase_totals(self) -> dict[str, float]:
        """Wall-to-wall extent of each named phase: earliest start to
        latest end across lanes (per-lane phase spans overlap in time, so
        summing durations would double-count)."""
        bounds: dict[str, tuple[float, float]] = {}
        for s in self.spans:
            if s.cat != CAT_PHASE:
                continue
            lo, hi = bounds.get(s.name, (s.start, s.end))
            bounds[s.name] = (min(lo, s.start), max(hi, s.end))
        return {name: hi - lo for name, (lo, hi) in bounds.items()}

    def lanes(self) -> list[int]:
        """Distinct non-whole-run lanes, ascending."""
        return sorted({s.lane for s in self.spans if s.lane >= 0})

    def category_totals_by_lane(self, cat: str) -> dict[int, float]:
        """Summed span duration of category ``cat`` per non-whole-run
        lane (the doctor's raw material: per-lane wait and compute
        totals feed the §3 amortization and load-imbalance checks)."""
        totals: dict[int, float] = {}
        for s in self.spans:
            if s.cat == cat and s.lane >= 0:
                totals[s.lane] = totals.get(s.lane, 0.0) + s.duration
        return totals

    def wait_fractions(self) -> dict[int, float]:
        """Per-lane ``wait / (wait + compute)`` ratio — the measured form
        of the paper's busy-wait share.  Lanes with no compute or wait
        spans are omitted."""
        wait = self.category_totals_by_lane("wait")
        compute = self.category_totals_by_lane("compute")
        out: dict[int, float] = {}
        for lane in sorted(set(wait) | set(compute)):
            busy = wait.get(lane, 0.0) + compute.get(lane, 0.0)
            if busy > 0:
                out[lane] = wait.get(lane, 0.0) / busy
        return out

    def one_line(self) -> str:
        phases = self.phase_totals()
        unit = "s" if self.clock == CLOCK_WALL else "cyc"
        parts = ", ".join(
            f"{name}={phases[name]:.6g}{unit}"
            for name in PHASE_NAMES
            if name in phases
        )
        return (
            f"{len(self.spans)} spans ({self.clock}); {parts}"
            if parts
            else f"{len(self.spans)} spans ({self.clock})"
        )

    def as_dict(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "backend": self.backend,
            "clock": self.clock,
            "spans": [s.as_dict() for s in self.spans],
            "metrics": self.metrics.as_dict(),
        }


def telemetry_from_dict(blob: dict) -> Telemetry:
    """Rebuild a :class:`Telemetry` from its :meth:`Telemetry.as_dict`
    form (validated first) — the read side of the benchmark-artifact and
    JSONL serialization, used by ``repro explain --telemetry`` to diagnose saved runs."""
    validate_telemetry(blob)
    return Telemetry(
        backend=blob["backend"],
        clock=blob["clock"],
        spans=[
            Span(
                name=s["name"],
                cat=s["cat"],
                start=float(s["start"]),
                end=float(s["end"]),
                lane=int(s["lane"]),
                attrs=dict(s["attrs"]),
            )
            for s in blob["spans"]
        ],
        metrics=MetricsRegistry.from_dict(blob["metrics"]),
        schema_version=int(blob["schema_version"]),
    )


# ----------------------------------------------------------------------
_SPAN_KEYS = {"name", "cat", "start", "end", "lane", "attrs"}
_METRIC_KEYS = {"counters", "gauges", "histograms"}
_HISTOGRAM_KEYS = {"count", "sum", "min", "max"}
#: Optional per-histogram summary quantiles (present when the producing
#: registry retained raw samples).
_HISTOGRAM_OPTIONAL_KEYS = {"p50", "p95", "p99"}


def _fail(message: str) -> None:
    raise TelemetryError(f"invalid telemetry blob: {message}")


def validate_telemetry(blob: object) -> dict:
    """Check ``blob`` against the serialized telemetry schema.

    Returns the blob (for chaining) or raises
    :class:`~repro.errors.TelemetryError` naming the first violation.
    This is the gate the CI benchmark artifacts and the shared
    cross-backend schema test both go through, so "same schema" is one
    definition, not three conventions.
    """
    if not isinstance(blob, dict):
        _fail(f"expected a dict, got {type(blob).__name__}")
    if blob.get("schema_version") != TELEMETRY_SCHEMA_VERSION:
        _fail(
            f"schema_version is {blob.get('schema_version')!r}, "
            f"expected {TELEMETRY_SCHEMA_VERSION}"
        )
    if not isinstance(blob.get("backend"), str) or not blob["backend"]:
        _fail("backend must be a non-empty string")
    if blob.get("clock") not in (CLOCK_WALL, CLOCK_CYCLES):
        _fail(
            f"clock is {blob.get('clock')!r}, expected "
            f"{CLOCK_WALL!r} or {CLOCK_CYCLES!r}"
        )

    spans = blob.get("spans")
    if not isinstance(spans, list):
        _fail("spans must be a list")
    run_spans = 0
    for pos, span in enumerate(spans):
        if not isinstance(span, dict):
            _fail(f"spans[{pos}] is not a dict")
        missing = _SPAN_KEYS - span.keys()
        if missing:
            _fail(f"spans[{pos}] missing key(s) {sorted(missing)}")
        if span["cat"] not in SPAN_CATEGORIES:
            _fail(f"spans[{pos}] has unknown category {span['cat']!r}")
        if not isinstance(span["name"], str) or not span["name"]:
            _fail(f"spans[{pos}] name must be a non-empty string")
        start, end = span["start"], span["end"]
        if not isinstance(start, (int, float)) or not isinstance(end, (int, float)):
            _fail(f"spans[{pos}] start/end must be numbers")
        if end < start or start < 0:
            _fail(
                f"spans[{pos}] interval [{start}, {end}] is negative "
                f"or starts before t=0"
            )
        if not isinstance(span["lane"], int):
            _fail(f"spans[{pos}] lane must be an int")
        if not isinstance(span["attrs"], dict):
            _fail(f"spans[{pos}] attrs must be a dict")
        if span["cat"] == CAT_RUN:
            run_spans += 1
    if spans and run_spans == 0:
        _fail("no run-category span brackets the construct")

    metrics = blob.get("metrics")
    if not isinstance(metrics, dict) or set(metrics.keys()) != _METRIC_KEYS:
        _fail(f"metrics must be a dict with keys {sorted(_METRIC_KEYS)}")
    for kind in ("counters", "gauges"):
        for name, value in metrics[kind].items():
            if not isinstance(name, str) or not isinstance(value, (int, float)):
                _fail(f"metrics.{kind}[{name!r}] must map str -> number")
    for name, h in metrics["histograms"].items():
        if (
            not isinstance(h, dict)
            or _HISTOGRAM_KEYS - h.keys()
            or h.keys() - _HISTOGRAM_KEYS - _HISTOGRAM_OPTIONAL_KEYS
        ):
            _fail(
                f"metrics.histograms[{name!r}] must have keys "
                f"{sorted(_HISTOGRAM_KEYS)} (optionally "
                f"{sorted(_HISTOGRAM_OPTIONAL_KEYS)})"
            )
        if any(not isinstance(v, (int, float)) for v in h.values()):
            _fail(f"metrics.histograms[{name!r}] values must be numbers")
    return blob  # type: ignore[return-value]
