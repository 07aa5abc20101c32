"""The metrics registry: named counters, gauges, and histograms.

One registry per observed run unifies the counts that previously lived in
backend-specific corners — the simulated machine's
:class:`~repro.machine.stats.ProcessorStats` (flag checks, busy-wait
cycles, dispatches), the :class:`~repro.backends.cache.InspectorCache`
hit/miss counters, the vectorized backend's wavefront widths — under one
serializable namespace, so the paper's overhead quantities (§3.1's
busy-wait analysis, Figure 3's amortization) can be compared across
backends by name.

Three instrument kinds, matching how each quantity behaves:

- **counter** — monotonically accumulated totals (``flag_checks``,
  ``wait_cycles``, ``busy_waits``; ``kernel_spans_native`` /
  ``kernel_spans_python``, the ``run_span`` bodies a run's spans took;
  ``sim_phases_recurrence`` / ``sim_phases_engine``, the simulated
  executor phases timed by the recurrence and by the event engine);
  ``count()`` adds.
- **gauge** — point-in-time values (``processors``, ``levels``,
  ``inspector_cache_entries``); ``gauge()`` overwrites.
- **histogram** — distributions summarized as count/sum/min/max plus
  p50/p95/p99 (``level_width``); ``observe()`` folds one sample in and
  retains it so :meth:`MetricsRegistry.percentiles` can answer arbitrary
  quantile queries.

Thread-safe: the threaded backend reports from worker threads.
"""

from __future__ import annotations

import threading

import numpy as np

__all__ = ["MetricsRegistry", "PERCENTILE_KEYS"]

#: The quantiles serialized into every histogram summary (as ``"p50"`` ...).
PERCENTILE_KEYS = (50.0, 95.0, 99.0)


def _quantile(ordered: list[float], q: float) -> float:
    """Linear-interpolated quantile ``q`` (percent) of pre-sorted samples."""
    if not ordered:
        raise ValueError("no samples")
    if len(ordered) == 1:
        return ordered[0]
    pos = (q / 100.0) * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    frac = pos - lo
    return ordered[lo] * (1.0 - frac) + ordered[hi] * frac


class MetricsRegistry:
    """Collects named counters, gauges, and histogram summaries."""

    def __init__(self) -> None:
        self.counters: dict[str, float] = {}
        self.gauges: dict[str, float] = {}
        self.histograms: dict[str, dict[str, float]] = {}
        # Raw histogram samples, kept so percentiles() can answer any
        # quantile; one float per observe() call (histograms here count
        # wavefronts/phases, not per-iteration events, so retention is
        # O(levels), not O(n)).  Held as the arrays they arrived in and
        # flattened only when a quantile is asked for: converting 8,000
        # widths to a list cost 0.15 ms, a fifth of a compiled chain run.
        self._samples: dict[str, list[np.ndarray]] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def count(self, name: str, value: float = 1) -> None:
        """Add ``value`` to counter ``name`` (created at zero)."""
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + value

    def gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` to ``value`` (last write wins)."""
        with self._lock:
            self.gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        """Fold one sample into histogram ``name``."""
        self.observe_many(name, (value,))

    def observe_many(self, name: str, values) -> None:
        """Fold many samples into histogram ``name`` in one lock acquire
        (the vectorized backend reports all its wavefront widths at once,
        as an array: thousands of them on a chain, summarized in NumPy so
        that observing stays a few percent of a compiled walk).  An array is
        retained as it is, not copied: hand over one nobody writes to
        again."""
        values = np.asarray(values)
        if not values.size:
            return
        lo, hi = float(values.min()), float(values.max())
        with self._lock:
            self._samples.setdefault(name, []).append(values)
            h = self.histograms.get(name)
            if h is None:
                h = self.histograms[name] = {
                    "count": 0,
                    "sum": 0.0,
                    "min": lo,
                    "max": hi,
                }
            h["count"] += int(values.size)
            h["sum"] += float(values.sum())
            h["min"] = min(h["min"], lo)
            h["max"] = max(h["max"], hi)

    def percentiles(
        self, name: str, q: tuple[float, ...] = PERCENTILE_KEYS
    ) -> dict[str, float]:
        """Quantiles of histogram ``name``'s retained samples as
        ``{"p50": ..., ...}`` (linear interpolation).  Empty dict when the
        histogram has no retained samples — e.g. one deserialized from a
        summary blob."""
        with self._lock:
            chunks = list(self._samples.get(name, ()))
        if not chunks:
            return {}
        samples = np.sort(np.concatenate(chunks).astype(np.float64)).tolist()
        return {f"p{g:g}": _quantile(samples, g) for g in q}

    # ------------------------------------------------------------------
    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry's instruments into this one (counters
        add, gauges overwrite, histograms combine)."""
        with other._lock:
            counters = dict(other.counters)
            gauges = dict(other.gauges)
            histograms = {k: dict(v) for k, v in other.histograms.items()}
            samples = {k: list(v) for k, v in other._samples.items()}
        for name, value in counters.items():
            self.count(name, value)
        for name, value in gauges.items():
            self.gauge(name, value)
        with self._lock:
            for name, h in histograms.items():
                mine = self.histograms.get(name)
                if mine is None:
                    self.histograms[name] = dict(h)
                else:
                    mine["count"] += h["count"]
                    mine["sum"] += h["sum"]
                    mine["min"] = min(mine["min"], h["min"])
                    mine["max"] = max(mine["max"], h["max"])
            for name, vals in samples.items():
                self._samples.setdefault(name, []).extend(vals)

    def as_dict(self) -> dict:
        """JSON-safe snapshot: numbers only, plain dicts.

        Histograms with retained samples additionally carry p50/p95/p99
        summary quantiles; histograms restored from a serialized summary
        (no samples) keep whatever summary keys they arrived with."""

        def num(v: float) -> float | int:
            return int(v) if isinstance(v, bool) or v == int(v) else float(v)

        hist_names = list(self.histograms)
        quantiles = {name: self.percentiles(name) for name in hist_names}
        with self._lock:
            return {
                "counters": {k: num(v) for k, v in sorted(self.counters.items())},
                "gauges": {k: num(v) for k, v in sorted(self.gauges.items())},
                "histograms": {
                    k: {
                        kk: num(vv)
                        for kk, vv in {**v, **quantiles.get(k, {})}.items()
                    }
                    for k, v in sorted(self.histograms.items())
                },
            }

    @classmethod
    def from_dict(cls, data: dict) -> "MetricsRegistry":
        """Rebuild a registry from an :meth:`as_dict` snapshot.

        Counters, gauges, and histogram *summaries* round-trip exactly;
        raw samples are not serialized, so :meth:`percentiles` on the
        restored registry returns the empty dict (the serialized p50/p95/
        p99 keys inside each histogram are preserved verbatim instead)."""
        reg = cls()
        reg.counters = {k: v for k, v in data.get("counters", {}).items()}
        reg.gauges = {k: v for k, v in data.get("gauges", {}).items()}
        reg.histograms = {
            k: dict(v) for k, v in data.get("histograms", {}).items()
        }
        return reg
