"""The telemetry-driven auto-tuner: ``backend="auto"``.

PAPERS.md's speculative-taskloop line of work makes the empirical point
that backend/schedule choice is workload-dependent — no fixed backend
wins on chains *and* stencils *and* gather/scatter.  This module turns
that observation into a closed loop:

1. **Key** — runs are grouped by the loop's structural fingerprint
   (:func:`~repro.backends.cache.loop_fingerprint`), the same
   content-address the inspector cache amortizes preprocessing under.
   Same dependence structure ⇒ same tuning problem.
2. **Features** — each observed run contributes its wall time plus
   telemetry-derived features: the busy-wait fraction per lane (from
   ``wait``-category spans) and the wavefront-width histogram (the
   vectorized backend's ``level_width`` metric).  High wait fractions
   indict synchronization-heavy backends.
3. **Policy** — explore-then-exploit.  The first run of a structure uses
   a width heuristic (vectorized first; the width orders the rest
   of the field); subsequent runs
   measure each remaining candidate once; after that the tuner exploits
   the argmin of median measured wall time.  Perf-doctor hints
   (:func:`record_doctor_hints`, fed by ``PlanSpec(diagnose=True)`` runs
   on a shared cache) jump the queue: the hinted backend is measured
   first, and once timed the tuner exploits without exploring the rest
   of the field.
4. **Persistence** — measurements and the current decision live on the
   :class:`~repro.backends.cache.InspectorCache` (:meth:`tuner_state`),
   so sharing a cache across ``parallelize`` calls shares the learning
   exactly like it shares inspector records.

:func:`choose_backend` is the ``auto-tune`` stage of
:func:`~repro.passes.plan.plan_loop`: it resolves ``backend="auto"`` to a
concrete backend and returns the :class:`TunerDecision` audit record.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.backends.cache import InspectorCache
from repro.obs.spans import CAT_WAIT

__all__ = [
    "AUTO_CANDIDATES",
    "TunerDecision",
    "choose_backend",
    "features_from_telemetry",
    "record_run_outcome",
    "record_doctor_hints",
    "default_tuner_store",
]

#: Backends the tuner chooses among.  The simulated backend is excluded:
#: its "time" is modeled cycles, not comparable with measured wall clock.
AUTO_CANDIDATES = ("vectorized", "threaded", "multiproc", "speculative")

#: Measurements kept per (fingerprint, backend): enough for a stable
#: median, bounded so a long-lived cache cannot grow without limit.
_MAX_SAMPLES = 8

#: Process-wide fallback store, used when no cache is passed — repeated
#: ``parallelize(backend="auto")`` calls still learn within the process.
_DEFAULT_STORE = InspectorCache()


def default_tuner_store() -> InspectorCache:
    """The process-wide store backing cache-less ``backend="auto"`` runs."""
    return _DEFAULT_STORE


@dataclass(frozen=True)
class TunerDecision:
    """Why the tuner picked what it picked (attached to plans/results).

    Attributes
    ----------
    backend:
        The chosen concrete backend.
    chunk:
        Chunk constraint carried from the spec (the stripmine stage sizes
        the default when this is ``None``).
    source:
        ``"heuristic"`` — first sight of this structure, width rule;
        ``"explore"`` — measuring a not-yet-measured candidate;
        ``"telemetry"`` — exploiting the best measured median.
    reason:
        Human-readable justification (surfaced by ``explain --json``).
    fingerprint:
        The structural fingerprint the decision is keyed under.
    """

    backend: str
    chunk: int | None
    source: str
    reason: str
    fingerprint: str

    def as_dict(self) -> dict:
        return {
            "backend": self.backend,
            "chunk": self.chunk,
            "source": self.source,
            "reason": self.reason,
            "fingerprint": self.fingerprint,
        }


def features_from_telemetry(telemetry) -> dict:
    """Distill one run's telemetry into the tuner's feature vector.

    Returns a JSON-safe dict: per-lane busy-wait fraction of the executor
    extent, its mean, and the ``level_width`` histogram summary when the
    backend emitted one.  Tolerates partial blobs — a backend without
    wait spans simply reports an empty fraction map.
    """
    phases = telemetry.phase_totals()
    extent = phases.get("executor") or telemetry.span_total()
    wait_by_lane: dict[int, float] = {}
    for span in telemetry.spans:
        if span.cat == CAT_WAIT and span.lane >= 0:
            wait_by_lane[span.lane] = (
                wait_by_lane.get(span.lane, 0.0) + span.duration
            )
    fractions = {
        str(lane): (total / extent if extent else 0.0)
        for lane, total in sorted(wait_by_lane.items())
    }
    mean = sum(fractions.values()) / len(fractions) if fractions else 0.0
    features = {
        "wait_fraction": fractions,
        "mean_wait_fraction": mean,
    }
    histogram = telemetry.metrics.as_dict()["histograms"].get("level_width")
    if histogram is not None:
        features["level_width"] = dict(histogram)
    return features


def _median(values: list) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return 0.5 * (ordered[mid - 1] + ordered[mid])


def _heuristic_order(levels, n: int) -> tuple[str, ...]:
    """Candidate priority from the wavefront shape alone.

    The vectorized backend goes first either way: it walks every level,
    wide or narrow, in one compiled span at about the sequential loop's
    cost (``fig4_chain``: ~0.2 x_ref warm, where ``threaded`` measures
    22–26).  The shape orders the rest: wide
    wavefronts mean few cross-chunk conflicts, so speculation ranks
    second there; deep, narrow DAGs force it into its rollback/fallback
    worst case, so the point-to-point backends precede it.
    """
    avg = levels.average_width() if levels is not None else float(n)
    rest = ("speculative", "multiproc", "threaded")
    return ("vectorized", *(rest if avg >= 4.0 else rest[::-1]))


def record_run_outcome(
    store: InspectorCache,
    fingerprint: str,
    backend: str,
    wall_seconds: float,
    telemetry=None,
) -> None:
    """Feed one observed run back into the tuner's store.

    Called by :func:`~repro.passes.execute.execute_plan` after every
    auto-planned run; safe to call for fixed-backend runs too (warming
    the tuner with ground truth it did not choose).
    """
    state = store.tuner_state(fingerprint)
    samples = state["measurements"].setdefault(backend, [])
    samples.append(float(wall_seconds))
    del samples[:-_MAX_SAMPLES]
    if telemetry is not None:
        state["features"][backend] = features_from_telemetry(telemetry)


def record_doctor_hints(
    store: InspectorCache, fingerprint: str, findings
) -> None:
    """Turn perf-doctor findings into a tuner prior for ``fingerprint``.

    The first finding (they arrive most-severe-first) whose
    recommendation names a backend becomes the hint; the tuner then
    tries that backend before its width heuristic and, once the hinted
    backend is measured, exploits without timing the remaining
    candidates.  No backend recommendation ⇒ no hint recorded.
    """
    for finding in findings:
        backend = finding.recommendation.get("backend")
        if backend is None:
            continue
        state = store.tuner_state(fingerprint)
        state["hints"] = {
            "backend": backend,
            "kind": finding.kind,
            "severity": finding.severity,
            "summary": finding.summary,
        }
        return


def choose_backend(
    levels, fingerprint: str, n: int, chunk: int | None, store: InspectorCache
) -> TunerDecision:
    """Pick the backend for one structure by explore-then-exploit over the
    measurements ``store`` holds for ``fingerprint`` (module docstring,
    step 3), and record the decision there."""
    state = store.tuner_state(fingerprint)
    measurements = state["measurements"]

    priority = [
        b for b in _heuristic_order(levels, n) if b in AUTO_CANDIDATES
    ]
    unmeasured = [b for b in priority if not measurements.get(b)]
    hint = (state.get("hints") or {}).get("backend")
    if hint not in priority:
        hint = None

    if hint is not None and unmeasured:
        # A perf-doctor hint shortcuts exploration: try the hinted
        # backend first, and once it is measured exploit the best
        # median immediately instead of timing the rest of the field.
        kind = state["hints"].get("kind", "finding")
        if not measurements.get(hint):
            choice = hint
            reason = (
                f"perf doctor ({kind}) recommends {choice}; "
                f"measuring it ahead of the width heuristic"
            )
        else:
            measured = [b for b in priority if measurements.get(b)]
            medians = {b: _median(measurements[b]) for b in measured}
            choice = min(medians, key=medians.get)
            reason = (
                f"perf doctor ({kind}) hint lets the tuner exploit "
                f"median wall {medians[choice]:.6f}s without timing "
                f"{'/'.join(unmeasured)}"
            )
        source = "hint"
    elif unmeasured and not any(measurements.get(b) for b in priority):
        choice = unmeasured[0]
        source = "heuristic"
        reason = (
            f"first run of this structure: average wavefront width "
            f"{levels.average_width():.1f} ranks {choice} first"
        )
    elif unmeasured:
        choice = unmeasured[0]
        source = "explore"
        reason = (
            f"{choice} not yet measured for this structure "
            f"({len(priority) - len(unmeasured)}/{len(priority)} "
            f"candidates timed)"
        )
    else:
        medians = {b: _median(measurements[b]) for b in priority}
        choice = min(medians, key=medians.get)
        runner_up = sorted(medians.values())[1] if len(medians) > 1 else 0.0
        source = "telemetry"
        reason = (
            f"median wall {medians[choice]:.6f}s beats next-best "
            f"{runner_up:.6f}s over "
            f"{sum(len(measurements[b]) for b in priority)} observed runs"
        )

    decision = TunerDecision(
        backend=choice,
        chunk=chunk,
        source=source,
        reason=reason,
        fingerprint=fingerprint,
    )
    state["decision"] = decision.as_dict()
    return decision
