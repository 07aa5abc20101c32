"""The wall-time auto-tuner: ``backend="auto"``.

PAPERS.md's speculative-taskloop line of work makes the empirical point
that backend/schedule choice is workload-dependent — no fixed backend
wins on chains *and* stencils *and* gather/scatter — and a wall-clock
measurement is all it takes to see which one does.  This module turns
that observation into a closed loop:

1. **Key** — runs are grouped by the loop's structural fingerprint
   (:func:`~repro.backends.cache.loop_fingerprint`), the same
   content-address the inspector cache amortizes preprocessing under.
   Same dependence structure ⇒ same tuning problem.
2. **Measure** — each auto-planned run contributes its
   ``RunResult.wall_seconds`` (:func:`record_run_outcome`); nothing
   else is read, so an auto run is observed only when the caller asks.
3. **Policy** — explore-then-exploit.  The first run of a structure uses
   a width heuristic (vectorized first; the width orders the rest
   of the field); subsequent runs
   measure each remaining candidate once; after that the tuner exploits
   the argmin of median measured wall time.
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

__all__ = [
    "AUTO_CANDIDATES",
    "TunerDecision",
    "choose_backend",
    "record_run_outcome",
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
    source:
        ``"heuristic"`` — first sight of this structure, width rule;
        ``"explore"`` — measuring a not-yet-measured candidate;
        ``"telemetry"`` — exploiting measured medians (the argmin of
        median wall time over every candidate).
    reason:
        Human-readable justification (surfaced by ``explain --json``).
    fingerprint:
        The structural fingerprint the decision is keyed under.
    """

    backend: str
    source: str
    reason: str
    fingerprint: str

    def as_dict(self) -> dict:
        return {
            "backend": self.backend,
            "source": self.source,
            "reason": self.reason,
            "fingerprint": self.fingerprint,
        }


def _median(values: list) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return 0.5 * (ordered[mid - 1] + ordered[mid])


def _heuristic_order(levels) -> tuple[str, ...]:
    """Candidate priority from the wavefront shape alone.

    The vectorized backend goes first either way: it walks every level,
    wide or narrow, in one compiled span at about the sequential loop's
    cost (``fig4_chain``: ~0.2 x_ref warm, where ``threaded`` measures
    22–26).  The shape orders the rest: wide
    wavefronts mean few cross-chunk conflicts, so speculation ranks
    second there; deep, narrow DAGs force it into its rollback/fallback
    worst case, so the point-to-point backends precede it.
    """
    rest = ("speculative", "multiproc", "threaded")
    return ("vectorized", *(rest if levels.average_width() >= 4.0 else rest[::-1]))


def record_run_outcome(
    store: InspectorCache,
    fingerprint: str,
    backend: str,
    wall_seconds: float,
) -> None:
    """Feed one run's wall time back into the tuner's store.

    Called by :func:`~repro.passes.execute.execute_plan` after every
    auto-planned run; safe to call for fixed-backend runs too (warming
    the tuner with ground truth it did not choose).
    """
    state = store.tuner_state(fingerprint)
    samples = state["measurements"].setdefault(backend, [])
    samples.append(float(wall_seconds))
    del samples[:-_MAX_SAMPLES]


def choose_backend(
    levels, fingerprint: str, store: InspectorCache
) -> TunerDecision:
    """Pick the backend for one structure by explore-then-exploit over the
    measurements ``store`` holds for ``fingerprint`` (module docstring,
    step 3), and record the decision there."""
    state = store.tuner_state(fingerprint)
    measurements = state["measurements"]

    priority = _heuristic_order(levels)
    unmeasured = [b for b in priority if not measurements.get(b)]

    if len(unmeasured) == len(priority):
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
            f"{sum(len(measurements[b]) for b in priority)} measured runs"
        )

    decision = TunerDecision(
        backend=choice,
        source=source,
        reason=reason,
        fingerprint=fingerprint,
    )
    state["decision"] = decision.as_dict()
    return decision
