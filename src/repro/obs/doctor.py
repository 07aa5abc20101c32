"""The perf doctor: findings from telemetry, in the paper's vocabulary.

Every rule here checks one quantity from the paper's accounting argument
against one run's :class:`~repro.obs.telemetry.Telemetry` blob:

- **wait_bound** — the per-lane busy-wait share (§2.2's dependency-check
  cost, the left side of §3's amortization inequality).  When waiting
  dominates computing on a point-to-point backend, the executor is not
  winning back what preprocessing paid, and the wavefront-batched
  backend (which replaces per-element waits with level barriers) is the
  structural fix.
- **load_imbalance** — per-lane compute totals.  The cyclic distribution
  assumes uniform iteration cost (§2.1); a lane carrying far more than
  the mean says that assumption broke.
- **narrow_wavefronts** — the ``level_width`` distribution vs the worker
  count.  §3.2's doconsider decomposition only pays when levels are wide
  enough to fill the machine.  Every point-to-point backend pays a wait
  per dependence on such a DAG (22–26 x_ref threaded on ``fig4_chain``),
  so from them the recommendation is ``vectorized``, which walks all the
  levels in one compiled span whatever their width — and so gets no
  finding of this kind itself.
- **inspector_dominant** — Figure 3's preprocessing cost vs the executor
  extent.  When the inspector dominates, symbolic analysis (which builds
  the record in closed form) removes it.
- **cache_cold** — the cross-run reuse (§4's preprocessed-loop reuse)
  that amortizes preprocessing is not engaged.
- **wait_escalation** — blocking waits that outlived the WaitLadder's
  spin rung: stalls are long, not momentary flag races.

Each rule emits a :class:`~repro.obs.findings.Finding` with the numbers
it judged and a machine-readable recommendation — a plan option to try
next, for the reader or the tool reading ``explain --json``.
"""

from __future__ import annotations

from repro.obs.telemetry import Telemetry
from repro.obs.findings import (
    KIND_CACHE_COLD,
    KIND_INSPECTOR_DOMINANT,
    KIND_LOAD_IMBALANCE,
    KIND_NARROW_WAVEFRONTS,
    KIND_WAIT_BOUND,
    KIND_WAIT_ESCALATION,
    SEV_CRITICAL,
    SEV_INFO,
    SEV_WARNING,
    Finding,
)

__all__ = [
    "WAIT_FRACTION_WARNING",
    "WAIT_FRACTION_CRITICAL",
    "IMBALANCE_RATIO",
    "INSPECTOR_SHARE",
    "ESCALATION_SHARE_WARNING",
    "diagnose",
    "diagnose_result",
]

#: Mean busy-wait share of lane activity that draws a warning/critical
#: wait_bound finding (point-to-point backends only).
WAIT_FRACTION_WARNING = 0.2
WAIT_FRACTION_CRITICAL = 0.5

#: Max/mean per-lane compute ratio above which the load is imbalanced.
IMBALANCE_RATIO = 1.5

#: Inspector share of (inspector + executor) extent above which
#: preprocessing dominates the run.
INSPECTOR_SHARE = 0.5

#: Escalated share of blocking waits that upgrades wait_escalation from
#: info to warning.
ESCALATION_SHARE_WARNING = 0.5

#: Backends whose executor blocks per element (the paper's Figure-5
#: busy-wait); the wavefront-batched backend is their structural remedy.
_POINT_TO_POINT = ("threaded", "multiproc")


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def diagnose(
    telemetry: Telemetry,
    processors: int | None = None,
    extras: dict | None = None,
) -> list[Finding]:
    """All findings for one run, most severe first.

    ``processors`` defaults to the ``processors`` gauge the instrumented
    wrapper records; ``extras`` (a :class:`~repro.core.results.RunResult`
    extras dict) refines the inspector/cache rules when available.
    """
    extras = extras or {}
    metrics = telemetry.metrics.as_dict()
    counters = metrics["counters"]
    gauges = metrics["gauges"]
    if processors is None:
        processors = int(gauges.get("processors", 0)) or None
    findings: list[Finding] = []

    # --- wait_bound: §3 amortization (busy-wait share per lane) --------
    fractions = telemetry.wait_fractions()
    if fractions and telemetry.backend in _POINT_TO_POINT:
        mean_frac = _mean(fractions.values())
        if mean_frac >= WAIT_FRACTION_WARNING:
            severity = (
                SEV_CRITICAL
                if mean_frac >= WAIT_FRACTION_CRITICAL
                else SEV_WARNING
            )
            findings.append(
                Finding(
                    kind=KIND_WAIT_BOUND,
                    severity=severity,
                    summary=(
                        f"lanes spend {mean_frac:.0%} of executor activity "
                        f"busy-waiting on ready flags — dependency-check "
                        f"time is not being amortized (§3)"
                    ),
                    evidence={
                        "mean_wait_fraction": mean_frac,
                        "wait_fraction_by_lane": {
                            str(k): v for k, v in fractions.items()
                        },
                        "busy_waits": counters.get("busy_waits", 0),
                    },
                    recommendation={"backend": "vectorized"},
                )
            )

    # --- load_imbalance: per-lane compute totals -----------------------
    compute = telemetry.category_totals_by_lane("compute")
    if len(compute) >= 2:
        mean_c = _mean(compute.values())
        max_lane = max(compute, key=lambda k: compute[k])
        ratio = compute[max_lane] / mean_c if mean_c > 0 else 0.0
        if ratio > IMBALANCE_RATIO:
            findings.append(
                Finding(
                    kind=KIND_LOAD_IMBALANCE,
                    severity=SEV_WARNING,
                    summary=(
                        f"lane {max_lane} carries {ratio:.2f}x the mean "
                        f"compute — the cyclic distribution's uniform-cost "
                        f"assumption does not hold"
                    ),
                    evidence={
                        "max_lane": max_lane,
                        "max_over_mean": ratio,
                        "compute_by_lane": {
                            str(k): v for k, v in compute.items()
                        },
                    },
                    recommendation={"backend": "vectorized"},
                )
            )

    # --- narrow_wavefronts: level widths vs worker count ---------------
    level_width = metrics["histograms"].get("level_width")
    if level_width and level_width.get("count"):
        avg_width = level_width["sum"] / level_width["count"]
        workers = processors or 1
        # The vectorized backend walks the levels as one span whatever
        # their width: nothing there waits per level.
        if (
            workers > 1
            and avg_width < workers
            and telemetry.backend != "vectorized"
        ):
            findings.append(
                Finding(
                    kind=KIND_NARROW_WAVEFRONTS,
                    severity=SEV_CRITICAL if avg_width < 2.0 else SEV_WARNING,
                    summary=(
                        f"average wavefront width {avg_width:.1f} cannot "
                        f"fill {workers} workers (§3.2) — the vectorized "
                        f"backend walks the levels in one span instead of "
                        f"waiting per dependence"
                    ),
                    evidence={
                        "avg_width": avg_width,
                        "processors": workers,
                        "level_width": dict(level_width),
                        "levels": gauges.get("levels"),
                    },
                    recommendation={"backend": "vectorized"},
                )
            )

    # --- inspector_dominant: Figure 3 preprocessing share --------------
    phases = telemetry.phase_totals()
    inspector = phases.get("inspector", 0.0)
    executor = phases.get("executor", 0.0)
    elided = bool(extras.get("inspector_elided"))
    if inspector + executor > 0 and not elided:
        share = inspector / (inspector + executor)
        if share > INSPECTOR_SHARE:
            findings.append(
                Finding(
                    kind=KIND_INSPECTOR_DOMINANT,
                    severity=SEV_WARNING,
                    summary=(
                        f"the inspector is {share:.0%} of "
                        f"inspector+executor time — preprocessing "
                        f"dominates the run (Figure 3)"
                    ),
                    evidence={
                        "inspector_extent": inspector,
                        "executor_extent": executor,
                        "inspector_share": share,
                    },
                    recommendation={"analyze": "symbolic"},
                )
            )

    # --- cache_cold: cross-run reuse not engaged -----------------------
    hits = gauges.get("inspector_cache_hits_total")
    misses = gauges.get("inspector_cache_misses_total")
    if hits == 0 and (misses or 0) > 0:
        findings.append(
            Finding(
                kind=KIND_CACHE_COLD,
                severity=SEV_INFO,
                summary=(
                    "every inspector record was built from scratch — "
                    "share an InspectorCache across runs to amortize "
                    "preprocessing (§4)"
                ),
                evidence={"cache_hits": hits, "cache_misses": misses},
                recommendation={"cache": "share"},
            )
        )

    # --- wait_escalation: stalls past the WaitLadder spin rung ---------
    escalations = counters.get("wait_escalations", 0)
    busy_waits = counters.get("busy_waits", 0)
    if escalations > 0:
        share = escalations / busy_waits if busy_waits else 1.0
        findings.append(
            Finding(
                kind=KIND_WAIT_ESCALATION,
                severity=(
                    SEV_WARNING
                    if share >= ESCALATION_SHARE_WARNING
                    else SEV_INFO
                ),
                summary=(
                    f"{escalations} of {busy_waits} blocking waits "
                    f"escalated past the spin rung — dependence stalls "
                    f"are long, not momentary"
                ),
                evidence={
                    "wait_escalations": escalations,
                    "busy_waits": busy_waits,
                    "escalated_share": share,
                },
                recommendation={"backend": "vectorized"},
            )
        )

    rank = {SEV_CRITICAL: 0, SEV_WARNING: 1, SEV_INFO: 2}
    findings.sort(key=lambda f: rank[f.severity])
    return findings


def diagnose_result(result) -> list[Finding]:
    """Diagnose a :class:`~repro.core.results.RunResult` that carries
    telemetry (``observe=True`` runs)."""
    if result.telemetry is None:
        raise ValueError(
            "result has no telemetry; run with observe=True to collect it"
        )
    return diagnose(
        result.telemetry,
        processors=result.processors,
        extras=result.extras,
    )
