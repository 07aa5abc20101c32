"""Structured perf-doctor findings.

A :class:`Finding` is one diagnosed condition in the paper's vocabulary —
"the busy-wait share violates the §3 amortization inequality", "the
wavefronts are too narrow for this worker count" — carrying the evidence
numbers it was derived from, a severity, and a machine-readable
recommendation (a partial :class:`~repro.passes.spec.PlanSpec` option
dict) that both humans and the auto-tuner can act on.

The kinds are a closed vocabulary (:data:`FINDING_KINDS`); each maps to
one paper quantity, documented in ``docs/paper_mapping.md``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "SEV_INFO",
    "SEV_WARNING",
    "SEV_CRITICAL",
    "SEVERITIES",
    "KIND_WAIT_BOUND",
    "KIND_LOAD_IMBALANCE",
    "KIND_NARROW_WAVEFRONTS",
    "KIND_INSPECTOR_DOMINANT",
    "KIND_CACHE_COLD",
    "KIND_WAIT_ESCALATION",
    "FINDING_KINDS",
    "Finding",
]

SEV_INFO = "info"
SEV_WARNING = "warning"
SEV_CRITICAL = "critical"
SEVERITIES = (SEV_INFO, SEV_WARNING, SEV_CRITICAL)

#: Executor busy-wait share is large enough to threaten the §3
#: amortization inequality (dependency-check time must be won back).
KIND_WAIT_BOUND = "wait_bound"
#: One lane carries much more compute than the mean — the cyclic
#: distribution's assumption of uniform iteration cost does not hold.
KIND_LOAD_IMBALANCE = "load_imbalance"
#: Wavefront levels are narrower than the worker count — doconsider
#: batches cannot fill the machine (§3.2).
KIND_NARROW_WAVEFRONTS = "narrow_wavefronts"
#: The inspector (preprocessing) phase dominates the run — Figure 3's
#: preprocessing cost is not being amortized.
KIND_INSPECTOR_DOMINANT = "inspector_dominant"
#: Every inspector record was built from scratch — the cross-run reuse
#: that pays for preprocessing (§4) is not engaged.
KIND_CACHE_COLD = "cache_cold"
#: Blocking waits escalated past the spin rung of the WaitLadder —
#: dependence stalls are long, not momentary.
KIND_WAIT_ESCALATION = "wait_escalation"

FINDING_KINDS = (
    KIND_WAIT_BOUND,
    KIND_LOAD_IMBALANCE,
    KIND_NARROW_WAVEFRONTS,
    KIND_INSPECTOR_DOMINANT,
    KIND_CACHE_COLD,
    KIND_WAIT_ESCALATION,
)


@dataclass
class Finding:
    """One diagnosed condition with its evidence and recommendation.

    Attributes
    ----------
    kind:
        One of :data:`FINDING_KINDS`.
    severity:
        One of :data:`SEVERITIES`.
    summary:
        One human-readable sentence.
    evidence:
        The numbers the diagnosis was derived from (JSON-safe).
    recommendation:
        Machine-readable remedy: a partial plan-option dict
        (``{"backend": "vectorized"}``, ``{"analyze": "symbolic"}``)
        to try next; empty when the finding is purely informational.
    """

    kind: str
    severity: str
    summary: str
    evidence: dict = field(default_factory=dict)
    recommendation: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in FINDING_KINDS:
            raise ValueError(
                f"unknown finding kind {self.kind!r}; "
                f"expected one of {FINDING_KINDS}"
            )
        if self.severity not in SEVERITIES:
            raise ValueError(
                f"unknown severity {self.severity!r}; "
                f"expected one of {SEVERITIES}"
            )

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "severity": self.severity,
            "summary": self.summary,
            "evidence": dict(self.evidence),
            "recommendation": dict(self.recommendation),
        }

    def one_line(self) -> str:
        rec = (
            " -> "
            + ", ".join(f"{k}={v!r}" for k, v in self.recommendation.items())
            if self.recommendation
            else ""
        )
        return f"[{self.severity}] {self.kind}: {self.summary}{rec}"
