"""Machine-checkable proof objects.

A :class:`Proof` is a sequence of :class:`ProofStep`\\ s, one per derived
conclusion (write injectivity, one per read slot, one composition step).
Each step cites the rule it applied and a list of :class:`Check` side
conditions over *concrete integers* — ``divides(2, 6)``,
``incongruent(1, 0, 2)`` — which :func:`evaluate_check` can re-evaluate
without re-running the analysis.  That is what makes a shipped verdict
auditable: the checker recomputes the facts, re-evaluates every side
condition, and re-derives the composition, all independently of the
engine instance that produced the proof.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

__all__ = [
    "Check",
    "ProofStep",
    "Proof",
    "evaluate_check",
    "RULE_SINGLE_ITERATION",
    "RULE_AFFINE_INJECTIVE",
    "RULE_MONOTONE_INJECTIVE",
    "RULE_NO_READS",
    "RULE_COMPOSE",
]

# Loop-level rule identifiers (cited by proof steps and surfaced in lint
# messages); the per-slot ones live with the tests that apply them
# (:mod:`repro.analysis.deptest`).
RULE_SINGLE_ITERATION = "single-iteration"
RULE_AFFINE_INJECTIVE = "affine-injective"
RULE_MONOTONE_INJECTIVE = "monotone-injective"
RULE_NO_READS = "no-read-terms"
RULE_COMPOSE = "compose-verdict"


@dataclass(frozen=True)
class Check:
    """One concrete side condition: ``kind`` applied to integer ``args``."""

    kind: str
    args: Tuple[int, ...]

    def describe(self) -> str:
        a = self.args
        templates = {
            "eq": "{0} == {1}",
            "ne": "{0} != {1}",
            "lt": "{0} < {1}",
            "le": "{0} <= {1}",
            "gt": "{0} > {1}",
            "ge": "{0} >= {1}",
            "divides": "{0} | {1}",
            "not-divides": "{0} ∤ {1}",
            "disjoint-intervals": "[{0},{1}] ∩ [{2},{3}] = ∅",
            "incongruent": "{0} ≢ {1} (mod {2})",
            "empty-range": "[{0},{1}) = ∅",
        }
        template = templates.get(self.kind, self.kind + str(a))
        return template.format(*a)

    def as_dict(self) -> dict:
        return {"kind": self.kind, "args": list(self.args)}


def evaluate_check(check: Check) -> bool:
    """Re-evaluate a side condition from its concrete arguments."""
    kind, a = check.kind, check.args
    if kind == "eq":
        return a[0] == a[1]
    if kind == "ne":
        return a[0] != a[1]
    if kind == "lt":
        return a[0] < a[1]
    if kind == "le":
        return a[0] <= a[1]
    if kind == "gt":
        return a[0] > a[1]
    if kind == "ge":
        return a[0] >= a[1]
    if kind == "divides":
        return a[0] != 0 and a[1] % a[0] == 0
    if kind == "not-divides":
        return a[0] != 0 and a[1] % a[0] != 0
    if kind == "disjoint-intervals":
        lo1, hi1, lo2, hi2 = a
        return hi1 < lo2 or hi2 < lo1
    if kind == "incongruent":
        r1, r2, m = a
        if m == 0:
            return r1 != r2
        return (r1 - r2) % m != 0
    if kind == "empty-range":
        return a[1] <= a[0]
    raise ValueError(f"unknown check kind {kind!r}")


@dataclass(frozen=True)
class ProofStep:
    """One derivation: ``rule`` applied to ``target`` under ``checks``."""

    rule: str
    target: str
    conclusion: str
    checks: Tuple[Check, ...] = ()
    facts: Tuple[Tuple[str, tuple], ...] = ()

    def as_dict(self) -> dict:
        return {
            "rule": self.rule,
            "target": self.target,
            "conclusion": self.conclusion,
            "checks": [c.as_dict() for c in self.checks],
            "facts": {name: list(value) for name, value in self.facts},
        }

    def describe(self) -> str:
        conds = "; ".join(c.describe() for c in self.checks)
        suffix = f"  [{conds}]" if conds else ""
        return f"{self.target}: {self.conclusion} ({self.rule}){suffix}"


@dataclass(frozen=True)
class Proof:
    """An auditable derivation of a dependence verdict."""

    steps: Tuple[ProofStep, ...] = field(default_factory=tuple)

    def as_dict(self) -> dict:
        return {"steps": [s.as_dict() for s in self.steps]}

    def describe(self) -> str:
        return "\n".join(s.describe() for s in self.steps)

    def failed_checks(self) -> list[tuple[ProofStep, Check]]:
        """Every side condition that does not re-evaluate to true."""
        bad = []
        for step in self.steps:
            for check in step.checks:
                if not evaluate_check(check):
                    bad.append((step, check))
        return bad

