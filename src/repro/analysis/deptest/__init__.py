"""Classical dependence-test battery over the closed-form subscript IR.

Where the symbolic engine (:mod:`repro.analysis.engine`) classifies each
read slot *exactly* or declines, this package answers the weaker — and
for synchronization planning, decisive — question: **how far** can a
cross-iteration true dependence reach?  The battery runs the classical
tests (ZIV, strong/weak SIV, GCD, Banerjee bounds, with a conservative
MIV-style fallback) over one write/read subscript pair at a time and
summarizes each slot as a :class:`DependenceVector`: direction(s), the
exact distance when there is one, and a proven ``min_distance`` lower
bound backed by :class:`~repro.analysis.proofs.ProofStep` objects the
existing ``check_proof``/``cross_check`` machinery audits.

A loop-level bound ``min_distance = k`` legalizes dropping post/wait
pairs whenever ``k`` is at least the synchronization granularity — the
group-synchronous execution ``plan_distance_elision`` plans
(:mod:`repro.passes.distance`), after "Parallelization of Loops with
Variable Distance Data Dependences" (arXiv 1311.2927); carrying the
machine-checkable certificate follows the proof-carrying style of
"Verifying Parallel Loops with Separation Logic" (arXiv 1406.3484).
"""

from repro.analysis.deptest.battery import (
    RULE_BANERJEE,
    RULE_CONGRUENCE,
    RULE_GCD,
    RULE_INACTIVE,
    RULE_INTERVAL,
    RULE_MIV,
    RULE_STRONG_SIV,
    RULE_WEAK_SIV,
    RULE_ZIV,
    BatteryResult,
    run_battery,
    test_slot,
)
from repro.analysis.deptest.vectors import (
    DIR_ANY,
    DIR_NONE,
    DependenceVector,
    direction_string,
)

__all__ = [
    "DependenceVector",
    "BatteryResult",
    "run_battery",
    "test_slot",
    "direction_string",
    "DIR_ANY",
    "DIR_NONE",
    "RULE_ZIV",
    "RULE_STRONG_SIV",
    "RULE_WEAK_SIV",
    "RULE_GCD",
    "RULE_BANERJEE",
    "RULE_CONGRUENCE",
    "RULE_INTERVAL",
    "RULE_MIV",
    "RULE_INACTIVE",
]
