"""Symbolic dependence analysis (the static half of the paper's §2.3).

Abstract interpretation plus the classical dependence tests
(:mod:`repro.analysis.deptest`) over the closed-form subscripts in
:mod:`repro.ir.subscript`, proving dependence properties *for every
input* where the runtime inspector only observes them for one:

- :func:`analyze_loop` — produce a :class:`DependenceVerdict` (DOALL-
  proven / constant-distance / injective-write / runtime-only) with a
  machine-checkable :class:`~repro.analysis.proofs.Proof` attached.
- :func:`check_proof` / :func:`cross_check` — audit a proof's side
  conditions and compare the verdict against the runtime inspector.
- :func:`build_symbolic_record` — construct the inspector's output
  (``iter`` array, wavefront schedule, executor tables) in closed form,
  eliding the runtime inspector entirely (``analyze="symbolic"`` on
  :func:`repro.backends.make_runner`).
"""

from repro.analysis.checker import CrossCheckReport, check_proof, cross_check
from repro.analysis.domains import (
    AffineFact,
    CongruenceFact,
    DomainFacts,
    IntervalFact,
    MonotonicityFact,
)
from repro.analysis.elide import (
    build_distance_record,
    build_symbolic_record,
    distance_fingerprint,
    record_mismatches,
    records_equal,
    symbolic_fingerprint,
)
from repro.analysis.engine import analyze_loop, slot_terms
from repro.analysis.eval import abstract_eval, facts_for_subscript
from repro.analysis.proofs import Check, Proof, ProofStep, evaluate_check
from repro.analysis.verdicts import (
    DIR_ANY,
    DIR_NONE,
    SLOT_ANTI,
    SLOT_INTRA,
    SLOT_NO_TRUE,
    SLOT_NONE,
    SLOT_TRUE,
    SLOT_UNKNOWN,
    VERDICT_CONSTANT_DISTANCE,
    VERDICT_DOALL,
    VERDICT_INJECTIVE_WRITE,
    VERDICT_RUNTIME_ONLY,
    DependenceVerdict,
    SlotDependence,
    is_min_distance_kind,
    min_distance_kind,
)

__all__ = [
    "analyze_loop",
    "slot_terms",
    "abstract_eval",
    "facts_for_subscript",
    "check_proof",
    "cross_check",
    "CrossCheckReport",
    "build_symbolic_record",
    "build_distance_record",
    "symbolic_fingerprint",
    "distance_fingerprint",
    "records_equal",
    "record_mismatches",
    "AffineFact",
    "CongruenceFact",
    "IntervalFact",
    "MonotonicityFact",
    "DomainFacts",
    "Check",
    "Proof",
    "ProofStep",
    "evaluate_check",
    "DependenceVerdict",
    "SlotDependence",
    "VERDICT_DOALL",
    "VERDICT_CONSTANT_DISTANCE",
    "VERDICT_INJECTIVE_WRITE",
    "VERDICT_RUNTIME_ONLY",
    "min_distance_kind",
    "is_min_distance_kind",
    "DIR_ANY",
    "DIR_NONE",
    "SLOT_TRUE",
    "SLOT_INTRA",
    "SLOT_ANTI",
    "SLOT_NONE",
    "SLOT_NO_TRUE",
    "SLOT_UNKNOWN",
]
