"""The symbolic dependence engine: domains, proofs, verdicts, checker."""

import numpy as np
import pytest

import repro
from repro.analysis import (
    VERDICT_CONSTANT_DISTANCE,
    VERDICT_DOALL,
    VERDICT_INJECTIVE_WRITE,
    VERDICT_RUNTIME_ONLY,
    abstract_eval,
    analyze_loop,
    check_proof,
    cross_check,
    evaluate_check,
    facts_for_subscript,
)
from repro.analysis.domains import (
    AFFINE_TOP,
    AffineFact,
    CongruenceFact,
    IntervalFact,
    MonotonicityFact,
)
from repro.analysis.proofs import Check
from repro.errors import ProofError
from repro.ir.subscript import AffineSubscript, ExprSubscript, Index
from repro.workloads.synthetic import affine_loop
from tests.conftest import lying_slot_chain, redeclared


# ----------------------------------------------------------------------
# Domains
# ----------------------------------------------------------------------
def test_affine_domain_transfer():
    two_i = AffineFact(2, 0)
    plus3 = AffineFact(0, 3)
    assert two_i.add(plus3) == AffineFact(2, 3)
    assert two_i.mul(plus3) == AffineFact(6, 0)
    # i * i is not affine.
    assert AffineFact(1, 0).mul(AffineFact(1, 0)).is_top
    # (4i + 2) // 2 is exact; (4i + 2) // 3 is not.
    assert AffineFact(4, 2).floordiv(2) == AffineFact(2, 1)
    assert AffineFact(4, 2).floordiv(3).is_top
    assert AFFINE_TOP.add(two_i).is_top


def test_congruence_domain_transfer():
    even = CongruenceFact.make(2, 0)
    odd = CongruenceFact.make(2, 1)
    assert even.add(odd) == CongruenceFact.make(2, 1)
    const3 = CongruenceFact.make(0, 3)
    assert const3.is_constant
    # 3 * (2k) ≡ 0 (mod 6).
    assert const3.mul(even) == CongruenceFact.make(6, 0)
    # (4k + 2) mod 4 is the constant 2; (4k + 2) mod 8 keeps gcd 4.
    four_plus2 = CongruenceFact.make(4, 2)
    assert four_plus2.mod(4) == CongruenceFact.make(0, 2)
    assert four_plus2.mod(8) == CongruenceFact.make(4, 2)
    assert four_plus2.floordiv(2) == CongruenceFact.make(2, 1)


def test_interval_domain_transfer():
    a = IntervalFact(0, 9)
    b = IntervalFact(-2, 3)
    assert a.add(b) == IntervalFact(-2, 12)
    assert a.mul(b) == IntervalFact(-18, 27)
    assert a.mod(16) == a  # already inside [0, 16)
    assert a.mod(4) == IntervalFact(0, 3)
    assert a.floordiv(2) == IntervalFact(0, 4)
    assert a.disjoint_from(IntervalFact(10, 20))
    assert not a.disjoint_from(IntervalFact(9, 20))


def test_monotonicity_domain_transfer():
    up = MonotonicityFact(1, strict=True)
    assert up.scale(-3).direction == -1
    assert up.scale(0).direction == 0
    assert up.add(MonotonicityFact(0)).is_strictly_monotone
    # Opposite directions mix to unknown.
    assert up.add(MonotonicityFact(-1)).direction is None
    # Floor division keeps direction but drops strictness.
    assert up.floordiv(2).direction == 1
    assert not up.floordiv(2).strict


# ----------------------------------------------------------------------
# Abstract evaluation
# ----------------------------------------------------------------------
def test_abstract_eval_refolds_exact_affine():
    i = Index()
    facts = abstract_eval((i * 2) // 2, 0, 99)
    assert facts.affine == AffineFact(1, 0)
    assert facts.monotonicity.is_strictly_monotone
    assert facts.interval == IntervalFact(0, 99)


def test_abstract_eval_mod_and_floordiv():
    i = Index()
    facts = abstract_eval(i % 8, 0, 99)
    assert facts.affine.is_top
    assert facts.interval == IntervalFact(0, 7)
    # i // 2 is monotone but not strictly.
    half = abstract_eval(i // 2, 0, 99)
    assert half.monotonicity.direction == 1
    assert not half.monotonicity.strict


def test_facts_for_subscript_kinds():
    assert facts_for_subscript(
        AffineSubscript(2, 1), 0, 9
    ).affine == AffineFact(2, 1)
    expr = facts_for_subscript(ExprSubscript(Index() * 3), 0, 9)
    assert expr.affine == AffineFact(3, 0)
    # Runtime data: nothing to say.
    loop = repro.random_irregular_loop(16, seed=0)
    assert facts_for_subscript(loop.write_subscript, 0, 15) is None


# ----------------------------------------------------------------------
# Proof checks
# ----------------------------------------------------------------------
def test_evaluate_check_kinds():
    assert evaluate_check(Check("divides", (2, 6)))
    assert not evaluate_check(Check("divides", (4, 6)))
    assert evaluate_check(Check("not-divides", (4, 6)))
    assert evaluate_check(Check("incongruent", (0, 1, 2)))
    assert not evaluate_check(Check("incongruent", (0, 2, 2)))
    assert evaluate_check(Check("disjoint-intervals", (0, 3, 4, 9)))
    assert evaluate_check(Check("empty-range", (5, 5)))
    with pytest.raises(ValueError, match="unknown check kind"):
        evaluate_check(Check("mystery", (1,)))


# ----------------------------------------------------------------------
# Verdicts per loop shape
# ----------------------------------------------------------------------
def test_chain_is_constant_distance():
    verdict = analyze_loop(repro.chain_loop(64, 3))
    assert verdict.kind == VERDICT_CONSTANT_DISTANCE
    assert verdict.distance == 3
    assert verdict.elidable
    (slot,) = verdict.slots
    assert slot.kind == "true"
    assert slot.dep_range == (3, 64)


def test_figure4_odd_l_is_doall_proven():
    verdict = analyze_loop(repro.make_test_loop(64, 2, 7))
    assert verdict.kind == VERDICT_DOALL
    assert verdict.elidable
    assert not verdict.true_slots()


def test_figure4_even_l_is_injective_write_mixed_distances():
    verdict = analyze_loop(repro.make_test_loop(64, 2, 8))
    assert verdict.kind == VERDICT_INJECTIVE_WRITE
    assert verdict.elidable  # fully classified, distances differ
    assert {s.distance for s in verdict.true_slots()} == {2, 3}


def test_congruence_disjoint_stride_is_doall():
    loop = affine_loop(50, (2, 0), [(2, 1)], name="parity")
    verdict = analyze_loop(loop)
    assert verdict.kind == VERDICT_DOALL
    (slot,) = verdict.slots
    assert slot.rule == "deptest-gcd"


def test_opaque_loop_is_runtime_only():
    verdict = analyze_loop(repro.random_irregular_loop(64, seed=3))
    assert verdict.kind == VERDICT_RUNTIME_ONLY
    assert not verdict.elidable


def test_anti_only_slot_blocks_doall_but_not_elision():
    # Read at i+1: the writer of the read element comes later — anti.
    loop = affine_loop(40, (1, 0), [(1, 1)], name="look-ahead")
    verdict = analyze_loop(loop)
    assert verdict.kind == VERDICT_DOALL
    assert verdict.has_anti()
    (slot,) = verdict.slots
    assert slot.kind == "anti"


def test_verdict_memoized_on_loop_object():
    loop = repro.chain_loop(32, 1)
    first = analyze_loop(loop)
    assert first is analyze_loop(loop)
    # use_cache=False recomputes (and refreshes the memo).
    fresh = analyze_loop(loop, use_cache=False)
    assert fresh is not first
    assert fresh.signature() == first.signature()


def test_verdict_serialization_round_trip():
    verdict = analyze_loop(repro.chain_loop(32, 2))
    payload = verdict.as_dict()
    assert payload["kind"] == VERDICT_CONSTANT_DISTANCE
    assert payload["elidable"] is True
    assert payload["proof"]["steps"]
    assert "constant distance" in verdict.describe() or "d=2" in (
        verdict.describe()
    )


# ----------------------------------------------------------------------
# Checker: proof audit and runtime cross-check
# ----------------------------------------------------------------------
def test_check_proof_clean_on_real_verdicts():
    for loop in (
        repro.chain_loop(48, 2),
        repro.make_test_loop(48, 2, 8),
        repro.random_irregular_loop(48, seed=1),
    ):
        assert check_proof(loop) == []


def test_cross_check_clean_and_counts_terms():
    loop = repro.make_test_loop(48, 2, 8)
    report = cross_check(loop)
    assert report.ok
    assert report.checked_terms == loop.reads.total_terms
    assert "OK" in report.describe()


def test_cross_check_rejects_tampered_verdict():
    from dataclasses import replace

    loop = repro.chain_loop(48, 2)
    verdict = analyze_loop(loop)
    lie = replace(verdict, distance=3)
    report = cross_check(loop, lie)
    assert not report.ok
    with pytest.raises(ProofError, match="cross-check"):
        cross_check(loop, lie, strict=True)


def test_cross_check_catches_wrong_slot_declaration():
    # chain_loop(48, 2)'s arrays, but the declared slot claims distance 1.
    wrong = lying_slot_chain()
    verdict = analyze_loop(wrong)
    report = cross_check(wrong, verdict)
    assert not report.ok
    assert any("declared subscript" in p for p in report.problems)


def test_slot_term_map_rejects_untiled_slots():
    from repro.analysis import slot_terms
    from repro.ir.accesses import ReadSlot

    base = repro.chain_loop(24, 1)
    wrong = redeclared(
        base,
        [ReadSlot(AffineSubscript(1, -1), start=1, stop=5)],
        "short-slot",
    )
    with pytest.raises(ProofError, match="term"):
        slot_terms(wrong)


def test_slot_terms_follow_the_slot_contract():
    """Iteration i's terms are its active slots in increasing slot
    order: slot j's term at i is ptr[i] plus the slots before j active
    at i, whatever the ranges' overlap."""
    from repro.analysis import slot_terms
    from repro.ir.accesses import ReadSlot, read_table_from_slots
    from repro.ir.loop import IrregularLoop

    n = 20
    slots = [
        ReadSlot(AffineSubscript(1, -1), start=1),
        ReadSlot(AffineSubscript(1, -3), start=3, stop=12),
        ReadSlot(AffineSubscript(0, 0), start=0, stop=7),
    ]
    reads = read_table_from_slots(slots, [1.0] * len(slots), n)
    loop = IrregularLoop(
        n=n,
        y_size=n,
        write_subscript=AffineSubscript(1, 0),
        reads=reads,
        read_slots=slots,
    )
    positions = slot_terms(loop)
    for j, slot in enumerate(slots):
        lo, hi = slot.active_range(n)
        for i in range(lo, hi):
            before = sum(s.is_active(i, n) for s in slots[:j])
            assert positions[j][i - lo] == reads.ptr[i] + before
        assert np.array_equal(
            reads.index[positions[j]], slot.subscript.materialize(hi)[lo:]
        )


def test_proof_steps_name_their_rules():
    verdict = analyze_loop(repro.chain_loop(32, 4))
    rules = {step.rule for step in verdict.proof.steps}
    assert "affine-injective" in rules
    assert "deptest-strong-siv" in rules
    assert "compose-verdict" in rules
    assert verdict.proof.failed_checks() == []
    assert np.all(
        [isinstance(s.describe(), str) for s in verdict.proof.steps]
    )
