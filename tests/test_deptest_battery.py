"""Unit tests for the per-slot dependence tests (the classical battery).

Each test pins one rule path of :mod:`repro.analysis.deptest`:
ZIV on constant pairs, the weak-zero-write SIV family, strong SIV on
uniform chains, GCD refutation, Banerjee bounds on variable-distance
loops, the congruence/interval refutations for closed-form non-affine
subscripts, the honest MIV decline, and the inapplicable verdicts for
runtime subscripts.  Constant-write cases call the rule helpers directly
because :class:`IrregularLoop` (correctly) rejects non-injective writes
at construction for ``n > 1``.
"""

import numpy as np
import pytest

from repro.analysis import analyze_loop
from repro.analysis.checker import check_proof
from repro.analysis.deptest import (
    RULE_BANERJEE,
    RULE_CONGRUENCE,
    RULE_GCD,
    RULE_IDENTICAL,
    RULE_INACTIVE,
    RULE_INTERVAL,
    RULE_MIV,
    RULE_STRONG_SIV,
    RULE_WEAK_SIV,
    RULE_ZIV,
    _weak_zero_write,
    _ziv,
)
from repro.analysis.verdicts import (
    DIR_ANY,
    DIR_NONE,
    SlotDependence,
    direction_string,
)
from repro.ir.accesses import ReadSlot
from repro.ir.subscript import Add, Const, Index, IndirectSubscript, Mod, Mul
from repro.workloads.synthetic import (
    affine_loop,
    chain_loop,
    random_irregular_loop,
)


def slot_test(loop, j):
    """Slot ``j``'s record in the loop's verdict."""
    return analyze_loop(loop).slots[j]


# ----------------------------------------------------------------------
# Direction strings
# ----------------------------------------------------------------------
def test_direction_string_covers_all_subsets():
    assert direction_string(True, True, True) == "<=>"
    assert direction_string(True, False, False) == "<"
    assert direction_string(False, True, True) == "=>"
    assert direction_string(False, False, False) == DIR_NONE


def test_vector_may_carry_true_semantics():
    lt = SlotDependence(0, RULE_ZIV, (0, 4), "<")
    anti = SlotDependence(0, RULE_ZIV, (0, 4), ">")
    unknown = SlotDependence(0, RULE_MIV, (0, 4), DIR_ANY)
    declined = SlotDependence(0, RULE_MIV, (0, 4), DIR_ANY, applicable=False)
    assert lt.may_carry_true
    assert not anti.may_carry_true
    assert unknown.may_carry_true
    assert declined.may_carry_true  # inapplicable must stay conservative


# ----------------------------------------------------------------------
# ZIV (both subscripts constant)
# ----------------------------------------------------------------------
def test_ziv_refutes_distinct_constants():
    vec = _ziv(0, 3, 5, 16, 0, 16, ())
    assert vec.rule == RULE_ZIV
    assert vec.direction == DIR_NONE
    assert vec.min_distance is None
    assert not vec.may_carry_true
    assert vec.steps[0].checks[0].kind == "ne"


def test_ziv_alias_everywhere_over_the_full_range():
    vec = _ziv(0, 3, 3, 16, 0, 16, ())
    assert vec.direction == "<=>"
    assert vec.min_distance == 1  # distance 1 pairs exist, nothing better
    assert vec.distance is None  # no single shared distance


def test_ziv_last_iteration_reader_cannot_see_an_anti():
    # Reader active only at i = n-1: a writer after it does not exist.
    vec = _ziv(0, 3, 3, 16, 15, 16, ())
    assert vec.direction == "<="


def test_ziv_via_test_slot_on_a_singleton_loop():
    # n == 1 is the only loop size where a constant write is injective.
    # (The read is spelled as an expression so the pair is equal in value
    # but not structurally identical — that test comes first.)
    loop = affine_loop(1, (0, 0), [Const(0)], name="ziv1")
    vec = slot_test(loop, 0)
    assert vec.rule == RULE_ZIV
    assert vec.direction == "="  # only the intra-iteration pair exists
    assert not vec.may_carry_true


# ----------------------------------------------------------------------
# Weak-zero-write SIV (constant write, strided read)
# ----------------------------------------------------------------------
def test_weak_zero_write_gcd_refutes_non_divisible_offset():
    # read 2*i never lands on the constant element 5.
    vec = _weak_zero_write(0, 5, 2, 0, 16, 0, 16, ())
    assert vec.rule == RULE_GCD
    assert vec.direction == DIR_NONE
    assert vec.steps[0].checks[0].kind == "not-divides"


def test_weak_zero_write_refutes_out_of_range_reader():
    # The only aliasing reader would be i = 40, outside [0, 16).
    vec = _weak_zero_write(0, 40, 1, 0, 16, 0, 16, ())
    assert vec.rule == RULE_WEAK_SIV
    assert vec.direction == DIR_NONE
    assert vec.steps[0].checks[0].kind == "ge"


def test_weak_zero_write_single_reader_mid_range():
    vec = _weak_zero_write(0, 5, 1, 0, 16, 0, 16, ())
    assert vec.rule == RULE_WEAK_SIV
    assert vec.direction == "<=>"
    assert vec.min_distance == 1


def test_weak_zero_write_first_iteration_reader_has_no_true_dep():
    # i* = 0: no earlier writer exists, so '<' is impossible.
    vec = _weak_zero_write(0, 0, 1, 0, 16, 0, 16, ())
    assert vec.direction == "=>"
    assert vec.min_distance is None
    assert not vec.may_carry_true


# ----------------------------------------------------------------------
# Strong SIV / GCD / Banerjee (affine, non-constant)
# ----------------------------------------------------------------------
def test_strong_siv_exact_distance_on_a_chain():
    vec = slot_test(chain_loop(64, 8), 0)
    assert vec.rule == RULE_STRONG_SIV
    assert vec.direction == "<"
    assert vec.distance == 8
    assert vec.may_carry_true


def test_strong_siv_anti_only_forward_read():
    # y[i] reads y[i+3]: writer is always *later* — pure anti.
    vec = slot_test(affine_loop(16, (1, 0), [(1, 3)], name="anti"), 0)
    assert vec.rule == RULE_STRONG_SIV
    assert vec.direction == ">"
    assert vec.distance == -3
    assert not vec.may_carry_true


def test_gcd_refutes_incommensurate_strides():
    # write 2i, read 2i - 21: gcd(2,2)=2 does not divide 21.
    vec = slot_test(affine_loop(32, (2, 0), [(2, -21)], name="gcd"), 0)
    assert vec.rule == RULE_GCD
    assert vec.direction == DIR_NONE
    assert not vec.may_carry_true


def test_banerjee_bounds_a_variable_distance_loop():
    # write i, read 2i - 21 on n=15: dependent pairs have distances
    # 21 - i_r for i_r in [11, 14] -> {7, 8, 9, 10}; exact distance
    # does not exist but the bound 7 does.
    vec = slot_test(affine_loop(15, (1, 0), [(2, -21)], name="ban"), 0)
    assert vec.rule == RULE_BANERJEE
    assert vec.direction == "<"
    assert vec.distance is None
    assert vec.min_distance == 7


def test_weak_crossing_siv_all_three_directions():
    # write i, read 20 - i on n=16 crosses at i = 10: anti before,
    # intra at the crossing, true after.  The bound comes from the
    # continuous relaxation (delta >= 1), so it is 1 here even though
    # the smallest integral true distance is 2 — sound, not tight.
    vec = slot_test(affine_loop(16, (1, 0), [(-1, 20)], y_extra=5), 0)
    assert vec.rule == RULE_WEAK_SIV
    assert vec.direction == "<=>"
    assert vec.distance is None
    assert vec.min_distance == 1


def test_inactive_slot_refutes_without_running_tests():
    loop = affine_loop(16, (1, 0), [(1, 0, 20, None)], name="inactive")
    vec = slot_test(loop, 0)
    assert vec.rule == RULE_INACTIVE
    assert vec.direction == DIR_NONE


# ----------------------------------------------------------------------
# Closed-form but non-affine: congruence / interval / MIV
# ----------------------------------------------------------------------
def test_congruence_refutes_disjoint_residues():
    # write 2i+1 (always odd) vs read 2*(i mod 8) (always even).
    loop = affine_loop(
        32,
        Add(Mul(Index(), Const(2)), Const(1)),
        [Mul(Mod(Index(), 8), Const(2))],
        name="cong",
    )
    vec = slot_test(loop, 0)
    assert vec.rule == RULE_CONGRUENCE
    assert vec.direction == DIR_NONE


def test_interval_refutes_disjoint_ranges():
    # write i in [0, 31] vs read (i mod 8) + 40 in [40, 47].
    loop = affine_loop(
        32,
        Index(),
        [Add(Mod(Index(), 8), Const(40))],
        y_extra=16,
        name="intv",
    )
    vec = slot_test(loop, 0)
    assert vec.rule == RULE_INTERVAL
    assert vec.direction == DIR_NONE


def test_miv_declines_honestly_with_the_weakest_bound():
    # write i vs read i mod 8: ranges and residues overlap; the battery
    # must not refute and must fall back to the trivial bound.
    vec = slot_test(affine_loop(32, Index(), [Mod(Index(), 8)]), 0)
    assert vec.rule == RULE_MIV
    assert vec.applicable
    assert vec.direction == DIR_ANY
    assert vec.min_distance == 1


# ----------------------------------------------------------------------
# Inapplicable verdicts (runtime subscripts)
# ----------------------------------------------------------------------
def test_runtime_read_table_declares_no_slots():
    # No declared slot, so no record — and no bound, no elision.  (The
    # lint rule COUPLED-SUBSCRIPT still reports the read table as one
    # opaque slot: test_lint_rules.py.)
    verdict = analyze_loop(random_irregular_loop(32, seed=3))
    assert verdict.slots == ()
    assert verdict.min_distance is None
    assert verdict.kind == "runtime-only"
    assert not verdict.elidable


def test_indirect_slot_subscript_is_inapplicable():
    idx = np.zeros(16, dtype=np.int64)
    loop = affine_loop(
        16, (1, 0), [ReadSlot(IndirectSubscript(idx))], name="ind"
    )
    vec = slot_test(loop, 0)
    assert not vec.applicable
    assert vec.direction == DIR_ANY
    assert vec.may_carry_true


def test_loop_without_reads_has_no_vectors():
    verdict = analyze_loop(affine_loop(16, (1, 0), [], name="noreads"))
    assert verdict.slots == ()
    assert verdict.min_distance is None
    assert not any(s.may_carry_true for s in verdict.slots)


# ----------------------------------------------------------------------
# Identical subscripts (the first test tried)
# ----------------------------------------------------------------------
def test_identical_nonaffine_subscripts_are_intra():
    # Structurally equal closed forms alias at the same iteration even
    # where no affine test applies.
    expr = Mul(Mod(Index(), 32), Const(2))
    vec = slot_test(affine_loop(24, expr, [expr], name="same"), 0)
    assert vec.rule == RULE_IDENTICAL
    assert (vec.kind, vec.direction, vec.distance) == ("intra", "=", 0)
    assert vec.dep_range == vec.active == (0, 24)
    assert not vec.may_carry_true


# ----------------------------------------------------------------------
# Loop-level composition
# ----------------------------------------------------------------------
def test_loop_min_distance_is_the_weakest_slot_bound():
    loop = affine_loop(64, (1, 0), [(1, -8), (1, -3)], name="two")
    verdict = analyze_loop(loop)
    assert [v.distance for v in verdict.slots] == [8, 3]
    assert verdict.min_distance == 3
    assert all(v.applicable for v in verdict.slots)


def test_anti_only_slots_do_not_contribute_a_bound():
    verdict = analyze_loop(affine_loop(16, (1, 0), [(1, 3)], name="anti"))
    assert verdict.min_distance is None
    assert not any(s.may_carry_true for s in verdict.slots)


def test_slot_records_round_trip_and_sign():
    r8 = analyze_loop(chain_loop(64, 8))
    d = r8.as_dict()
    assert d["min_distance"] == 8
    assert d["slots"][0]["rule"] == RULE_STRONG_SIV
    assert d["slots"][0]["direction"] == "<"
    assert r8.slots[0].steps, "proof steps must ride on the record"
    assert d["proof"]["steps"], "proof steps must serialize"
    assert "distance=8" in r8.describe()
    assert r8.signature() == analyze_loop(chain_loop(64, 8)).signature()
    assert r8.signature() != analyze_loop(chain_loop(64, 3)).signature()


@pytest.mark.parametrize(
    "loop",
    [
        chain_loop(64, 8),
        affine_loop(15, (1, 0), [(2, -21)], name="ban"),
        affine_loop(32, (2, 0), [(2, -21)], name="gcd"),
        affine_loop(32, Index(), [Mod(Index(), 8)], name="miv"),
    ],
    ids=["chain", "banerjee", "gcd", "miv"],
)
def test_battery_backed_verdicts_carry_sound_proofs(loop):
    assert check_proof(loop) == []


def test_battery_bound_matches_brute_force_on_the_banerjee_loop():
    loop = affine_loop(15, (1, 0), [(2, -21)], name="ban")
    writes = loop.write_subscript.materialize(loop.n)
    reads = loop.read_slots[0].subscript.materialize(loop.n)
    true_dists = [
        r - w
        for w in range(loop.n)
        for r in range(loop.n)
        if w < r and writes[w] == reads[r]
    ]
    assert min(true_dists) == analyze_loop(loop).min_distance
