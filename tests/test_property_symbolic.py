"""Property tests: the symbolic verdict agrees with the runtime inspector.

The engine's contract is soundness — everything it proves holds for the
concrete instance the runtime inspector sees.  Random affine loops
exercise the per-slot tests (strong/weak SIV, GCD, Banerjee bounds);
random opaque loops exercise the honest-decline path.  In both cases
``cross_check`` (which audits the proof AND replays the inspector) must
come back clean, and elidable verdicts must reproduce the inspector
record bitwise.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
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
    analyze_loop,
    build_symbolic_record,
    cross_check,
    records_equal,
)
from repro.backends.cache import build_inspector_record
from repro.ir.analysis import observed_distances
from repro.workloads.synthetic import random_irregular_loop
from tests.strategies import affine_loops

@given(affine_loops())
@settings(max_examples=80, deadline=None)
def test_affine_verdict_matches_inspector(loop):
    verdict = analyze_loop(loop)
    # An affine write with nonzero stride is always provably injective
    # (mixed-stride read pairs may still defeat the slot rules).
    assert verdict.write_injective

    report = cross_check(loop, verdict)
    assert report.ok, report.describe()

    observed = observed_distances(loop)
    if verdict.kind == VERDICT_DOALL:
        assert len(observed) == 0
    elif verdict.kind == VERDICT_CONSTANT_DISTANCE:
        assert observed.tolist() == [verdict.distance]
    elif verdict.fully_classified:
        # Mixed distances, all proven: the inspector sees exactly them.
        claimed = sorted(
            {s.distance for s in verdict.slots if s.kind == SLOT_TRUE}
        )
        assert observed.tolist() == claimed


@given(affine_loops())
@settings(max_examples=40, deadline=None)
def test_affine_symbolic_record_matches_inspector_record(loop):
    if not analyze_loop(loop).elidable:
        return  # mixed-stride slot defeated the rules: nothing to elide
    assert records_equal(
        build_symbolic_record(loop), build_inspector_record(loop)
    )


@given(
    st.integers(min_value=2, max_value=80),
    st.integers(min_value=0, max_value=2**16),
    st.integers(min_value=0, max_value=4),
)
@settings(max_examples=40, deadline=None)
def test_opaque_verdict_declines_honestly(n, seed, max_terms):
    loop = random_irregular_loop(n, max_terms=max_terms, seed=seed)
    verdict = analyze_loop(loop)
    # A runtime write subscript proves nothing, reads or no reads: the
    # engine must decline rather than guess.
    assert not verdict.write_injective
    assert not verdict.elidable
    report = cross_check(loop, verdict)
    assert report.ok, report.describe()


@given(
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=2, max_value=100),
)
@settings(max_examples=40, deadline=None)
def test_chain_distance_is_recovered_exactly(d, n):
    from repro.workloads.synthetic import chain_loop

    loop = chain_loop(max(n, d + 1), d)
    verdict = analyze_loop(loop)
    assert verdict.kind == VERDICT_CONSTANT_DISTANCE
    assert verdict.distance == d
    assert np.array_equal(
        build_symbolic_record(loop).iter_array,
        build_inspector_record(loop).iter_array,
    )


# ----------------------------------------------------------------------
# The per-slot records (direction / distance / kind)
# ----------------------------------------------------------------------
@given(affine_loops())
@settings(max_examples=60, deadline=None)
def test_battery_bound_never_exceeds_an_observed_distance(loop):
    # The load-bearing soundness property of the distance elision: the
    # proven lower bound must survive contact with the inspector on
    # every instance — a single observed distance below it would make a
    # group-synchronous schedule race.
    verdict = analyze_loop(loop)
    observed = observed_distances(loop)
    if verdict.min_distance is not None and len(observed):
        assert int(observed.min()) >= verdict.min_distance


@given(affine_loops())
@settings(max_examples=60, deadline=None)
def test_battery_vectors_agree_with_brute_force_pairs(loop):
    verdict = analyze_loop(loop)
    n = loop.n
    w = loop.write_subscript.materialize(n)
    for vec in verdict.slots:
        slot = loop.read_slots[vec.slot]
        lo, hi = slot.active_range(n)
        if hi <= lo or not vec.applicable:
            continue
        r = slot.subscript.materialize(hi)
        relations = set()
        true_distances = []
        for ir in range(lo, hi):
            for iw in np.nonzero(w == r[ir])[0]:
                if iw < ir:
                    relations.add("<")
                    true_distances.append(ir - int(iw))
                elif iw == ir:
                    relations.add("=")
                else:
                    relations.add(">")
        # Every observed relation must be in the claimed direction set
        # (DIR_NONE claims no aliasing at all; vacuously checked).
        if vec.direction != DIR_ANY:
            assert all(rel in vec.direction for rel in relations), (
                f"slot {vec.slot}: claimed {vec.direction!r}, "
                f"observed {sorted(relations)}"
            )
        if true_distances:
            if vec.min_distance is not None:
                assert min(true_distances) >= vec.min_distance
            if vec.distance is not None:
                assert set(true_distances) == {vec.distance}


def _table_kind(direction, distance):
    """The slot kind as a function of (direction, distance) — spelled out
    independently of ``SlotDependence.kind``."""
    return {
        (DIR_NONE, False): SLOT_NONE,
        ("<", True): SLOT_TRUE,
        (">", True): SLOT_ANTI,
        (">", False): SLOT_NO_TRUE,
        ("=", True): SLOT_INTRA,
    }.get((direction, distance is not None), SLOT_UNKNOWN)


@given(affine_loops())
@settings(max_examples=80, deadline=None)
def test_kind_is_the_table_and_elidable_records_match_the_inspector(loop):
    verdict = analyze_loop(loop)
    for slot in verdict.slots:
        assert slot.kind == _table_kind(slot.direction, slot.distance)
        assert slot.classified == (slot.kind != SLOT_UNKNOWN)
        # An exact distance comes with the range it binds, and its sign
        # is the direction.
        assert (slot.distance is None) == (slot.dep_range is None)
        if slot.distance is not None:
            lo, hi = slot.dep_range
            assert slot.active[0] <= lo < hi <= slot.active[1]
            sign = (slot.distance > 0) - (slot.distance < 0)
            assert slot.direction == {1: "<", 0: "=", -1: ">"}[sign]
    assert verdict.fully_classified == all(s.classified for s in verdict.slots)
    # One proof step per part: the write, each slot, the composition.
    assert len(verdict.proof.steps) == len(verdict.slots) + 2
    if verdict.elidable:
        assert records_equal(
            build_symbolic_record(loop), build_inspector_record(loop)
        )
