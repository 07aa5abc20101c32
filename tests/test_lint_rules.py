"""Lint rule framework and the built-in rules."""

import numpy as np
import pytest

import repro
from repro.ir.accesses import ReadTable
from repro.ir.loop import IrregularLoop
from repro.ir.transform import plan_transform
from repro.lint import (
    Diagnostic,
    LintContext,
    format_diagnostics,
    run_lints,
)
from repro.lint.rules import LintRule, all_rules, get_rule, register, rule_ids
from tests.conftest import lying_slot_chain, redeclared


def rules_fired(loop, **kwargs):
    return {d.rule for d in run_lints(loop, **kwargs)}


def dead_wait_loop(n=8):
    """Identity indirect write; term slot 0 is a distance-1 true
    dependence, slot 1 only ever anti/intra — slot 1's wait is dead."""
    terms = [[(1, 1.0), (2, 1.0)]]
    for i in range(1, n):
        terms.append([(i - 1, 1.0), (min(i + 1, n - 1), 1.0)])
    return IrregularLoop.from_arrays(
        np.arange(n), ReadTable.from_lists(terms), name="dead-wait"
    )


def anti_only_loop(n=8):
    """Identity indirect write; every read looks *forward* (anti)."""
    terms = [[(min(i + 1, n - 1), 1.0)] for i in range(n)]
    return IrregularLoop.from_arrays(
        np.arange(n), ReadTable.from_lists(terms), name="anti-only"
    )


# ----------------------------------------------------------------------
# Diagnostics
# ----------------------------------------------------------------------
def test_diagnostic_rejects_unknown_severity():
    with pytest.raises(ValueError, match="unknown severity"):
        Diagnostic(rule="X", severity="fatal", loop="l", message="m")


def test_diagnostic_format_and_dict_round_trip():
    d = Diagnostic(
        rule="DOALL-ABLE",
        severity="warning",
        loop="l",
        message="msg",
        suggestion="do this",
        location="term 3",
        paper_ref="§2.3",
    )
    text = d.format()
    assert "DOALL-ABLE" in text and "fix: do this" in text
    assert "at term 3" in text and "[§2.3]" in text
    assert d.as_dict()["severity"] == "warning"


def test_format_diagnostics_orders_by_severity_and_counts():
    ds = [
        Diagnostic(rule="B", severity="info", loop="l", message="later"),
        Diagnostic(rule="A", severity="error", loop="l", message="first"),
    ]
    text = format_diagnostics(ds)
    assert text.index("first") < text.index("later")
    assert "1 error(s), 1 info(s)" in text
    assert format_diagnostics([]) == "no findings"


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
def test_registry_knows_the_built_in_rules():
    assert set(rule_ids()) == {
        "DOALL-ABLE",
        "AFFINE-WRITE",
        "SELF-ANTI-ONLY",
        "DEAD-WAIT",
        "CHUNK-CYCLE",
        "UNREACHED-ELEMENT",
        "SYNC-ELIDABLE",
        "COUPLED-SUBSCRIPT",
        "VERDICT-CHECK",
    }
    assert len(rule_ids()) == 9
    assert all(isinstance(r, LintRule) for r in all_rules())


def test_registry_rejects_duplicates_and_unknowns():
    class Dup(LintRule):
        rule_id = "DOALL-ABLE"

    with pytest.raises(ValueError, match="duplicate"):
        register(Dup)

    class NoId(LintRule):
        pass

    with pytest.raises(ValueError, match="no rule_id"):
        register(NoId)
    with pytest.raises(KeyError, match="unknown lint rule"):
        get_rule("NOPE")


# ----------------------------------------------------------------------
# Rules
# ----------------------------------------------------------------------
def test_doall_able_fires_on_independent_loop_only():
    independent = repro.make_test_loop(n=64, m=2, l=7)  # odd L: no deps
    dependent = repro.make_test_loop(n=64, m=2, l=8)
    assert "DOALL-ABLE" in rules_fired(independent)
    assert "DOALL-ABLE" not in rules_fired(dependent)
    # Once the plan *is* doall the rule stays quiet.
    plan = plan_transform(independent, assert_independent=True)
    assert "DOALL-ABLE" not in {
        d.rule for d in run_lints(independent, plan=plan)
    }


def test_affine_write_suggests_linear_variant():
    loop = repro.make_test_loop(n=64, m=2, l=8)
    found = {d.rule: d for d in run_lints(loop)}
    assert "AFFINE-WRITE" in found
    # The default plan already picks linear: informational.
    assert found["AFFINE-WRITE"].severity == "info"
    # Against a plan that schedules an inspector, it is a warning.
    forced = plan_transform(repro.random_irregular_loop(64, seed=1))
    warned = {
        d.rule: d for d in run_lints(loop, plan=forced)
    }
    assert warned["AFFINE-WRITE"].severity == "warning"
    assert "inspector" in warned["AFFINE-WRITE"].message


def test_affine_write_silent_on_indirect_writes():
    loop = repro.random_irregular_loop(64, seed=0)
    assert "AFFINE-WRITE" not in rules_fired(loop)


def test_self_anti_only_fires_with_doall_able():
    fired = rules_fired(anti_only_loop())
    assert "SELF-ANTI-ONLY" in fired
    assert "DOALL-ABLE" in fired  # anti-only implies doall-able


def test_dead_wait_flags_the_never_true_slot():
    loop = dead_wait_loop()
    found = {d.rule: d for d in run_lints(loop)}
    assert "DEAD-WAIT" in found
    assert "slot" in found["DEAD-WAIT"].location
    assert "1" in found["DEAD-WAIT"].location  # slot 1 is the dead one
    # Both slots of the Figure-4 loop carry true dependences: quiet even
    # under a forced inspector plan.
    fig4 = repro.make_test_loop(n=64, m=2, l=8)
    forced = plan_transform(repro.random_irregular_loop(64, seed=1))
    assert "DEAD-WAIT" not in {d.rule for d in run_lints(fig4, plan=forced)}


def test_dead_wait_quiet_without_inspector_or_true_deps():
    # Linear plan: no inspector, no planned waits.
    assert "DEAD-WAIT" not in rules_fired(repro.make_test_loop(64, 2, 8))
    # No true deps at all: DOALL-ABLE owns the finding.
    assert "DEAD-WAIT" not in rules_fired(anti_only_loop())


def test_chunk_cycle_fires_on_block_schedule_over_short_distance():
    chain = repro.chain_loop(64, 1)
    found = {
        d.rule: d
        for d in run_lints(chain, schedule="block", processors=4)
    }
    assert "CHUNK-CYCLE" in found
    assert "run=16" in found["CHUNK-CYCLE"].location
    # Cyclic chunk-1 pipelines the same chain: quiet.
    assert "CHUNK-CYCLE" not in rules_fired(
        chain, schedule="cyclic", chunk=1, processors=4
    )
    # No schedule given: schedule-shape checks are disabled.
    assert "CHUNK-CYCLE" not in rules_fired(chain)


def test_chunk_cycle_flags_narrow_strip_block():
    loop = repro.random_irregular_loop(96, seed=2)
    ctx = LintContext(loop, strip_block=1)
    width = ctx.level_schedule.max_width()
    assert width > 1
    found = [d for d in run_lints(loop, strip_block=1) if d.rule == "CHUNK-CYCLE"]
    assert len(found) == 1
    assert str(width) in found[0].message


def test_unreached_element_reports_maxint_reads():
    loop = repro.make_test_loop(n=64, m=2, l=8)  # elements 6,8,10 unwritten
    found = {d.rule: d for d in run_lints(loop)}
    assert "UNREACHED-ELEMENT" in found
    assert found["UNREACHED-ELEMENT"].severity == "info"
    assert "6" in found["UNREACHED-ELEMENT"].location
    # A chain loop reads only written elements: quiet.
    assert "UNREACHED-ELEMENT" not in rules_fired(repro.chain_loop(64, 1))


def test_run_lints_only_filter():
    loop = repro.make_test_loop(n=64, m=2, l=8)
    ds = run_lints(loop, only=["UNREACHED-ELEMENT"])
    assert {d.rule for d in ds} == {"UNREACHED-ELEMENT"}


# ----------------------------------------------------------------------
# Distance rules (the dependence-test battery's lint surface)
# ----------------------------------------------------------------------
def test_sync_elidable_fires_on_a_proven_distance():
    found = {d.rule: d for d in run_lints(repro.chain_loop(400, 8))}
    assert "SYNC-ELIDABLE" in found
    d = found["SYNC-ELIDABLE"]
    assert d.severity == "warning"
    assert d.location == "min_distance=8"
    assert 'analyze="symbolic"' in d.suggestion


def test_sync_elidable_gives_chunk_alignment_advice():
    chain = repro.chain_loop(400, 8)
    oversize = {
        d.rule: d for d in run_lints(chain, chunk=12, processors=2)
    }
    assert "lower the chunk to <= 8" in oversize["SYNC-ELIDABLE"].suggestion
    misaligned = {
        d.rule: d for d in run_lints(chain, chunk=3, processors=2)
    }
    assert "chunk-aligned down to 6" in misaligned["SYNC-ELIDABLE"].suggestion


def test_sync_elidable_quiet_without_a_usable_bound():
    # Distance 1: the bound proves nothing worth elising.
    assert "SYNC-ELIDABLE" not in rules_fired(repro.chain_loop(64, 1))
    # Runtime subscripts: no bound at all.
    assert "SYNC-ELIDABLE" not in rules_fired(
        repro.random_irregular_loop(64, seed=1)
    )
    # Independent loop: the plan is doall, nothing to synchronize.
    assert "SYNC-ELIDABLE" not in rules_fired(
        repro.make_test_loop(n=64, m=2, l=7)
    )


def test_coupled_subscript_lists_the_opaque_slots():
    found = {
        d.rule: d for d in run_lints(repro.random_irregular_loop(64, seed=0))
    }
    assert "COUPLED-SUBSCRIPT" in found
    d = found["COUPLED-SUBSCRIPT"]
    assert d.severity == "info"
    assert "slot(s) 0" == d.location
    assert "inspector" in d.suggestion
    # Fully affine loops: every slot is in the battery's reach.
    assert "COUPLED-SUBSCRIPT" not in rules_fired(repro.chain_loop(64, 3))


def test_distance_mismatch_fires_only_on_a_doctored_bound():
    chain = repro.chain_loop(64, 3)
    # Sound verdict: quiet.
    assert "VERDICT-CHECK" not in rules_fired(chain)
    # Inflate the proven bound past the observed distance-3 dependence:
    # the cross-check must flag the static model as unsound.
    findings = list(get_rule("VERDICT-CHECK").check(_doctored_bound_context()))
    assert all(d.severity == "error" for d in findings)
    bound = [d for d in findings if ">= 5" in d.message]
    assert len(bound) == 1
    assert "distance 3" in bound[0].message


def _doctored_bound_context():
    """``chain_loop(64, 3)`` under a verdict whose proven distance bound
    (5) exceeds the distance (3) its inspector observes."""
    import dataclasses

    ctx = LintContext(repro.chain_loop(64, 3))
    ctx._verdict = dataclasses.replace(ctx.verdict, min_distance=5)
    ctx._verdict_computed = True
    return ctx


# What the slot-subscript and distance-bound rules VERDICT-CHECK replaced
# reported on three loops (their messages, verbatim), and the slot,
# iteration and values (or bound and distance) VERDICT-CHECK must repeat.
@pytest.mark.parametrize(
    "context,replaced_finding,same",
    [
        (
            lambda: LintContext(lying_slot_chain()),
            "declared subscript for slot 0 gives 1 at iteration 2, but "
            "the read table has 0",
            ("slot 0", "gives 1 at iteration 2", "table has 0"),
        ),
        (
            _doctored_bound_context,
            "the battery proves every cross-iteration true dependence has "
            "distance >= 5, but the inspector observes a dependence at "
            "distance 3",
            (">= 5", "distance 3"),
        ),
        (
            lambda: LintContext(
                redeclared(repro.chain_loop(64, 3), [], "no-slots")
            ),
            "no-slots: declared slots give 0 term(s) at iteration 3, read "
            "table has 1",
            ("give 0 term(s) at iteration 3", "read table has 1"),
        ),
    ],
    ids=["wrong-slot", "doctored-bound", "empty-slots"],
)
def test_verdict_check_reports_what_the_replaced_rules_found(
    context, replaced_finding, same
):
    findings = list(get_rule("VERDICT-CHECK").check(context()))
    assert all(d.severity == "error" for d in findings)
    assert any(
        all(part in d.message for part in same) for d in findings
    ), (replaced_finding, [d.message for d in findings])


def test_a_lying_slot_is_reported_once():
    found = [
        d.message
        for d in run_lints(lying_slot_chain())
        if "declared subscript" in d.message
    ]
    assert found == [
        "slot 0: declared subscript gives 1 at iteration 2, read table has 0"
    ]
