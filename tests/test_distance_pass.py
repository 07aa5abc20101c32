"""The distance-elision stage: proof-carrying group-synchronous sync elision.

Covers the planning decision (:func:`plan_distance_elision` and the
plan's ``distance_elision`` field) and the execution contract: every
distance-elided schedule must run under ``validate="sanitize"`` without
a single race report, produce output bitwise-identical to the
sequential oracle, set/check **zero** post/wait flags, and account one
barrier per iteration group.
"""

import numpy as np
import pytest

from repro.backends import make_runner
from repro.backends.cache import InspectorCache
from repro.core.sequential import run_reference
from repro.errors import ProofError, RaceConditionError, ScheduleError
from repro.passes.distance import plan_distance_elision
from repro.core.doacross import parallelize
from repro.passes.plan import plan_loop
from repro.passes.spec import PlanSpec
from repro.workloads.synthetic import (
    affine_loop,
    chain_loop,
    random_irregular_loop,
)


def _counters(result) -> dict:
    assert result.telemetry is not None
    return result.telemetry.metrics.as_dict()["counters"]


def _stencil(n: int, d: int):
    """Variable reads at distances d and 2d: provable min_distance d."""
    return affine_loop(
        n, (1, 0), [(1, -d), (1, -2 * d)], name=f"stencil(n={n},d={d})"
    )


# ----------------------------------------------------------------------
# The planning decision
# ----------------------------------------------------------------------
def test_threaded_group_is_the_proven_bound():
    decision = plan_distance_elision(
        chain_loop(400, 8), "threaded", None, natural_order=True
    )
    assert decision is not None
    assert decision["min_distance"] == 8
    assert decision["group"] == 8
    assert decision["verdict"] == "constant-distance"


def test_multiproc_group_is_chunk_aligned_down():
    chain = chain_loop(400, 8)
    decision = plan_distance_elision(chain, "multiproc", 3, natural_order=True)
    assert decision is not None
    assert decision["group"] == 6  # 3 * (8 // 3): strips never straddle


def test_multiproc_requires_a_chunk_no_larger_than_the_bound():
    chain = chain_loop(400, 8)
    assert plan_distance_elision(chain, "multiproc", None, natural_order=True) is None
    assert plan_distance_elision(chain, "multiproc", 12, natural_order=True) is None


def test_no_elision_outside_natural_order_or_group_backends():
    chain = chain_loop(400, 8)
    assert plan_distance_elision(chain, "threaded", None, natural_order=False) is None
    assert plan_distance_elision(chain, "simulated", None, natural_order=True) is None


def test_no_elision_without_a_usable_bound():
    # Distance 1: grouping degenerates to sequential pairs — keep flags.
    assert (
        plan_distance_elision(chain_loop(64, 1), "threaded", None, natural_order=True)
        is None
    )
    # Runtime subscripts: the battery proves nothing.
    assert (
        plan_distance_elision(
            random_irregular_loop(64, seed=2), "threaded", None, natural_order=True
        )
        is None
    )


def test_certificate_carries_the_machine_checkable_evidence():
    decision = plan_distance_elision(
        chain_loop(400, 8), "threaded", None, natural_order=True
    )
    cert = decision["certificate"]
    assert cert["loop"] == "chain(n=400,d=8)"
    assert cert["min_distance"] == 8
    assert cert["slots"][0]["rule"] == "deptest-strong-siv"
    assert cert["proof"]["steps"], "certificate must embed the proof"


# ----------------------------------------------------------------------
# The stage inside plan_loop
# ----------------------------------------------------------------------
def test_pass_publishes_the_artifact_only_under_analyze():
    chain = chain_loop(400, 8)
    spec = PlanSpec(backend="threaded", processors=4, analyze="symbolic")
    plan = plan_loop(chain, spec)
    elision = plan.distance_elision
    assert elision is not None and elision["group"] == 8
    # No symbolic analysis requested: the protocol must run as planned.
    bare = plan_loop(chain, PlanSpec(backend="threaded", processors=4))
    assert bare.distance_elision is None


def test_pass_declines_under_doconsider_reordering():
    # The bound is on iteration numbers; a wavefront reorder voids it.
    plan = plan_loop(
        chain_loop(400, 8),
        PlanSpec(
            backend="threaded",
            processors=4,
            analyze="symbolic",
            reorder="doconsider",
        ),
    )
    assert plan.distance_elision is None


# ----------------------------------------------------------------------
# Execution: sanitize-clean, oracle-identical, zero flag traffic
# ----------------------------------------------------------------------
CASES = [
    ("threaded", dict(processors=4), chain_loop(400, 8), 8),
    ("threaded", dict(processors=4), _stencil(400, 6), 6),
    ("multiproc", dict(processors=2, chunk=4), chain_loop(400, 8), 8),
    ("multiproc", dict(processors=2, chunk=3), _stencil(400, 6), 6),
    ("vectorized", dict(), chain_loop(400, 8), 8),
    ("vectorized", dict(), _stencil(400, 6), 6),
]


@pytest.mark.parametrize(
    "backend,kwargs,loop,distance",
    CASES,
    ids=[f"{b}-{l.name.split('(')[0]}" for b, _k, l, _d in CASES],
)
def test_elided_schedule_is_sanitize_clean_and_oracle_identical(
    backend, kwargs, loop, distance
):
    spec = PlanSpec(
        backend=backend,
        analyze="symbolic",
        validate="sanitize",  # raises SanitizerError on any race
        observe=True,
        **kwargs,
    )
    result, _plan = parallelize(loop, spec=spec, cache=InspectorCache())

    oracle = run_reference(loop).y
    np.testing.assert_array_equal(result.y, oracle)

    elision = result.extras["distance_elision"]
    assert elision["min_distance"] == distance
    assert "certificate" not in elision  # extras stay human-sized

    chunk = kwargs.get("chunk")
    expected_group = (
        chunk * (distance // chunk) if backend == "multiproc" else distance
    )
    assert elision["group"] == expected_group

    counters = _counters(result)
    if backend == "vectorized":
        # The vectorized backend never ran a flag protocol; the group
        # shows up as widened wavefront levels instead.
        assert result.extras["distance_group"] == expected_group
    else:
        assert counters.get("flag_sets", 0) == 0
        assert counters.get("flag_checks", 0) == 0
        assert counters["sync_elisions"] > 0
        assert counters["group_barriers"] == -(-loop.n // expected_group)


@pytest.mark.parametrize("backend,kwargs", [
    ("threaded", dict(processors=4)),
    ("multiproc", dict(processors=2, chunk=4)),
])
def test_baseline_protocol_still_runs_without_analyze(backend, kwargs):
    chain = chain_loop(400, 8)
    spec = PlanSpec(backend=backend, observe=True, **kwargs)
    result, _plan = parallelize(chain, spec=spec, cache=InspectorCache())
    np.testing.assert_array_equal(result.y, run_reference(chain).y)
    assert "distance_elision" not in result.extras
    counters = _counters(result)
    assert counters.get("flag_sets", 0) + counters.get("flag_checks", 0) > 0


def test_undersized_bound_keeps_the_flags_on_multiproc():
    # chunk 4 > min_distance 3: grouping would need straddling strips —
    # the pass must decline and the flag protocol must survive.
    chain = chain_loop(200, 3)
    spec = PlanSpec(
        backend="multiproc",
        processors=2,
        chunk=4,
        analyze="symbolic",
        validate="sanitize",
        observe=True,
    )
    result, _plan = parallelize(chain, spec=spec, cache=InspectorCache())
    assert "distance_elision" not in result.extras
    np.testing.assert_array_equal(result.y, run_reference(chain).y)


# ----------------------------------------------------------------------
# validate="static" checks the group protocol that is about to run
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "backend,options",
    [("threaded", {}), ("multiproc", {"chunk": 4}), ("vectorized", {})],
)
def test_static_validate_refuses_an_unsound_group(backend, options):
    # Distance 3 under groups of 8: dependences inside a group are
    # unordered.  The flag protocol would cover them — the check must
    # look at the group protocol instead, before anything starts.
    chain = chain_loop(240, 3)
    runner = make_runner(
        spec=PlanSpec(backend=backend, processors=2, validate="static")
    )
    with pytest.raises(RaceConditionError, match=rf"{backend}/group\(8\)"):
        runner.run(chain, group_sync=8, **options)
    if backend == "multiproc":
        assert not runner.inner.started


@pytest.mark.parametrize("backend,chunk", [("threaded", None), ("multiproc", 2)])
def test_static_validate_labels_the_planned_group_schedule(backend, chunk):
    spec = PlanSpec(
        backend=backend,
        processors=2,
        chunk=chunk,
        analyze="symbolic",
        validate="static",
    )
    result, _plan = parallelize(chain_loop(64, 4), spec=spec)
    assert result.extras["distance_group"] == 4
    assert result.extras["race_check"]["schedule"] == f"{backend}/group(4)"
    assert result.extras["race_check"]["passed"] is True


# ----------------------------------------------------------------------
# A refused group is recorded, never silent
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "backend,options,reason",
    [
        ("threaded", {"order": np.arange(240)}, "natural order"),
        ("multiproc", {"order": np.arange(240)}, "natural order"),
        ("multiproc", {"chunk": 3}, "not a multiple of the strip size"),
        ("multiproc", {"chunk": 16}, "smaller than the strip size"),
    ],
    ids=["threaded-order", "multiproc-order", "misaligned", "undersized"],
)
def test_refused_group_sync_is_noted_and_counted(backend, options, reason):
    chain = chain_loop(240, 8)
    runner = make_runner(
        spec=PlanSpec(backend=backend, processors=2, observe=True)
    )
    result = runner.run(chain, group_sync=8, **options)
    np.testing.assert_array_equal(result.y, run_reference(chain).y)
    assert "distance_group" not in result.extras
    (note,) = [
        n for n in result.extras["ignored_options"]
        if n["option"] == "group_sync"
    ]
    assert note["value"] == 8 and reason in note["reason"]
    counters = _counters(result)
    assert counters["sync_elision_fallbacks"] == 1
    assert counters["flag_sets"] == chain.n  # the flag protocol ran


# ----------------------------------------------------------------------
# A hand-passed group is checked against the proven bound, on every
# group backend, before anything starts
# ----------------------------------------------------------------------
GROUP_BACKENDS = [
    ("threaded", {}),
    ("multiproc", {"chunk": 2}),
    ("vectorized", {}),
]


def _bare_runner(backend, monkeypatch):
    """An unhooked 2-worker runner that fails the test if it starts a
    thread, a worker pool or a shared-memory session, or touches its
    inspector cache."""
    import threading

    runner = make_runner(spec=PlanSpec(backend=backend, processors=2))

    def started(*_args, **_kwargs):
        raise AssertionError(f"{backend} started work before the check")

    monkeypatch.setattr(threading.Thread, "start", started)
    for name in ("_execute", "_ensure_pool", "_session_for", "_preprocess"):
        if hasattr(runner, name):
            monkeypatch.setattr(runner, name, started)
    return runner


@pytest.mark.parametrize("backend,options", GROUP_BACKENDS)
def test_group_beyond_the_proven_bound_is_refused(
    backend, options, monkeypatch
):
    # Distance-1 chain under groups of 8: seven of every eight true
    # dependences would sit unordered inside a group.
    runner = _bare_runner(backend, monkeypatch)
    with pytest.raises(
        ProofError, match="no proven dependence-distance bound >= 8"
    ):
        runner.run(chain_loop(4000, 1), group_sync=8, **options)
    # No bound at all (runtime subscripts) refuses every group.
    with pytest.raises(ProofError, match="proven bound: None"):
        runner.run(random_irregular_loop(64, seed=2), group_sync=2, **options)


@pytest.mark.parametrize("group", [0, -2])
@pytest.mark.parametrize("backend,options", GROUP_BACKENDS)
def test_nonpositive_group_is_no_schedule(
    backend, options, group, monkeypatch
):
    runner = _bare_runner(backend, monkeypatch)
    with pytest.raises(ScheduleError, match="group_sync must be >= 1"):
        runner.run(chain_loop(64, 4), group_sync=group, **options)


@pytest.mark.parametrize("group", [8, 4, 2])
@pytest.mark.parametrize("backend,options", GROUP_BACKENDS)
def test_group_within_the_proven_bound_matches_the_oracle(
    backend, options, group
):
    chain = chain_loop(400, 8)
    runner = make_runner(spec=PlanSpec(backend=backend, processors=2))
    try:
        result = runner.run(chain, group_sync=group, **options)
    finally:
        if backend == "multiproc":
            runner.close()
    assert result.extras["distance_group"] == group
    np.testing.assert_array_equal(result.y, chain.run_sequential())


@pytest.mark.parametrize(
    "backend,options",
    [("threaded", {}), ("multiproc", {"chunk": 64})],
)
def test_wide_group_spans_run_on_the_compiled_body(backend, options):
    """Groups of 128 over 2 lanes are 64-iteration barrier spans: long
    enough for the compiled walk, which the threads run with the GIL
    released — same values, and the run says which body it was."""
    from repro.backends import native

    chain = chain_loop(1024, 128)
    runner = make_runner(spec=PlanSpec(backend=backend, processors=2))
    try:
        result = runner.run(chain, group_sync=128, **options)
    finally:
        if backend == "multiproc":
            runner.close()
    assert result.extras["distance_group"] == 128
    np.testing.assert_array_equal(result.y, chain.run_sequential())
    why = native.unavailable()
    assert result.extras["kernel"] == {
        "body": "python" if why else "native", "reason": why,
    }
