"""Inspector elision: symbolic records, backend wiring, cache sharing."""

import numpy as np
import pytest

import repro
from repro.analysis import (
    analyze_loop,
    build_symbolic_record,
    record_mismatches,
    records_equal,
    symbolic_fingerprint,
)
from repro.backends import make_runner
from repro.backends.cache import InspectorCache, build_inspector_record
from repro.errors import ProofError, ScheduleError
from repro.passes import PlanSpec
from repro.workloads.synthetic import affine_loop


def counters(result):
    telemetry = result.telemetry
    assert telemetry is not None
    return telemetry.metrics.as_dict()["counters"]


ELIDABLE_LOOPS = [
    repro.chain_loop(96, 1),
    repro.chain_loop(96, 4),
    repro.make_test_loop(96, 2, 8),  # mixed distances 2 and 3
    repro.make_test_loop(96, 2, 7),  # doall
    affine_loop(80, (2, 0), [(2, 1)], name="parity-doall"),
    affine_loop(80, (2, 0), [(2, -2)], name="stride-chain"),
    affine_loop(80, (1, 0), [(1, 1)], name="anti-only"),
]


# ----------------------------------------------------------------------
# Records: symbolic == runtime, array for array
# ----------------------------------------------------------------------
@pytest.mark.parametrize("loop", ELIDABLE_LOOPS, ids=lambda lp: lp.name)
def test_symbolic_record_is_bitwise_identical(loop):
    symbolic = build_symbolic_record(loop)
    runtime = build_inspector_record(loop)
    assert record_mismatches(symbolic, runtime) == []
    assert records_equal(symbolic, runtime)


def test_build_symbolic_record_rejects_unproven_loop():
    loop = repro.random_irregular_loop(64, seed=2)
    with pytest.raises(ProofError, match="not elidable"):
        build_symbolic_record(loop)


def test_record_mismatches_reports_differing_fields():
    a = build_symbolic_record(repro.chain_loop(48, 1))
    b = build_inspector_record(repro.chain_loop(48, 2))
    assert any("differs" in p for p in record_mismatches(a, b))


# ----------------------------------------------------------------------
# Vectorized backend: elision end to end
# ----------------------------------------------------------------------
def test_vectorized_symbolic_elides_inspector():
    # Mixed distances, a constant-distance chain, and the odd-L DOALL.
    for loop, verdict in (
        (repro.make_test_loop(200, 2, 8), "injective-write"),
        (repro.chain_loop(200, 3), "constant-distance"),
        (repro.make_test_loop(200, 2, 7), "doall-proven"),
    ):
        plain = make_runner(
            spec=PlanSpec(backend="vectorized", observe=True),
            cache=InspectorCache(),
        )
        elided = make_runner(
            spec=PlanSpec(
                backend="vectorized", observe=True, analyze="symbolic"
            ),
            cache=InspectorCache(),
        )
        full = plain.run(loop)
        fast = elided.run(loop)
        assert np.array_equal(full.y, fast.y)
        assert np.array_equal(fast.y, loop.run_sequential())

        # The full path inspected every iteration; the elided path none.
        assert counters(full)["inspector_iterations"] == loop.n
        assert counters(fast)["inspector_iterations"] == 0
        assert counters(fast)["inspector_elisions"] == 1
        assert fast.extras["inspector_elided"] is True
        assert fast.extras["analyze"] == "symbolic"
        assert fast.extras["verdict"] == verdict


def test_vectorized_symbolic_check_debug_mode():
    runner = make_runner(
        spec=PlanSpec(backend="vectorized", analyze="symbolic+check"),
        cache=InspectorCache(),
    )
    for loop in ELIDABLE_LOOPS:
        result = runner.run(loop)
        assert np.array_equal(result.y, loop.run_sequential())


def test_vectorized_symbolic_falls_back_on_runtime_only():
    loop = repro.random_irregular_loop(100, seed=5)
    runner = make_runner(
        spec=PlanSpec(backend="vectorized", observe=True, analyze="symbolic"),
        cache=InspectorCache(),
    )
    result = runner.run(loop)
    assert np.array_equal(result.y, loop.run_sequential())
    assert result.extras["inspector_elided"] is False
    assert counters(result)["inspector_iterations"] == loop.n
    assert counters(result)["inspector_elisions"] == 0


def test_symbolic_fingerprint_shares_cache_across_instances():
    # Same structure, different y0 contents: one proof, one cache entry.
    a = affine_loop(120, (1, 0), [(1, -2)], seed=1, name="shared")
    b = affine_loop(120, (1, 0), [(1, -2)], seed=2, name="shared")
    assert not np.array_equal(a.y0, b.y0)
    assert symbolic_fingerprint(a) == symbolic_fingerprint(b)

    cache = InspectorCache()
    runner = make_runner(
        spec=PlanSpec(backend="vectorized", analyze="symbolic"),
        cache=cache,
    )
    ra = runner.run(a)
    rb = runner.run(b)
    assert cache.misses == 1 and cache.hits == 1
    assert np.array_equal(ra.y, a.run_sequential())
    assert np.array_equal(rb.y, b.run_sequential())


def test_run_repeated_with_elision():
    loop = repro.chain_loop(150, 2)
    runner = make_runner(
        spec=PlanSpec(backend="vectorized", analyze="symbolic"),
        cache=InspectorCache(),
    )
    result = runner.run_repeated(loop, instances=3)
    y = loop.y0.copy()
    for _ in range(3):
        clone = loop.with_name(loop.name)
        clone.y0 = y
        y = clone.run_sequential()
    assert np.array_equal(result.y, y)
    assert result.extras["inspector_runs"] == 0


# ----------------------------------------------------------------------
# Threaded backend: prefilled iter array
# ----------------------------------------------------------------------
def test_threaded_symbolic_prefills_iter():
    loop = repro.make_test_loop(120, 2, 8)
    runner = make_runner(
        spec=PlanSpec(
            backend="threaded",
            processors=4,
            observe=True,
            analyze="symbolic",
        ),
    )
    result = runner.run(loop)
    assert np.array_equal(result.y, loop.run_sequential())
    assert result.extras["inspector_elided"] is True
    assert counters(result)["inspector_iterations"] == 0


def test_threaded_symbolic_check_and_fallback():
    dep = repro.make_test_loop(100, 2, 8)
    checked = make_runner(
        spec=PlanSpec(backend="threaded", processors=4, analyze="symbolic+check"),
    )
    assert np.array_equal(checked.run(dep).y, dep.run_sequential())
    opaque = repro.random_irregular_loop(100, seed=4)
    fallback = make_runner(
        spec=PlanSpec(
            backend="threaded",
            processors=4,
            observe=True,
            analyze="symbolic",
        ),
    )
    result = fallback.run(opaque)
    assert np.array_equal(result.y, opaque.run_sequential())
    assert result.extras["inspector_elided"] is False
    assert counters(result)["inspector_iterations"] == opaque.n


@pytest.mark.parametrize(
    "backend", ["vectorized", "threaded", "multiproc", "speculative"]
)
def test_verdict_is_resolved_the_same_way_on_every_backend(backend):
    from repro.ir.accesses import ReadSlot
    from repro.ir.loop import IrregularLoop
    from repro.ir.subscript import AffineSubscript

    def runner(analyze):
        return make_runner(
            spec=PlanSpec(backend=backend, processors=2, analyze=analyze)
        )

    chain = repro.chain_loop(96, 3)
    result = runner("symbolic").run(chain)
    assert np.array_equal(result.y, chain.run_sequential())
    noted = {k: result.extras.get(k) for k in
             ("analyze", "verdict", "verdict_distance")}
    assert noted == {
        "analyze": "symbolic",
        "verdict": "constant-distance",
        "verdict_distance": 3,
    }
    # Only the backends with an inspector to skip say whether they did.
    assert ("inspector_elided" in result.extras) == (backend != "speculative")
    assert "verdict" not in runner(None).run(chain).extras

    # The debug mode audits the verdict whether or not it is elidable:
    # the slot below claims reads at 2i-3 (direction "<=>", not
    # classifiable) over a table that really reads i-3.
    lying = IrregularLoop(
        n=chain.n,
        y_size=chain.y_size,
        write_subscript=chain.write_subscript,
        reads=chain.reads,
        y0=chain.y0,
        name="lying-chain",
        read_slots=[ReadSlot(AffineSubscript(2, -3), start=3)],
    )
    assert not analyze_loop(lying).elidable
    with pytest.raises(ProofError, match="cross-check"):
        runner("symbolic+check").run(lying)


# ----------------------------------------------------------------------
# make_runner / parallelize wiring
# ----------------------------------------------------------------------
def test_make_runner_rejects_bad_analyze_values():
    with pytest.raises(ScheduleError, match="analyze"):
        PlanSpec(backend="vectorized", analyze="magic")
    with pytest.raises(ValueError, match="simulated"):
        make_runner(spec=PlanSpec(backend="simulated", analyze="symbolic"))


def test_parallelize_analyze_upgrades_strategy():
    chain = repro.chain_loop(120, 3)
    result, plan = repro.parallelize(
        chain,
        spec=PlanSpec(backend="simulated", analyze="symbolic"),
    )
    assert plan.strategy == "classic"
    assert result.strategy == "classic-doacross"
    assert np.array_equal(result.y, chain.run_sequential())
    assert result.extras["verdict"] == "constant-distance"
    assert result.extras["verdict_distance"] == 3

    indep = repro.make_test_loop(120, 2, 7)
    result, plan = repro.parallelize(
        indep,
        spec=PlanSpec(backend="simulated", analyze="symbolic+check"),
    )
    assert plan.strategy == "doall"
    assert np.array_equal(result.y, indep.run_sequential())
