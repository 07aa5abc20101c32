"""Planning is paid once per dependence structure (ISSUE 13).

The wavefront level schedule is an artifact of the
:class:`~repro.backends.cache.InspectorCache`, keyed by the same content
fingerprint as the inspector record:

(a) a warm plan runs no dependence analysis and a cold call runs one;
(b) a memoized schedule / a record built from it is the one the
    standalone functions compute;
(c) an index array mutated in place re-plans (the key is hashed per call);
(d) the memo is bounded by the cache's capacity, and evictions are counted;
(e) the memo and the records serve each other across backends.
"""

from __future__ import annotations

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import InspectorCache, PlanSpec, parallelize
from repro.analysis import record_mismatches
from repro.backends import BACKENDS
from repro.backends.cache import build_inspector_record
from repro.core.doconsider import Doconsider
from repro.graph import levels as levels_module
from repro.graph.depgraph import DependenceGraph
from repro.graph.levels import compute_levels
from repro.passes import execute_plan, plan_loop
from repro.sparse.ilu import ilu0
from repro.sparse.stencils import five_point
from repro.sparse.trisolve import lower_solve_loop
from repro.workloads.synthetic import random_irregular_loop
from repro.workloads.testloop import make_test_loop
from tests.conftest import no_compiler


def _trisolve_loop(nx: int = 9, ny: int = 8):
    A = five_point(nx, ny)
    L, _upper = ilu0(A)
    return lower_solve_loop(L, np.arange(1.0, A.n_rows + 1) / A.n_rows)


@pytest.fixture
def analysis_calls(monkeypatch):
    """Call counts of the two dependence-analysis entry points:
    ``compute_levels`` (wrapped in every module that imported it by name)
    and ``DependenceGraph.from_loop``."""
    calls = {"compute_levels": 0, "from_loop": 0}
    real_levels = levels_module.compute_levels
    real_from_loop = DependenceGraph.from_loop.__func__

    def counted_levels(*args, **kwargs):
        calls["compute_levels"] += 1
        return real_levels(*args, **kwargs)

    def counted_from_loop(cls, loop):
        calls["from_loop"] += 1
        return real_from_loop(cls, loop)

    for module in list(sys.modules.values()):
        if (
            getattr(module, "__name__", "").startswith("repro")
            and getattr(module, "compute_levels", None) is real_levels
        ):
            monkeypatch.setattr(module, "compute_levels", counted_levels)
    monkeypatch.setattr(
        DependenceGraph, "from_loop", classmethod(counted_from_loop)
    )
    return calls


def analyses(levels: int) -> dict:
    """The counts ``levels`` level computations leave: the sweep builds no
    dependence graph."""
    return {"compute_levels": levels, "from_loop": 0}


# ---------------------------------------------------------------------------
# (a) one analysis per structure
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("backend", BACKENDS + ("auto",))
def test_one_analysis_cold_none_warm(analysis_calls, backend):
    loop = make_test_loop(n=120, m=2, l=8)
    spec = PlanSpec(backend=backend, processors=2)
    cache = InspectorCache()

    result, _ = parallelize(loop, spec=spec, cache=cache)
    assert np.array_equal(result.y, loop.run_sequential())
    assert analysis_calls == analyses(1)
    assert result.extras["schedule_plan"]["levels_cached"] is False

    plan = plan_loop(loop, spec, cache)
    assert plan.describe()["levels_cached"] is True
    result, _ = parallelize(loop, spec=spec, cache=cache)
    assert np.array_equal(result.y, loop.run_sequential())
    assert analysis_calls == analyses(1)


def test_no_body_builds_a_dependence_graph(analysis_calls):
    loop = make_test_loop(n=120, m=2, l=8)
    with no_compiler():
        planned, _ = parallelize(loop, backend="vectorized")
        reordered = Doconsider(processors=2).run(loop)
    for result in (planned, reordered):
        assert np.array_equal(result.y, loop.run_sequential())
    assert analysis_calls == analyses(2)


@pytest.mark.parametrize("backend", ("simulated", "vectorized"))
def test_without_a_cache_every_call_analyses_once(analysis_calls, backend):
    loop = make_test_loop(n=120, m=2, l=8)
    for call in (1, 2):
        result, _ = parallelize(loop, backend=backend)
        assert np.array_equal(result.y, loop.run_sequential())
        assert analysis_calls == analyses(call)
        assert result.extras["schedule_plan"]["levels_cached"] is False


# ---------------------------------------------------------------------------
# (b) the memo holds what the standalone functions compute
# ---------------------------------------------------------------------------


def _assert_memo_matches_standalone(loop):
    cache = InspectorCache()
    spec = PlanSpec(backend="vectorized")
    cold = plan_loop(loop, spec, cache)
    warm = plan_loop(loop, spec, cache)
    assert warm.describe()["levels_cached"] is True
    assert warm.levels is cold.levels

    expected = compute_levels(DependenceGraph.from_loop(loop))
    for name in ("levels", "order", "level_ptr"):
        assert np.array_equal(getattr(warm.levels, name), getattr(expected, name))
    record = warm.record
    assert record.schedule is warm.levels
    assert record_mismatches(record, build_inspector_record(loop)) == []


@pytest.mark.parametrize(
    "loop",
    [
        make_test_loop(n=150, m=3, l=8),  # even L: true dependences
        make_test_loop(n=150, m=3, l=7),  # odd L: one wavefront
        _trisolve_loop(),
    ],
    ids=lambda loop: loop.name,
)
def test_memoized_schedule_and_record_match_standalone(loop):
    _assert_memo_matches_standalone(loop)


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(0, 120),
    max_terms=st.integers(0, 5),
    seed=st.integers(0, 2**16),
)
def test_memoized_schedule_and_record_match_standalone_random(n, max_terms, seed):
    _assert_memo_matches_standalone(
        random_irregular_loop(n, max_terms=max_terms, seed=seed)
    )


# ---------------------------------------------------------------------------
# (c) staleness stays impossible
# ---------------------------------------------------------------------------


def _swap_writes(loop):
    # Still injective, different content.
    loop.write[[3, 40]] = loop.write[[40, 3]]


def _redirect_read(loop):
    # Iteration 50's first term now reads what iteration 10 writes.
    loop.reads.index[loop.reads.ptr[50]] = loop.write[10]


@pytest.mark.parametrize("mutate", (_swap_writes, _redirect_read))
@pytest.mark.parametrize("backend", ("simulated", "threaded", "vectorized"))
def test_in_place_mutation_replans(backend, mutate):
    loop = random_irregular_loop(90, max_terms=3, seed=11)
    spec = PlanSpec(backend=backend, processors=2)
    cache = InspectorCache()
    parallelize(loop, spec=spec, cache=cache)
    stale = plan_loop(loop, spec, cache)

    mutate(loop)
    result, _ = parallelize(loop, spec=spec, cache=cache)
    assert result.extras["schedule_plan"]["levels_cached"] is False
    assert cache.stats()["levels_misses"] == 2
    assert result.extras["schedule_plan"]["fingerprint"] != stale.fingerprint
    assert np.array_equal(result.y, loop.run_sequential())


def test_plan_held_across_a_mutation_cannot_serve_a_stale_record():
    loop = random_irregular_loop(90, max_terms=3, seed=11)
    cache = InspectorCache()
    plan = plan_loop(loop, PlanSpec(backend="vectorized"), cache)
    _redirect_read(loop)
    # The runner looks the record up under the loop's *current* content.
    result = execute_plan(loop, plan, cache)
    assert result.extras["cache_hit"] is False
    assert np.array_equal(result.y, loop.run_sequential())


def test_clear_drops_the_memo():
    loop = make_test_loop(n=80, m=2, l=8)
    cache = InspectorCache()
    spec = PlanSpec(backend="simulated")
    plan_loop(loop, spec, cache)
    cache.clear()
    assert cache.stats()["levels_entries"] == 0
    assert plan_loop(loop, spec, cache).describe()["levels_cached"] is False


# ---------------------------------------------------------------------------
# (d) one capacity bounds the memo too, and evictions are counted
# ---------------------------------------------------------------------------


def test_capacity_one_with_alternating_structures():
    loops = [make_test_loop(n=80, m=2, l=l) for l in (6, 8)]
    cache = InspectorCache(capacity=1)
    for _ in range(3):
        for loop in loops:
            result, _ = parallelize(loop, backend="vectorized", cache=cache)
            assert np.array_equal(result.y, loop.run_sequential())
            stats = cache.stats()
            assert stats["entries"] == 1 and stats["levels_entries"] == 1
    # Every call but the first pushed out the other structure's schedule
    # and its record.
    assert stats["evictions"] == 2 * 5
    assert (stats["levels_hits"], stats["levels_misses"]) == (0, 6)


def test_eviction_and_memo_counters_reach_the_metrics_registry():
    loops = [make_test_loop(n=80, m=2, l=l) for l in (6, 8)]
    cache = InspectorCache(capacity=1)
    spec = PlanSpec(backend="vectorized", observe=True)
    for loop in (loops[0], loops[1], loops[1]):
        result, _ = parallelize(loop, spec=spec, cache=cache)
    gauges = result.telemetry.metrics.as_dict()["gauges"]
    assert gauges["inspector_cache_evictions_total"] == 2
    assert gauges["levels_cache_hits_total"] == 1
    assert gauges["levels_cache_misses_total"] == 2


# ---------------------------------------------------------------------------
# (e) the memo and the records serve each other across backends
# ---------------------------------------------------------------------------


def test_simulated_memo_serves_a_vectorized_plan(analysis_calls):
    loop = _trisolve_loop()
    cache = InspectorCache()
    simulated = plan_loop(loop, PlanSpec(backend="simulated"), cache)
    vectorized = plan_loop(loop, PlanSpec(backend="vectorized"), cache)
    assert vectorized.describe()["levels_cached"] is True
    assert vectorized.record.schedule is simulated.levels
    assert analysis_calls == analyses(1)
    assert np.array_equal(
        execute_plan(loop, vectorized, cache).y, loop.run_sequential()
    )


def test_record_schedule_serves_a_simulated_plan(analysis_calls):
    loop = _trisolve_loop()
    cache = InspectorCache()
    record, _hit = cache.get_or_build(loop)  # a bare runner: no plan, no memo
    assert cache.stats()["levels_entries"] == 0
    simulated = plan_loop(loop, PlanSpec(backend="simulated"), cache)
    assert simulated.describe()["levels_cached"] is True
    assert simulated.levels is record.schedule
    assert analysis_calls == analyses(1)
    assert np.array_equal(
        execute_plan(loop, simulated, cache).y, loop.run_sequential()
    )
