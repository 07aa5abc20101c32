"""Planning is paid once per dependence structure (ISSUE 13).

The wavefront level schedule is an artifact of the
:class:`~repro.backends.cache.InspectorCache`, keyed by the same content
fingerprint as the inspector record:

(a) a warm plan runs no dependence analysis and a cold call runs one;
(b) a memoized schedule / a record built from it is the one the
    standalone functions compute;
(c) the key is hashed once per loop object: the first fingerprint freezes
    the index arrays, a later in-place write raises ``ValueError`` and
    changes nothing, a warm call hashes nothing, and anything that could
    make the memo stale (a rebound array, a copy, a re-enabled write
    flag, a writeable foreign buffer) hashes again;
(d) the memo is bounded by the cache's capacity, and evictions are counted;
(e) the memo and the records serve each other across backends.
"""

from __future__ import annotations

import copy
import hashlib
import pickle
import sys
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import InspectorCache, PlanSpec, parallelize
from repro.analysis import record_mismatches
from repro.backends import BACKENDS
from repro.backends import cache as cache_module
from repro.backends.cache import build_inspector_record, fingerprint_with_body
from repro.core.doconsider import Doconsider
from repro.graph import levels as levels_module
from repro.graph.depgraph import DependenceGraph
from repro.graph.levels import compute_levels
from repro.ir.accesses import ReadTable
from repro.passes import execute_plan, plan_loop
from repro.sparse.ilu import ilu0
from repro.sparse.stencils import five_point
from repro.sparse.trisolve import lower_solve_loop
from repro.workloads.synthetic import random_irregular_loop
from repro.workloads.testloop import make_test_loop
from tests.conftest import assert_write_refused, no_compiler, record_arrays


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


def _schedule_arrays(plan):
    return (plan.levels.levels, plan.levels.order, plan.levels.level_ptr)


@pytest.mark.parametrize("mutate", (_swap_writes, _redirect_read))
@pytest.mark.parametrize("backend", ("simulated", "threaded", "vectorized"))
def test_in_place_mutation_replans(backend, mutate):
    # Mutate and raise: after the first plan the write is refused, and the
    # next call is served the same schedule (and record) from the cache.
    loop = random_irregular_loop(90, max_terms=3, seed=11)
    spec = PlanSpec(backend=backend, processors=2)
    cache = InspectorCache()
    parallelize(loop, spec=spec, cache=cache)
    held = plan_loop(loop, spec, cache)
    cached = _schedule_arrays(held)
    if held.record is not None:
        cached += record_arrays(held.record)

    assert_write_refused(loop, mutate, *cached)
    result, _ = parallelize(loop, spec=spec, cache=cache)
    planned = result.extras["schedule_plan"]
    assert planned["levels_cached"] is True
    assert cache.stats()["levels_misses"] == 1
    assert planned["fingerprint"] == held.fingerprint
    assert planned["fingerprint_body"] == "memo"
    assert np.array_equal(result.y, loop.run_sequential())


def test_plan_held_across_a_mutation_cannot_serve_a_stale_record():
    loop = random_irregular_loop(90, max_terms=3, seed=11)
    cache = InspectorCache()
    parallelize(loop, backend="vectorized", cache=cache)
    plan = plan_loop(loop, PlanSpec(backend="vectorized"), cache)
    # The held record cannot go stale: its content cannot change.
    assert_write_refused(loop, _redirect_read, *record_arrays(plan.record))
    result = execute_plan(loop, plan, cache)
    assert result.extras["cache_hit"] is True
    assert np.array_equal(result.y, loop.run_sequential())


@pytest.fixture
def hashes(monkeypatch):
    """``hashes()``: SHA-256 objects the cache module has created so far
    (one per content hash)."""
    count = [0]

    def counted_sha256(*args):
        count[0] += 1
        return hashlib.sha256(*args)

    monkeypatch.setattr(
        cache_module, "hashlib", types.SimpleNamespace(sha256=counted_sha256)
    )
    return lambda: count[0]


@pytest.mark.parametrize(
    "backend", ("vectorized", "simulated", "threaded", "speculative", "multiproc")
)
def test_a_warm_call_hashes_nothing(hashes, backend):
    # multiproc keys its shared-memory session by the same fingerprint.
    loop = random_irregular_loop(90, max_terms=3, seed=11)
    spec = PlanSpec(backend=backend, processors=2)
    cache = InspectorCache()
    cold, _ = parallelize(loop, spec=spec, cache=cache)
    assert hashes() == 1
    assert cold.extras["schedule_plan"]["fingerprint_body"] == "hashed"
    warm, _ = parallelize(loop, spec=spec, cache=cache)
    assert hashes() == 1
    assert warm.extras["schedule_plan"]["fingerprint_body"] == "memo"
    assert np.array_equal(warm.y, loop.run_sequential())


def _rebind_reads(loop):
    reads = loop.reads
    loop.reads = ReadTable(reads.ptr.copy(), reads.index.copy(), reads.coeff)
    return loop


def _rebind_write(loop):
    loop.write = loop.write.copy()
    return loop


def _reenable_root(loop):
    root = loop.reads.index
    while isinstance(root.base, np.ndarray):
        root = root.base
    root.flags.writeable = True
    return loop


@pytest.mark.parametrize(
    "fresh",
    (
        _rebind_reads,
        _rebind_write,
        copy.deepcopy,
        lambda loop: pickle.loads(pickle.dumps(loop, pickle.HIGHEST_PROTOCOL)),
        _reenable_root,
    ),
    ids=("rebound-reads", "rebound-write", "deepcopy", "pickle", "re-enabled"),
)
def test_a_memo_that_could_be_stale_hashes_again(hashes, fresh):
    loop = random_irregular_loop(90, max_terms=3, seed=11)
    digest, _ = fingerprint_with_body(loop)
    other = fresh(loop)
    assert fingerprint_with_body(other) == (digest, "hashed")
    assert hashes() == 2
    # ... and freezes again: the next call is the memo.
    assert fingerprint_with_body(other) == (digest, "memo")
    assert hashes() == 2


def test_a_relabeled_clone_shares_the_memo(hashes):
    loop = random_irregular_loop(90, max_terms=3, seed=11)
    digest, _ = fingerprint_with_body(loop)
    assert fingerprint_with_body(loop.with_name("clone")) == (digest, "memo")
    assert hashes() == 1


def test_a_foreign_buffer_is_hashed_every_call_and_mutates_and_misses(hashes):
    base = random_irregular_loop(90, max_terms=3, seed=11)
    index = np.frombuffer(bytearray(base.reads.index.tobytes()), np.int64)
    loop = random_irregular_loop(90, max_terms=3, seed=11)
    loop.reads = ReadTable(base.reads.ptr, index, base.reads.coeff)
    assert loop.reads.index is index
    cache = InspectorCache()
    for call in (1, 2):
        result, _ = parallelize(loop, backend="vectorized", cache=cache)
        planned = result.extras["schedule_plan"]
        assert planned["fingerprint_body"] == "hashed (foreign-buffer)"
        # The plan's hash, and the runner's check of the planned record.
        assert hashes() == 2 * call
    assert index.flags.writeable
    held = plan_loop(loop, PlanSpec(backend="vectorized"), cache)
    _redirect_read(loop)
    # The held plan's record is of the old content: the runner sees that
    # and looks the loop up again.
    result = execute_plan(loop, held, cache)
    assert result.extras["cache_hit"] is False
    assert np.array_equal(result.y, loop.run_sequential())


@pytest.mark.parametrize("shared", (True, False), ids=("shared", "cache=None"))
def test_cold_call_counts_one_miss_and_warm_call_one_hit(shared):
    loop = random_irregular_loop(200, seed=1)
    spec = PlanSpec(backend="vectorized", observe=True)
    cache = InspectorCache() if shared else None
    for call in (1, 2):
        result, _ = parallelize(loop, spec=spec, cache=cache)
        counters = result.telemetry.metrics.as_dict()["counters"]
        warm = shared and call == 2
        assert result.extras["cache_hit"] is warm
        assert counters["inspector_cache_misses"] == (0 if warm else 1)
        assert counters["inspector_iterations"] == (0 if warm else loop.n)
        assert result.extras["cache_hits_total"] == (1 if warm else 0)
        if shared:
            assert (cache.hits, cache.misses) == (call - 1, 1)
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
