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
(e) the memo and the records serve each other across backends;
(f) a warm unobserved call pays its walk: no fingerprint hashed, no
    runner built (the hook-free runner is memoized on the cache), one
    native argument block per gathered record and one per loop walked in
    identity order; a steady unobserved ``auto`` call likewise — and
    hooked runs, threads,
    rebound record arrays, shared identity records and odd operands still
    get what they got before.
"""

from __future__ import annotations

import copy
import gc
import hashlib
import pickle
import sys
import threading
import types
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import InspectorCache, PlanSpec, VectorizedRunner, parallelize
import repro.backends as backends_module
from repro.analysis import record_mismatches, symbolic_fingerprint
from repro.backends import BACKENDS, native
from repro.backends import cache as cache_module
from repro.backends.cache import build_inspector_record, fingerprint_with_body
from repro.core.doconsider import Doconsider
from repro.errors import InvalidLoopError
from repro.graph.depgraph import DependenceGraph
from repro.graph.levels import compute_levels
from repro.ir.accesses import ReadTable
from repro.passes import execute_plan, plan_loop
from repro.passes import plan as plan_module
from repro.passes.autotune import AUTO_CANDIDATES
from repro.sparse.ilu import ilu0
from repro.sparse.stencils import five_point
from repro.sparse.trisolve import lower_solve_loop
from repro.workloads.synthetic import random_irregular_loop
from repro.workloads.testloop import make_test_loop
from tests.conftest import (
    assert_same_bits,
    assert_write_refused,
    no_compiler,
    record_arrays,
)


def _trisolve_loop(nx: int = 9, ny: int = 8):
    A = five_point(nx, ny)
    L, _upper = ilu0(A)
    return lower_solve_loop(L, np.arange(1.0, A.n_rows + 1) / A.n_rows)


@pytest.fixture
def analysis_calls(monkeypatch):
    """Call counts of the two dependence-analysis entry points: the
    inspector's level pass (``native.inspect`` without a given order,
    which ``compute_levels`` and ``build_inspector_record`` each call
    once, whichever body then runs) and ``DependenceGraph.from_loop``."""
    calls = {"levels": 0, "from_loop": 0}
    real_inspect = native.inspect
    real_from_loop = DependenceGraph.from_loop.__func__

    def counted_inspect(loop, *, order=None, codes=True):
        calls["levels"] += order is None
        return real_inspect(loop, order=order, codes=codes)

    def counted_from_loop(cls, loop):
        calls["from_loop"] += 1
        return real_from_loop(cls, loop)

    monkeypatch.setattr(native, "inspect", counted_inspect)
    monkeypatch.setattr(
        DependenceGraph, "from_loop", classmethod(counted_from_loop)
    )
    return calls


def analyses(levels: int) -> dict:
    """The counts ``levels`` level computations leave: the inspector
    builds no dependence graph."""
    return {"levels": levels, "from_loop": 0}


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


# ---------------------------------------------------------------------------
# (f) a warm call pays its walk
# ---------------------------------------------------------------------------

needs_compiler = pytest.mark.skipif(
    native.find_compiler() is None, reason="no gcc on PATH"
)

VECTORIZED = PlanSpec(backend="vectorized")


@pytest.fixture
def warm_path(monkeypatch):
    """Call counts of ``make_runner`` and of the construction of a native
    argument block, and the loop fingerprints hashed rather than served
    by the memo (the plan's and ``loop_fingerprint``'s); ``reset()``
    zeroes them."""
    calls = {"hashed": 0, "make_runner": 0, "arg_block": 0}
    real_fingerprint = cache_module.fingerprint_with_body
    real_make_runner = backends_module.make_runner

    def counted_fingerprint(loop):
        digest, body = real_fingerprint(loop)
        calls["hashed"] += body != "memo"
        return digest, body

    def counted_make_runner(*args, **kwargs):
        calls["make_runner"] += 1
        return real_make_runner(*args, **kwargs)

    class CountedBlock(native.ArgBlock):
        __slots__ = ()

        def __init__(self, *args):
            calls["arg_block"] += 1
            super().__init__(*args)

    monkeypatch.setattr(cache_module, "fingerprint_with_body", counted_fingerprint)
    monkeypatch.setattr(plan_module, "fingerprint_with_body", counted_fingerprint)
    monkeypatch.setattr(backends_module, "make_runner", counted_make_runner)
    monkeypatch.setattr(native, "ArgBlock", CountedBlock)
    calls_view = types.SimpleNamespace(
        counts=calls, reset=lambda: calls.update(dict.fromkeys(calls, 0))
    )
    return calls_view


@needs_compiler
def test_a_warm_call_hashes_nothing_and_builds_no_runner(warm_path):
    # Two structures, as krylov_churn alternates them: one block each.
    loops = [random_irregular_loop(2000, max_terms=4, seed=s) for s in (1991, 1992)]
    oracles = [loop.run_sequential() for loop in loops]
    cache = InspectorCache()
    for loop in loops:
        parallelize(loop, spec=VECTORIZED, cache=cache)
    assert warm_path.counts["make_runner"] == 1
    blocks = warm_path.counts["arg_block"]
    assert blocks == 2
    for _ in range(9):
        for loop, oracle in zip(loops, oracles):
            warm_path.counts["hashed"] = warm_path.counts["make_runner"] = 0
            result, _ = parallelize(loop, spec=VECTORIZED, cache=cache)
            assert warm_path.counts["hashed"] == 0
            assert warm_path.counts["make_runner"] == 0
            assert result.extras["kernel"]["body"] == "native"
            assert np.array_equal(result.y.view(np.uint64), oracle.view(np.uint64))
    assert warm_path.counts["arg_block"] == blocks


def test_without_a_cache_every_call_builds_its_runner(warm_path):
    loop = random_irregular_loop(200, seed=1)
    for call in (1, 2):
        result, _ = parallelize(loop, spec=VECTORIZED)
        assert warm_path.counts["make_runner"] == call
        assert np.array_equal(result.y, loop.run_sequential())


def test_a_runner_with_per_run_state_is_never_kept(warm_path):
    # The simulated runner keeps per-run state (and the multiproc one its
    # pool): each call builds one, and the cache keeps none of them.
    loop = random_irregular_loop(200, seed=1)
    cache = InspectorCache()
    for call in (1, 2):
        parallelize(loop, spec=PlanSpec(backend="simulated"), cache=cache)
        assert warm_path.counts["make_runner"] == call
    assert len(cache._runners) == 0


def test_kept_runners_are_bounded_and_their_evictions_counted():
    cache = InspectorCache(capacity=2)
    built = [cache.runner_for(key, lambda c: object()) for key in "ab"]
    assert cache.runner_for("a", lambda c: object()) is built[0]  # now newest
    cache.runner_for("c", lambda c: object())
    assert list(cache._runners) == ["a", "c"]
    assert cache.evictions == 1


@pytest.mark.parametrize(
    "hooked",
    (
        PlanSpec(backend="vectorized", observe=True),
        PlanSpec(backend="vectorized", validate="sanitize"),
        PlanSpec(backend="vectorized", validate="static"),
        PlanSpec(backend="auto", processors=2, observe=True),
    ),
    ids=("observe", "sanitize", "static", "auto"),
)
def test_a_hooked_run_gets_a_fresh_runner_and_leaves_the_memo_bare(
    warm_path, hooked
):
    loop = random_irregular_loop(300, max_terms=3, seed=5)
    cache = InspectorCache()
    for _ in range(2):
        parallelize(loop, spec=VECTORIZED, cache=cache)
    (memoized,) = cache._runners.values()
    warm_path.reset()
    result, _ = parallelize(loop, spec=hooked, cache=cache)
    assert warm_path.counts["make_runner"] == 1
    assert np.array_equal(result.y, loop.run_sequential())
    if hooked.validate is None:
        assert {s.name for s in result.telemetry.spans} >= {"run", "executor"}
    assert (
        memoized._obs_recorder, memoized._obs_metrics, memoized._san_capture
    ) == (None, None, None)
    bare, _ = parallelize(loop, spec=VECTORIZED, cache=cache)
    assert bare.telemetry is None
    assert warm_path.counts["make_runner"] == 1
    assert list(cache._runners.values()) == [memoized]


def test_a_steady_unobserved_auto_call_builds_no_runner(warm_path):
    # Once the tuner exploits, an auto call is served by the hook-free
    # runner kept on the cache, like a fixed-backend call.
    loop = random_irregular_loop(2000, max_terms=4, seed=1991)
    oracle = loop.run_sequential()
    cache, spec = InspectorCache(), PlanSpec(backend="auto", processors=2)
    for _ in range(len(AUTO_CANDIDATES) + 1):
        result, _ = parallelize(loop, spec=spec, cache=cache)
        if result.extras["tuner"]["source"] == "telemetry":
            break
    assert result.extras["tuner"]["source"] == "telemetry"
    warm_path.reset()
    result, _ = parallelize(loop, spec=spec, cache=cache)
    assert warm_path.counts["make_runner"] == 0
    assert result.telemetry is None
    assert np.array_equal(result.y.view(np.uint64), oracle.view(np.uint64))


def test_the_memo_keeps_no_reference_to_its_cache():
    loop = random_irregular_loop(300, max_terms=3, seed=5)
    cache = InspectorCache()
    parallelize(loop, spec=VECTORIZED, cache=cache)
    assert len(cache._runners) == 1
    freed = []
    weakref.finalize(cache, freed.append, True)
    del cache
    assert freed == [True]  # by its reference count alone


def test_threads_on_one_cache_stay_bitwise_correct():
    # More threads than cores, switching often: they share the memoized
    # runner and each record's argument block (the compiled walk releases
    # the GIL), and every output must still be the oracle's.
    loops = [
        random_irregular_loop(600, max_terms=4, seed=7),  # gathered, renamed
        make_test_loop(n=400, m=5, l=8),  # identity order
        _trisolve_loop(),  # gathered, in place
    ]
    oracles = [loop.run_sequential() for loop in loops]
    cache = InspectorCache()
    failures: list[BaseException] = []

    def calls() -> None:
        try:
            for _ in range(40):
                for loop, oracle in zip(loops, oracles):
                    y = parallelize(loop, spec=VECTORIZED, cache=cache)[0].y
                    assert_same_bits(y, oracle)
        except BaseException as exc:  # re-raised on the main thread
            failures.append(exc)

    threads = [threading.Thread(target=calls) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert failures == []
    assert len(cache._runners) == 1


def _rebind_codes(record):
    record.codes = record.codes.copy()


def _rebind_order(record):
    record.schedule.order = record.schedule.order.copy()


def _rebind_layout(record):
    layout = record.layout
    record.layout = type(layout)(
        *(getattr(layout, f).copy() for f in ("write", "ptr", "index", "start"))
    )


@needs_compiler
@pytest.mark.parametrize("rebind", (_rebind_codes, _rebind_order, _rebind_layout))
def test_a_rebound_record_array_rebuilds_the_block(warm_path, rebind):
    loop = random_irregular_loop(300, max_terms=3, seed=5)
    cache = InspectorCache()
    parallelize(loop, spec=VECTORIZED, cache=cache)
    record = plan_loop(loop, VECTORIZED, cache).record
    first = record.arg_block
    assert warm_path.counts["arg_block"] == 1 and first is not None
    rebind(record)
    result, _ = parallelize(loop, spec=VECTORIZED, cache=cache)
    assert warm_path.counts["arg_block"] == 2
    assert record.arg_block is not first
    assert np.array_equal(result.y, loop.run_sequential())
    parallelize(loop, spec=VECTORIZED, cache=cache)
    assert warm_path.counts["arg_block"] == 2


@needs_compiler
@pytest.mark.parametrize("loop_of", ("doall", "chain"))
def test_an_identity_walk_keeps_its_block_on_the_loop(warm_path, loop_of):
    # An identity-order record walks the loop's own arrays: the loop
    # keeps the block, so ten warm calls build one.
    l = 7 if loop_of == "doall" else 8
    loop = make_test_loop(n=800, m=5, l=l)
    oracle = loop.run_sequential()
    cache = InspectorCache()
    for _ in range(10):
        result, _ = parallelize(loop, spec=VECTORIZED, cache=cache)
        assert result.extras["walk"]["layout"] == "identity"
        assert result.extras["kernel"]["body"] == "native"
        assert_same_bits(result.y, oracle)
    assert warm_path.counts["arg_block"] == 1
    assert warm_path.counts["make_runner"] == 1
    (record,) = cache._entries.values()
    assert record.arg_block is None
    assert loop.arg_block.holds(
        record.schedule.order, record.codes, loop.write, loop.reads.ptr,
        loop.reads.index, None,
    )
    # Dropped with the fingerprint memo: by copies, and by a rehash.
    for clone in (copy.deepcopy(loop), pickle.loads(pickle.dumps(loop))):
        assert clone.arg_block is None
    loop.reads = ReadTable(loop.reads.ptr.copy(), loop.reads.index.copy(),
                           loop.reads.coeff)
    parallelize(loop, spec=VECTORIZED, cache=cache)
    assert warm_path.counts["arg_block"] == 2
    assert loop.arg_block.holds(
        record.schedule.order, record.codes, loop.write, loop.reads.ptr,
        loop.reads.index, None,
    )


@needs_compiler
def test_loops_sharing_an_identity_record_keep_no_block():
    # Two Figure-4 loops of one proven structure share one symbolic
    # record, whose identity-order walk reads each loop's own arrays: the
    # record keeps no block of them, and the loops taking turns (one
    # dropped halfway) each get their own oracle's bits.
    spec = PlanSpec(backend="vectorized", analyze="symbolic")
    loops = [
        make_test_loop(n=400, m=5, l=8, val=np.linspace(0.02, 0.1 * k, 5))
        for k in (1, 2)
    ]
    oracles = [loop.run_sequential() for loop in loops]
    assert not np.array_equal(oracles[0], oracles[1])
    cache = InspectorCache()
    for _ in range(3):
        for loop, oracle in zip(loops, oracles):
            result, _ = parallelize(loop, spec=spec, cache=cache)
            assert result.extras["walk"]["layout"] == "identity"
            assert result.extras["kernel"]["body"] == "native"
            assert_same_bits(result.y, oracle)
    (record,) = cache._entries.values()
    assert record.fingerprint == symbolic_fingerprint(loops[1])
    assert record.arg_block is None
    del loops[0], oracles[0]
    result, _ = parallelize(loops[0], spec=spec, cache=cache)
    assert_same_bits(result.y, oracles[0])
    assert record.arg_block is None


@needs_compiler
def test_an_identity_block_lets_an_evicted_record_go(warm_path):
    # The loop's block refers to the record's order and codes weakly:
    # once a capacity-1 cache has evicted the record they are freed, and
    # the loop's next walk builds a block over the new record.
    loop = make_test_loop(n=800, m=5, l=7)
    oracle = loop.run_sequential()
    cache = InspectorCache(capacity=1)
    result, _ = parallelize(loop, spec=VECTORIZED, cache=cache)
    assert result.extras["walk"]["layout"] == "identity"
    (record,) = cache._entries.values()
    codes = weakref.ref(record.codes)
    assert loop.arg_block.holds(
        record.schedule.order, record.codes, loop.write, loop.reads.ptr,
        loop.reads.index, None,
    )
    del record
    parallelize(make_test_loop(n=600, m=5, l=7), spec=VECTORIZED, cache=cache)
    gc.collect()
    assert codes() is None
    blocks = warm_path.counts["arg_block"]
    result, _ = parallelize(loop, spec=VECTORIZED, cache=cache)
    assert warm_path.counts["arg_block"] == blocks + 1
    assert result.extras["kernel"]["body"] == "native"
    assert_same_bits(result.y, oracle)


@needs_compiler
@pytest.mark.parametrize(
    "clone",
    (copy.copy, copy.deepcopy, lambda r: pickle.loads(pickle.dumps(r))),
    ids=("copy", "deepcopy", "pickle"),
)
def test_a_copied_record_converts_its_own_arrays(clone):
    loop = random_irregular_loop(300, max_terms=3, seed=5)
    cache = InspectorCache()
    parallelize(loop, spec=VECTORIZED, cache=cache)
    record = plan_loop(loop, VECTORIZED, cache).record
    assert record.arg_block is not None
    copied = clone(record)
    assert copied.arg_block is None
    y = VectorizedRunner(cache=InspectorCache())._walk(loop, copied)
    assert copied.arg_block.holds(
        copied.schedule.order, copied.codes, copied.layout.write,
        copied.layout.ptr, copied.layout.index, copied.layout.start,
    )
    assert np.array_equal(y, loop.run_sequential())


@needs_compiler
def test_a_strided_coeff_takes_the_python_body():
    loop = random_irregular_loop(300, max_terms=3, seed=5)
    cache = InspectorCache()
    parallelize(loop, spec=VECTORIZED, cache=cache)  # the block exists
    coeff = loop.reads.coeff
    strided = np.repeat(coeff, 2)[::2]
    assert not strided.flags.c_contiguous
    loop.reads.coeff = strided
    result, _ = parallelize(loop, spec=VECTORIZED, cache=cache)
    assert result.extras["kernel"] == {
        "body": "python", "reason": "non-array-operand",
    }
    loop.reads.coeff = coeff
    assert np.array_equal(result.y, loop.run_sequential())


@needs_compiler
def test_a_short_init_is_refused():
    loop = _trisolve_loop()
    cache = InspectorCache()
    parallelize(loop, spec=VECTORIZED, cache=cache)  # the block exists
    loop.init_values = loop.init_values[:-1]
    with pytest.raises(InvalidLoopError, match="inconsistent operands"):
        parallelize(loop, spec=VECTORIZED, cache=cache)
