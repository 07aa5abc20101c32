"""One protocol, two transports: threads and processes run the same lanes.

``ThreadedRunner(threads=P)`` and ``MultiprocRunner(workers=P, chunk=1)``
deal the same strips of one position to the same lanes and run the same
phase tasks (:mod:`repro.backends.lanes`); only the transport differs —
plain arrays and a thread barrier, or shared memory and a process pool.
So on one input they must agree on everything the protocol decides: the
values, the counters, each lane's shadow log (up to the pid a process
lane is keyed by) and the placement the static checker is handed.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from repro import PlanSpec, parallelize
from repro.backends import MultiprocRunner, ThreadedRunner
from repro.graph.levels import compute_levels
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import SpanRecorder
from repro.sanitize.detector import detect
from repro.sanitize.shadow import ShadowCapture
from repro.sparse.ilu import ilu0
from repro.sparse.stencils import five_point
from repro.sparse.trisolve import lower_solve_loop
from repro.workloads.synthetic import chain_loop, random_irregular_loop
from tests.conftest import assert_same_bits
from tests.strategies import affine_loops, loop_params

#: Counters the two transports must report equal.
SAME = ("flag_checks", "flag_sets", "iterations", "sync_elisions",
        "group_barriers")

#: Counters that are measurements, not protocol decisions.
MEASURED = ("busy_waits", "wait_seconds", "wait_escalations")


@pytest.fixture(scope="module")
def pools():
    """One process pool per (workers, analyze), reused by every test."""
    made: dict = {}

    def pool(workers: int, analyze: str | None) -> MultiprocRunner:
        key = (workers, analyze)
        if key not in made:
            made[key] = MultiprocRunner(workers=workers, chunk=1, analyze=analyze)
        return made[key]

    yield pool
    for runner in made.values():
        runner.close()


def _observed(runner, loop, **options):
    """One run with a span recorder, a metrics registry and a shadow
    capture attached: the result, its counters and its per-lane logs."""
    met, cap = MetricsRegistry(), ShadowCapture()
    runner._obs_metrics, runner._obs_recorder = met, SpanRecorder()
    runner._san_capture = cap
    try:
        result = runner.run(loop, **options)
    finally:
        runner._obs_metrics = runner._obs_recorder = None
        runner._san_capture = None
    lanes = {
        (key[1] if isinstance(key, tuple) else key): events
        for key, events in cap.lanes.items()
    }
    assert detect(cap, loop).ok
    return result, met.as_dict()["counters"], lanes


def assert_one_protocol(loop, pools, workers=2, analyze=None, **options):
    threads = ThreadedRunner(threads=workers, analyze=analyze)
    procs = pools(workers, analyze)
    t_result, t_counters, t_lanes = _observed(threads, loop, **options)
    p_result, p_counters, p_lanes = _observed(procs, loop, **options)

    oracle = loop.run_sequential()
    assert_same_bits(t_result.y, oracle)
    assert np.array_equal(t_result.y, p_result.y)
    assert set(t_counters) == set(p_counters)
    for name in SAME:
        assert t_counters.get(name) == p_counters.get(name), name
    assert t_lanes == p_lanes
    assert t_result.extras.get("distance_group") == p_result.extras.get(
        "distance_group"
    )

    model = {k: v for k, v in options.items() if k != "chunk"}
    t_place = threads.schedule_model(loop, **model)
    p_place = procs.schedule_model(loop, **model)
    for field in ("pos", "lane", "cut"):
        a, b = getattr(t_place, field), getattr(p_place, field)
        assert (a is None) == (b is None), field
        assert a is None or np.array_equal(a, b), field
    assert (t_place.chunk, t_place.flags) == (p_place.chunk, p_place.flags)
    return t_counters


def _trisolve():
    L, _ = ilu0(five_point(6, 6))
    return lower_solve_loop(L, np.linspace(0.5, 2.0, 36))


FIXED = {
    "chain": lambda: chain_loop(60, 1),
    "chain-d3": lambda: chain_loop(48, 3),
    "random": lambda: random_irregular_loop(90, seed=5, y_extra=7),
    "external": lambda: random_irregular_loop(70, seed=2, external_init=True),
    "trisolve": _trisolve,
}


@pytest.mark.parametrize("name", sorted(FIXED))
@pytest.mark.parametrize("workers", [2, 3])
def test_natural_order(name, workers, pools):
    counters = assert_one_protocol(FIXED[name](), pools, workers=workers)
    assert counters["flag_sets"] == counters["iterations"]


@pytest.mark.parametrize("name", sorted(FIXED))
def test_doconsider_order(name, pools):
    loop = FIXED[name]()
    assert_one_protocol(loop, pools, order=compute_levels(loop).order)


@pytest.mark.parametrize("name", sorted(FIXED))
def test_symbolic_analysis(name, pools):
    assert_one_protocol(FIXED[name](), pools, analyze="symbolic")


@pytest.mark.parametrize("group", [1, 2, 4])
def test_group_sync(group, pools):
    counters = assert_one_protocol(
        chain_loop(64, 4), pools, analyze="symbolic", group_sync=group
    )
    assert counters["flag_checks"] == counters["flag_sets"] == 0
    assert counters["group_barriers"] == 64 // group


@given(params=loop_params)
@settings(
    max_examples=15, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_generated_irregular_loops(params, pools):
    assert_one_protocol(random_irregular_loop(**params), pools)


@given(loop=affine_loops())
@settings(
    max_examples=15, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_generated_affine_loops(loop, pools):
    assert_one_protocol(loop, pools, analyze="symbolic")


@pytest.mark.parametrize("name", ["chain", "trisolve"])
def test_planned_observed_and_sanitized(name):
    """The public path, with the ``Observe`` and ``Sanitize`` hooks."""
    loop = FIXED[name]()
    counters = {}
    for backend, chunk in (("threaded", None), ("multiproc", 1)):
        spec = PlanSpec(
            backend=backend, processors=2, chunk=chunk,
            observe=True, validate="sanitize",
        )
        result, _plan = parallelize(loop, spec=spec)
        assert_same_bits(result.y, loop.run_sequential())
        assert result.extras["sanitize"]["ok"] is True
        counters[backend] = result.telemetry.metrics.as_dict()["counters"]
    threaded, multiproc = counters["threaded"], counters["multiproc"]
    assert set(threaded) == set(multiproc)
    for name in set(threaded) - set(MEASURED):
        assert threaded[name] == multiproc[name], name
