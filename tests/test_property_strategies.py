"""Property-based tests of the composed/extended strategies."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.doacross import PreprocessedDoacross
from repro.workloads.mesh import mesh_orderings, random_mesh, sweep_loop
from repro.workloads.synthetic import random_irregular_loop


def iterate_oracle(loop, instances):
    y = loop.y0.copy()
    for _ in range(instances):
        clone = loop.with_name(loop.name)
        clone.y0 = y
        y = clone.run_sequential()
    return y


@given(
    n=st.integers(0, 50),
    seed=st.integers(0, 2000),
    instances=st.integers(1, 4),
    processors=st.integers(1, 9),
)
@settings(max_examples=50, deadline=None)
def test_amortized_equals_iterated_oracle(n, seed, instances, processors):
    loop = random_irregular_loop(n, seed=seed)
    result = PreprocessedDoacross(processors=processors).run_amortized(
        loop, instances
    )
    np.testing.assert_allclose(
        result.y, iterate_oracle(loop, instances), rtol=1e-12, atol=1e-12
    )


@given(
    n=st.integers(0, 50),
    seed=st.integers(0, 2000),
    instances=st.integers(1, 4),
)
@settings(max_examples=30, deadline=None)
def test_amortized_in_doconsider_order_equals_oracle(n, seed, instances):
    loop = random_irregular_loop(n, seed=seed)
    result = PreprocessedDoacross(processors=4).run_amortized(
        loop, instances, reorder="doconsider"
    )
    np.testing.assert_allclose(
        result.y, iterate_oracle(loop, instances), rtol=1e-12, atol=1e-12
    )


@given(
    n=st.integers(2, 120),
    seed=st.integers(0, 500),
    ordering=st.sampled_from(["natural", "random", "bfs", "coloring"]),
    processors=st.integers(1, 8),
)
@settings(max_examples=30, deadline=None)
def test_mesh_sweeps_match_their_oracles(n, seed, ordering, processors):
    mesh = random_mesh(n, seed=seed)
    order = mesh_orderings(mesh, seed=seed)[ordering]
    loop = sweep_loop(mesh, order=order)
    result = PreprocessedDoacross(processors=processors).run(loop)
    np.testing.assert_allclose(
        result.y, loop.run_sequential(), rtol=1e-12, atol=1e-12
    )


@given(n=st.integers(0, 40), seed=st.integers(0, 2000))
@settings(max_examples=12, deadline=None)
def test_verify_loop_passes_on_arbitrary_loops(n, seed):
    """The verification tool itself is a property: every applicable
    strategy agrees with the oracle on arbitrary runtime structures."""
    from repro.core.verify import verify_loop

    loop = random_irregular_loop(n, seed=seed)
    report = verify_loop(loop, processors=4, include_threaded=False)
    assert report.passed, report.summary()


@given(n=st.integers(0, 60), seed=st.integers(0, 2000))
@settings(max_examples=40, deadline=None)
def test_coherence_and_bus_models_never_change_values(n, seed):
    from repro.machine.costs import CostModel

    loop = random_irregular_loop(n, seed=seed)
    base = PreprocessedDoacross(processors=4).run(loop)
    modeled = PreprocessedDoacross(
        processors=4,
        cost_model=CostModel(coherence_miss=25, bus_per_access=3),
        coherence=True,
        bus=True,
    ).run(loop)
    np.testing.assert_array_equal(base.y, modeled.y)
    assert modeled.total_cycles >= base.total_cycles
