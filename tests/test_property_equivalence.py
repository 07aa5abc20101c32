"""Property-based tests: every parallel strategy is semantically equal to
the sequential oracle, for arbitrary runtime-dependence structures.

This is the library's central contract (DESIGN.md §6).  Hypothesis drives
the loop generator through sizes, term densities, init kinds, seeds,
processor counts, and schedules.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends.threaded import ThreadedRunner
from repro.core.doacross import PreprocessedDoacross
from repro.workloads.synthetic import random_irregular_loop
from repro.workloads.testloop import make_test_loop
from tests.strategies import loop_params



def close(a, b):
    np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12)


@given(
    params=loop_params,
    processors=st.integers(1, 24),
    schedule=st.sampled_from(["cyclic", "block", "dynamic", "guided"]),
    chunk=st.integers(1, 8),
)
@settings(max_examples=120, deadline=None)
def test_preprocessed_doacross_matches_oracle(
    params, processors, schedule, chunk
):
    loop = random_irregular_loop(**params)
    runner = PreprocessedDoacross(
        processors=processors, schedule=schedule, chunk=chunk
    )
    close(runner.run(loop).y, loop.run_sequential())


@given(params=loop_params, processors=st.integers(1, 16))
@settings(max_examples=60, deadline=None)
def test_doconsider_matches_oracle(params, processors):
    loop = random_irregular_loop(**params)
    result = PreprocessedDoacross(processors=processors).run(
        loop, reorder="doconsider"
    )
    close(result.y, loop.run_sequential())


@given(
    params=loop_params,
    processors=st.integers(1, 12),
    block=st.integers(1, 90),
)
@settings(max_examples=60, deadline=None)
def test_stripmined_matches_oracle(params, processors, block):
    loop = random_irregular_loop(**params)
    runner = PreprocessedDoacross(processors=processors)
    close(runner.run_stripmined(loop, block=block).y, loop.run_sequential())


@given(
    n=st.integers(1, 60),
    m=st.integers(1, 4),
    l=st.integers(1, 14),
    processors=st.integers(1, 16),
    linear=st.booleans(),
)
@settings(max_examples=80, deadline=None)
def test_figure4_standard_and_linear_match_oracle(n, m, l, processors, linear):
    loop = make_test_loop(n=n, m=m, l=l)
    runner = PreprocessedDoacross(processors=processors)
    close(runner.run(loop, linear=linear).y, loop.run_sequential())


@given(params=loop_params, threads=st.integers(1, 6))
@settings(max_examples=25, deadline=None)
def test_threaded_backend_matches_oracle(params, threads):
    loop = random_irregular_loop(**params)
    y = ThreadedRunner(threads=threads).run(loop).y
    close(y, loop.run_sequential())


@given(params=loop_params)
@settings(max_examples=40, deadline=None)
def test_all_simulated_strategies_agree_with_each_other(params):
    """Cross-strategy agreement: natural, reordered, and strip-mined runs
    all produce bit-identical results (same term order per iteration)."""
    loop = random_irregular_loop(**params)
    runner = PreprocessedDoacross(processors=5)
    natural = runner.run(loop).y
    reordered = runner.run(loop, reorder="doconsider").y
    stripmined = runner.run_stripmined(loop, block=max(1, loop.n // 3)).y
    np.testing.assert_array_equal(natural, reordered)
    np.testing.assert_array_equal(natural, stripmined)
