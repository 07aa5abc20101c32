"""Tests for the real-thread backend: the protocol on actual concurrency."""

import tracemalloc

import numpy as np
import pytest

from repro.backends.threaded import ThreadedRunner
from repro.graph.levels import compute_levels
from repro.errors import ScheduleError
from repro.sparse.ilu import ilu0
from repro.sparse.stencils import five_point
from repro.sparse.trisolve import lower_solve_loop, solve_lower_unit
from repro.workloads.synthetic import chain_loop, random_irregular_loop
from repro.workloads.testloop import make_test_loop
from tests.conftest import assert_matches_oracle


class TestThreadedEquivalence:
    @pytest.mark.parametrize("threads", [1, 2, 4, 8])
    def test_figure4_loop(self, threads):
        loop = make_test_loop(n=120, m=2, l=6)
        y = ThreadedRunner(threads=threads).run(loop).y
        assert_matches_oracle(y, loop)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_loops(self, seed):
        loop = random_irregular_loop(100, seed=seed)
        y = ThreadedRunner(threads=4).run(loop).y
        assert_matches_oracle(y, loop)

    def test_external_init(self):
        loop = random_irregular_loop(80, seed=1, external_init=True)
        y = ThreadedRunner(threads=3).run(loop).y
        assert_matches_oracle(y, loop)

    def test_tight_chain_does_not_deadlock(self):
        loop = chain_loop(200, 1)
        y = ThreadedRunner(threads=4).run(loop).y
        assert_matches_oracle(y, loop)

    def test_triangular_solve(self):
        L, _ = ilu0(five_point(10, 10))
        rhs = np.linspace(0.5, 2.0, 100)
        loop = lower_solve_loop(L, rhs)
        y = ThreadedRunner(threads=4).run(loop).y
        np.testing.assert_allclose(y, solve_lower_unit(L, rhs))

    def test_with_doconsider_order(self):
        loop = random_irregular_loop(80, seed=9)
        order = compute_levels(loop).order
        y = ThreadedRunner(threads=4).run(loop, order=order).y
        assert_matches_oracle(y, loop)

    def test_more_threads_than_iterations(self):
        loop = random_irregular_loop(3, seed=0)
        y = ThreadedRunner(threads=16).run(loop).y
        assert_matches_oracle(y, loop)

    def test_empty_loop(self):
        loop = random_irregular_loop(0, seed=0)
        y = ThreadedRunner(threads=2).run(loop).y
        np.testing.assert_allclose(y, loop.y0)


class TestValidation:
    def test_illegal_order_rejected_before_starting_threads(self):
        loop = chain_loop(30, 1)
        with pytest.raises(ScheduleError):
            ThreadedRunner(threads=2).run(
                loop, order=np.arange(30)[::-1]
            )

    def test_thread_count_validated(self):
        with pytest.raises(ValueError):
            ThreadedRunner(threads=0)


class TestCost:
    def test_a_run_costs_its_arrays_not_an_object_per_element(self):
        """A few flat arrays over ``y`` and O(n) lane state: 2,000
        iterations over a 200,000-element ``y`` stay far below what one
        synchronisation object per element would take."""
        loop = random_irregular_loop(2000, seed=3, y_extra=198_000)
        runner = ThreadedRunner(threads=2)
        tracemalloc.start()
        try:
            result = runner.run(loop)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20, f"peak {peak / 2**20:.1f} MiB"
        assert np.array_equal(result.y, loop.run_sequential())
