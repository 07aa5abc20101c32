"""Tests for the vectorized wavefront backend.

The backend's contract is stronger than the library's usual tolerance
checks: batching a wavefront performs the oracle's arithmetic in the same
per-term order, so the output must be **bitwise** equal to
``run_sequential`` — asserted with ``np.array_equal`` throughout.
"""

import numpy as np
import pytest

from repro.backends.cache import InspectorCache
from repro.backends.vectorized import VectorizedRunner
from repro.core.doacross import PreprocessedDoacross, parallelize
from repro.core.sequential import run_reference
from repro.errors import InvalidLoopError, ScheduleError
from repro.graph.depgraph import DependenceGraph
from repro.graph.levels import compute_levels
from repro.sparse.ilu import ilu0
from repro.sparse.stencils import five_point
from repro.sparse.trisolve import lower_solve_loop, solve_lower_unit
from repro.workloads.synthetic import chain_loop, random_irregular_loop
from repro.workloads.testloop import make_test_loop


def assert_bitwise_oracle(loop, result):
    reference = run_reference(loop)
    assert np.array_equal(result.y, reference.y), (
        f"vectorized output differs from the sequential oracle on "
        f"{loop.name}"
    )


class TestBitwiseEquivalence:
    @pytest.mark.parametrize("seed", range(12))
    def test_random_loops(self, seed):
        loop = random_irregular_loop(150, seed=seed)
        assert_bitwise_oracle(loop, VectorizedRunner().run(loop))

    @pytest.mark.parametrize("seed", range(6))
    def test_random_external_init(self, seed):
        loop = random_irregular_loop(120, seed=seed, external_init=True)
        assert_bitwise_oracle(loop, VectorizedRunner().run(loop))

    @pytest.mark.parametrize("m", [1, 2, 5])
    @pytest.mark.parametrize("l", [6, 7, 8, 11])
    def test_figure4_sweep(self, m, l):
        loop = make_test_loop(n=300, m=m, l=l)
        assert_bitwise_oracle(loop, VectorizedRunner().run(loop))

    @pytest.mark.parametrize("distance", [1, 3, 17])
    def test_chain(self, distance):
        loop = chain_loop(250, distance)
        assert_bitwise_oracle(loop, VectorizedRunner().run(loop))

    def test_trisolve(self):
        L, _ = ilu0(five_point(12, 12))
        rhs = np.ones(L.n_rows)
        loop = lower_solve_loop(L, rhs)
        result = VectorizedRunner().run(loop)
        assert_bitwise_oracle(loop, result)
        np.testing.assert_allclose(result.y, solve_lower_unit(L, rhs))

    def test_empty_loop(self):
        loop = random_irregular_loop(0)
        assert_bitwise_oracle(loop, VectorizedRunner().run(loop))

    def test_dependence_free_loop(self):
        loop = random_irregular_loop(100, max_terms=0, seed=1)
        result = VectorizedRunner().run(loop)
        assert_bitwise_oracle(loop, result)
        assert result.extras["levels"] <= 1


class TestResultShape:
    def test_result_fields(self):
        loop = make_test_loop(n=200, m=2, l=8)
        result = VectorizedRunner().run(loop)
        assert result.strategy == "vectorized-wavefront"
        assert result.total_cycles == 0
        assert result.wall_seconds is not None and result.wall_seconds > 0
        assert result.extras["preprocess_seconds"] >= 0
        assert result.extras["execute_seconds"] >= 0
        assert result.extras["cache_hit"] is False

    def test_levels_match_graph(self):
        loop = make_test_loop(n=200, m=2, l=8)
        schedule = compute_levels(DependenceGraph.from_loop(loop))
        result = VectorizedRunner().run(loop)
        assert result.extras["levels"] == schedule.n_levels

    def test_wall_printed_in_summary(self):
        loop = make_test_loop(n=50, m=1, l=7)
        summary = VectorizedRunner().run(loop).summary()
        assert "(measured)" in summary
        assert "speedup=inf" not in summary


class TestOrderHandling:
    def test_legal_order_same_values(self):
        loop = chain_loop(60, 1)
        natural = VectorizedRunner().run(loop)
        ordered = VectorizedRunner().run(
            loop, order=np.arange(loop.n, dtype=np.int64)
        )
        assert np.array_equal(natural.y, ordered.y)

    def test_illegal_order_rejected(self):
        loop = chain_loop(60, 1)
        with pytest.raises(ScheduleError, match="violates true dependence"):
            VectorizedRunner().run(loop, order=np.arange(loop.n)[::-1])


class TestParallelizeBackend:
    def test_vectorized_backend_selected(self):
        loop = random_irregular_loop(130, seed=5)
        result, plan = parallelize(loop, backend="vectorized")
        assert result.strategy == "vectorized-wavefront"
        assert result.extras["plan"] == plan.describe()
        assert_bitwise_oracle(loop, result)

    def test_shared_cache_via_keyword(self):
        loop = random_irregular_loop(130, seed=7)
        cache = InspectorCache()
        parallelize(loop, backend="vectorized", cache=cache)
        result, _ = parallelize(loop, backend="vectorized", cache=cache)
        assert result.extras["cache_hit"] is True


def iterate_oracle(loop, instances, rhs_sequence=None):
    y = loop.y0.copy()
    for k in range(instances):
        clone = loop.with_name(loop.name)
        clone.y0 = y
        if rhs_sequence is not None:
            clone.init_values = np.asarray(rhs_sequence[k], dtype=np.float64)
        y = clone.run_sequential()
    return y


class TestRunRepeated:
    @pytest.mark.parametrize("instances", [1, 2, 7])
    def test_matches_iterated_oracle(self, instances):
        loop = make_test_loop(n=140, m=2, l=6)
        result = VectorizedRunner().run_repeated(loop, instances)
        assert np.array_equal(result.y, iterate_oracle(loop, instances))
        assert result.extras["instances"] == instances
        assert result.extras["inspector_runs"] == 1

    def test_rhs_sequence(self):
        loop = random_irregular_loop(90, seed=2, external_init=True)
        rng = np.random.default_rng(0)
        rhs = [rng.normal(size=loop.n) for _ in range(4)]
        result = VectorizedRunner().run_repeated(loop, 4, rhs_sequence=rhs)
        assert np.array_equal(
            result.y, iterate_oracle(loop, 4, rhs_sequence=rhs)
        )

    def test_warm_cache_skips_inspector(self):
        loop = make_test_loop(n=140, m=2, l=6)
        runner = VectorizedRunner()
        runner.run(loop)
        result = VectorizedRunner(cache=runner.cache).run_repeated(loop, 3)
        assert result.extras["inspector_runs"] == 0
        assert runner.cache.stats()["hits"] == 1

    def test_rejects_zero_instances(self):
        loop = make_test_loop(n=50, m=1, l=6)
        with pytest.raises(InvalidLoopError, match="at least one instance"):
            VectorizedRunner().run_repeated(loop, 0)

    def test_rhs_requires_external_init(self):
        loop = make_test_loop(n=50, m=1, l=6)
        with pytest.raises(InvalidLoopError, match="external-init"):
            VectorizedRunner().run_repeated(
                loop, 2, rhs_sequence=[np.ones(50)] * 2
            )

    def test_rhs_length_checked(self):
        loop = random_irregular_loop(50, seed=0, external_init=True)
        with pytest.raises(InvalidLoopError, match="entries"):
            VectorizedRunner().run_repeated(
                loop, 3, rhs_sequence=[np.ones(50)] * 2
            )


class TestAmortizedIntegration:
    def test_amortized_vectorized_backend(self):
        """``run_repeated`` is the wall-clock form of the simulated
        ``PreprocessedDoacross.run_amortized`` composition: same values,
        inspector served by the cache it is given."""
        loop = make_test_loop(n=140, m=2, l=6)
        cache = InspectorCache()
        result = VectorizedRunner(cache=cache).run_repeated(loop, 5)
        assert np.array_equal(result.y, iterate_oracle(loop, 5))
        assert result.strategy == "vectorized-wavefront-amortized"
        assert cache.stats()["misses"] == 1
        simulated = PreprocessedDoacross(processors=4).run_amortized(loop, 5)
        np.testing.assert_allclose(simulated.y, result.y, rtol=1e-12)
