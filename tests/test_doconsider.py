"""Tests for the doconsider (wavefront) reordering."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends.base import inverse_permutation
from repro.core.doacross import PreprocessedDoacross
from repro.core.doconsider import Doconsider, level_order
from repro.graph.depgraph import DependenceGraph
from repro.ir.analysis import dependence_pairs
from repro.workloads.synthetic import chain_loop, random_irregular_loop
from repro.workloads.testloop import make_test_loop
from tests.conftest import assert_matches_oracle


class TestLevelOrder:
    def test_chain_levels_are_iteration_index(self):
        loop = chain_loop(20, 1)
        order, schedule = level_order(loop)
        np.testing.assert_array_equal(schedule.levels, np.arange(20))
        np.testing.assert_array_equal(order, np.arange(20))

    def test_distance_d_chain_has_d_wide_wavefronts(self):
        loop = chain_loop(20, 4)
        _, schedule = level_order(loop)
        assert schedule.n_levels == 5
        assert schedule.max_width() == 4

    def test_independent_loop_single_level(self):
        loop = make_test_loop(n=30, m=1, l=3)
        _, schedule = level_order(loop)
        assert schedule.n_levels == 1
        assert schedule.max_width() == 30

    def test_order_is_permutation_grouped_by_level(self):
        loop = random_irregular_loop(120, seed=3)
        order, schedule = level_order(loop)
        assert sorted(order.tolist()) == list(range(120))
        levels_in_order = schedule.levels[order]
        assert all(
            a <= b for a, b in zip(levels_in_order, levels_in_order[1:])
        )


class TestDoconsiderRuns:
    @pytest.mark.parametrize("seed", range(6))
    def test_semantics_preserved(self, seed):
        loop = random_irregular_loop(90, seed=seed)
        result = Doconsider(processors=8).run(loop)
        assert_matches_oracle(result.y, loop)

    def test_strategy_and_extras(self):
        loop = chain_loop(60, 3)
        result = Doconsider(processors=8).run(loop)
        assert result.strategy == "doconsider-doacross"
        assert result.extras["n_levels"] == 20
        assert result.extras["max_wavefront"] == 3
        assert "doconsider" in result.order_label

    def test_wraps_existing_runner(self):
        runner = PreprocessedDoacross(processors=4)
        result = Doconsider(doacross=runner).run(chain_loop(30, 2))
        assert result.processors == 4

    def test_reordering_never_hurts_chain_loops(self):
        """For a distance-d chain, wavefront order groups independent
        iterations; it must not be slower than natural order."""
        loop = chain_loop(400, 8)
        runner = PreprocessedDoacross(processors=16)
        natural = runner.run(loop)
        reordered = Doconsider(doacross=runner).run(loop)
        assert reordered.total_cycles <= natural.total_cycles

    def test_reorder_cost_reported_but_excluded_by_default(self):
        loop = chain_loop(100, 4)
        result = Doconsider(processors=8).run(loop)
        assert result.extras["reorder_cycles_modeled"] > 0
        assert "reorder_cost_included" not in result.extras

    def test_reorder_cost_inclusion_raises_total(self):
        loop = chain_loop(100, 4)
        excluded = Doconsider(processors=8).run(loop)
        included = Doconsider(processors=8, include_reorder_cost=True).run(
            loop
        )
        assert included.extras["reorder_cost_included"]
        assert (
            included.total_cycles
            == excluded.total_cycles
            + excluded.extras["reorder_cycles_modeled"]
        )


class TestWavefrontValidity:
    @pytest.mark.parametrize("seed", range(4))
    def test_levels_ascend_along_every_edge(self, seed):
        loop = random_irregular_loop(100, seed=seed)
        graph = DependenceGraph.from_loop(loop)
        _, schedule = level_order(loop)
        schedule.validate(graph)  # raises on violation

    def test_average_width(self):
        loop = chain_loop(20, 4)
        _, schedule = level_order(loop)
        assert schedule.average_width() == pytest.approx(4.0)


class TestReorderRespectsDependenceDag:
    """Property: over random ``IndirectSubscript`` loops, the doconsider
    order places every writer of a true dependence before its reader
    (the DAG from ``ir/analysis.dependence_pairs``), and the wavefront
    levels strictly ascend along every such edge."""

    @given(
        n=st.integers(0, 80),
        seed=st.integers(0, 5000),
        max_terms=st.integers(0, 6),
    )
    @settings(max_examples=60, deadline=None)
    def test_level_order_respects_true_dependence_dag(
        self, n, seed, max_terms
    ):
        loop = random_irregular_loop(n, seed=seed, max_terms=max_terms)
        order, schedule = level_order(loop)
        assert sorted(order.tolist()) == list(range(n))
        pos = inverse_permutation(order)
        pairs = dependence_pairs(loop)
        if len(pairs):
            assert (pos[pairs[:, 0]] < pos[pairs[:, 1]]).all()
            assert (
                schedule.levels[pairs[:, 0]] < schedule.levels[pairs[:, 1]]
            ).all()

    @given(n=st.integers(1, 60), seed=st.integers(0, 3000))
    @settings(max_examples=25, deadline=None)
    def test_doconsider_run_output_matches_oracle(self, n, seed):
        loop = random_irregular_loop(n, seed=seed)
        result = Doconsider(processors=8).run(loop)
        assert_matches_oracle(result.y, loop)
