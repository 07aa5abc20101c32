"""Tests for the doconsider (wavefront) reordering."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends.base import inverse_permutation
from repro.core.doacross import PreprocessedDoacross
from repro.errors import ScheduleError
from repro.graph.depgraph import DependenceGraph
from repro.graph.levels import compute_levels
from repro.ir.analysis import dependence_pairs
from repro.workloads.synthetic import chain_loop, random_irregular_loop
from tests.conftest import assert_matches_oracle


def doconsider(loop, processors=8):
    return PreprocessedDoacross(processors=processors).run(
        loop, reorder="doconsider"
    )


class TestLevelOrder:
    """The doconsider order is ``compute_levels(loop).order``."""

    def test_chain_levels_are_iteration_index(self):
        schedule = compute_levels(chain_loop(20, 1))
        np.testing.assert_array_equal(schedule.levels, np.arange(20))
        np.testing.assert_array_equal(schedule.order, np.arange(20))

    def test_order_is_permutation_grouped_by_level(self):
        schedule = compute_levels(random_irregular_loop(120, seed=3))
        order = schedule.order
        assert sorted(order.tolist()) == list(range(120))
        levels_in_order = schedule.levels[order]
        assert all(
            a <= b for a, b in zip(levels_in_order, levels_in_order[1:])
        )


class TestDoconsiderRuns:
    @pytest.mark.parametrize("seed", range(6))
    def test_semantics_preserved(self, seed):
        loop = random_irregular_loop(90, seed=seed)
        result = doconsider(loop)
        assert_matches_oracle(result.y, loop)

    def test_strategy_and_extras(self):
        loop = chain_loop(60, 3)
        result = doconsider(loop)
        assert result.strategy == "preprocessed-doacross"
        assert result.extras["n_levels"] == 20
        assert result.extras["max_wavefront"] == 3
        assert result.order_label == "doconsider(levels=20)"
        linear = PreprocessedDoacross(processors=8).run(
            loop, reorder="doconsider", linear=True
        )
        assert linear.strategy == "linear-doacross"
        assert linear.order_label == "doconsider(levels=20)"

    def test_wraps_existing_runner(self):
        runner = PreprocessedDoacross(processors=4)
        result = runner.run(chain_loop(30, 2), reorder="doconsider")
        assert result.processors == 4

    def test_reordering_never_hurts_chain_loops(self):
        """For a distance-d chain, wavefront order groups independent
        iterations; it must not be slower than natural order."""
        loop = chain_loop(400, 8)
        runner = PreprocessedDoacross(processors=16)
        natural = runner.run(loop)
        reordered = runner.run(loop, reorder="doconsider")
        assert reordered.total_cycles <= natural.total_cycles

    def test_reorder_cost_reported_but_excluded_by_default(self):
        loop = chain_loop(100, 4)
        runner = PreprocessedDoacross(processors=8)
        result = runner.run(loop, reorder="doconsider")
        assert result.extras["reorder_cycles_modeled"] > 0
        # The makespan is the reordered run's alone.
        own_order = runner.runner().run(
            loop, order=compute_levels(loop).order
        )
        assert result.total_cycles == own_order.total_cycles

    def test_default_reorder_and_override(self):
        loop = chain_loop(60, 3)
        runner = PreprocessedDoacross(processors=8, reorder="doconsider")
        assert runner.run(loop).order_label == "doconsider(levels=20)"
        assert runner.run(loop, reorder="natural").order_label == "natural"
        # Blocks cut the natural order, whatever the default.
        assert runner.run_stripmined(loop, 16).order_label == "natural"

    def test_unknown_reorder_kind_is_refused(self):
        with pytest.raises(ScheduleError, match="reorder"):
            PreprocessedDoacross(reorder="bogus")
        runner = PreprocessedDoacross(processors=2)
        with pytest.raises(ScheduleError, match="reorder"):
            runner.run(chain_loop(10, 1), reorder="bogus")
        with pytest.raises(ScheduleError, match="reorder"):
            runner.run_amortized(chain_loop(10, 1), 2, reorder="bogus")

    def test_labelled_as_a_planned_run(self):
        from repro import PlanSpec, parallelize

        loop = random_irregular_loop(120, seed=4)
        planned, _ = parallelize(
            loop, spec=PlanSpec(backend="simulated", reorder="doconsider")
        )
        classic = PreprocessedDoacross().run(loop, reorder="doconsider")
        assert classic.order_label == planned.order_label
        assert classic.strategy == planned.strategy


class TestWavefrontValidity:
    @pytest.mark.parametrize("seed", range(4))
    def test_levels_ascend_along_every_edge(self, seed):
        loop = random_irregular_loop(100, seed=seed)
        graph = DependenceGraph.from_loop(loop)
        compute_levels(loop).validate(graph)  # raises on violation

    def test_average_width(self):
        loop = chain_loop(20, 4)
        assert compute_levels(loop).average_width() == pytest.approx(4.0)


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
        schedule = compute_levels(loop)
        order = schedule.order
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
        assert_matches_oracle(doconsider(loop).y, loop)
