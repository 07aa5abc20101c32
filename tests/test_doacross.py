"""Tests for the preprocessed doacross on the simulated machine: semantic
equivalence, phase structure, workspace reuse, overhead plateaus."""

import numpy as np
import pytest

from repro.core.doacross import PreprocessedDoacross, parallelize
from repro.core.sequential import sequential_time
from repro.core.workspace import DoacrossWorkspace
from repro.errors import ScheduleError
from repro.machine.costs import CostModel
from repro.workloads.synthetic import chain_loop, random_irregular_loop
from repro.workloads.testloop import make_test_loop
from tests.conftest import assert_matches_oracle


class TestSemanticEquivalence:
    @pytest.mark.parametrize("l", [1, 2, 4, 6, 7, 10, 14])
    @pytest.mark.parametrize("m", [1, 3])
    def test_figure4_loop_all_parameters(self, runner16, m, l):
        loop = make_test_loop(n=150, m=m, l=l)
        result = runner16.run(loop)
        assert_matches_oracle(result.y, loop)

    @pytest.mark.parametrize("seed", range(8))
    def test_random_loops(self, runner16, seed):
        loop = random_irregular_loop(100, seed=seed)
        assert_matches_oracle(runner16.run(loop).y, loop)

    @pytest.mark.parametrize("seed", range(4))
    def test_random_loops_external_init(self, runner16, seed):
        loop = random_irregular_loop(100, seed=seed, external_init=True)
        assert_matches_oracle(runner16.run(loop).y, loop)

    @pytest.mark.parametrize(
        "schedule,chunk",
        [
            ("cyclic", 1),
            ("cyclic", 7),
            ("block", 1),
            ("dynamic", 1),
            ("dynamic", 5),
            ("guided", 2),
        ],
    )
    def test_every_schedule_kind(self, schedule, chunk):
        runner = PreprocessedDoacross(
            processors=8, schedule=schedule, chunk=chunk
        )
        loop = make_test_loop(n=120, m=2, l=6)
        assert_matches_oracle(runner.run(loop).y, loop)

    @pytest.mark.parametrize("p", [1, 2, 3, 16, 64])
    def test_any_processor_count(self, p):
        runner = PreprocessedDoacross(processors=p)
        loop = random_irregular_loop(60, seed=1)
        assert_matches_oracle(runner.run(loop).y, loop)

    def test_chain_loop(self, runner16):
        loop = chain_loop(200, 5)
        assert_matches_oracle(runner16.run(loop).y, loop)

    def test_empty_loop(self, runner16):
        loop = random_irregular_loop(0, seed=0)
        result = runner16.run(loop)
        np.testing.assert_allclose(result.y, loop.y0)


class TestPhaseStructure:
    def test_three_phases_present(self, runner16, small_test_loop):
        result = runner16.run(small_test_loop)
        assert [p.name for p in result.phases] == [
            "inspector",
            "executor",
            "postprocessor",
        ]

    def test_breakdown_sums_to_total(self, runner16, small_test_loop):
        result = runner16.run(small_test_loop)
        assert result.breakdown.total == result.total_cycles
        assert result.breakdown.barriers == 3 * CostModel().barrier(16)

    def test_inspector_and_post_cost_scale_with_n(self):
        cm = CostModel()
        runner = PreprocessedDoacross(processors=4)
        loop = make_test_loop(n=400, m=1, l=3)
        result = runner.run(loop)
        assert result.breakdown.inspector == 100 * cm.pre_iter
        assert result.breakdown.postprocessor == 100 * cm.post_iter

    def test_all_iterations_executed_once(self, runner16, small_test_loop):
        result = runner16.run(small_test_loop)
        executor = next(p for p in result.phases if p.name == "executor")
        assert executor.total_iterations == small_test_loop.n

    def test_wait_cycles_zero_without_dependencies(self, runner16):
        loop = make_test_loop(n=300, m=2, l=7)  # odd L: no dependencies
        assert runner16.run(loop).wait_cycles == 0

    def test_wait_cycles_positive_with_tight_chain(self, runner16):
        loop = make_test_loop(n=300, m=1, l=4)  # distance-1 chain
        assert runner16.run(loop).wait_cycles > 0

    def test_flags_set_once_per_iteration(self, runner16, small_test_loop):
        result = runner16.run(small_test_loop)
        executor = next(p for p in result.phases if p.name == "executor")
        assert sum(p.flag_sets for p in executor.processors) == (
            small_test_loop.n
        )


class TestDeterminism:
    def test_identical_runs_identical_cycles(self, small_test_loop):
        a = PreprocessedDoacross(processors=16).run(small_test_loop)
        b = PreprocessedDoacross(processors=16).run(small_test_loop)
        assert a.total_cycles == b.total_cycles
        assert a.wait_cycles == b.wait_cycles
        assert a.breakdown.as_dict() == b.breakdown.as_dict()


class TestWorkspaceReuse:
    def test_postprocess_leaves_workspace_clean(self):
        ws = DoacrossWorkspace()
        runner = PreprocessedDoacross(processors=8, workspace=ws)
        runner.run(make_test_loop(n=100, m=2, l=6))
        assert ws.is_clean()

    def test_reuse_across_different_loops(self):
        """The paper's Figure-3 design point: one workspace, many loops."""
        ws = DoacrossWorkspace()
        runner = PreprocessedDoacross(processors=8, workspace=ws)
        for seed in range(6):
            loop = random_irregular_loop(80, seed=seed)
            assert_matches_oracle(runner.run(loop).y, loop)
            assert ws.is_clean()
        assert ws.invocations == 6

    def test_workspace_grows_to_largest_loop(self):
        ws = DoacrossWorkspace()
        runner = PreprocessedDoacross(processors=4, workspace=ws)
        runner.run(random_irregular_loop(20, seed=0))
        small_size = ws.y_size
        runner.run(random_irregular_loop(200, seed=1))
        assert ws.y_size > small_size


class TestEfficiencyPlateaus:
    """Figure 6's headline numbers, asserted analytically at modest n."""

    def test_m1_plateau_near_one_third(self):
        runner = PreprocessedDoacross(processors=16)
        result = runner.run(make_test_loop(n=8000, m=1, l=3))
        assert result.efficiency == pytest.approx(1 / 3, abs=0.04)

    def test_m5_plateau_near_half(self):
        runner = PreprocessedDoacross(processors=16)
        result = runner.run(make_test_loop(n=8000, m=5, l=3))
        assert result.efficiency == pytest.approx(0.49, abs=0.04)

    def test_dependences_reduce_efficiency(self):
        runner = PreprocessedDoacross(processors=16)
        free = runner.run(make_test_loop(n=2000, m=1, l=3))
        chained = runner.run(make_test_loop(n=2000, m=1, l=4))
        assert chained.efficiency < free.efficiency

    def test_longer_distances_help(self):
        runner = PreprocessedDoacross(processors=16)
        close = runner.run(make_test_loop(n=2000, m=1, l=4))
        far = runner.run(make_test_loop(n=2000, m=1, l=12))
        assert far.efficiency > close.efficiency

    def test_sequential_cycles_match_formula(self, runner16):
        loop = make_test_loop(n=500, m=2, l=5)
        result = runner16.run(loop)
        assert result.sequential_cycles == sequential_time(loop, CostModel())


class TestExecutionOrder:
    def test_valid_reorder_preserves_semantics(self, runner16):
        loop = make_test_loop(n=100, m=1, l=6)  # distance-2 chain
        # Evens before odds is legal here iff it keeps writers before
        # readers; distance-2 deps connect same-parity iterations in order.
        order = np.concatenate(
            [np.arange(0, 100, 2), np.arange(1, 100, 2)]
        )
        result = runner16.runner().run(
            loop, order=order, order_label="evens-first"
        )
        assert_matches_oracle(result.y, loop)
        assert result.order_label == "evens-first"

    def test_illegal_order_rejected_not_deadlocked(self, runner16):
        loop = make_test_loop(n=50, m=1, l=4)  # distance-1 chain
        with pytest.raises(ScheduleError, match="violates true dependence"):
            runner16.runner().run(loop, order=np.arange(50)[::-1])

    def test_non_permutation_rejected(self, runner16, small_test_loop):
        bad = np.zeros(small_test_loop.n, dtype=np.int64)
        with pytest.raises(ScheduleError, match="not a permutation"):
            runner16.runner().run(small_test_loop, order=bad)


class TestParallelize:
    def test_auto_linear_for_affine_writes(self):
        loop = make_test_loop(n=100, m=1, l=5)
        result, plan = parallelize(loop, processors=8)
        assert plan.strategy == "linear"
        assert_matches_oracle(result.y, loop)

    def test_auto_preprocessed_for_indirect_writes(self):
        loop = random_irregular_loop(80, seed=2)
        result, plan = parallelize(loop, processors=8)
        assert plan.strategy == "preprocessed"
        assert_matches_oracle(result.y, loop)

    def test_auto_classic_with_distance_hint(self):
        loop = chain_loop(100, 4)
        result, plan = parallelize(loop, processors=8, known_distance=4)
        assert plan.strategy == "classic"
        assert_matches_oracle(result.y, loop)

    def test_auto_doall_with_assertion(self):
        loop = random_irregular_loop(50, max_terms=0, seed=0)
        result, plan = parallelize(loop, processors=8, assert_independent=True)
        assert plan.strategy == "doall"
        assert_matches_oracle(result.y, loop)

    def test_plan_recorded_in_extras(self):
        loop = random_irregular_loop(30, seed=4)
        result, _ = parallelize(loop, processors=4)
        assert "plan" in result.extras
