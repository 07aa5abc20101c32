"""Tests for the amortized-inspector doacross."""

import numpy as np
import pytest

from repro.core.doacross import PreprocessedDoacross
from repro.core.workspace import DoacrossWorkspace
from repro.errors import InvalidLoopError
from repro.machine.costs import CostModel
from repro.sparse.ilu import ilu0
from repro.sparse.stencils import five_point
from repro.sparse.trisolve import lower_solve_loop, solve_lower_unit
from repro.workloads.synthetic import random_irregular_loop
from repro.workloads.testloop import make_test_loop


def amortized(loop, instances, processors=8, **kw):
    return PreprocessedDoacross(processors=processors).run_amortized(
        loop, instances, **kw
    )


def iterate_oracle(loop, instances, rhs_sequence=None):
    """Sequential composition of the loop with itself."""
    y = loop.y0.copy()
    for k in range(instances):
        clone = loop.with_name(loop.name)
        clone.y0 = y
        if rhs_sequence is not None:
            clone.init_values = np.asarray(rhs_sequence[k], dtype=np.float64)
        y = clone.run_sequential()
    return y


class TestSemantics:
    @pytest.mark.parametrize("instances", [1, 2, 5])
    def test_matches_iterated_oracle(self, instances):
        loop = make_test_loop(n=120, m=2, l=6)
        result = amortized(loop, instances)
        np.testing.assert_allclose(
            result.y, iterate_oracle(loop, instances), rtol=1e-12
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_random_loops(self, seed):
        loop = random_irregular_loop(80, seed=seed)
        result = amortized(loop, 3)
        np.testing.assert_allclose(
            result.y, iterate_oracle(loop, 3), rtol=1e-12
        )

    def test_per_instance_rhs(self):
        """Krylov-style: same triangular solve, fresh rhs each instance."""
        L, _ = ilu0(five_point(7, 7))
        n = L.n_rows
        rng = np.random.default_rng(0)
        rhs_sequence = [rng.normal(size=n) for _ in range(4)]
        loop = lower_solve_loop(L, np.zeros(n))
        result = amortized(loop, 4, rhs_sequence=rhs_sequence)
        # The last solve determines the final y entirely (external init).
        np.testing.assert_allclose(
            result.y, solve_lower_unit(L, rhs_sequence[-1]), rtol=1e-12
        )

    def test_rhs_sequence_validation(self):
        loop = make_test_loop(n=10, m=1, l=3)  # old-value init
        with pytest.raises(InvalidLoopError, match="external-init"):
            amortized(loop, 2, processors=2, rhs_sequence=[np.zeros(10)] * 2)

    def test_rhs_sequence_length_checked(self):
        L, _ = ilu0(five_point(3, 3))
        loop = lower_solve_loop(L, np.zeros(9))
        with pytest.raises(InvalidLoopError, match="entries"):
            amortized(loop, 3, processors=2, rhs_sequence=[np.zeros(9)] * 2)

    def test_instances_validated(self):
        loop = make_test_loop(n=10, m=1, l=3)
        with pytest.raises(InvalidLoopError):
            amortized(loop, 0, processors=2)


class TestCostStructure:
    def test_single_inspector_run(self):
        cm = CostModel()
        loop = make_test_loop(n=400, m=1, l=3)
        result = amortized(loop, 5, processors=4)
        # Inspector span equals ONE inspector pass, not five.
        assert result.breakdown.inspector == 100 * cm.pre_iter
        assert result.extras["inspector_runs"] == 1
        assert result.extras["instances"] == 5

    def test_reduced_postprocessor_between_instances(self):
        cm = CostModel()
        loop = make_test_loop(n=400, m=1, l=3)
        result = amortized(loop, 3, processors=4)
        # Two reduced posts + one full post, 100 iterations each on 4 procs.
        expected = 100 * (2 * cm.post_iter_amortized + cm.post_iter)
        assert result.breakdown.postprocessor == expected

    @staticmethod
    def gain(loop, instances):
        """Cycles of ``instances`` full pipelines over the amortized run's."""
        runner = PreprocessedDoacross(processors=16)
        full = runner.run(loop).total_cycles
        return instances * full / runner.run_amortized(loop, instances).total_cycles

    def test_amortization_beats_repeated_full_runs(self):
        loop = make_test_loop(n=1000, m=1, l=5)
        assert self.gain(loop, 10) > 1.0

    def test_gain_grows_with_instances(self):
        loop = make_test_loop(n=1000, m=1, l=5)
        assert self.gain(loop, 10) > self.gain(loop, 2)

    def test_efficiency_baseline_scales_with_instances(self):
        loop = make_test_loop(n=500, m=2, l=3)
        cm = CostModel()
        result = amortized(loop, 4)
        from repro.core.sequential import sequential_time

        assert result.sequential_cycles == 4 * sequential_time(loop, cm)


class TestWorkspaceDiscipline:
    def test_workspace_clean_after_final_instance(self):
        ws = DoacrossWorkspace()
        pd = PreprocessedDoacross(processors=4, workspace=ws)
        loop = random_irregular_loop(60, seed=1)
        pd.run_amortized(loop, 4)
        assert ws.is_clean()

    def test_reusable_after_amortized_run(self):
        ws = DoacrossWorkspace()
        pd = PreprocessedDoacross(processors=4, workspace=ws)
        loop = random_irregular_loop(60, seed=2)
        pd.run_amortized(loop, 2)
        other = random_irregular_loop(60, seed=3)
        result = pd.run(other)
        np.testing.assert_allclose(result.y, other.run_sequential())


class TestOrder:
    def test_doconsider_order_keeps_the_values(self):
        loop = random_irregular_loop(80, seed=5)
        pd = PreprocessedDoacross(processors=8)
        natural = pd.run_amortized(loop, 3)
        reordered = pd.run_amortized(loop, 3, reorder="doconsider")
        np.testing.assert_allclose(reordered.y, natural.y, rtol=1e-12)
        assert reordered.order_label.startswith("doconsider(levels=")
        # The default order is the runner's own.
        default = PreprocessedDoacross(processors=8, reorder="doconsider")
        assert default.run_amortized(loop, 3).order_label == reordered.order_label
