"""Tests for the linear-subscript doacross variant (paper §2.3)."""

import pytest

from repro.core.doacross import PreprocessedDoacross
from repro.errors import InvalidLoopError
from repro.machine.costs import CostModel
from repro.workloads.synthetic import random_irregular_loop
from repro.workloads.testloop import make_test_loop
from repro.sparse.stencils import five_point
from repro.sparse.ilu import ilu0
from repro.sparse.trisolve import lower_solve_loop
import numpy as np

from tests.conftest import assert_matches_oracle


class TestSemantics:
    @pytest.mark.parametrize("l", [2, 3, 4, 8, 13, 14])
    @pytest.mark.parametrize("m", [1, 4])
    def test_matches_oracle_on_figure4(self, runner16, m, l):
        loop = make_test_loop(n=120, m=m, l=l)
        result = runner16.run(loop, linear=True)
        assert_matches_oracle(result.y, loop)

    def test_matches_standard_variant_values(self, runner16):
        loop = make_test_loop(n=150, m=3, l=6)
        standard = runner16.run(loop)
        linear = runner16.run(loop, linear=True)
        np.testing.assert_allclose(standard.y, linear.y)

    def test_trisolve_identity_write_subscript(self, runner16):
        L, _ = ilu0(five_point(8, 8))
        rhs = np.ones(64)
        loop = lower_solve_loop(L, rhs)
        result = runner16.run(loop, linear=True)
        assert_matches_oracle(result.y, loop)

    def test_indirect_write_rejected(self, runner16):
        loop = random_irregular_loop(40, seed=0)
        with pytest.raises(InvalidLoopError, match="affine"):
            runner16.run(loop, linear=True)


class TestCostSavings:
    def test_no_inspector_phase(self, runner16):
        loop = make_test_loop(n=200, m=1, l=5)
        result = runner16.run(loop, linear=True)
        assert [p.name for p in result.phases] == [
            "executor",
            "postprocessor",
        ]
        assert result.breakdown.inspector == 0

    def test_strictly_cheaper_than_standard(self, runner16):
        """§2.3: eliminating the preprocessing phase (and one barrier)
        must show up as a strictly smaller makespan."""
        loop = make_test_loop(n=2000, m=1, l=7)
        standard = runner16.run(loop)
        linear = runner16.run(loop, linear=True)
        saved = standard.total_cycles - linear.total_cycles
        expected = standard.breakdown.inspector + CostModel().barrier(16)
        assert saved == expected

    def test_strategy_label(self, runner16):
        result = runner16.run(make_test_loop(n=50, m=1, l=4), linear=True)
        assert result.strategy == "linear-doacross"


class TestFacade:
    def test_linear_doacross_class(self):
        loop = make_test_loop(n=100, m=2, l=8)
        result = PreprocessedDoacross(processors=8).run(loop, linear=True)
        assert_matches_oracle(result.y, loop)
        assert result.breakdown.inspector == 0
