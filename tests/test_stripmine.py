"""Tests for the strip-mined doacross (paper §2.3)."""

import pytest

from repro.core.doacross import PreprocessedDoacross
from repro.errors import InvalidLoopError
from repro.workloads.synthetic import chain_loop, random_irregular_loop
from repro.workloads.testloop import make_test_loop
from tests.conftest import assert_matches_oracle


class TestSemantics:
    @pytest.mark.parametrize("block", [1, 7, 32, 100, 1000])
    def test_any_block_size_preserves_semantics(self, runner16, block):
        loop = make_test_loop(n=150, m=2, l=6)
        result = runner16.run_stripmined(loop, block=block)
        assert_matches_oracle(result.y, loop)

    @pytest.mark.parametrize("seed", range(5))
    def test_random_loops(self, runner16, seed):
        loop = random_irregular_loop(90, seed=seed)
        result = runner16.run_stripmined(loop, block=16)
        assert_matches_oracle(result.y, loop)

    def test_cross_block_dependencies_resolved_through_y(self, runner16):
        """A distance-d chain with block < d: every dependence crosses a
        block boundary and must be satisfied via the postprocessed y."""
        loop = chain_loop(120, 30)
        result = runner16.run_stripmined(loop, block=10)
        assert_matches_oracle(result.y, loop)
        assert result.wait_cycles == 0  # cross-block deps never busy-wait

    def test_intra_block_dependencies_still_synchronize(self, runner16):
        loop = chain_loop(120, 1)
        result = runner16.run_stripmined(loop, block=60)
        assert_matches_oracle(result.y, loop)
        assert result.wait_cycles > 0

    def test_block_must_be_positive(self, runner16, small_test_loop):
        with pytest.raises(InvalidLoopError):
            runner16.run_stripmined(small_test_loop, block=0)


class TestTradeoffs:
    def test_scratch_footprint_shrinks_with_block(self, runner16):
        loop = make_test_loop(n=1000, m=1, l=4)
        small = runner16.run_stripmined(loop, block=50)
        large = runner16.run_stripmined(loop, block=500)
        assert (
            small.extras["modeled_scratch_elements"]
            < large.extras["modeled_scratch_elements"]
        )
        assert (
            large.extras["modeled_scratch_elements"]
            < large.extras["full_scratch_elements"]
        )

    def test_barrier_overhead_grows_as_blocks_shrink(self, runner16):
        loop = make_test_loop(n=600, m=1, l=3)
        few = runner16.run_stripmined(loop, block=300)
        many = runner16.run_stripmined(loop, block=30)
        assert many.breakdown.barriers > few.breakdown.barriers

    def test_block_count_recorded(self, runner16):
        loop = make_test_loop(n=100, m=1, l=3)
        result = runner16.run_stripmined(loop, block=30)
        assert result.extras["blocks"] == 4
        assert result.strategy == "stripmined-doacross"

    def test_single_block_close_to_unblocked(self, runner16):
        """block >= n degenerates to one inner doacross; only identical
        phase structure, so totals must match the unblocked run exactly."""
        loop = make_test_loop(n=200, m=2, l=6)
        unblocked = runner16.run(loop)
        one_block = runner16.run_stripmined(loop, block=200)
        assert one_block.total_cycles == unblocked.total_cycles


class TestFacade:
    """``PreprocessedDoacross.run_stripmined`` is the public strip-mined
    entry point (same machine, workspace and default schedule as
    ``run``)."""

    def test_stripmined_doacross_class(self):
        loop = make_test_loop(n=80, m=1, l=4)
        runner = PreprocessedDoacross(processors=8)
        result = runner.run_stripmined(loop, 20)
        assert_matches_oracle(result.y, loop)
        assert result.extras["block"] == 20

    def test_facade_block_override(self):
        """The block size is per call: one runner, any blocking."""
        loop = make_test_loop(n=80, m=1, l=4)
        runner = PreprocessedDoacross(processors=8)
        assert runner.run_stripmined(loop, 20).extras["blocks"] == 4
        assert runner.run_stripmined(loop, block=40).extras["block"] == 40

    def test_facade_rejects_bad_block(self):
        runner = PreprocessedDoacross(processors=2)
        with pytest.raises(InvalidLoopError, match="block must be >= 1"):
            runner.run_stripmined(make_test_loop(n=80, m=1, l=4), block=-3)
        assert runner.workspace.is_clean()

    def test_facade_wraps_existing_runner(self):
        """Strip-mined runs go through the runner's own backend: its
        machine, its workspace, its default schedule and chunk."""
        pd = PreprocessedDoacross(processors=4, schedule="dynamic", chunk=2)
        assert pd.runner().machine is pd.machine
        assert pd.runner().workspace is pd.workspace
        result = pd.run_stripmined(make_test_loop(n=80, m=1, l=4), 10)
        assert result.schedule == "DynamicSchedule(chunk=2)"
        assert pd.workspace.invocations == 1
