"""Tests for the classic (a-priori distance) doacross baseline."""

import pytest

from repro.core.doacross import PreprocessedDoacross
from repro.errors import InvalidLoopError, OutputDependenceError
from repro.ir.accesses import ReadTable
from repro.ir.loop import IrregularLoop
from repro.ir.subscript import AffineSubscript
from repro.workloads.synthetic import chain_loop
from tests.conftest import assert_matches_oracle


def classic(loop, distance, processors):
    """The classic baseline on its own machine: the backend entry point
    behind :meth:`PreprocessedDoacross.runner`."""
    return PreprocessedDoacross(processors=processors).runner().run_classic(
        loop, distance
    )


class TestEligibility:
    def test_wrong_distance_rejected(self):
        with pytest.raises(InvalidLoopError, match="actual uniform distance"):
            classic(chain_loop(50, 3), 2, processors=4)

    def test_loop_without_uniform_distance_rejected(self):
        # Distances 1 and 2 mixed.
        reads = ReadTable.from_lists([[], [(0, 0.5)], [(0, 0.5)], []])
        loop = IrregularLoop(
            n=4,
            y_size=4,
            write_subscript=AffineSubscript(1, 0),
            reads=reads,
        )
        with pytest.raises(InvalidLoopError):
            classic(loop, 1, processors=4)

    def test_antidependence_rejected(self):
        # Uniform true distance 1 but also an antidependence: in-place
        # classic execution would clobber the old value.
        reads = ReadTable.from_lists([[(1, 0.5)], [(0, 0.5)]])
        loop = IrregularLoop(
            n=2,
            y_size=2,
            write_subscript=AffineSubscript(1, 0),
            reads=reads,
        )
        with pytest.raises(InvalidLoopError, match="antidependencies"):
            classic(loop, 1, processors=4)

    def test_distance_must_be_positive(self):
        with pytest.raises(InvalidLoopError, match=">= 1"):
            classic(chain_loop(10, 1), 0, processors=4)

    @pytest.mark.parametrize("value", [-1, 10**6], ids=["negative", "too-large"])
    @pytest.mark.parametrize("array", ["write", "read"])
    def test_out_of_range_subscript_rejected(self, array, value):
        # Checked before anything runs: NumPy would wrap a negative index
        # to the last element, and an oversized one would die bare.
        loop = chain_loop(50, 1)
        (loop.write if array == "write" else loop.reads.index)[5] = value
        with pytest.raises(InvalidLoopError, match="out of range"):
            classic(loop, 1, processors=4)

    def test_duplicated_write_rejected(self):
        loop = chain_loop(50, 1)
        loop.write[5] = loop.write[4]
        with pytest.raises(OutputDependenceError):
            classic(loop, 1, processors=4)


class TestExecution:
    @pytest.mark.parametrize("d", [1, 2, 5])
    def test_values_correct(self, d):
        loop = chain_loop(120, d)
        result = classic(loop, d, processors=8)
        assert_matches_oracle(result.y, loop)

    def test_strategy_label_and_extras(self):
        result = classic(chain_loop(40, 2), 2, processors=4)
        assert result.strategy == "classic-doacross"
        assert result.extras["distance"] == 2

    def test_larger_distance_means_more_parallelism(self):
        runner = PreprocessedDoacross(processors=16).runner()
        tight = runner.run_classic(chain_loop(300, 1), 1)
        loose = runner.run_classic(chain_loop(300, 8), 8)
        assert loose.total_cycles < tight.total_cycles

    def test_cheaper_than_preprocessed_when_applicable(self):
        """The paper's framing: when the compiler knows the distance, the
        classic doacross skips the inspector, the postprocessor, and every
        per-term iter check — it must beat the preprocessed doacross."""
        loop = chain_loop(400, 8)
        baseline = classic(loop, 8, processors=16)
        preprocessed = PreprocessedDoacross(processors=16).run(loop)
        assert baseline.total_cycles < preprocessed.total_cycles

    def test_waits_accounted_on_tight_chain(self):
        result = classic(chain_loop(100, 1), 1, processors=8)
        assert result.wait_cycles > 0
