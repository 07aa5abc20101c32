"""Tests for the doall baseline."""

import pytest

from repro.core.doacross import PreprocessedDoacross
from repro.errors import InvalidLoopError, OutputDependenceError
from repro.ir.accesses import ReadTable
from repro.ir.loop import IrregularLoop
from repro.ir.subscript import AffineSubscript
from repro.workloads.synthetic import random_irregular_loop
from repro.workloads.testloop import make_test_loop
from tests.conftest import assert_matches_oracle


def doall(loop, processors):
    """The doall baseline on its own machine: the backend entry point
    behind :meth:`PreprocessedDoacross.runner`."""
    return PreprocessedDoacross(processors=processors).runner().run_doall(loop)


def independent_loop(n=100, seed=0):
    """Reads only from a never-written region: strictly independent."""
    loop = random_irregular_loop(n, max_terms=0, seed=seed)
    return loop


class TestValidation:
    def test_true_dependence_rejected(self):
        reads = ReadTable.from_lists([[], [(0, 1.0)]])
        loop = IrregularLoop(
            n=2, y_size=2, write_subscript=AffineSubscript(1, 0), reads=reads
        )
        with pytest.raises(InvalidLoopError, match="asserted independence"):
            doall(loop, processors=4)

    def test_antidependence_rejected(self):
        reads = ReadTable.from_lists([[(1, 1.0)], []])
        loop = IrregularLoop(
            n=2, y_size=2, write_subscript=AffineSubscript(1, 0), reads=reads
        )
        with pytest.raises(InvalidLoopError):
            doall(loop, processors=4)

    @pytest.mark.parametrize("value", [-1, 10**6], ids=["negative", "too-large"])
    @pytest.mark.parametrize("array", ["write", "read"])
    def test_out_of_range_subscript_rejected(self, array, value):
        # Checked before anything runs: NumPy would wrap a negative index
        # to the last element, and an oversized one would die bare.
        loop = make_test_loop(40, 2, 7)
        (loop.write if array == "write" else loop.reads.index)[5] = value
        with pytest.raises(InvalidLoopError, match="out of range"):
            doall(loop, processors=4)

    def test_duplicated_write_rejected(self):
        loop = make_test_loop(40, 2, 7)
        loop.write[5] = loop.write[4]
        with pytest.raises(OutputDependenceError):
            doall(loop, processors=4)


class TestExecution:
    @pytest.mark.parametrize("seed", range(4))
    def test_values_correct(self, seed):
        loop = independent_loop(seed=seed)
        result = doall(loop, processors=8)
        assert_matches_oracle(result.y, loop)

    def test_odd_l_test_loop_is_valid_doall(self):
        """Odd-L Figure-4 loops read only never-written elements."""
        loop = make_test_loop(n=200, m=2, l=5)
        result = doall(loop, processors=16)
        assert_matches_oracle(result.y, loop)

    def test_doall_beats_preprocessed_on_independent_loops(self):
        """The whole point of the odd-L Figure-6 plateau: the preprocessed
        doacross pays inspector + checks + postprocessor that a doall
        doesn't."""
        loop = make_test_loop(n=2000, m=1, l=3)
        baseline = doall(loop, processors=16)
        preprocessed = PreprocessedDoacross(processors=16).run(loop)
        assert baseline.total_cycles < preprocessed.total_cycles
        assert baseline.efficiency > 2 * preprocessed.efficiency

    def test_near_linear_scaling(self):
        loop = make_test_loop(n=4000, m=2, l=3)
        t1 = doall(loop, processors=1).total_cycles
        t16 = doall(loop, processors=16).total_cycles
        assert t1 / t16 > 12  # barriers cost a little

    def test_no_wait_cycles(self):
        result = doall(independent_loop(), processors=8)
        assert result.wait_cycles == 0
        assert result.strategy == "doall"
