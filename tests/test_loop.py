"""Tests for the normalized irregular-loop form and its sequential oracle."""

import numpy as np
import pytest

from repro.errors import InvalidLoopError, OutputDependenceError
from repro.ir.accesses import ReadTable
from repro.ir.loop import INIT_EXTERNAL, INIT_OLD_VALUE, IrregularLoop
from repro.ir.subscript import AffineSubscript, IndirectSubscript
from repro.machine.costs import WorkProfile


def simple_loop(write, reads, y_size=None, **kw):
    return IrregularLoop.from_arrays(write, reads, y_size=y_size, **kw)


class TestValidation:
    def test_output_dependence_detected(self):
        reads = ReadTable.from_lists([[], [], []])
        with pytest.raises(OutputDependenceError) as exc:
            simple_loop([0, 2, 0], reads)
        assert exc.value.index == 0
        assert (exc.value.first_writer, exc.value.second_writer) == (0, 2)

    def test_write_out_of_range(self):
        reads = ReadTable.from_lists([[]])
        with pytest.raises(InvalidLoopError, match="write index out of range"):
            IrregularLoop(
                n=1,
                y_size=1,
                write_subscript=IndirectSubscript([3]),
                reads=reads,
            )

    def test_read_out_of_range(self):
        reads = ReadTable.from_lists([[(9, 1.0)]])
        with pytest.raises(InvalidLoopError, match="read index out of range"):
            simple_loop([0], reads, y_size=1)

    def test_read_table_size_mismatch(self):
        reads = ReadTable.from_lists([[], []])
        with pytest.raises(InvalidLoopError, match="read table covers"):
            IrregularLoop(
                n=3,
                y_size=3,
                write_subscript=AffineSubscript(1, 0),
                reads=reads,
            )

    def test_external_init_requires_values(self):
        reads = ReadTable.from_lists([[]])
        with pytest.raises(InvalidLoopError, match="requires init_values"):
            simple_loop([0], reads, init_kind=INIT_EXTERNAL)

    def test_old_value_init_rejects_values(self):
        reads = ReadTable.from_lists([[]])
        with pytest.raises(InvalidLoopError, match="only allowed"):
            simple_loop(
                [0], reads, init_kind=INIT_OLD_VALUE, init_values=[1.0]
            )

    def test_init_values_length(self):
        reads = ReadTable.from_lists([[], []])
        with pytest.raises(InvalidLoopError):
            simple_loop(
                [0, 1],
                reads,
                init_kind=INIT_EXTERNAL,
                init_values=[1.0],
            )

    def test_y0_length(self):
        reads = ReadTable.from_lists([[]])
        with pytest.raises(InvalidLoopError):
            simple_loop([0], reads, y_size=2, y0=[1.0])

    def test_unknown_init_kind(self):
        reads = ReadTable.from_lists([[]])
        with pytest.raises(InvalidLoopError, match="init_kind"):
            simple_loop([0], reads, init_kind="bogus")


class TestSequentialOracle:
    def test_chain_recurrence(self):
        """y[i] = y[i] + 0.5 y[i-1]: hand-computed fixed sequence."""
        reads = ReadTable.from_lists(
            [[]] + [[(i - 1, 0.5)] for i in range(1, 4)]
        )
        loop = simple_loop([0, 1, 2, 3], reads, y0=np.ones(4))
        y = loop.run_sequential()
        np.testing.assert_allclose(y, [1.0, 1.5, 1.75, 1.875])

    def test_reads_see_latest_values(self):
        """Iteration 1 reads element 0 after iteration 0 updated it."""
        reads = ReadTable.from_lists([[], [(0, 1.0)]])
        loop = simple_loop(
            [0, 1],
            reads,
            init_kind=INIT_EXTERNAL,
            init_values=[10.0, 1.0],
            y0=np.zeros(2),
        )
        np.testing.assert_allclose(loop.run_sequential(), [10.0, 11.0])

    def test_antidependence_reads_old_value(self):
        """Iteration 0 reads element 1 before iteration 1 writes it."""
        reads = ReadTable.from_lists([[(1, 1.0)], []])
        loop = simple_loop(
            [0, 1],
            reads,
            init_kind=INIT_EXTERNAL,
            init_values=[0.0, 99.0],
            y0=np.array([0.0, 5.0]),
        )
        np.testing.assert_allclose(loop.run_sequential(), [5.0, 99.0])

    def test_intra_iteration_reads_partial_accumulator(self):
        """A term whose index equals this iteration's write target sees the
        partially accumulated value (the paper's check == 0 case)."""
        # y[0] starts at 2; term 1 adds 1*y[5]=3 -> acc 5;
        # term 2 adds 1*y[0] which is the live acc 5 -> acc 10.
        reads = ReadTable.from_lists([[(5, 1.0), (0, 1.0)]])
        y0 = np.zeros(6)
        y0[0] = 2.0
        y0[5] = 3.0
        loop = simple_loop([0], reads, y_size=6, y0=y0)
        np.testing.assert_allclose(loop.run_sequential()[0], 10.0)

    def test_term_order_matters_for_intra(self):
        """Reversing term order changes the intra-iteration result —
        confirming the oracle follows source order like the Fortran loop."""
        y0 = np.zeros(6)
        y0[0] = 2.0
        y0[5] = 3.0
        fwd = simple_loop(
            [0], ReadTable.from_lists([[(5, 1.0), (0, 1.0)]]), y_size=6, y0=y0
        ).run_sequential()
        rev = simple_loop(
            [0], ReadTable.from_lists([[(0, 1.0), (5, 1.0)]]), y_size=6, y0=y0
        ).run_sequential()
        assert fwd[0] == 10.0
        assert rev[0] == 7.0

    def test_empty_loop(self):
        loop = IrregularLoop(
            n=0,
            y_size=3,
            write_subscript=AffineSubscript(1, 0),
            reads=ReadTable.from_lists([]),
            y0=np.arange(3.0),
        )
        np.testing.assert_allclose(loop.run_sequential(), [0.0, 1.0, 2.0])


class TestConveniences:
    def test_from_arrays_infers_y_size(self):
        reads = ReadTable.from_lists([[(7, 1.0)], []])
        loop = simple_loop([0, 3], reads)
        assert loop.y_size == 8

    def test_with_name(self):
        reads = ReadTable.from_lists([[]])
        loop = simple_loop([0], reads, name="a")
        clone = loop.with_name("b")
        assert clone.name == "b"
        assert loop.name == "a"
        assert clone.write is loop.write

    def test_work_profile_attached(self):
        reads = ReadTable.from_lists([[]])
        profile = WorkProfile(overhead=9)
        loop = simple_loop([0], reads, work=profile)
        assert loop.work is profile

    def test_repr_mentions_name(self):
        reads = ReadTable.from_lists([[]])
        assert "myloop" in repr(simple_loop([0], reads, name="myloop"))

    def test_describe_reports_dependence_profile(self):
        from repro.workloads.testloop import make_test_loop

        text = make_test_loop(n=50, m=3, l=4).describe()
        assert "n=50" in text
        assert "true=" in text
        assert "intra=" in text
        assert "AffineSubscript" in text
        assert "distances 1..1" in text

    def test_describe_dependence_free(self):
        from repro.workloads.testloop import make_test_loop

        text = make_test_loop(n=20, m=1, l=3).describe()
        assert "true=0" in text
        assert "0% of iterations ordered" in text
