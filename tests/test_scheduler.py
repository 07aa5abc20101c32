"""Tests for iteration schedules: exact-cover partitions, per-processor
ordering (the deadlock-freedom precondition), dynamic claiming."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends.kernel import lane_of
from repro.errors import ScheduleError
from repro.machine.scheduler import (
    DynamicSchedule,
    GuidedSchedule,
    IterationSchedule,
    StaticBlockSchedule,
    StaticCyclicSchedule,
    make_schedule,
)


class TestStaticBlock:
    def test_even_split(self):
        s = StaticBlockSchedule(12, 4)
        assert [s.chunks_for(p) for p in range(4)] == [
            [(0, 3)],
            [(3, 6)],
            [(6, 9)],
            [(9, 12)],
        ]

    def test_remainder_goes_to_leading_processors(self):
        s = StaticBlockSchedule(10, 4)
        sizes = [
            sum(hi - lo for lo, hi in s.chunks_for(p)) for p in range(4)
        ]
        assert sizes == [3, 3, 2, 2]

    def test_more_processors_than_iterations(self):
        s = StaticBlockSchedule(2, 5)
        sizes = [
            sum(hi - lo for lo, hi in s.chunks_for(p)) for p in range(5)
        ]
        assert sizes == [1, 1, 0, 0, 0]
        s.validate_partition()

    def test_validate_partition_accepts(self):
        StaticBlockSchedule(97, 7).validate_partition()

    def test_bad_processor_index(self):
        with pytest.raises(ScheduleError):
            StaticBlockSchedule(4, 2).chunks_for(2)


class TestStaticCyclic:
    def test_chunk1_round_robin(self):
        s = StaticCyclicSchedule(7, 3, chunk=1)
        assert s.chunks_for(0) == [(0, 1), (3, 4), (6, 7)]
        assert s.chunks_for(1) == [(1, 2), (4, 5)]
        assert s.chunks_for(2) == [(2, 3), (5, 6)]

    def test_chunked(self):
        s = StaticCyclicSchedule(10, 2, chunk=3)
        assert s.chunks_for(0) == [(0, 3), (6, 9)]
        assert s.chunks_for(1) == [(3, 6), (9, 10)]

    def test_validate_partition(self):
        StaticCyclicSchedule(100, 6, chunk=4).validate_partition()

    def test_chunk_must_be_positive(self):
        with pytest.raises(ScheduleError):
            StaticCyclicSchedule(10, 2, chunk=0)


class TestDynamic:
    def test_claims_cover_range_in_order(self):
        s = DynamicSchedule(10, 3, chunk=4)
        claims = []
        while True:
            c = s.claim()
            if c is None:
                break
            claims.append(c)
        assert claims == [(0, 4), (4, 8), (8, 10)]

    def test_exhausted_returns_none_repeatedly(self):
        s = DynamicSchedule(2, 1, chunk=4)
        assert s.claim() == (0, 2)
        assert s.claim() is None
        assert s.claim() is None

    def test_reset_restores(self):
        s = DynamicSchedule(4, 1, chunk=4)
        assert s.claim() == (0, 4)
        s.reset()
        assert s.claim() == (0, 4)

    def test_is_dynamic(self):
        assert DynamicSchedule(4, 1).is_dynamic
        assert not StaticBlockSchedule(4, 1).is_dynamic


class TestGuided:
    def test_chunks_decay(self):
        s = GuidedSchedule(100, 4, min_chunk=2)
        sizes = []
        while True:
            c = s.claim()
            if c is None:
                break
            sizes.append(c[1] - c[0])
        assert sum(sizes) == 100
        # Non-increasing until the floor.
        assert all(a >= b or b == 2 for a, b in zip(sizes, sizes[1:]))
        assert sizes[0] == 13  # ceil(100 / 8)

    def test_min_chunk_floor(self):
        s = GuidedSchedule(10, 50, min_chunk=3)
        first = s.claim()
        assert first[1] - first[0] == 3


class TestFactory:
    @pytest.mark.parametrize("kind", ["block", "cyclic", "dynamic", "guided"])
    def test_known_kinds(self, kind):
        s = make_schedule(kind, 20, 4, chunk=2)
        assert s.n == 20
        assert s.processors == 4

    def test_unknown_kind(self):
        with pytest.raises(ScheduleError, match="unknown schedule kind"):
            make_schedule("fancy", 10, 2)

    def test_invalid_sizes(self):
        with pytest.raises(ScheduleError):
            make_schedule("block", -1, 2)
        with pytest.raises(ScheduleError):
            make_schedule("block", 10, 0)


class TestPartitionProperties:
    @given(
        n=st.integers(0, 300),
        p=st.integers(1, 17),
        chunk=st.integers(1, 9),
        kind=st.sampled_from(["block", "cyclic"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_static_schedules_partition_exactly(self, n, p, chunk, kind):
        make_schedule(kind, n, p, chunk=chunk).validate_partition()

    @given(
        n=st.integers(0, 300),
        p=st.integers(1, 17),
        chunk=st.integers(1, 9),
        kind=st.sampled_from(["block", "cyclic"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_closed_form_lanes_are_what_chunks_for_deals(self, n, p, chunk, kind):
        s = make_schedule(kind, n, p, chunk=chunk)
        lanes = s.lanes()
        assert lanes.dtype == np.int64 and lanes.shape == (n,)
        # The base class reads the placement off the chunk lists.
        assert np.array_equal(lanes, IterationSchedule.lanes(s))
        if kind == "cyclic":
            # One lane placement: the real-concurrency backends' formula.
            assert np.array_equal(lanes, lane_of(np.arange(n), chunk, p))

    @given(
        n=st.integers(0, 300),
        p=st.integers(1, 17),
        chunk=st.integers(1, 9),
        kind=st.sampled_from(["dynamic", "guided"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_dynamic_claims_are_contiguous_and_complete(
        self, n, p, chunk, kind
    ):
        s = make_schedule(kind, n, p, chunk=chunk)
        cursor = 0
        while True:
            c = s.claim()
            if c is None:
                break
            lo, hi = c
            assert lo == cursor
            assert hi > lo
            cursor = hi
        assert cursor == n

    @given(n=st.integers(1, 200), p=st.integers(1, 8), chunk=st.integers(1, 5))
    @settings(max_examples=40, deadline=None)
    def test_per_processor_positions_increase(self, n, p, chunk):
        """The deadlock-freedom precondition (DESIGN.md §6)."""
        for kind in ("block", "cyclic"):
            s = make_schedule(kind, n, p, chunk=chunk)
            for proc in range(p):
                flat = [
                    i for lo, hi in s.chunks_for(proc) for i in range(lo, hi)
                ]
                assert flat == sorted(flat)


class _Dealt(IterationSchedule):
    """A static schedule given as its chunk lists."""

    def __init__(self, n, chunk_lists):
        super().__init__(n, len(chunk_lists))
        self.chunk_lists = chunk_lists

    def chunks_for(self, proc):
        return self.chunk_lists[proc]


class TestCoverage:
    """``lanes()`` on a caller's schedule is the coverage check."""

    def test_reads_the_placement_off_the_chunks(self):
        s = _Dealt(6, [[(4, 6), (0, 1)], [(1, 4)], []])
        assert s.lanes().tolist() == [0, 1, 1, 1, 0, 0]

    @pytest.mark.parametrize(
        "chunk_lists,message",
        [
            ([[(0, 3)], []], r"3 iteration\(s\) unassigned, first: 3"),
            ([[(0, 4)], [(3, 6)]], "iteration 3 assigned twice"),
            ([[(0, 6)], [(0, 6)]], "iteration 0 assigned twice"),
            ([[(0, 7)], []], r"chunk \(0, 7\) out of range"),
            ([[(-1, 6)], []], r"chunk \(-1, 6\) out of range"),
            ([[(4, 2)], [(0, 6)]], r"chunk \(4, 2\) out of range"),
        ],
    )
    def test_rejects(self, chunk_lists, message):
        with pytest.raises(ScheduleError, match=message):
            _Dealt(6, chunk_lists).lanes()
        with pytest.raises(ScheduleError, match=message):
            _Dealt(6, chunk_lists).validate_partition()

    def test_order_is_validate_partitions_to_refuse(self):
        backwards = _Dealt(6, [[(3, 6), (0, 3)], []])
        assert backwards.lanes().tolist() == [0] * 6
        with pytest.raises(ScheduleError, match="out of order"):
            backwards.validate_partition()
