"""Tests for processor/phase statistics records."""

import pytest

from repro.machine.stats import PhaseStats, ProcessorStats


class TestProcessorStats:
    def test_total_cycles(self):
        st = ProcessorStats(
            proc=0, compute_cycles=10, wait_cycles=5, resource_wait_cycles=2
        )
        assert st.total_cycles == 17

    def test_merge_sums_and_maxes(self):
        a = ProcessorStats(
            proc=1,
            compute_cycles=10,
            wait_cycles=2,
            flag_checks=3,
            iterations=4,
            finish_time=100,
        )
        b = ProcessorStats(
            proc=1,
            compute_cycles=5,
            wait_cycles=1,
            flag_checks=1,
            iterations=2,
            finish_time=60,
        )
        m = a.merge(b)
        assert m.compute_cycles == 15
        assert m.wait_cycles == 3
        assert m.flag_checks == 4
        assert m.iterations == 6
        assert m.finish_time == 100

    def test_merge_rejects_mismatched_processor(self):
        with pytest.raises(ValueError):
            ProcessorStats(proc=0).merge(ProcessorStats(proc=1))


class TestPhaseStats:
    def _phase(self):
        return PhaseStats(
            name="executor",
            processors=[
                ProcessorStats(
                    proc=0, compute_cycles=80, wait_cycles=20, finish_time=100
                ),
                ProcessorStats(
                    proc=1, compute_cycles=50, wait_cycles=0, finish_time=50
                ),
            ],
        )

    def test_span_is_latest_finish(self):
        assert self._phase().span == 100

    def test_totals(self):
        p = self._phase()
        assert p.total_compute == 130
        assert p.total_wait == 20

    def test_utilization_counts_waits_as_waste(self):
        p = self._phase()
        assert p.utilization() == pytest.approx(130 / 200)

    def test_empty_phase(self):
        p = PhaseStats(name="x")
        assert p.span == 0
        assert p.utilization() == 0.0
