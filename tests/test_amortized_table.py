"""Tests for the 'Table 2' amortization experiment (reduced grids)."""

import pytest

from repro.bench.amortized_table import MODES, run_amortized_table


@pytest.fixture(scope="module")
def result():
    return run_amortized_table(small=True, instances=8)


class TestAmortizedTable:
    def test_all_problems_all_modes(self, result):
        assert len(result.rows) == 5
        for r in result.rows:
            for mode in MODES:
                assert r.metrics[mode] > 0

    def test_shape_check_passes(self, result):
        result.check_shape()

    def test_amortization_always_helps(self, result):
        for r in result.rows:
            assert r.metrics["amortized"] < r.metrics["full"]

    def test_amortization_composes_with_reordering(self, result):
        """With the (equal) reorder share cancelled, the combined mode's
        advantage over plain reordering is pure inspector amortization."""
        for r in result.rows:
            assert r.metrics["amort+reord"] < r.metrics["reordered"]

    def test_report_contains_gains(self, result):
        text = result.report()
        assert "Table 2" in text
        assert "gain" in text
        assert "5-PT" in text

    def test_main_runs(self, capsys):
        from repro.__main__ import main

        assert main(["table2", "--small", "4"]) == 0
        assert "shape check: PASS" in capsys.readouterr().out
