"""Tests for the Table-1 experiment harness (reduced grids)."""

import pytest

from repro.bench.table1 import PAPER_TABLE1, run_table1


@pytest.fixture(scope="module")
def small_table():
    return run_table1(small=True)


class TestTable1:
    def test_all_five_problems(self, small_table):
        assert [r.label for r in small_table.rows] == list(PAPER_TABLE1)

    def test_shape_check_passes(self, small_table):
        small_table.check_shape()

    def test_reordered_at_least_as_fast_everywhere(self, small_table):
        for r in small_table.rows:
            assert r.metrics["reordered_cycles"] <= r.metrics["plain_cycles"]

    def test_parallel_beats_sequential_everywhere(self, small_table):
        for r in small_table.rows:
            assert r.metrics["plain_cycles"] < r.metrics["sequential_cycles"]

    def test_levels_recorded(self, small_table):
        for r in small_table.rows:
            assert 1 <= r.params["n_levels"] <= r.params["n"]

    def test_report_lists_paper_reference_numbers(self, small_table):
        text = small_table.report()
        assert "Table 1" in text
        assert "34/21/223" in text  # SPE2's paper row
        assert "SPE5" in text

    def test_row_lookup(self, small_table):
        assert small_table.row("5-PT").params["n"] == 144
        with pytest.raises(KeyError):
            small_table.row("nope")
