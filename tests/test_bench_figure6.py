"""Tests for the Figure-6 experiment harness (reduced sizes)."""

import pytest

from repro.bench.figure6 import PAPER_PLATEAU, run_figure6


@pytest.fixture(scope="module")
def small_sweep():
    # Reduced N keeps the suite fast; the qualitative shape is identical.
    return run_figure6(n=1500)


class TestFigure6:
    def test_all_28_points_measured(self, small_sweep):
        assert len(small_sweep.rows) == 28

    def test_shape_check_passes(self, small_sweep):
        small_sweep.check_shape()

    def test_plateaus_near_paper(self, small_sweep):
        assert small_sweep.plateau(1) == pytest.approx(
            PAPER_PLATEAU[1], abs=0.05
        )
        assert small_sweep.plateau(5) == pytest.approx(
            PAPER_PLATEAU[5], abs=0.05
        )

    def test_even_l_rises_with_l(self, small_sweep):
        for m in (1, 5):
            pts = dict(small_sweep.efficiencies(m, parity="even"))
            assert pts[14] > pts[4]

    def test_efficiencies_filterable_by_parity(self, small_sweep):
        odd = small_sweep.efficiencies(1, parity="odd")
        even = small_sweep.efficiencies(1, parity="even")
        assert len(odd) == len(even) == 7
        assert all(l % 2 == 1 for l, _ in odd)
        assert all(l % 2 == 0 for l, _ in even)

    def test_report_contains_chart_and_plateaus(self, small_sweep):
        text = small_sweep.report()
        assert "Figure 6" in text
        assert "parallel efficiency" in text
        assert "plateau" in text
        assert "M=5" in text

    def test_custom_sweep_dimensions(self):
        sweep = run_figure6(n=300, ms=(2,), ls=(1, 2, 4))
        assert len(sweep.rows) == 3
        assert {r.params["m"] for r in sweep.rows} == {2}
