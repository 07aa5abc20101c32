"""Tests for the Krylov-fraction experiment (reduced grids)."""

import pytest

from repro.bench.krylov_fraction import SOLVER_FOR, run_krylov_fraction


@pytest.fixture(scope="module")
def result():
    return run_krylov_fraction(small=True)


class TestKrylovFraction:
    def test_all_problems_measured(self, result):
        assert [r.label for r in result.rows] == list(SOLVER_FOR)

    def test_shape_check_passes(self, result):
        result.check_shape()

    def test_solver_selection(self, result):
        by = {r.label: r for r in result.rows}
        assert by["SPE2"].params["solver"] == "gmres"
        assert by["5-PT"].params["solver"] == "cg"

    def test_fractions_large_sequentially(self, result):
        for r in result.rows:
            assert r.metrics["precond_fraction_seq"] > 0.5

    def test_parallel_shrinks_fraction(self, result):
        for r in result.rows:
            assert (
                r.metrics["precond_fraction_par"]
                < r.metrics["precond_fraction_seq"]
            )

    def test_solver_speedup_below_solve_speedup(self, result):
        """Amdahl: the whole-solver gain is diluted by the sequential
        matvec and vector work."""
        for r in result.rows:
            assert 1.0 < r.metrics["solver_speedup"] < r.metrics["solve_speedup"]

    def test_report_format(self, result):
        text = result.report()
        assert "Krylov motivation" in text
        assert "gmres" in text
        assert "cg" in text

    def test_main_runs(self, capsys):
        from repro.__main__ import main

        assert main(["krylov", "--small"]) == 0
        assert "shape check: PASS" in capsys.readouterr().out
