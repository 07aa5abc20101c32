"""End-to-end integration tests: full pipelines across subsystems."""

import runpy
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.sparse import (
    block_seven_point,
    ilu0,
    lower_solve_loop,
    paper_problems,
    solve_lower_unit,
    solve_upper,
    upper_solve_loop,
)

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


class TestFullPreconditionerPipeline:
    """operator → ILU(0) → parallel forward+backward solve → verified x."""

    @pytest.mark.parametrize("name", ["SPE2", "5-PT", "9-PT"])
    def test_solve_matches_dense_reference(self, name):
        A = paper_problems(small=True)[name]
        L, U = ilu0(A)
        rhs = np.linspace(1.0, 2.0, A.n_rows)

        runner = repro.PreprocessedDoacross(processors=8)
        y = runner.run(lower_solve_loop(L, rhs), reorder="doconsider").y
        x = runner.run(upper_solve_loop(U, y), reorder="doconsider").y

        dense = L.to_dense() @ U.to_dense()
        x_ref = np.linalg.solve(dense, rhs)
        np.testing.assert_allclose(x, x_ref, rtol=1e-9)

    def test_sequence_of_solves_reuses_one_workspace(self):
        """Krylov-style usage: many solves against one factorization, one
        scratch workspace (the paper's amortization story)."""
        A = block_seven_point(3, 3, 2, block=3, seed=1)
        L, U = ilu0(A)
        ws = repro.DoacrossWorkspace()
        runner = repro.PreprocessedDoacross(processors=8, workspace=ws)
        rhs = np.ones(A.n_rows)
        for _ in range(5):
            y = runner.run(lower_solve_loop(L, rhs)).y
            np.testing.assert_allclose(y, solve_lower_unit(L, rhs))
            rhs = solve_upper(U, y)  # feed forward like an iteration
            assert ws.is_clean()
        assert ws.invocations == 5


class TestStrategiesAgreeOnTrisolve:
    def test_five_strategies_identical_values(self):
        A = paper_problems(small=True)["7-PT"]
        L, _ = ilu0(A)
        rhs = np.arange(1.0, A.n_rows + 1)
        loop = lower_solve_loop(L, rhs)
        runner = repro.PreprocessedDoacross(processors=8)

        results = {
            "sequential": loop.run_sequential(),
            "preprocessed": runner.run(loop).y,
            "linear": runner.run(loop, linear=True).y,
            "stripmined": runner.run_stripmined(loop, block=37).y,
            "doconsider": runner.run(loop, reorder="doconsider").y,
        }
        reference = results.pop("sequential")
        for name, y in results.items():
            np.testing.assert_array_equal(y, reference, err_msg=name)

    def test_threaded_backend_agrees_too(self):
        from repro.backends.threaded import ThreadedRunner

        A = paper_problems(small=True)["5-PT"]
        L, _ = ilu0(A)
        rhs = np.ones(A.n_rows)
        loop = lower_solve_loop(L, rhs)
        y = ThreadedRunner(threads=4).run(loop).y
        np.testing.assert_array_equal(y, loop.run_sequential())


class TestExamplesRun:
    """Every example script must execute cleanly end to end."""

    @pytest.mark.parametrize(
        "script",
        [
            "quickstart.py",
            "sparse_triangular_solve.py",
            "irregular_mesh_sweep.py",
            "scheduling_policies.py",
            "preconditioned_krylov.py",
            "performance_model.py",
            "bring_your_own_loop.py",
        ],
    )
    def test_example_runs(self, script, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", [script])
        runpy.run_path(str(EXAMPLES / script), run_name="__main__")
        out = capsys.readouterr().out
        assert len(out) > 100  # produced a real report


class TestBenchModulesRun:
    def test_figure6_main(self, capsys):
        from repro.__main__ import main

        assert main(["figure6", "800"]) == 0
        out = capsys.readouterr().out
        assert "shape check: PASS" in out

    def test_table1_main_small(self, capsys):
        from repro.__main__ import main

        assert main(["table1", "--small"]) == 0
        out = capsys.readouterr().out
        assert "shape check: PASS" in out

    def test_ablations_main_small(self, capsys):
        from repro.__main__ import main

        assert main(["ablations", "--small"]) == 0
        out = capsys.readouterr().out
        assert "Ablation A" in out
        assert "Ablation E" in out
