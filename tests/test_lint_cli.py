"""The ``python -m repro lint`` command and the ``validate="static"``
execution path."""

import json

import numpy as np
import pytest

import repro
from repro.__main__ import main as repro_main
from repro import PlanSpec
from repro.backends import HookedRunner, ThreadedRunner, make_runner
from repro.backends.hooks import StaticValidate
from repro.passes.spec import BACKENDS
from repro.errors import ScheduleError
from repro.lint.cli import builtin_loops, collect_loops
from tests.conftest import lying_slot_chain


def run_cli(capsys, *argv):
    code = repro_main(["lint", *argv])
    return code, capsys.readouterr().out


# ----------------------------------------------------------------------
# Acceptance criteria: AFFINE-WRITE + DOALL-ABLE over examples/, both
# renderings
# ----------------------------------------------------------------------
def test_lint_examples_text_output(capsys):
    code, out = run_cli(capsys, "examples/")
    assert code == 0  # warnings don't fail the gate
    assert "AFFINE-WRITE" in out
    assert "DOALL-ABLE" in out
    assert "linted" in out


def test_lint_examples_json_output(capsys):
    code, out = run_cli(capsys, "examples/", "--json")
    assert code == 0
    payload = json.loads(out)
    rules = {
        d["rule"]
        for target in payload["targets"]
        for d in target["diagnostics"]
    }
    assert "AFFINE-WRITE" in rules
    assert "DOALL-ABLE" in rules
    sources = {t["source"] for t in payload["targets"]}
    assert any("static_analysis" in s for s in sources)


# ----------------------------------------------------------------------
# Targets
# ----------------------------------------------------------------------
def test_builtin_specs():
    assert len(builtin_loops("figure4:n=50,m=2,l=8")) == 1
    (loop,) = builtin_loops("chain:n=30,d=2").values()
    assert loop.n == 30
    (loop,) = builtin_loops("random:n=40,seed=5").values()
    assert loop.n == 40
    with pytest.raises(ValueError, match="unknown builtin"):
        builtin_loops("mystery")
    with pytest.raises(ValueError, match="unknown spec argument"):
        builtin_loops("figure4:n=50,bogus=1")
    with pytest.raises(ValueError, match="malformed"):
        builtin_loops("figure4:n")


def test_collect_loops_from_file_and_spec():
    triples = collect_loops(["examples/quickstart.py", "chain:n=20,d=1"])
    names = [name for _, name, _ in triples]
    assert "quickstart-figure4" in names
    assert len(triples) == 3


def test_collect_loops_skips_pycache(tmp_path):
    """A stale hook file inside ``__pycache__`` (running the suite leaves
    bytecode caches under ``workloads/``, and editors can leave stray
    ``.py`` siblings there) must be invisible to directory targets — it
    would otherwise be linted twice or crash the gate on a bad import."""
    target = tmp_path / "portfolio"
    target.mkdir()
    (target / "good.py").write_text(
        "import repro\n"
        "def build_loop():\n"
        "    return repro.chain_loop(10, 1)\n",
        encoding="utf-8",
    )
    cache = target / "__pycache__"
    cache.mkdir()
    # A hook file that would double-collect *and* a broken one that
    # would crash collection if either were imported.
    (cache / "good.py").write_text(
        "def build_loop():\n    return None\n", encoding="utf-8"
    )
    (cache / "stale.py").write_text(
        "def build_loops():\n    raise RuntimeError('stale bytecode twin')\n",
        encoding="utf-8",
    )
    triples = collect_loops([str(target)])
    assert len(triples) == 1
    source, name, loop = triples[0]
    assert source == str(target / "good.py")
    assert loop.n == 10


def test_cli_usage_errors(capsys):
    assert repro_main(["lint"]) == 2
    assert repro_main(["lint", "--bogus", "figure4"]) == 2
    assert repro_main(["lint", "figure4", "--rules=NOPE"]) == 2
    assert repro_main(["lint", "/nonexistent/dir.py"]) == 2
    err = capsys.readouterr().err
    assert "lint:" in err


def test_cli_rules_filter_and_schedule_options(capsys):
    code, out = run_cli(
        capsys,
        "chain:n=64,d=1",
        "--schedule=block",
        "--processors=4",
        "--rules=CHUNK-CYCLE",
        "--json",
    )
    assert code == 0
    payload = json.loads(out)
    rules = [
        d["rule"]
        for target in payload["targets"]
        for d in target["diagnostics"]
    ]
    assert rules and set(rules) == {"CHUNK-CYCLE"}
    assert payload["worst_severity"] == "warning"


def test_cli_strict_fails_on_warnings(capsys):
    code, _ = run_cli(
        capsys, "chain:n=64,d=1", "--schedule=block", "--strict"
    )
    assert code == 1


def test_cli_backend_race_check_is_clean(capsys):
    code, out = run_cli(
        capsys, "figure4:n=60,l=8", "--backend=threaded", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert all(
        d["rule"] != "HB-RACE"
        for t in payload["targets"]
        for d in t["diagnostics"]
    )


# ----------------------------------------------------------------------
# validate="static"
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", ["simulated", "threaded", "vectorized"])
def test_parallelize_validate_static(backend):
    loop = repro.random_irregular_loop(120, seed=4)
    result, plan = repro.parallelize(
        loop, spec=PlanSpec(backend=backend, processors=4, validate="static")
    )
    assert np.array_equal(result.y, loop.run_sequential())
    assert result.extras["race_check"]["passed"] is True
    assert isinstance(result.extras["lint"], list)


@pytest.mark.parametrize("backend", BACKENDS)
def test_validate_static_cross_checks_the_verdict(backend):
    """A static-validated run lints with every rule ``lint`` runs, so a
    slot declaration that lies about the read table is a VERDICT-CHECK
    error on the run; the run itself uses the inspector and is exact."""
    loop = lying_slot_chain()
    result, _ = repro.parallelize(
        loop, spec=PlanSpec(backend=backend, processors=2, validate="static")
    )
    assert np.array_equal(result.y, loop.run_sequential())
    checks = [d for d in result.extras["lint"] if d["rule"] == "VERDICT-CHECK"]
    assert checks and all(d["severity"] == "error" for d in checks)
    assert any("declared subscript" in d["message"] for d in checks)


def test_parallelize_rejects_unknown_validate_mode():
    with pytest.raises(ScheduleError, match="unknown validate mode"):
        PlanSpec(validate="dynamic")


def test_make_runner_validate_wraps_runner():
    runner = make_runner(
        spec=PlanSpec(backend="threaded", processors=4, validate="static")
    )
    assert isinstance(runner, HookedRunner)
    assert runner.hooks == (StaticValidate,)
    assert isinstance(runner.inner, ThreadedRunner)
    loop = repro.make_test_loop(80, 2, 8)
    result = runner.run(loop)
    assert np.array_equal(result.y, loop.run_sequential())
    assert result.extras["race_check"]["checked_edges"] > 0


def test_validating_runner_wraps_arbitrary_runner_instance():
    loop = repro.random_irregular_loop(90, seed=6)
    inner = make_runner("simulated", processors=4)
    result = HookedRunner(inner, [StaticValidate]).run(loop)
    assert np.array_equal(result.y, loop.run_sequential())
    assert result.extras["race_check"]["passed"] is True


@pytest.mark.parametrize(
    "ctor_chunk,run_chunk,expected",
    [(None, None, 25), (5, None, 5), (5, 7, 7)],
    ids=["default", "constructor", "run-option"],
)
def test_static_validate_checks_the_chunk_that_runs(
    ctor_chunk, run_chunk, expected
):
    from repro.backends import MultiprocRunner

    loop = repro.random_irregular_loop(200, seed=3)
    inner = MultiprocRunner(workers=2, chunk=ctor_chunk)
    try:
        result = HookedRunner(inner, [StaticValidate]).run(
            loop, chunk=run_chunk
        )
    finally:
        inner.close()
    assert result.schedule == f"chunked({expected} x 2 workers)"
    assert (
        result.extras["race_check"]["schedule"]
        == f"multiproc(2 workers, chunk={expected})"
    )


def test_check_backend_schedule_default_chunk_is_the_backends():
    from repro.lint.hb import check_backend_schedule

    loop = repro.random_irregular_loop(200, seed=3)
    labels = {
        backend: check_backend_schedule(
            loop, backend, processors=2
        ).schedule_label
        for backend in ("multiproc", "threaded", "simulated")
    }
    assert labels["multiproc"] == "multiproc(2 workers, chunk=25)"
    assert labels["threaded"] == "threaded(2 threads)"
    assert labels["simulated"] == check_backend_schedule(
        loop, "simulated", processors=2, chunk=1
    ).schedule_label


# ----------------------------------------------------------------------
# Baselines
# ----------------------------------------------------------------------
def test_write_baseline_then_suppress(tmp_path, capsys):
    baseline = tmp_path / "baseline.json"
    code, out = run_cli(capsys, "figure4:n=60,m=2,l=7", f"--write-baseline={baseline}")
    assert code == 0
    assert "wrote" in out
    payload = json.loads(baseline.read_text())
    assert payload["version"] == 1
    assert all(key.count("|") == 2 for key in payload["findings"])
    assert any(key.startswith("DOALL-ABLE|") for key in payload["findings"])

    # With the baseline, even --strict passes and findings are suppressed.
    code, out = run_cli(
        capsys, "figure4:n=60,m=2,l=7", "--strict", f"--baseline={baseline}"
    )
    assert code == 0
    assert "suppressed" in out
    assert "DOALL-ABLE" not in out

    # A different loop surfaces *new* findings past the baseline.
    code, out = run_cli(
        capsys, "figure4:n=80,m=2,l=7", "--strict", f"--baseline={baseline}"
    )
    assert code == 1
    assert "DOALL-ABLE" in out


def test_baseline_json_output_lists_suppressed(tmp_path, capsys):
    baseline = tmp_path / "baseline.json"
    run_cli(capsys, "chain:n=40,d=1", f"--write-baseline={baseline}")
    code, out = run_cli(
        capsys, "chain:n=40,d=1", "--json", f"--baseline={baseline}"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["suppressed"] >= 1
    (target,) = payload["targets"]
    assert target["diagnostics"] == []
    assert all(key.count("|") == 2 for key in target["suppressed"])


def test_baseline_usage_errors(tmp_path, capsys):
    baseline = tmp_path / "baseline.json"
    baseline.write_text('{"version": 1, "findings": []}')
    code = repro_main(
        [
            "lint",
            "chain:n=20,d=1",
            f"--baseline={baseline}",
            f"--write-baseline={baseline}",
        ]
    )
    capsys.readouterr()
    assert code == 2

    malformed = tmp_path / "bad.json"
    malformed.write_text('{"findings": "nope"}')
    code = repro_main(["lint", "chain:n=20,d=1", f"--baseline={malformed}"])
    capsys.readouterr()
    assert code == 2

    missing = tmp_path / "missing.json"
    code = repro_main(["lint", "chain:n=20,d=1", f"--baseline={missing}"])
    capsys.readouterr()
    assert code == 2


def test_repo_baseline_keeps_ci_gate_green(capsys):
    """The committed baseline must cover every finding in examples/ and
    workloads/ — the exact invocation the CI gate runs."""
    code, _out = run_cli(
        capsys,
        "examples/",
        "workloads/",
        "--strict",
        "--baseline=lint_baseline.json",
    )
    assert code == 0


class TestPruneBaseline:
    def test_prunes_stale_entries_keeps_live_ones(self, tmp_path, capsys):
        baseline = tmp_path / "base.json"
        code, _ = run_cli(
            capsys, "figure4:n=60,m=2,l=7", f"--write-baseline={baseline}"
        )
        assert code == 0
        payload = json.loads(baseline.read_text())
        live = set(payload["findings"])
        assert live
        payload["findings"].append("DEAD-WAIT|gone-loop|term slot(s) 9")
        baseline.write_text(json.dumps(payload))

        code, out = run_cli(
            capsys,
            "figure4:n=60,m=2,l=7",
            f"--baseline={baseline}",
            "--prune-baseline",
        )
        assert code == 0
        assert "pruned 1 stale finding key(s)" in out
        assert "DEAD-WAIT|gone-loop|term slot(s) 9" in out
        after = json.loads(baseline.read_text())
        assert set(after["findings"]) == live
        assert after["version"] == 1

    def test_noop_prune_rewrites_identical_set(self, tmp_path, capsys):
        baseline = tmp_path / "base.json"
        run_cli(capsys, "chain:n=40,d=1", f"--write-baseline={baseline}")
        before = set(json.loads(baseline.read_text())["findings"])
        code, out = run_cli(
            capsys,
            "chain:n=40,d=1",
            f"--baseline={baseline}",
            "--prune-baseline",
        )
        assert code == 0
        assert "pruned 0 stale finding key(s)" in out
        assert set(json.loads(baseline.read_text())["findings"]) == before

    def test_prune_requires_baseline(self, capsys):
        code = repro_main(["lint", "chain:n=40,d=1", "--prune-baseline"])
        capsys.readouterr()
        assert code == 2
