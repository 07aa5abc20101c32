"""The ``python -m repro analyze`` command."""

import json

from repro.__main__ import main as repro_main


def run_cli(capsys, *argv):
    code = repro_main(["analyze", *argv])
    return code, capsys.readouterr().out


def test_analyze_text_output(capsys):
    code, out = run_cli(capsys, "chain:n=60,d=3")
    assert code == 0
    assert "constant-distance" in out
    assert "inspector-elidable" in out
    assert "analyzed 1 loop(s)" in out


def test_analyze_cross_check(capsys):
    code, out = run_cli(
        capsys, "figure4:n=60,m=2,l=8", "random:n=40,seed=1", "--cross-check"
    )
    assert code == 0
    assert out.count("cross-check OK") == 2
    assert "runtime-only" in out


def test_analyze_json_output(capsys):
    code, out = run_cli(capsys, "chain:n=50,d=2", "--json", "--cross-check")
    assert code == 0
    payload = json.loads(out)
    assert payload["failed"] == 0
    (record,) = payload["targets"]
    assert record["loop"] == "chain(n=50,d=2)"
    assert record["verdict"]["kind"] == "constant-distance"
    assert record["verdict"]["distance"] == 2
    assert record["elidable"] is True
    assert record["problems"] == []
    assert record["checked_terms"] == 48
    assert record["verdict"]["proof"]["steps"]


def test_analyze_workloads_directory(capsys):
    code, out = run_cli(capsys, "workloads/", "--cross-check")
    assert code == 0
    assert "doall-proven" in out
    assert "runtime-only" in out


def test_analyze_usage_errors(capsys):
    code = repro_main(["analyze"])
    assert code == 2
    code = repro_main(["analyze", "--bogus", "chain"])
    assert code == 2

