"""Each loop's symbolic verdict from the shell: ``python -m repro lint``
prints it above the findings and carries it in every ``--json`` record;
``--rules=VERDICT-CHECK`` is the proof-audit and runtime cross-check
gate."""

import json

from repro.__main__ import main as repro_main


def run_cli(capsys, *argv):
    code = repro_main(["lint", *argv])
    return code, capsys.readouterr().out


def test_analyze_text_output(capsys):
    code, out = run_cli(capsys, "chain:n=60,d=3")
    assert code == 0
    assert "constant-distance" in out
    assert "inspector-elidable" in out
    assert "linted 1 loop(s)" in out


def test_analyze_cross_check(capsys):
    code, out = run_cli(
        capsys, "figure4:n=60,m=2,l=8", "random:n=40,seed=1",
        "--rules=VERDICT-CHECK",
    )
    assert code == 0
    assert out.count("no findings") == 2
    assert "runtime-only" in out


def test_analyze_json_output(capsys):
    code, out = run_cli(
        capsys, "chain:n=50,d=2", "--json", "--rules=VERDICT-CHECK"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["worst_severity"] == ""
    (record,) = payload["targets"]
    assert record["loop"] == "chain(n=50,d=2)"
    assert record["verdict"]["kind"] == "constant-distance"
    assert record["verdict"]["distance"] == 2
    assert record["verdict"]["elidable"] is True
    assert record["diagnostics"] == []
    assert record["verdict"]["proof"]["steps"]


def test_analyze_workloads_directory(capsys):
    code, out = run_cli(capsys, "workloads/", "--rules=VERDICT-CHECK")
    assert code == 0
    assert "doall-proven" in out
    assert "runtime-only" in out


def test_analyze_usage_errors(capsys):
    code = repro_main(["lint"])
    assert code == 2
    code = repro_main(["lint", "--bogus", "chain"])
    assert code == 2


def test_every_lint_record_carries_its_verdict(capsys):
    code, out = run_cli(capsys, "chain:n=60,d=3", "random:n=40,seed=1", "--json")
    assert code == 0
    kinds = [r["verdict"]["kind"] for r in json.loads(out)["targets"]]
    assert kinds == ["constant-distance", "runtime-only"]


def test_verdict_check_fails_a_lying_slot_declaration(tmp_path, capsys):
    # The wrong-slot loop of
    # test_symbolic_engine::test_cross_check_catches_wrong_slot_declaration:
    # chain arrays at distance 2, a slot declared at distance 1.
    target = tmp_path / "lying.py"
    target.write_text(
        "import repro\n"
        "from repro.ir.accesses import ReadSlot\n"
        "from repro.ir.loop import IrregularLoop\n"
        "from repro.ir.subscript import AffineSubscript\n"
        "\n"
        "def build_loop():\n"
        "    base = repro.chain_loop(48, 2)\n"
        "    return IrregularLoop(\n"
        "        n=base.n, y_size=base.y_size,\n"
        "        write_subscript=base.write_subscript, reads=base.reads,\n"
        "        y0=base.y0, name='lying-chain',\n"
        "        read_slots=[ReadSlot(AffineSubscript(1, -1), start=2)],\n"
        "    )\n",
        encoding="utf-8",
    )
    code, out = run_cli(capsys, str(target), "--rules=VERDICT-CHECK", "--json")
    assert code == 1
    (record,) = json.loads(out)["targets"]
    errors = [d for d in record["diagnostics"] if d["severity"] == "error"]
    assert errors and {d["rule"] for d in errors} == {"VERDICT-CHECK"}
    assert any("declared subscript" in d["message"] for d in errors)
