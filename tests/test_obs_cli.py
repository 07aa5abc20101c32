"""The ``explain`` command: one planned, observed, diagnosed run.

``TestProfileCommand`` keeps the cases of the phase-budget report that
``explain`` took over from the retired ``profile`` command.
"""

import json
import re

import pytest

from repro.__main__ import main


def profile_main(argv):
    return main(["explain", *argv])


SMALL = "figure4:n=200,m=2,l=8"
#: Runtime write subscript: the simulator runs the inspector phase too
#: (an affine write takes the §2.3 linear variant, which has none).
INDIRECT = "random:n=200,seed=1"


class TestProfileCommand:
    @pytest.mark.parametrize("backend", ("simulated", "threaded", "vectorized"))
    def test_table_output(self, capsys, backend):
        assert profile_main([f"--backend={backend}", INDIRECT]) == 0
        out = capsys.readouterr().out
        for phase in ("inspector", "executor", "postprocessor"):
            assert phase in out
        assert "metric" in out

    def test_chrome_export_is_valid_trace_event_json(self, tmp_path, capsys):
        out_file = tmp_path / "trace.json"
        assert (
            profile_main(
                ["--backend=threaded", SMALL, f"--export={out_file}"]
            )
            == 0
        )
        trace = json.loads(out_file.read_text())
        events = trace["traceEvents"]
        assert events
        assert {e["ph"] for e in events} <= {"X", "M"}
        for e in events:
            if e["ph"] == "X":
                assert {"name", "cat", "ts", "dur", "pid", "tid"} <= e.keys()
                assert e["ts"] >= 0 and e["dur"] >= 0
        assert trace["otherData"]["backend"] == "threaded"
        assert "wrote chrome export" in capsys.readouterr().out

    def test_jsonl_export(self, tmp_path, capsys):
        out_file = tmp_path / "spans.jsonl"
        assert (
            profile_main(
                ["--backend=vectorized", SMALL, f"--export={out_file}"]
            )
            == 0
        )
        lines = out_file.read_text().strip().splitlines()
        assert json.loads(lines[0])["record"] == "telemetry"
        assert all(json.loads(line) for line in lines)

    def test_json_output_carries_telemetry(self, capsys):
        assert profile_main(["--backend=simulated", SMALL, "--json"]) == 0
        blob = json.loads(capsys.readouterr().out)
        assert blob["result"]["telemetry"]["clock"] == "cycles"
        assert blob["result"]["telemetry"]["spans"]

    def test_gantt_and_schedule_options(self, capsys):
        assert (
            profile_main(
                [
                    "--backend=simulated",
                    "chain:n=60,d=1",
                    "--processors=4",
                    "--schedule=cyclic",
                    "--chunk=1",
                    "--gantt",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "t = 0 .." in out
        assert "p0  |" in out

    def test_ignored_options_are_printed(self, capsys):
        assert (
            profile_main(["--backend=threaded", SMALL, "--schedule=block"])
            == 0
        )
        out = capsys.readouterr().out
        assert "ignored schedule='block'" in out or "ignored" in out

    @pytest.mark.parametrize(
        "argv",
        [
            ["--backend=quantum"],
            ["figure9:n=1"],
            ["--export"],  # missing output path
            ["--export=out.svg"],
            ["--frobnicate"],
            [SMALL, "stray-positional"],
        ],
    )
    def test_bad_usage_exits_2(self, capsys, argv):
        assert profile_main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("repro explain: ")


def phase_rows(out):
    """The phase table's ``(phase, extent)`` rows and its run span."""
    span = float(re.search(r"^run span ([0-9.]+) ", out, re.M).group(1))
    rows = re.findall(
        r"^\s*(inspector|executor|postprocessor|wrapper)\s+([0-9.]+)\s",
        out, re.M,
    )
    return {name: float(extent) for name, extent in rows}, span


class TestExplain:
    def test_sub_millisecond_phases_print_in_ms_and_sum_to_the_span(
        self, capsys
    ):
        assert profile_main(["--backend=vectorized", "chain:n=400,d=1"]) == 0
        out = capsys.readouterr().out
        assert "extent (ms)" in out
        rows, span = phase_rows(out)
        assert set(rows) == {"inspector", "executor", "postprocessor", "wrapper"}
        assert rows["executor"] > 0
        assert sum(rows.values()) == pytest.approx(span, abs=0.003)

    def test_one_report_of_a_wait_bound_run(self, capsys):
        assert profile_main(
            ["chain:n=400,d=1", "--backend=threaded", "--processors=2"]
        ) == 0
        out = capsys.readouterr().out
        assert "plan: validate-options -> fingerprint" in out
        assert phase_rows(out)[0]["executor"] > 0
        assert "kernel: " in out
        assert "wait_bound" in out
        assert "recommend: backend=vectorized" in out

    def test_json_is_one_versioned_document(self, capsys):
        assert profile_main(
            ["chain:n=200,d=1", "--backend=threaded", "--json",
             "--schedule=block"]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert {"version", "plan", "result", "findings", "fallbacks"} <= set(doc)
        assert doc["version"] == 1
        assert any(f["kind"] == "wait_bound" for f in doc["findings"])
        assert [n["option"] for n in doc["fallbacks"]] == ["schedule"]

    def test_auto_plan_audit(self, capsys):
        assert profile_main(
            ["--backend=auto", "chain:n=400,d=1", "--processors=2", "--json"]
        ) == 0
        plan = json.loads(capsys.readouterr().out)["plan"]
        assert plan["passes"] == [
            "validate-options", "fingerprint", "level-schedule", "doconsider",
            "auto-tune", "stripmine", "inspector",
        ]
        assert plan["tuner"]["source"] == "heuristic"
        assert plan["backend"] == "vectorized" and "chunk" not in plan

