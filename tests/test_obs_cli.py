"""The ``profile`` command."""

import json

import pytest

from repro.__main__ import main


def profile_main(argv):
    return main(["profile", *argv])


SMALL = "--loop=figure4:n=200,m=2,l=8"
#: Runtime write subscript: the simulator runs the inspector phase too
#: (an affine write takes the §2.3 linear variant, which has none).
INDIRECT = "--loop=random:n=200,seed=1"


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
                ["--backend=threaded", SMALL, "--export=chrome", str(out_file)]
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
                ["--backend=vectorized", SMALL, "--export=jsonl", str(out_file)]
            )
            == 0
        )
        lines = out_file.read_text().strip().splitlines()
        assert json.loads(lines[0])["record"] == "telemetry"
        assert all(json.loads(line) for line in lines)

    def test_json_output_carries_telemetry(self, capsys):
        assert profile_main(["--backend=simulated", SMALL, "--json"]) == 0
        blob = json.loads(capsys.readouterr().out)
        assert blob["telemetry"]["clock"] == "cycles"
        assert blob["telemetry"]["spans"]

    def test_gantt_and_schedule_options(self, capsys):
        assert (
            profile_main(
                [
                    "--backend=simulated",
                    "--loop=chain:n=60,d=1",
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
            ["--loop=figure9:n=1"],
            ["--export=chrome"],  # missing output path
            ["--export=svg", "out.svg"],
            ["--frobnicate"],
            ["stray-positional"],
        ],
    )
    def test_bad_usage_exits_2(self, capsys, argv):
        assert profile_main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("repro profile: ")

