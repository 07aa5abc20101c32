"""Tests for experiment JSON export and the --json CLI flag."""

import json

from repro.__main__ import main
from repro.bench.harness import (
    ExperimentRow,
    rows_to_json,
)
from repro.core.doacross import PreprocessedDoacross
from repro.workloads.testloop import make_test_loop


class TestRowsToJson:
    def test_serializes_label_params_metrics(self):
        rows = [
            ExperimentRow(
                label="x", params={"m": 1}, metrics={"eff": 0.5}
            )
        ]
        records = json.loads(rows_to_json(rows))
        assert records[0]["label"] == "x"
        assert records[0]["params"] == {"m": 1}
        assert records[0]["metrics"] == {"eff": 0.5}
        assert "run" not in records[0]

    def test_includes_run_record_when_attached(self):
        result = PreprocessedDoacross(processors=4).run(
            make_test_loop(n=40, m=1, l=3)
        )
        rows = [ExperimentRow(label="r", result=result)]
        records = json.loads(rows_to_json(rows))
        assert records[0]["run"]["strategy"] == "preprocessed-doacross"

    def test_non_scalar_entries_dropped(self):
        rows = [
            ExperimentRow(
                label="x",
                params={"arr": [1, 2], "ok": 3},
                metrics={"obj": object(), "eff": 1.0},
            )
        ]
        records = json.loads(rows_to_json(rows))
        assert records[0]["params"] == {"ok": 3}
        assert records[0]["metrics"] == {"eff": 1.0}


class TestCliJsonExport:
    def test_figure6_writes_json(self, tmp_path, capsys):
        out = tmp_path / "fig6.json"
        assert main(["figure6", "800", "--json", str(out)]) == 0
        records = json.loads(out.read_text())
        assert len(records) == 28
        assert all("run" in r for r in records)
        assert "wrote" in capsys.readouterr().out

    def test_table1_writes_json(self, tmp_path, capsys):
        out = tmp_path / "tab1.json"
        assert main(["table1", "--small", "--json", str(out)]) == 0
        records = json.loads(out.read_text())
        assert {r["label"] for r in records} == {
            "SPE2",
            "SPE5",
            "5-PT",
            "7-PT",
            "9-PT",
        }
        assert all("reordered_cycles" in r["metrics"] for r in records)
