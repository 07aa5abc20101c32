"""``BENCHMARK.json`` obeys the driver's contract and matches the catalogue."""

import json
import re
from pathlib import Path

from benchmarks.e2e import metrics as catalogue
from benchmarks.e2e.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[3]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


def _declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_file_is_what_the_catalogue_generates():
    assert _declared() == catalogue.benchmark_json()


def test_top_level_shape():
    doc = _declared()
    assert set(doc) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert doc["paths"] == ["benchmarks/e2e"]
    assert doc["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert isinstance(doc["run_seconds"], int) and 1 <= doc["run_seconds"] <= 60
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024
    # 4 + 22 runs per workload, each at most run_seconds plus slack.
    runs = 4 + 22 * len(doc["workloads"])
    assert runs * (doc["run_seconds"] + 4) <= 3420


def test_workloads():
    doc = _declared()
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert len(doc["workloads"]) == 4
    for w in doc["workloads"]:
        assert set(w) == {"name", "why"}
        assert NAME.match(w["name"])
        assert "\n" not in w["why"] and 0 < len(w["why"]) <= 200


def test_end_to_end_metrics():
    metrics = _declared()["end_to_end"]
    assert 1 <= len(metrics) <= 16
    for m in metrics:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert NAME.match(m["name"]) and UNIT.match(m["unit"])
        assert m["better"] in ("lower", "higher")
        assert 0 <= m["bound"] <= 0.25
    setup = next(m for m in metrics if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in metrics)


def test_per_layer_metrics():
    metrics = _declared()["per_layer"]
    assert 1 <= len(metrics) <= 128
    for m in metrics:
        assert set(m) == {"name", "unit", "better"}
        assert NAME.match(m["name"]) and UNIT.match(m["unit"])
        assert m["better"] in ("lower", "higher")


def test_names_are_used_once():
    doc = _declared()
    names = [x["name"] for key in ("workloads", "end_to_end", "per_layer") for x in doc[key]]
    assert len(names) == len(set(names))


def test_every_layer_metric_says_what_it_should_move():
    # A layer may also point at a cell that was demoted from end-to-end.
    e2e = {m.name for m in catalogue.END_TO_END} | {
        m.name for m in catalogue.PER_LAYER if m.name.startswith("rel_")
    }
    for m in catalogue.PER_LAYER:
        assert m.moves, m.name
        if m.moves.startswith(("none", "nothing")):
            continue
        # "<end-to-end metric> on <workload ...>"
        target, _, where = m.moves.partition(" on ")
        family = target.split(":")[0].split(" ")[0].replace(".*", "")
        assert any(name.startswith(family) for name in e2e), (m.name, m.moves)
        assert where and (
            "every workload" in where or any(w in where for w in WORKLOADS)
        ), (m.name, m.moves)


def test_exact_counts_are_declared_metrics():
    declared = {m.name for m in catalogue.END_TO_END + catalogue.PER_LAYER}
    exact = set(catalogue.EXACT)
    for names in catalogue.EXACT_ON.values():
        exact.update(names)
    assert exact <= declared
