"""Every workload runs end to end, untraced and traced, on shrunken
sizes: two rounds each, all eight runs in under thirty seconds."""

import io
import time

import pytest

from benchmarks.e2e import metrics as catalogue
from benchmarks.e2e.run import run_workload
from benchmarks.e2e.workloads import SMOKE_SIZES, WORKLOADS

_started: list[float] = []  # when the first smoke run began


@pytest.mark.parametrize("name", list(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_two_rounds_on_small_sizes(name, trace, tmp_path, monkeypatch):
    _started.append(time.perf_counter())
    monkeypatch.setattr("benchmarks.e2e.run.HERE", tmp_path)
    out = io.StringIO()
    result = run_workload(
        name, seed=7, rounds=2, trace=trace, sizes=SMOKE_SIZES[name], out=out
    )
    assert result["correct"], out.getvalue()
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = catalogue.PER_LAYER if trace else catalogue.END_TO_END
    assert list(result["metrics"]) == [m.name for m in declared]
    for m in declared:
        assert result["metrics"][m.name]["unit"] == m.unit
    if trace:
        assert (tmp_path / "out" / f"trace-{name}.jsonl").stat().st_size > 0
        assert result["metrics"]["fail_share"]["value"] == 0
    else:
        for m in declared:
            assert result["metrics"][m.name]["value"] > 0, m.name


def test_the_whole_smoke_fits_in_thirty_seconds():
    assert time.perf_counter() - _started[0] < 30
