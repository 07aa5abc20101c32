"""Smoke test of ``benchmarks/pairs.py``: one pair of one-second runs.

Run with ``pytest -m slow benchmarks/tests`` from the repository root; the
tier-1 suite (``testpaths = ["tests"]``) does not collect this directory.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]


@pytest.mark.slow
def test_one_pair_prints_the_table_and_appends_two_rows(tmp_path):
    out = tmp_path / "pairs.jsonl"
    proc = subprocess.run(
        [
            sys.executable, str(ROOT / "benchmarks" / "pairs.py"),
            "--parent", "HEAD", "--workload", "fig4_chain", "--pairs", "1",
            "--seconds", "1", "--claim", "rel_cold.vectorized",
            "--out", str(out),
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    gated = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
    for name in gated:
        assert f"  {name} " in proc.stdout
    assert "every operation correct: True" in proc.stdout
    claim = proc.stdout.strip().splitlines()[-1]
    assert claim.startswith("fig4_chain rel_cold.vectorized: claim ")
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    assert [r["side"] for r in rows] == ["parent", "change"]  # pair 1: parent first
    for row in rows:
        assert set(row["metrics"]) == set(gated)
        assert row["correct"] is True and row["failed"] == 0
        assert len(row["sha"].removesuffix("-dirty")) == 40


def test_the_verdict_needs_more_than_the_parent_spread():
    sys.path.insert(0, str(ROOT / "benchmarks"))
    try:
        from pairs import verdict
    finally:
        sys.path.remove(str(ROOT / "benchmarks"))
    parent = [1.0, 1.1, 1.2, 1.3]  # spread p75 - p25 = 0.15, median 1.15
    assert verdict(parent, [0.9, 0.95, 0.99, 1.0], "lower")  # gain 0.18
    assert not verdict(parent, [1.0, 1.0, 1.05, 1.1], "lower")  # gain 0.125
    assert not verdict(parent, [0.9, 0.95, 0.99, 1.0], "higher")
    assert verdict(parent, [1.4, 1.4, 1.4, 1.4], "higher")


def test_the_verdict_needs_nine_tenths_of_the_pairs_won():
    sys.path.insert(0, str(ROOT / "benchmarks"))
    try:
        from pairs import verdict
    finally:
        sys.path.remove(str(ROOT / "benchmarks"))
    parent = [1.0] * 10  # spread 0
    # The median gain (0.25) clears the spread, but five pairs tie.
    assert not verdict(parent, [0.5] * 5 + [1.0] * 5, "lower")
    assert not verdict(parent, [0.5] * 8 + [1.0] * 2, "lower")
    assert verdict(parent, [0.5] * 9 + [1.0], "lower")
    assert not verdict(parent, [0.5] * 9 + [1.0], "higher")
