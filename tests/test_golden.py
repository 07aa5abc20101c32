"""Golden-record regression tests.

The simulator is deterministic, so fresh runs must match the committed
golden records *exactly*.  A failure here means a code change altered
simulated behavior; if intentional, regenerate with
``python benchmarks/update_golden.py`` and commit the diff.
"""

import json

import pytest

from benchmarks.update_golden import GOLDEN_DIR, golden_text
from repro.bench.experiments import EXPERIMENTS

BY_NAME = {exp.name: exp for exp in EXPERIMENTS}


def fresh(name, measured):
    """The record a fresh reduced-size run of experiment ``name`` pins."""
    exp = BY_NAME[name]
    return json.loads(golden_text(exp, measured(exp, "reduced")))


class TestGoldenExperiments:
    def test_one_file_per_experiment(self):
        assert {p.name for p in GOLDEN_DIR.iterdir()} == {
            f"{name}.json" for name in BY_NAME
        }

    @pytest.mark.parametrize("name", BY_NAME)
    def test_exact_match(self, name, measured):
        """Byte for byte: what ``update_golden.py`` would write is what is
        committed, and no row pins nothing."""
        exp = BY_NAME[name]
        text = (GOLDEN_DIR / f"{name}.json").read_text()
        assert golden_text(exp, measured(exp, "reduced")) == text
        rows = json.loads(text).get("rows") or json.loads(text)["points"]
        assert all(rows.values())


@pytest.fixture(scope="module")
def golden_figure6():
    return json.loads((GOLDEN_DIR / "figure6.json").read_text())


@pytest.fixture(scope="module")
def golden_table1():
    return json.loads((GOLDEN_DIR / "table1.json").read_text())


class TestGoldenFigure6:
    def test_exact_match(self, golden_figure6, measured):
        assert fresh("figure6", measured) == golden_figure6

    def test_golden_covers_all_28_points(self, golden_figure6):
        assert len(golden_figure6["points"]) == 28

    def test_golden_plateau_values_sane(self, golden_figure6):
        """Cross-check the stored numbers against the calibration: the
        odd-L points' efficiency must be the documented plateau."""
        point = golden_figure6["points"]["M=1,L=1"]
        eff = point["sequential_cycles"] / (
            golden_figure6["processors"] * point["total_cycles"]
        )
        assert abs(eff - 1 / 3) < 0.03


class TestGoldenTable1:
    def test_exact_match(self, golden_table1, measured):
        assert fresh("table1", measured) == golden_table1

    def test_golden_orderings_hold(self, golden_table1):
        for name, row in golden_table1["rows"].items():
            assert row["reordered_cycles"] <= row["plain_cycles"], name
            assert row["plain_cycles"] < row["sequential_cycles"], name
