"""Regenerate the golden experiment records in ``benchmarks/golden/``.

The simulator is deterministic, so the experiments produce *exactly* the
same cycle counts on every run of the same code.  There is one golden file
per record of :data:`repro.bench.experiments.EXPERIMENTS`, holding the
integer cycle counts its rows expose at reduced size; ``tests/
test_experiments.py`` and ``tests/test_golden.py`` compare fresh runs
against them bit-for-bit, so any unintended change to the cost model, the
engine, or a workload generator fails loudly.

Intentional changes (e.g. recalibrating the cost model) are made explicit
by rerunning::

    python benchmarks/update_golden.py

and committing the diff.
"""

from __future__ import annotations

import json
from numbers import Integral
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def figure6_layout(result) -> dict:
    return {
        "n": result.n,
        "processors": result.processors,
        "points": {
            f"M={row.params['m']},L={row.params['l']}": {
                "total_cycles": int(row.result.total_cycles),
                "sequential_cycles": int(row.result.sequential_cycles),
                "wait_cycles": int(row.result.wait_cycles),
            }
            for row in result.rows
        },
    }


def table1_layout(result) -> dict:
    return {
        "processors": result.processors,
        "rows": {
            row.label: {
                "sequential_cycles": int(row.metrics["sequential_cycles"]),
                "plain_cycles": int(row.metrics["plain_cycles"]),
                "reordered_cycles": int(row.metrics["reordered_cycles"]),
                "n": int(row.params["n"]),
                "levels": int(row.params["n_levels"]),
            }
            for row in result.rows
        },
    }


def uniform_layout(result) -> dict:
    """Per row, every integer cycle count it exposes: its run's total /
    sequential / busy-wait cycles and each integer metric."""
    from repro.bench.harness import rows_of

    pinned = {}
    for row in rows_of(result):
        counts = {
            name: int(value)
            for name, value in row.metrics.items()
            if isinstance(value, Integral) and not isinstance(value, bool)
        }
        if row.result is not None:
            for name in ("total_cycles", "sequential_cycles", "wait_cycles"):
                counts[name] = int(getattr(row.result, name))
        pinned[row.label] = counts
    return {"rows": pinned}


#: The two files committed before the uniform layout keep theirs.
LAYOUTS = {"figure6": figure6_layout, "table1": table1_layout}


def golden_text(exp, result) -> str:
    """What ``golden/<exp.name>.json`` holds for a reduced-size ``result``."""
    record = LAYOUTS.get(exp.name, uniform_layout)(result)
    return json.dumps(record, indent=2, sort_keys=True) + "\n"


def main() -> int:
    from repro.bench.experiments import EXPERIMENTS

    GOLDEN_DIR.mkdir(exist_ok=True)
    for exp in EXPERIMENTS:
        path = GOLDEN_DIR / f"{exp.name}.json"
        path.write_text(golden_text(exp, exp.run(**exp.reduced)))
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
