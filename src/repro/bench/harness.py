"""Shared experiment-harness utilities.

The experiment modules produce lists of :class:`ExperimentRow` records (one
measured configuration each) and validate them with the shape checks below —
the acceptance criteria of DESIGN.md §2 expressed as code.  Every check runs
where its experiment runs (``python -m repro <command>`` and the tier-1
tests, over :data:`repro.bench.experiments.EXPERIMENTS`), so the suite
*fails* if the reproduction stops reproducing.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Sequence

from repro.core.results import RunResult
from repro.core.serialize import result_to_dict

__all__ = [
    "ExperimentRow",
    "check_monotone_nondecreasing",
    "check_within",
    "geometric_mean",
    "require",
    "rows_of",
    "rows_to_json",
]


@dataclass
class ExperimentRow:
    """One measured configuration of an experiment."""

    label: str
    params: dict = field(default_factory=dict)
    result: RunResult | None = None
    metrics: dict = field(default_factory=dict)

    def metric(self, name: str) -> float:
        if name in self.metrics:
            return self.metrics[name]
        if self.result is not None and hasattr(self.result, name):
            return getattr(self.result, name)
        raise KeyError(f"row {self.label!r} has no metric {name!r}")


def rows_of(result: object) -> list[ExperimentRow]:
    """An experiment returns its rows, or a result object holding them."""
    return getattr(result, "rows", result)


def require(condition: bool, message: str) -> None:
    """A shape assertion that survives ``python -O``."""
    if not condition:
        raise AssertionError(message)


def check_monotone_nondecreasing(
    values: Sequence[float], tolerance: float = 0.0, label: str = "series"
) -> None:
    """Assert a series never drops by more than ``tolerance`` (absolute).

    Used for the Figure-6 even-``L`` efficiencies ("increase monotonically"
    in the paper's words; small plateau ties allowed).
    """
    for i in range(1, len(values)):
        if values[i] < values[i - 1] - tolerance:
            raise AssertionError(
                f"{label} not monotone non-decreasing at position {i}: "
                f"{values[i - 1]:.4f} -> {values[i]:.4f} "
                f"(tolerance {tolerance})"
            )


def check_within(
    value: float, lo: float, hi: float, label: str = "value"
) -> None:
    """Assert a scalar falls inside an acceptance band."""
    if not lo <= value <= hi:
        raise AssertionError(
            f"{label} = {value:.4f} outside acceptance band "
            f"[{lo:.4f}, {hi:.4f}]"
        )


def rows_to_json(rows: Sequence[ExperimentRow], indent: int = 2) -> str:
    """Serialize experiment rows as JSON: label, params, metrics, and the
    flattened run record where one is attached."""
    records = []
    for row in rows:
        record = {
            "label": row.label,
            "params": {
                k: v
                for k, v in row.params.items()
                if isinstance(v, (int, float, str, bool))
            },
            "metrics": {
                k: v
                for k, v in row.metrics.items()
                if isinstance(v, (int, float, str, bool))
            },
        }
        if row.result is not None:
            record["run"] = result_to_dict(row.result)
        records.append(record)
    return json.dumps(records, indent=indent, sort_keys=True)


def geometric_mean(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("geometric mean of empty sequence")
    product = 1.0
    for v in values:
        if v <= 0:
            raise ValueError(f"geometric mean needs positive values, got {v}")
        product *= v
    return product ** (1.0 / len(values))
