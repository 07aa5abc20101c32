"""Serialization of run results for downstream tooling.

Experiment harnesses want machine-readable records (JSON per run, CSV per
sweep) next to the human tables.  These helpers flatten
:class:`~repro.core.results.RunResult` into plain dictionaries — values
only Python scalars/lists, so ``json.dumps`` works directly — and render
row collections as CSV text.  The ``y`` array is summarized (length and a
checksum), not embedded: results files should stay small and diffable.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from repro.core.results import RunResult

__all__ = ["result_to_dict", "result_to_json", "results_to_csv"]


def _checksum(y: np.ndarray) -> str:
    """A short stable digest of the value vector (for equality checks
    across runs without storing the data)."""
    return hashlib.sha256(np.ascontiguousarray(y).tobytes()).hexdigest()[:16]


#: Sentinel for values that cannot be represented in JSON at all.
_DROP = object()


def _json_safe(value):
    """Recursively convert ``value`` to a JSON-representable structure,
    or :data:`_DROP` when it has no such form (e.g. a tracer object).

    Containers are preserved — structured extras such as the lint
    findings and race-check reports attached by the
    :class:`~repro.backends.hooks.StaticValidate` hook must survive
    ``--json`` however deeply they nest.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {
            str(k): safe
            for k, v in value.items()
            if (safe := _json_safe(v)) is not _DROP
        }
    if isinstance(value, (list, tuple)):
        return [
            safe for v in value if (safe := _json_safe(v)) is not _DROP
        ]
    return _DROP


def result_to_dict(result: RunResult) -> dict:
    """Flatten one run into a JSON-safe dictionary."""
    phases = {
        p.name: {
            "span": int(p.span),
            "compute": int(p.total_compute),
            "wait": int(p.total_wait),
            "queue": int(p.total_resource_wait),
            "iterations": int(p.total_iterations),
        }
        for p in result.phases
    }
    extras = {
        k: safe
        for k, v in result.extras.items()
        if (safe := _json_safe(v)) is not _DROP
    }
    telemetry = (
        None if result.telemetry is None else result.telemetry.as_dict()
    )
    return {
        "loop": result.loop_name,
        "strategy": result.strategy,
        "processors": int(result.processors),
        "schedule": result.schedule,
        "order": result.order_label,
        "total_cycles": int(result.total_cycles),
        "sequential_cycles": int(result.sequential_cycles),
        "speedup": float(result.speedup),
        "efficiency": float(result.efficiency),
        "wait_cycles": int(result.wait_cycles),
        "wall_seconds": (
            None if result.wall_seconds is None else float(result.wall_seconds)
        ),
        "breakdown": result.breakdown.as_dict(),
        "phases": phases,
        "y_len": int(len(result.y)),
        "y_checksum": _checksum(result.y),
        "extras": extras,
        "ignored_options": list(result.extras.get("ignored_options", [])),
        "telemetry": telemetry,
    }


def result_to_json(result: RunResult, indent: int = 2) -> str:
    """Serialize one run as pretty-printed, key-sorted JSON text."""
    return json.dumps(result_to_dict(result), indent=indent, sort_keys=True)


def results_to_csv(results: list[RunResult]) -> str:
    """Flat CSV over a list of runs (one row each, stable column order)."""
    columns = [
        "loop",
        "strategy",
        "processors",
        "schedule",
        "order",
        "total_cycles",
        "sequential_cycles",
        "speedup",
        "efficiency",
        "wait_cycles",
        "y_checksum",
    ]
    lines = [",".join(columns)]
    for result in results:
        record = result_to_dict(result)
        cells = []
        for col in columns:
            value = record[col]
            text = (
                f"{value:.6f}" if isinstance(value, float) else str(value)
            )
            if "," in text or '"' in text:
                text = '"' + text.replace('"', '""') + '"'
            cells.append(text)
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"
