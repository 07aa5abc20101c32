"""CLI front door for the perf doctor.

``doctor [SPEC] [--backend=NAME] [--processors=P] [--telemetry=FILE]
        [--json]``
    Run one builtin loop observed (or load saved telemetry: a spans
    ``.jsonl`` export, a telemetry JSON blob, or ``profile --json`` output
    carrying one under ``"telemetry"``) and print the perf doctor's findings
    (:mod:`repro.perf.doctor`).  A malformed argument raises
    :class:`ValueError`, which ``python -m repro`` prints as one line.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

__all__ = ["doctor_main"]

_DOCTOR_LOOP = "figure4:n=2000,m=2,l=8"


def _load_telemetry(path: str):
    """Saved telemetry: a spans ``.jsonl`` export, a bare telemetry JSON
    blob, or ``profile --json`` output carrying one under
    ``"telemetry"``."""
    from repro.obs.export import read_spans_jsonl
    from repro.obs.telemetry import telemetry_from_dict

    if path.endswith(".jsonl"):
        return read_spans_jsonl(Path(path))
    blob = json.loads(Path(path).read_text(encoding="utf-8"))
    if "telemetry" in blob:
        blob = blob["telemetry"]
    return telemetry_from_dict(blob)


def doctor_main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    backend = "threaded"
    processors = 8
    telemetry_path: str | None = None
    as_json = "--json" in args
    spec_arg = _DOCTOR_LOOP
    for a in args:
        if a.startswith("--backend="):
            backend = a.split("=", 1)[1]
        elif a.startswith("--processors="):
            processors = int(a.split("=", 1)[1])
        elif a.startswith("--telemetry="):
            telemetry_path = a.split("=", 1)[1]
        elif a == "--json":
            pass
        elif a.startswith("--"):
            raise ValueError(f"unknown option {a!r}")
        else:
            spec_arg = a

    if telemetry_path is not None:
        try:
            telemetry = _load_telemetry(telemetry_path)
        except (OSError, ValueError, KeyError) as exc:
            print(f"cannot load telemetry from {telemetry_path}: {exc}")
            return 2
        from repro.perf.doctor import diagnose

        findings = [f.as_dict() for f in diagnose(telemetry)]
        subject = f"{telemetry_path} ({telemetry.backend})"
    else:
        from repro.errors import ScheduleError
        from repro.lint.cli import builtin_loops
        from repro.passes import PlanSpec, execute_plan, plan_loop

        loop = next(iter(builtin_loops(spec_arg).values()))
        try:
            spec = PlanSpec(
                backend=backend, processors=processors, diagnose=True
            )
        except ScheduleError as exc:  # a bad --backend / --processors value
            raise ValueError(exc) from None
        plan = plan_loop(loop, spec)
        result = execute_plan(loop, plan)
        findings = result.extras["doctor"]
        subject = f"{spec_arg} on {backend} ({processors} workers)"

    if as_json:
        print(json.dumps({"subject": subject, "findings": findings}, indent=2))
        return 0
    print(f"doctor — {subject}")
    if not findings:
        print("no findings: nothing to flag on this run")
        return 0
    for f in findings:
        rec = ", ".join(f"{k}={v}" for k, v in f["recommendation"].items())
        print(f"[{f['severity']}] {f['kind']}: {f['summary']}")
        print(f"    recommend: {rec}")
    return 0
