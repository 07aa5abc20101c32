"""``python -m repro doctor``: run one builtin loop observed (or load saved
telemetry: a spans ``.jsonl`` export, a telemetry JSON blob, or
``profile --json`` output carrying one under ``"telemetry"``) and print the
perf doctor's findings (:mod:`repro.perf.doctor`).

Options: ``python -m repro doctor --help``.  A ``--telemetry`` file that
cannot be loaded is a usage error (exit status 2).
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

__all__ = ["doctor_main"]


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


def doctor_main(args: argparse.Namespace) -> int:
    telemetry_path: str | None = args.telemetry
    if telemetry_path is not None:
        try:
            telemetry = _load_telemetry(telemetry_path)
        except (OSError, ValueError, KeyError) as exc:
            args.error(f"cannot load telemetry from {telemetry_path}: {exc}")
        from repro.perf.doctor import diagnose

        findings = [f.as_dict() for f in diagnose(telemetry)]
        subject = f"{telemetry_path} ({telemetry.backend})"
    else:
        from repro.passes import PlanSpec, execute_plan, plan_loop

        spec_arg, loop = args.spec
        spec = PlanSpec(
            backend=args.backend, processors=args.processors, diagnose=True
        )
        plan = plan_loop(loop, spec)
        result = execute_plan(loop, plan)
        findings = result.extras["doctor"]
        subject = f"{spec_arg} on {args.backend} ({args.processors} workers)"

    if args.json:
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
