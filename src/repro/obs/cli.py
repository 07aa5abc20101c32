"""``python -m repro explain``: one run, planned, observed and diagnosed.

The command answers, for one builtin loop spec (the ``lint`` target
grammar: ``figure4:n=2000,l=8``, ``chain:n=500,d=1``, ``random:seed=3``)
on one backend: which plan ran and why (its stages, the tuner's reason),
where the time went (the Figure-3 phase budget, plus the ``wrapper`` row:
the run envelope and its hooks, outside every phase), which kernel body
ran and why, what the verdict and elision notes say, what the perf doctor
finds (:mod:`repro.obs.doctor`), and every option a backend ignored.
``--json`` prints all of it as one document::

    {"version": 1, "subject": ..., "plan": ..., "result": ...,
     "findings": [...], "fallbacks": [...]}

``--telemetry=FILE`` reports saved telemetry instead of running (its
phase budget, metrics and findings): a spans ``.jsonl`` export, a
telemetry JSON blob, or ``explain --json`` output.  A file that cannot be loaded is a usage error (exit status 2).
``--export=FILE`` writes the trace: Chrome trace-event JSON for
``chrome://tracing`` / Perfetto to a ``.json`` file, JSONL spans to a
``.jsonl`` one; ``--gantt`` appends the ASCII Gantt chart.

Options: ``python -m repro explain --help``.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from repro.bench.reporting import format_table
from repro.obs.export import (
    gantt,
    read_spans_jsonl,
    write_chrome_trace,
    write_spans_jsonl,
)
from repro.obs.telemetry import CLOCK_WALL, PHASE_NAMES, telemetry_from_dict

__all__ = ["main"]

#: The result's verdict and elision notes, in print order.
_VERDICT_KEYS = (
    "analyze", "verdict", "verdict_distance", "inspector_elided",
    "distance_elision",
)


def _load_telemetry(path: str):
    """Saved telemetry: a spans ``.jsonl`` export, a bare telemetry JSON
    blob, or a document carrying one under ``"telemetry"`` (``explain
    --json`` nests it under ``"result"`` too)."""
    if path.endswith(".jsonl"):
        return read_spans_jsonl(Path(path))
    blob = json.loads(Path(path).read_text(encoding="utf-8"))
    for key in ("result", "telemetry"):
        blob = blob.get(key, blob)
    return telemetry_from_dict(blob)


def _run(args: argparse.Namespace, loop):
    """The observed run, and its plan audit (``None`` when planning
    refused an option and a runner ran the loop directly, noting what it
    ignored)."""
    from repro.backends import make_runner
    from repro.passes import (
        PlanSpec,
        UnsupportedPlanOption,
        execute_plan,
        plan_loop,
    )
    from repro.passes.spec import AUTO_BACKEND

    spec = PlanSpec(
        backend=args.backend,
        processors=args.processors,
        schedule=args.schedule,
        chunk=args.chunk,
        observe=True,
    )
    try:
        plan = plan_loop(loop, spec)
    except UnsupportedPlanOption as exc:
        if args.backend == AUTO_BACKEND:
            args.error(f"cannot plan: {exc}")
        runner = make_runner(
            spec=PlanSpec(
                backend=args.backend, processors=args.processors, observe=True
            )
        )
        return runner.run(loop, schedule=args.schedule, chunk=args.chunk), None
    return execute_plan(loop, plan), plan.describe()


def _phase_table(telemetry) -> str:
    """The phase budget in ms (wall clock) or cycles, with one
    ``wrapper`` row for the run span outside every phase, so the rows sum
    to the span."""
    wall = telemetry.clock == CLOCK_WALL
    unit, scale = ("ms", 1e3) if wall else ("cycles", 1)
    total = telemetry.span_total()
    phases = telemetry.phase_totals()
    extents = [(name, phases[name]) for name in PHASE_NAMES if name in phases]
    extents.append(("wrapper", total - sum(e for _, e in extents)))
    rows = [
        (name, scale * e, 100.0 * e / total if total else 0.0)
        for name, e in extents
    ]
    return format_table(
        ["phase", f"extent ({unit})", "% of span"], rows,
        title=f"run span {scale * total:.3f} {unit}",
    )


def _metric_rows(telemetry) -> list[tuple]:
    metrics = telemetry.metrics.as_dict()
    rows = [
        (kind[:-1], name, value)
        for kind in ("counters", "gauges")
        for name, value in metrics[kind].items()
    ]
    for name, h in metrics["histograms"].items():
        quantiles = (
            f" p50={h['p50']:g} p95={h['p95']:g} p99={h['p99']:g}"
            if "p50" in h
            else ""
        )
        rows.append((
            "histogram", name,
            f"n={h['count']} sum={h['sum']:g} min={h['min']:g} "
            f"max={h['max']:g}{quantiles}",
        ))
    return rows


def main(args: argparse.Namespace) -> int:
    from repro.core.serialize import result_to_dict
    from repro.obs.doctor import diagnose, diagnose_result

    if args.export and not args.export.endswith((".json", ".jsonl")):
        args.error("argument --export: FILE must end in .json (Chrome "
                   "trace events) or .jsonl (spans)")
    if args.telemetry is not None:
        try:
            telemetry = _load_telemetry(args.telemetry)
        except (OSError, ValueError, KeyError, AttributeError) as exc:
            args.error(f"cannot load telemetry from {args.telemetry}: {exc}")
        result = plan = None
        subject = f"{args.telemetry} ({telemetry.backend})"
        findings = diagnose(telemetry)
    else:
        spec_text, loop = args.spec
        result, plan = _run(args, loop)
        telemetry = result.telemetry
        assert telemetry is not None  # observe=True guarantees it
        subject = (
            f"{spec_text} on {telemetry.backend} ({result.processors} "
            f"workers)"
        )
        findings = diagnose_result(result)
    extras = {} if result is None else result.extras
    doc = {
        "version": 1,
        "subject": subject,
        "plan": plan,
        "result": None if result is None else result_to_dict(result),
        "findings": [f.as_dict() for f in findings],
        "fallbacks": extras.get("ignored_options", []),
    }

    if args.json:
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print(f"explain — {subject}, clock {telemetry.clock}")
        if result is not None and plan is None:
            print("plan: none — an option is outside planning; the runner "
                  "ran the loop directly")
        elif plan is not None:
            print(f"plan: {' -> '.join(plan['passes'])} "
                  f"(backend={plan['backend']})")
            if "tuner" in plan:
                print(f"tuner: {plan['tuner']['source']} — "
                      f"{plan['tuner']['reason']}")
        print()
        print(_phase_table(telemetry))
        metric_rows = _metric_rows(telemetry)
        if metric_rows:
            print()
            print(format_table(["kind", "metric", "value"], metric_rows))
        print()
        for key in ("kernel", "sim_executor"):
            body = extras.get(key)
            if body is not None:
                why = f" ({body['reason']})" if body.get("reason") else ""
                print(f"{key}: {body['body']}{why}")
        if result is not None:
            notes = [f"{k}={extras[k]}" for k in _VERDICT_KEYS if k in extras]
            print(f"verdict: {', '.join(notes) or 'none (no analyze)'}")
        if not findings:
            print("findings: none — nothing to flag on this run")
        for f in findings:
            rec = ", ".join(f"{k}={v}" for k, v in f.recommendation.items())
            print(f"[{f.severity}] {f.kind}: {f.summary}")
            if rec:
                print(f"    recommend: {rec}")
        for note in doc["fallbacks"]:
            print(f"note: {note['backend']} ignored "
                  f"{note['option']}={note['value']!r} — {note['reason']}")
        if args.gantt:
            print()
            print(gantt(telemetry))

    if args.export is not None:
        jsonl = args.export.endswith(".jsonl")
        write = write_spans_jsonl if jsonl else write_chrome_trace
        kind = "jsonl" if jsonl else "chrome"
        print(f"wrote {kind} export: {write(telemetry, args.export)}")
    return 0
