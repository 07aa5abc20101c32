"""``python -m repro profile``: run one workload observed, report/export.

The command is the human front door to the telemetry layer: pick a builtin
loop spec and a backend, run it with ``observe=True``, and get the phase
breakdown, the unified metrics, and any ignored-option notes — plus the
machine-readable exports (Chrome trace-event JSON for ``chrome://tracing``
/ Perfetto, JSONL spans for ad-hoc scripting) and the ASCII Gantt chart.

Options: ``python -m repro profile --help``.  ``--loop=SPEC`` uses the
same builtin grammar as ``python -m repro lint``
(``figure4:n=2000,l=8``, ``chain:n=500,d=1``, ``random:seed=3``);
``--export=chrome|jsonl`` is followed by the output path as its own
argument.

Runs are planned by ``plan_loop`` where the options
allow it, and the chosen plan — stage list, resolved backend, tuner
decision for ``--backend=auto`` — is printed with the tables and
embedded under ``"plan"`` in ``--json`` output, so tuner choices are
auditable from the CLI.
"""

from __future__ import annotations

import argparse

from repro.bench.reporting import format_table
from repro.obs.export import (
    gantt,
    write_chrome_trace,
    write_spans_jsonl,
)
from repro.obs.telemetry import CLOCK_WALL, PHASE_NAMES

__all__ = ["main"]


def main(args: argparse.Namespace) -> int:
    import json as json_module

    from repro.backends import make_runner
    from repro.core.serialize import result_to_dict
    from repro.passes import (
        PlanSpec,
        UnsupportedPlanOption,
        execute_plan,
        plan_loop,
    )
    from repro.passes.spec import AUTO_BACKEND

    if args.export is not None and args.out is None:
        args.error(f"--export={args.export} needs an output path argument")
    if args.export is None and args.out is not None:
        args.error(f"unrecognized arguments: {args.out}")
    _, loop = args.loop

    # Preferred path: plan with plan_loop, so the printed/exported
    # result carries the auditable plan (stage list + tuner decision).
    # Option combinations planning rejects fall
    # back to a hand-driven runner, which documents what it ignores.
    plan_audit = None
    try:
        spec = PlanSpec(
            backend=args.backend,
            processors=args.processors,
            schedule=args.schedule,
            chunk=args.chunk,
            observe=True,
        )
        plan = plan_loop(loop, spec)
        result = execute_plan(loop, plan)
        plan_audit = plan.describe()
    except UnsupportedPlanOption as exc:
        if args.backend == AUTO_BACKEND:
            args.error(f"cannot plan: {exc}")
        runner = make_runner(
            spec=PlanSpec(
                backend=args.backend,
                processors=args.processors,
                observe=True,
            )
        )
        run_kwargs = {}
        if args.schedule is not None:
            run_kwargs["schedule"] = args.schedule
        if args.chunk is not None:
            run_kwargs["chunk"] = args.chunk
        result = runner.run(loop, **run_kwargs)
    telemetry = result.telemetry
    assert telemetry is not None  # observe=True guarantees it

    if args.json:
        payload = result_to_dict(result)
        payload["plan"] = plan_audit
        print(json_module.dumps(payload, indent=2, sort_keys=True))
    else:
        unit = "s" if telemetry.clock == CLOCK_WALL else "cycles"
        phases = telemetry.phase_totals()
        total = telemetry.span_total()
        rows = [
            (name, phases[name], 100.0 * phases[name] / total if total else 0.0)
            for name in PHASE_NAMES
            if name in phases
        ]
        print(
            format_table(
                ["phase", f"extent ({unit})", "% of span"],
                rows,
                title=(
                    f"profile — {loop.name} on {telemetry.backend} "
                    f"(clock: {telemetry.clock})"
                ),
            )
        )
        metrics = telemetry.metrics.as_dict()
        metric_rows = [
            (kind[:-1], name, value)
            for kind in ("counters", "gauges")
            for name, value in metrics[kind].items()
        ] + [
            (
                "histogram",
                name,
                f"n={h['count']} sum={h['sum']:g} "
                f"min={h['min']:g} max={h['max']:g}"
                + (
                    f" p50={h['p50']:g} p95={h['p95']:g} p99={h['p99']:g}"
                    if "p50" in h
                    else ""
                ),
            )
            for name, h in metrics["histograms"].items()
        ]
        if metric_rows:
            print()
            print(format_table(["kind", "metric", "value"], metric_rows))
        if plan_audit is not None:
            print(
                f"plan: {' -> '.join(plan_audit['passes'])} "
                f"(backend={plan_audit['backend']})"
            )
            tuner = plan_audit.get("tuner")
            if tuner is not None:
                print(f"tuner: {tuner['source']} — {tuner['reason']}")
        for note in result.extras.get("ignored_options", []):
            print(
                f"note: {note['backend']} ignored "
                f"{note['option']}={note['value']!r} — {note['reason']}"
            )
        if args.gantt:
            print()
            print(gantt(telemetry))

    if args.export is not None:
        if args.export == "chrome":
            written = write_chrome_trace(telemetry, args.out)
        else:
            written = write_spans_jsonl(telemetry, args.out)
        print(f"wrote {args.export} export: {written}")
    return 0
