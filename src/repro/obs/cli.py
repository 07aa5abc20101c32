"""``python -m repro profile``: run one workload observed, report/export.

The command is the human front door to the telemetry layer: pick a builtin
loop spec and a backend, run it with ``observe=True``, and get the phase
breakdown, the unified metrics, and any ignored-option notes — plus the
machine-readable exports (Chrome trace-event JSON for ``chrome://tracing``
/ Perfetto, JSONL spans for ad-hoc scripting) and the ASCII Gantt chart.

Usage::

    python -m repro profile [--backend=NAME|auto] [--loop=SPEC]
        [--processors=P] [--schedule=KIND] [--chunk=K]
        [--export=chrome|jsonl OUT] [--gantt] [--json]

``SPEC`` uses the same builtin grammar as ``python -m repro lint``
(``figure4:n=2000,l=8``, ``chain:n=500,d=1``, ``random:seed=3``).

Runs are planned by ``plan_loop`` where the options
allow it, and the chosen plan — stage list, resolved backend, tuner
decision for ``--backend=auto`` — is printed with the tables and
embedded under ``"plan"`` in ``--json`` output, so tuner choices are
auditable from the CLI.
"""

from __future__ import annotations

import sys

from repro.bench.reporting import format_table
from repro.obs.export import (
    gantt,
    write_chrome_trace,
    write_spans_jsonl,
)
from repro.obs.telemetry import CLOCK_WALL, PHASE_NAMES

__all__ = ["main"]

DEFAULT_LOOP = "figure4:n=2000,m=2,l=8"


def _parse(argv: list[str]) -> dict:
    opts = {
        "backend": "simulated",
        "loop": DEFAULT_LOOP,
        "processors": 8,
        "schedule": None,
        "chunk": None,
        "export": None,  # (kind, path)
        "gantt": False,
        "json": False,
    }
    positional: list[str] = []
    pending_export: str | None = None
    for a in argv:
        if pending_export is not None:
            opts["export"] = (pending_export, a)
            pending_export = None
        elif a.startswith("--backend="):
            opts["backend"] = a.split("=", 1)[1]
        elif a.startswith("--loop="):
            opts["loop"] = a.split("=", 1)[1]
        elif a.startswith("--processors="):
            opts["processors"] = int(a.split("=", 1)[1])
        elif a.startswith("--schedule="):
            opts["schedule"] = a.split("=", 1)[1]
        elif a.startswith("--chunk="):
            opts["chunk"] = int(a.split("=", 1)[1])
        elif a.startswith("--export="):
            kind = a.split("=", 1)[1]
            if kind not in ("chrome", "jsonl"):
                raise ValueError(
                    f"unknown export kind {kind!r}; expected chrome or jsonl"
                )
            pending_export = kind
        elif a == "--gantt":
            opts["gantt"] = True
        elif a == "--json":
            opts["json"] = True
        elif a.startswith("--"):
            raise ValueError(f"unknown profile option {a!r}")
        else:
            positional.append(a)
    if pending_export is not None:
        raise ValueError(
            f"--export={pending_export} needs an output path argument"
        )
    if positional:
        raise ValueError(f"unexpected argument(s) {positional}")
    return opts


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    try:
        opts = _parse(args)
    except ValueError as exc:
        print(exc)
        return 2

    import json as json_module

    from repro.backends import BACKENDS, make_runner
    from repro.core.serialize import result_to_dict
    from repro.errors import ScheduleError
    from repro.lint.cli import builtin_loops
    from repro.passes import (
        PlanSpec,
        UnsupportedPlanOption,
        execute_plan,
        plan_loop,
    )
    from repro.passes.spec import AUTO_BACKEND

    known = BACKENDS + (AUTO_BACKEND,)
    if opts["backend"] not in known:
        print(
            f"unknown backend {opts['backend']!r}; "
            f"expected one of {', '.join(known)}"
        )
        return 2
    try:
        loop = next(iter(builtin_loops(opts["loop"]).values()))
    except ValueError as exc:
        print(exc)
        return 2

    # Preferred path: plan with plan_loop, so the printed/exported
    # result carries the auditable plan (stage list + tuner decision).
    # Option combinations planning rejects fall
    # back to a hand-driven runner, which documents what it ignores.
    plan_audit = None
    try:
        spec = PlanSpec(
            backend=opts["backend"],
            processors=opts["processors"],
            schedule=opts["schedule"],
            chunk=opts["chunk"],
            observe=True,
        )
        plan = plan_loop(loop, spec)
        result = execute_plan(loop, plan)
        plan_audit = plan.describe()
    except UnsupportedPlanOption as exc:
        if opts["backend"] == AUTO_BACKEND:
            print(f"cannot plan: {exc}")
            return 2
        runner = make_runner(
            spec=PlanSpec(
                backend=opts["backend"],
                processors=opts["processors"],
                observe=True,
            )
        )
        run_kwargs = {}
        if opts["schedule"] is not None:
            run_kwargs["schedule"] = opts["schedule"]
        if opts["chunk"] is not None:
            run_kwargs["chunk"] = opts["chunk"]
        result = runner.run(loop, **run_kwargs)
    except ScheduleError as exc:
        print(exc)
        return 2
    telemetry = result.telemetry
    assert telemetry is not None  # observe=True guarantees it

    if opts["json"]:
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
        if opts["gantt"]:
            print()
            print(gantt(telemetry))

    if opts["export"] is not None:
        kind, path = opts["export"]
        if kind == "chrome":
            written = write_chrome_trace(telemetry, path)
        else:
            written = write_spans_jsonl(telemetry, path)
        print(f"wrote {kind} export: {written}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
