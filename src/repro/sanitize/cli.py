"""``python -m repro sanitize`` — run the execution sanitizer from the shell.

Two modes:

- **Target mode** (default): resolve each target to loops exactly like
  ``python -m repro lint`` does (a ``.py`` file with a loop hook, a
  directory of such files, or a builtin spec like ``chain:n=200,d=3``),
  execute every loop on the chosen backend under ``validate="sanitize"``,
  and report the witnessed-happens-before verdict per loop.
- **Mutation mode** (``--mutants``): run the schedule-mutation harness
  (:mod:`repro.sanitize.mutate`) that proves detector power — every
  mutant protocol corruption must be killed while the conformant
  protocols stay silent — and gate on the kill rate.

Options
-------
``--backend=NAME``    execution backend (simulated/threaded/vectorized/
                      multiproc/speculative; default threaded)
``--processors=P``    thread/worker/processor count (default 4)
``--json``            machine-readable output instead of text
``--strict``          also fail when a loop's run was uninstrumented
                      (coverage notes), not just on violations
``--mutants``         run the mutation harness instead of targets
``--min-kill=F``      kill-rate floor for ``--mutants`` (default 0.9)

Exit status: 0 clean, 1 on any violation (target mode) or a failed
kill-rate / dirty baseline (mutation mode), 2 on usage errors.
"""

from __future__ import annotations

import json
import sys

from repro.errors import SanitizerError
from repro.passes.spec import BACKENDS, PlanSpec

__all__ = ["main"]


def _run_targets(
    targets: list[str],
    backend: str,
    processors: int,
    as_json: bool,
    strict: bool,
) -> int:
    from repro.backends import make_runner
    from repro.lint.cli import collect_loops

    loops = collect_loops(targets)
    records: list[dict] = []
    total_violations = 0
    total_notes = 0
    for source, name, loop in loops:
        runner = make_runner(
            spec=PlanSpec(
                backend=backend, processors=processors, validate="sanitize"
            )
        )
        try:
            result = runner.run(loop)
            report_dict = result.extras["sanitize"]
        except SanitizerError as exc:
            report_dict = exc.report.as_dict()
        total_violations += sum(report_dict["counts"].values())
        total_notes += len(report_dict["notes"])
        records.append(
            {"source": source, "loop": name, "sanitize": report_dict}
        )
        if not as_json:
            print(f"== {name} ({source}) ==")
            print(report_dict["summary"])
            for note in report_dict["notes"]:
                print(f"note: {note}")
            print()

    if as_json:
        print(
            json.dumps(
                {
                    "backend": backend,
                    "targets": records,
                    "total_violations": total_violations,
                    "notes": total_notes,
                },
                indent=2,
            )
        )
    else:
        print(
            f"sanitized {len(loops)} loop(s) on the {backend} backend: "
            f"{total_violations} violation(s), {total_notes} coverage "
            f"note(s)"
        )
    if total_violations:
        return 1
    if strict and total_notes:
        return 1
    return 0


def _run_mutants(as_json: bool, min_kill: float) -> int:
    from repro.sanitize.mutate import run_mutation_suite

    report = run_mutation_suite()
    if as_json:
        print(json.dumps(report.as_dict(), indent=2))
    else:
        print(report.summary())
    return 0 if report.passed(min_kill=min_kill) else 1


def main(argv: list[str]) -> int:
    as_json = False
    strict = False
    mutants = False
    backend = "threaded"
    processors = 4
    min_kill = 0.9
    targets: list[str] = []
    try:
        for arg in argv:
            if arg == "--json":
                as_json = True
            elif arg == "--strict":
                strict = True
            elif arg == "--mutants":
                mutants = True
            elif arg.startswith("--backend="):
                backend = arg.split("=", 1)[1]
                if backend not in BACKENDS:
                    raise ValueError(
                        f"unknown backend {backend!r}; expected one of "
                        f"{', '.join(BACKENDS)}"
                    )
            elif arg.startswith("--processors="):
                processors = int(arg.split("=", 1)[1])
            elif arg.startswith("--min-kill="):
                min_kill = float(arg.split("=", 1)[1])
            elif arg.startswith("-"):
                raise ValueError(f"unknown sanitize option {arg!r}")
            else:
                targets.append(arg)
        if mutants and targets:
            raise ValueError(
                "--mutants runs the builtin mutation workloads and takes "
                "no targets"
            )
        if not mutants and not targets:
            raise ValueError(
                "no targets; give a .py file, a directory, or a builtin "
                "spec (figure4/chain/random), or pass --mutants"
            )
        if mutants:
            return _run_mutants(as_json, min_kill)
        return _run_targets(targets, backend, processors, as_json, strict)
    except ValueError as exc:
        print(f"sanitize: {exc}", file=sys.stderr)
        return 2
