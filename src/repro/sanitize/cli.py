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

Options: ``python -m repro sanitize --help``.

Exit status: 0 clean, 1 on any violation (target mode) or a failed
kill-rate / dirty baseline (mutation mode), 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json

from repro.errors import SanitizerError
from repro.passes.spec import PlanSpec

__all__ = ["main"]


def _run_targets(
    loops: list[tuple],
    backend: str,
    processors: int,
    as_json: bool,
    strict: bool,
) -> int:
    from repro.backends import make_runner

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


def main(args: argparse.Namespace) -> int:
    if args.mutants:
        if args.targets:
            args.error(
                "--mutants runs the builtin mutation workloads and takes "
                "no targets"
            )
        return _run_mutants(args.json, args.min_kill)
    if not args.targets:
        args.error(
            "no targets; give a .py file, a directory, or a builtin spec "
            "(figure4/chain/random), or pass --mutants"
        )
    loops = [triple for target in args.targets for triple in target]
    return _run_targets(
        loops, args.backend, args.processors, args.json, args.strict
    )
