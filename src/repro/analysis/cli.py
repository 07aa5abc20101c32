"""``python -m repro analyze`` — symbolic dependence verdicts from the shell.

Targets resolve exactly like ``python -m repro lint`` targets (see
:mod:`repro.lint.cli`): ``.py`` files exposing loops through the
``build_loops()`` / ``LOOPS`` / ``build_loop()`` hooks, directories of
such files, or builtin specs (``figure4[:n=..,m=..,l=..]``,
``chain[:n=..,d=..]``, ``random[:n=..,seed=..]``).

Options: ``python -m repro analyze --help``.

Exit status: 0 when every verdict's proof checks out (and, with
``--cross-check``, matches the runtime inspector), 1 on any problem,
2 on usage errors.
"""

from __future__ import annotations

import argparse
import json

from repro.analysis.checker import check_proof, cross_check
from repro.analysis.engine import analyze_loop

__all__ = ["main"]


def main(args: argparse.Namespace) -> int:
    loops = [triple for target in args.targets for triple in target]

    records: list[dict] = []
    failed = 0
    for source, name, loop in loops:
        verdict = analyze_loop(loop)
        if args.cross_check:
            report = cross_check(loop, verdict)
            problems = list(report.problems)
            checked_terms = report.checked_terms
        else:
            problems = check_proof(loop, verdict)
            checked_terms = None
        if problems:
            failed += 1
        record = {
            "source": source,
            "loop": name,
            "verdict": verdict.as_dict(),
            "elidable": verdict.elidable,
            "problems": problems,
        }
        if checked_terms is not None:
            record["checked_terms"] = checked_terms
        records.append(record)
        if not args.json:
            print(f"== {name} ({source}) ==")
            print(verdict.describe())
            if args.cross_check:
                status = "OK" if not problems else "MISMATCH"
                print(
                    f"cross-check {status} ({checked_terms} term(s) "
                    f"validated against the runtime inspector)"
                )
            for problem in problems:
                print("  ! " + problem)
            print()

    if args.json:
        print(json.dumps({"targets": records, "failed": failed}, indent=2))
    else:
        print(
            f"analyzed {len(loops)} loop(s) from {len(args.targets)} "
            f"target(s); {failed} with problems"
        )
    return 1 if failed else 0
