"""``python -m repro lint`` — run the static analyzer from the shell.

Each loop's report is its symbolic verdict (proof included in ``--json``)
and the rules' findings; ``--rules=VERDICT-CHECK`` alone gates every
verdict on its proof audit and its runtime cross-check.

Targets
-------
A target is any mix of:

- a ``.py`` file exposing loops through one of three hooks, checked in
  order: ``build_loops() -> dict[str, IrregularLoop]``, a module-level
  ``LOOPS`` dict, or ``build_loop() -> IrregularLoop``;
- a directory — every ``*.py`` under it that defines one of those hooks
  is linted (files without a hook are skipped silently, so pointing the
  CI gate at ``examples/`` is safe);
- a builtin spec: ``figure4[:n=..,m=..,l=..]``, ``chain[:n=..,d=..]``,
  ``random[:n=..,seed=..,max_terms=..]``.

Options: ``python -m repro lint --help``.  ``--prune-baseline`` rewrites
the ``--baseline`` file keeping only the recorded findings the current run
still produces: a fixed finding's stale key would otherwise shadow the
same finding if it ever regresses.

A baseline file is JSON — ``{"version": 1, "findings": [key, ...]}``
with one ``rule|loop|location`` key per accepted finding.  Suppressed
findings are excluded from the exit-status computation and from the text
output (the JSON output lists them under ``suppressed``), so a CI gate
with ``--strict --baseline=...`` only fails when a diagnostic appears
that the baseline has not recorded.

Exit status: 0 clean (or info/warning findings only), 1 if any
error-severity finding (always includes races), 2 on usage errors.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
from pathlib import Path

from repro.analysis.engine import analyze_loop
from repro.ir.loop import IrregularLoop
from repro.lint.diagnostics import (
    SEVERITY_ERROR,
    SEVERITY_WARNING,
    Diagnostic,
    format_diagnostics,
)
from repro.lint.driver import run_lints
from repro.lint.rules import rule_ids

__all__ = [
    "main",
    "rule_list",
    "collect_loops",
    "loops_from_file",
    "builtin_loops",
    "baseline_key",
    "load_baseline",
]

#: Hook names probed on target modules, in priority order.
_HOOKS = ("build_loops", "LOOPS", "build_loop")


def baseline_key(diagnostic: Diagnostic) -> str:
    """The identity under which a finding is recorded in (and matched
    against) a baseline file: rule, loop, and location — but not the
    message text, which may be rephrased without the finding changing."""
    return f"{diagnostic.rule}|{diagnostic.loop}|{diagnostic.location}"


def load_baseline(path: Path) -> set[str]:
    """Read a baseline file written by ``--write-baseline``."""
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ValueError(f"cannot read baseline {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"baseline {path} is not JSON: {exc}") from None
    if not isinstance(data, dict) or not isinstance(
        data.get("findings"), list
    ):
        raise ValueError(
            f"baseline {path} is malformed: expected an object with a "
            f"'findings' list"
        )
    return set(data["findings"])


def builtin_loops(spec: str) -> dict[str, IrregularLoop]:
    """Instantiate a builtin loop spec like ``figure4:n=200,l=8``."""
    from repro.workloads.synthetic import chain_loop, random_irregular_loop
    from repro.workloads.testloop import make_test_loop

    kind, _, argstr = spec.partition(":")
    kwargs: dict[str, int] = {}
    if argstr:
        for item in argstr.split(","):
            key, _, value = item.partition("=")
            if not value:
                raise ValueError(f"malformed spec argument {item!r} in {spec!r}")
            kwargs[key.strip()] = int(value)
    if kind == "figure4":
        loop = make_test_loop(
            n=kwargs.pop("n", 200),
            m=kwargs.pop("m", 2),
            l=kwargs.pop("l", 8),
        )
    elif kind == "chain":
        loop = chain_loop(kwargs.pop("n", 200), kwargs.pop("d", 1))
    elif kind == "random":
        loop = random_irregular_loop(
            kwargs.pop("n", 200),
            max_terms=kwargs.pop("max_terms", 4),
            seed=kwargs.pop("seed", 0),
        )
    else:
        raise ValueError(f"unknown builtin loop spec {kind!r}")
    if kwargs:
        raise ValueError(
            f"unknown spec argument(s) {sorted(kwargs)} for {kind!r}"
        )
    return {loop.name: loop}


def loops_from_file(path: Path) -> dict[str, IrregularLoop]:
    """Import ``path`` and harvest its loops via the first hook found."""
    spec = importlib.util.spec_from_file_location(
        f"_repro_lint_target_{path.stem}", path
    )
    if spec is None or spec.loader is None:
        raise ValueError(f"cannot import {path}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    for hook in _HOOKS:
        obj = getattr(module, hook, None)
        if obj is None:
            continue
        harvest = obj() if callable(obj) else obj
        if isinstance(harvest, IrregularLoop):
            return {harvest.name: harvest}
        return dict(harvest)
    raise ValueError(
        f"{path} defines none of the lint hooks {', '.join(_HOOKS)}"
    )


def _file_has_hook(path: Path) -> bool:
    try:
        text = path.read_text(encoding="utf-8")
    except OSError:
        return False
    return any(hook in text for hook in _HOOKS)


def collect_loops(
    targets: list[str],
) -> list[tuple[str, str, IrregularLoop]]:
    """Resolve targets to ``(source, name, loop)`` triples."""
    collected: list[tuple[str, str, IrregularLoop]] = []
    for target in targets:
        path = Path(target)
        if path.is_dir():
            hits = 0
            for file in sorted(path.rglob("*.py")):
                # Bytecode caches shadow their source files (a stale
                # sibling .py inside __pycache__ would be imported and
                # linted twice, or crash on a bad import); skip them.
                if "__pycache__" in file.parts:
                    continue
                if not _file_has_hook(file):
                    continue
                for name, loop in loops_from_file(file).items():
                    collected.append((str(file), name, loop))
                    hits += 1
            if hits == 0:
                raise ValueError(
                    f"no *.py file under {path} defines a lint hook "
                    f"({', '.join(_HOOKS)})"
                )
        elif path.is_file():
            for name, loop in loops_from_file(path).items():
                collected.append((str(path), name, loop))
        else:
            for name, loop in builtin_loops(target).items():
                collected.append((f"builtin:{target}", name, loop))
    return collected


def rule_list(text: str) -> list[str]:
    """The rule IDs of a ``--rules=A,B`` value."""
    only = [r.strip() for r in text.split(",")]
    unknown = sorted(set(only) - set(rule_ids()))
    if unknown:
        raise ValueError(
            f"unknown rule ID(s) {', '.join(unknown)}; "
            f"registered: {', '.join(rule_ids())}"
        )
    return only


def main(args: argparse.Namespace) -> int:
    baseline: set[str] | None = None
    if args.baseline is not None:
        try:
            baseline = load_baseline(args.baseline)
        except ValueError as exc:
            args.error(str(exc))
    elif args.prune_baseline:
        args.error(
            "--prune-baseline needs --baseline=FILE to know which file "
            "to rewrite"
        )
    loops = [triple for target in args.targets for triple in target]

    records: list[dict] = []
    all_keys: set[str] = set()
    total_suppressed = 0
    worst = ""

    for source, name, loop in loops:
        diagnostics = run_lints(
            loop,
            schedule=args.schedule,
            chunk=args.chunk,
            processors=args.processors,
            strip_block=args.strip_block,
            only=args.rules,
            backend=args.backend,
        )
        all_keys.update(baseline_key(d) for d in diagnostics)
        suppressed: list[Diagnostic] = []
        if baseline is not None:
            suppressed = [
                d for d in diagnostics if baseline_key(d) in baseline
            ]
            diagnostics = [
                d for d in diagnostics if baseline_key(d) not in baseline
            ]
            total_suppressed += len(suppressed)
        verdict = analyze_loop(loop)  # memoised: the rules computed it
        records.append(
            {
                "source": source,
                "loop": name,
                "verdict": verdict.as_dict(),
                "diagnostics": [d.as_dict() for d in diagnostics],
                "suppressed": [baseline_key(d) for d in suppressed],
            }
        )
        worst = _worse(worst, diagnostics)
        if not (args.json or args.write_baseline or args.prune_baseline):
            print(f"== {name} ({source}) ==")
            print(verdict.describe())
            print(format_diagnostics(diagnostics))
            if suppressed:
                print(f"({len(suppressed)} baselined finding(s) suppressed)")
            print()

    if args.prune_baseline:
        assert baseline is not None
        kept = baseline & all_keys
        stale = sorted(baseline - all_keys)
        args.baseline.write_text(
            json.dumps({"version": 1, "findings": sorted(kept)}, indent=2)
            + "\n",
            encoding="utf-8",
        )
        print(
            f"pruned {len(stale)} stale finding key(s) from "
            f"{args.baseline} ({len(kept)} kept)"
        )
        for key in stale:
            print(f"  - {key}")
        return 0

    if args.write_baseline is not None:
        args.write_baseline.write_text(
            json.dumps(
                {"version": 1, "findings": sorted(all_keys)}, indent=2
            )
            + "\n",
            encoding="utf-8",
        )
        print(
            f"wrote {len(all_keys)} finding key(s) from {len(loops)} "
            f"loop(s) to {args.write_baseline}"
        )
        return 0

    if args.json:
        print(
            json.dumps(
                {
                    "targets": records,
                    "worst_severity": worst,
                    "suppressed": total_suppressed,
                },
                indent=2,
            )
        )
    else:
        tail = (
            f" ({total_suppressed} baselined finding(s) suppressed)"
            if baseline is not None
            else ""
        )
        print(
            f"linted {len(loops)} loop(s) from {len(args.targets)} "
            f"target(s){tail}"
        )
    if worst == SEVERITY_ERROR:
        return 1
    if args.strict and worst == SEVERITY_WARNING:
        return 1
    return 0


def _worse(worst: str, diagnostics: list[Diagnostic]) -> str:
    order = {"": 0, "info": 1, "warning": 2, "error": 3}
    for d in diagnostics:
        if order[d.severity] > order[worst]:
            worst = d.severity
    return worst
