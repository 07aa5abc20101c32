"""Command-line front door: ``python -m repro <command>``.

:func:`build_parser` declares the whole command line — every command,
option, default and accepted value — as one :mod:`argparse` tree; the
usage text and each command's ``--help`` are generated from it.  A command
body is a function of the parsed :class:`~argparse.Namespace` (imported on
use; it reports a constraint between options through ``args.error``).  An
argument the tree does not accept is one ``repro <command>: <message>``
line on stderr and exit status 2, never a traceback.
"""

from __future__ import annotations

import argparse
import sys
from importlib import import_module
from pathlib import Path
from typing import Callable, NoReturn

from repro._version import __version__

#: What ``explain`` runs when no builtin spec is given.
DEFAULT_LOOP = "figure4:n=2000,m=2,l=8"


def _load(entry: str) -> Callable:
    """The function a ``"package.module:function"`` string names."""
    module, _, function = entry.partition(":")
    return getattr(import_module(module), function)


def _experiment(args: argparse.Namespace) -> int:
    """Every experiment of the table that ``args.command`` runs: print its
    report, then its shape check's verdict (exit 1 if any check fails)."""
    from repro.bench.experiments import EXPERIMENTS
    from repro.bench.harness import rows_of, rows_to_json

    json_path = getattr(args, "json", None)
    if json_path:
        try:  # an unwritable path is a usage error, found before the run
            open(json_path, "w").close()
        except OSError as exc:
            args.error(f"argument --json: {exc}")
    status = 0
    for exp in EXPERIMENTS:
        if exp.command != args.command:
            continue
        result = exp.run(**{k: getattr(args, k) for k in exp.options})
        print(exp.report(result))
        if json_path:
            with open(json_path, "w") as handle:
                handle.write(rows_to_json(rows_of(result)))
            print(f"wrote {json_path}")
        try:
            exp.check(result)
        except AssertionError as exc:
            print(f"shape check: FAIL — {exc}", file=sys.stderr)
            status = 1
        else:
            print("shape check: PASS")
    return status


def _demo(args: argparse.Namespace) -> int:
    import repro

    if args.backend != "simulated":
        loop = repro.make_test_loop(n=600, m=2, l=8)
        result, plan = repro.parallelize(loop, backend=args.backend)
        print(f"plan: {plan.describe()}")
        print(result.summary())
        import numpy as np

        assert np.array_equal(result.y, loop.run_sequential())
        print("output equals the sequential oracle: yes")
        return 0

    loop = repro.make_test_loop(n=600, m=2, l=8)
    runner = repro.PreprocessedDoacross(processors=8)
    result = runner.run(loop)
    print(result.summary())
    print()
    reordered = runner.run(loop, reorder="doconsider")
    print("after doconsider reordering:")
    print(reordered.summary())

    # The iconic picture: a distance-1 recurrence under *block* scheduling
    # serializes into a staircase of busy-waits ('.'), while cyclic chunk-1
    # pipelines it (dense '#').
    chain = repro.chain_loop(240, 1)
    print("\ndistance-1 chain, block schedule (staircase of busy-waits):")
    blocked = runner.run(chain, schedule="block", trace=True)
    print(blocked.extras["trace"].gantt(width=72))
    print("\nsame chain, cyclic chunk-1 schedule (pipelined):")
    pipelined = runner.run(chain, schedule="cyclic", chunk=1, trace=True)
    print(pipelined.extras["trace"].gantt(width=72))
    print(
        f"\nblock: {blocked.total_cycles} cycles;  "
        f"cyclic-1: {pipelined.total_cycles} cycles"
    )
    return 0


def _verify(args: argparse.Namespace) -> int:
    import repro

    loop = repro.random_irregular_loop(args.n, seed=args.seed)
    report = repro.verify_loop(loop)
    print(report.summary())
    return 0 if report.passed else 1


def _codegen(args: argparse.Namespace) -> int:
    import repro
    from repro.ir.codegen import generate_source
    from repro.ir.transform import plan_transform

    if args.c:
        # What is actually compiled: the executor's scalar walk and the
        # max-plus sweep.
        from repro.backends.native import c_source

        print(c_source(), end="")
        return 0
    if args.kind == "irregular":
        loop = repro.random_irregular_loop(100, seed=0)
        plan = plan_transform(loop)
    elif args.kind == "affine":
        loop = repro.make_test_loop(n=100, m=2, l=6)
        plan = plan_transform(loop)
    elif args.kind == "chain":
        loop = repro.chain_loop(100, 4)
        plan = plan_transform(loop, known_distance=4)
    else:
        loop = repro.random_irregular_loop(100, max_terms=0, seed=0)
        plan = plan_transform(loop, assert_independent=True)
    print(generate_source(loop, plan))
    return 0


def _version(args: argparse.Namespace) -> int:
    print(__version__)
    return 0


class _Parser(argparse.ArgumentParser):
    """A parser whose every rejection is one ``repro <command>: <message>``
    line on stderr and exit status 2."""

    #: Sub-command name -> its parser (set on the root by build_parser).
    commands: dict[str, "_Parser"]

    def error(self, message: str) -> NoReturn:
        prog = self.prog.removeprefix("python -m ")
        print(f"{prog}: {message}", file=sys.stderr)
        raise SystemExit(2)


def _typed(convert: Callable[[str], object]) -> Callable[[str], object]:
    """``convert`` as an argparse ``type=``: the :class:`ValueError` it
    rejects a text with becomes the error line's message."""

    def typed(text: str) -> object:
        try:
            return convert(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return typed


def _integer_from(lowest: int) -> Callable[[str], object]:
    def convert(text: str) -> int:
        value = int(text)
        if value < lowest:
            raise ValueError(f"must be an integer >= {lowest}, got {value}")
        return value

    return _typed(convert)


def build_parser() -> _Parser:
    """The one declaration of the command line."""
    from repro.lint.cli import builtin_loops, collect_loops, rule_list
    from repro.lint.hb import RACE_CHECKED_BACKENDS
    from repro.machine.scheduler import SCHEDULE_KINDS
    from repro.passes.spec import BACKENDS, SPEC_BACKENDS

    positive = _integer_from(1)
    #: A lint target, resolved to its ``(source, name, loop)`` triples.
    target = _typed(lambda text: collect_loops([text]))

    @_typed
    def builtin(text: str) -> tuple:
        """A builtin loop spec, with the one loop it builds."""
        (loop,) = builtin_loops(text).values()
        return text, loop

    parser = _Parser(
        prog="python -m repro",
        description="The preprocessed doacross loop: the paper's "
        "experiments, and the tools around the executors.",
        allow_abbrev=False,
    )
    commands = parser.add_subparsers(
        title="Commands", metavar="<command>", dest="command", required=True
    )
    parser.commands = commands.choices

    def command(name: str, handler: str | Callable, summary: str) -> _Parser:
        sub = commands.add_parser(
            name, help=summary, description=summary, allow_abbrev=False
        )
        sub.set_defaults(handler=handler, error=sub.error)
        return sub

    def flag(sub: _Parser, name: str, text: str) -> None:
        sub.add_argument(name, action="store_true", help=text)

    def targets(sub: _Parser, nargs: str) -> None:
        sub.add_argument(
            "targets", nargs=nargs, type=target, metavar="target",
            help="a .py file exposing loops, a directory of such files, or "
            "a builtin spec (figure4/chain/random[:key=value,...])",
        )

    def json_path(sub: _Parser) -> None:
        sub.add_argument(
            "--json", metavar="PATH", help="also write the rows as JSON"
        )

    reduced = "reduced grids (fast smoke version)"

    sub = command(
        "figure6", _experiment,
        "regenerate the paper's Figure 6 (default N=10000), shape-checked",
    )
    sub.add_argument(
        "n", nargs="?", type=positive, default=10000, metavar="N",
        help="iterations of the Figure-4 test loop",
    )
    json_path(sub)

    sub = command(
        "table1", _experiment,
        "regenerate the paper's Table 1 (--small: reduced grids)",
    )
    flag(sub, "--small", reduced)
    json_path(sub)

    sub = command(
        "ablations", _experiment,
        "run the ablation sweeps A-H and print their tables",
    )
    flag(sub, "--small", reduced)

    sub = command(
        "table2", _experiment,
        "the amortization extension: per-solve cost over k solves",
    )
    flag(sub, "--small", reduced)
    sub.add_argument(
        "instances", nargs="?", type=positive, default=10, metavar="k",
        help="consecutive solves of each problem (default 10)",
    )

    sub = command(
        "krylov", _experiment, "the section-3.2 Krylov motivation experiment"
    )
    flag(sub, "--small", reduced)

    sub = command(
        "verify", _verify,
        "every applicable strategy vs. the sequential oracle on a random "
        "irregular loop (default n=200, seed=0)",
    )
    sub.add_argument("n", nargs="?", type=positive, default=200)
    sub.add_argument("seed", nargs="?", type=_integer_from(0), default=0)

    sub = command(
        "codegen", _codegen,
        "print the transformed pseudo-Fortran source for a sample loop "
        "(--c: the compiled C text, executor walk and max-plus sweep)",
    )
    sub.add_argument(
        "kind", nargs="?", default="irregular",
        choices=("irregular", "affine", "chain", "independent"),
    )
    flag(sub, "--c", "print the C text that is compiled instead")

    sub = command(
        "demo", _demo,
        "two-minute tour: a dependence-carrying Figure-4 loop and "
        "(simulated backend) an executor-phase Gantt chart",
    )
    sub.add_argument("--backend", choices=BACKENDS, default="simulated")

    sub = command(
        "explain", "repro.obs.cli:main",
        "one planned, observed, diagnosed run: plan and tuner reason, "
        "phase budget, kernel body, verdict, doctor findings, fallbacks",
    )
    sub.add_argument(
        "spec", nargs="?", type=builtin, default=DEFAULT_LOOP, metavar="SPEC",
        help=f"builtin loop spec to run (default {DEFAULT_LOOP})",
    )
    sub.add_argument("--backend", choices=SPEC_BACKENDS, default="threaded")
    sub.add_argument("--processors", type=positive, default=8, metavar="P")
    sub.add_argument("--schedule", choices=SCHEDULE_KINDS)
    sub.add_argument("--chunk", type=positive, metavar="K")
    sub.add_argument(
        "--telemetry", metavar="FILE",
        help="report saved telemetry instead of running SPEC",
    )
    sub.add_argument(
        "--export", metavar="FILE",
        help="write the trace: FILE.json Chrome trace events, FILE.jsonl spans",
    )
    flag(sub, "--gantt", "append the ASCII Gantt chart")
    flag(sub, "--json", "print the whole report as one JSON document")

    sub = command(
        "lint", "repro.lint.cli:main",
        "static analysis: each loop's symbolic verdict, the lint rules "
        "the paper grounds and, with --backend, the happens-before race "
        "checker",
    )
    targets(sub, "+")
    flag(sub, "--json", "machine-readable output instead of text")
    sub.add_argument(
        "--schedule", choices=SCHEDULE_KINDS,
        help="lint against an executor schedule",
    )
    sub.add_argument(
        "--chunk", type=positive, default=1, metavar="K",
        help="chunk size for cyclic/dynamic/guided (default 1)",
    )
    sub.add_argument(
        "--processors", type=positive, default=16, metavar="P",
        help="processor count (default 16)",
    )
    sub.add_argument(
        "--strip-block", type=positive, metavar="B",
        help="lint a section-2.3 strip-mined variant with block B",
    )
    sub.add_argument(
        "--backend", choices=RACE_CHECKED_BACKENDS,
        help="also race-check this backend's schedule",
    )
    sub.add_argument(
        "--rules", type=_typed(rule_list), metavar="A,B",
        help="run only these rule IDs",
    )
    flag(sub, "--strict", "exit 1 on warnings, not just errors")
    baseline = sub.add_mutually_exclusive_group()
    baseline.add_argument(
        "--baseline", type=Path, metavar="FILE",
        help="suppress the findings recorded in FILE",
    )
    baseline.add_argument(
        "--write-baseline", type=Path, metavar="FILE",
        help="record the current findings in FILE and exit 0",
    )
    flag(
        sub, "--prune-baseline",
        "with --baseline: drop FILE's stale entries and exit 0",
    )

    sub = command(
        "sanitize", "repro.sanitize.cli:main",
        "dynamic execution sanitizer: vector-clock replay of a run, or "
        "the schedule-mutation kill-rate gate",
    )
    targets(sub, "*")
    sub.add_argument("--backend", choices=BACKENDS, default="threaded")
    sub.add_argument(
        "--processors", type=positive, default=4, metavar="P",
        help="thread/worker/processor count (default 4)",
    )
    flag(sub, "--json", "machine-readable output instead of text")
    flag(sub, "--strict", "also fail when a run was uninstrumented")
    flag(sub, "--mutants", "run the mutation harness instead of targets")
    sub.add_argument(
        "--min-kill", type=float, default=0.9, metavar="F",
        help="kill-rate floor for --mutants (default 0.9)",
    )

    command("version", _version, "print the package version")
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser()
    if not argv or argv[0] == "help":
        parser.print_help()
        return 0
    try:
        args, extra = parser.parse_known_args(argv)
        if extra:
            args.error(f"unrecognized arguments: {' '.join(extra)}")
        handler = args.handler
        if isinstance(handler, str):
            handler = _load(handler)
        return handler(args)
    except SystemExit as exc:  # argparse's --help (0) and error (2)
        return exc.code


if __name__ == "__main__":
    raise SystemExit(main())
