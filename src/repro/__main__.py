"""Command-line front door: ``python -m repro <command>``.

:data:`COMMANDS` is the one table of commands — name, entry point,
argument synopsis, one-line summary; the usage text is generated from it
and the option reference of each command is its entry point's module
docstring.  An entry point reports a malformed argument by raising
:class:`ValueError`; :func:`main` turns that into a one-line
``repro <command>: <message>`` and exit status 2.
"""

from __future__ import annotations

import sys
from importlib import import_module
from typing import Callable, NamedTuple

from repro._version import __version__


def _demo(args: list[str]) -> int:
    import repro

    backend = "simulated"
    for a in args:
        if a.startswith("--backend="):
            backend = a.split("=", 1)[1]
        else:
            raise ValueError(f"unknown option {a!r}")
    if backend not in repro.BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}; "
            f"expected one of {', '.join(repro.BACKENDS)}"
        )
    if backend != "simulated":
        loop = repro.make_test_loop(n=600, m=2, l=8)
        result, plan = repro.parallelize(loop, backend=backend)
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
    reordered = repro.Doconsider(doacross=runner).run(loop)
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


def _verify(args: list[str]) -> int:
    import repro

    n = int(args[0]) if args else 200
    seed = int(args[1]) if len(args) > 1 else 0
    loop = repro.random_irregular_loop(n, seed=seed)
    report = repro.verify_loop(loop)
    print(report.summary())
    return 0 if report.passed else 1


def _codegen(args: list[str]) -> int:
    import repro
    from repro.ir.codegen import generate_source
    from repro.ir.transform import plan_transform

    kind = args[0] if args else "irregular"
    if kind == "--c":
        # What is actually compiled: the executor's scalar walk.
        from repro.backends.native import c_source

        print(c_source(), end="")
        return 0
    if kind == "irregular":
        loop = repro.random_irregular_loop(100, seed=0)
        plan = plan_transform(loop)
    elif kind == "affine":
        loop = repro.make_test_loop(n=100, m=2, l=6)
        plan = plan_transform(loop)
    elif kind == "chain":
        loop = repro.chain_loop(100, 4)
        plan = plan_transform(loop, known_distance=4)
    elif kind == "independent":
        loop = repro.random_irregular_loop(100, max_terms=0, seed=0)
        plan = plan_transform(loop, assert_independent=True)
    else:
        raise ValueError(f"unknown kind {kind!r}")
    print(generate_source(loop, plan))
    return 0


def _version(args: list[str]) -> int:
    print(__version__)
    return 0


class Command(NamedTuple):
    #: ``"package.module:function"``, imported on use, or a function of
    #: this module.
    entry: str | Callable[[list[str]], int]
    synopsis: str
    summary: str


COMMANDS: dict[str, Command] = {
    "figure6": Command(
        "repro.bench.figure6:main", "[N] [--json PATH]",
        "regenerate the paper's Figure 6 (default N=10000), shape-checked",
    ),
    "table1": Command(
        "repro.bench.table1:main", "[--small] [--json PATH]",
        "regenerate the paper's Table 1 (--small: reduced grids)",
    ),
    "ablations": Command(
        "repro.bench.ablations:main", "[--small]",
        "run the ablation sweeps A-H and print their tables",
    ),
    "table2": Command(
        "repro.bench.amortized_table:main", "[--small] [k]",
        "the amortization extension: per-solve cost over k solves",
    ),
    "krylov": Command(
        "repro.bench.krylov_fraction:main", "[--small]",
        "the section-3.2 Krylov motivation experiment",
    ),
    "verify": Command(
        _verify, "[n] [seed]",
        "every applicable strategy vs. the sequential oracle on a random "
        "irregular loop (default n=200, seed=0)",
    ),
    "codegen": Command(
        _codegen, "[irregular|affine|chain|independent|--c]",
        "print the transformed pseudo-Fortran source for a sample loop "
        "(--c: the C text of the compiled executor walk)",
    ),
    "demo": Command(
        _demo, "[--backend=NAME]",
        "two-minute tour: a dependence-carrying Figure-4 loop and "
        "(simulated backend) an executor-phase Gantt chart",
    ),
    "profile": Command(
        "repro.obs.cli:main",
        "[--backend=NAME|auto] [--loop=SPEC] [--processors=P] "
        "[--schedule=KIND] [--chunk=K] [--export=chrome|jsonl OUT] "
        "[--gantt] [--json]",
        "run one builtin workload with telemetry on: phase/metric "
        "breakdown, schedule plan, trace export",
    ),
    "lint": Command(
        "repro.lint.cli:main",
        "<target>... [--json] [--schedule=KIND] [--chunk=K] "
        "[--processors=P] [--strip-block=B] [--backend=NAME] [--rules=A,B] "
        "[--strict] [--baseline=FILE] [--write-baseline=FILE]",
        "static analysis: the paper-grounded lint rules and, with "
        "--backend, the happens-before race checker",
    ),
    "analyze": Command(
        "repro.analysis.cli:main", "<target>... [--json] [--cross-check]",
        "symbolic dependence analysis: each loop's proof-carrying verdict",
    ),
    "sanitize": Command(
        "repro.sanitize.cli:main",
        "<target>... [--backend=NAME] [--processors=P] [--json] [--strict] "
        "| --mutants [--min-kill=F]",
        "dynamic execution sanitizer: vector-clock replay of a run, or "
        "the schedule-mutation kill-rate gate",
    ),
    "doctor": Command(
        "repro.perf.cli:doctor_main",
        "[SPEC] [--backend=NAME] [--processors=P] [--telemetry=FILE] "
        "[--json]",
        "the telemetry-driven perf doctor: structured findings, each with "
        "a machine-readable recommendation",
    ),
    "version": Command(_version, "", "print the package version"),
}


def usage() -> str:
    """The command list, generated from :data:`COMMANDS`."""
    lines = ["usage: python -m repro <command> [arguments]", "", "Commands"]
    for name, command in COMMANDS.items():
        lines.append(f"  {name} {command.synopsis}".rstrip())
        lines.append(f"      {command.summary}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if not args or args[0] in ("-h", "--help", "help"):
        print(usage())
        return 0
    name, rest = args[0], args[1:]
    command = COMMANDS.get(name)
    if command is None:
        print(f"unknown command {name!r}\n")
        print(usage())
        return 2
    entry = command.entry
    if isinstance(entry, str):
        module, _, function = entry.partition(":")
        entry = getattr(import_module(module), function)
    try:
        return entry(rest)
    except ValueError as exc:
        print(f"repro {name}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
