"""The benchmark's one command.

    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1
    PYTHONPATH=src python -m benchmarks.e2e.run [--workload W] [--seed S]
                                                [--rounds R] [--traced]

Generates the workload from the seed, drives the library through its
public entry points, checks every output bitwise against the benchmark's
own reference interpreter, prints every metric by name with unit, sample
count and quartiles, and ends with one JSON line holding the result.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
ones (and writes the spans to ``benchmarks/e2e/out/``).
"""

from __future__ import annotations

import argparse
import json
import re
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
for _p in (ROOT / "src", ROOT):
    if str(_p) not in sys.path:
        sys.path.insert(0, str(_p))

from repro import InspectorCache  # noqa: E402

from benchmarks.e2e import metrics as catalogue  # noqa: E402
from benchmarks.e2e.cells import EndToEnd, operation, peak_rss_mb, spec_for  # noqa: E402
from benchmarks.e2e.estimator import Estimator  # noqa: E402
from benchmarks.e2e.hygiene import Janitor, LeakCheck  # noqa: E402
from benchmarks.e2e.layers import LayerPass  # noqa: E402
from benchmarks.e2e.reference import Tally  # noqa: E402
from benchmarks.e2e.spans import SpanRecorder  # noqa: E402
from benchmarks.e2e.workloads import DEFAULT_SEED, SMOKE_SIZES, WORKLOADS  # noqa: E402


def _warm_imports(name: str, seed: int) -> None:
    """Run every backend once on a toy instance so lazy imports and
    first-call initialisation are not charged to the first sample."""
    toy = WORKLOADS[name].generate(seed, SMOKE_SIZES[name])
    for backend in ("vectorized", "multiproc", "speculative", "threaded", "simulated"):
        operation(toy.calls, spec_for(backend), InspectorCache())


def _repeat(step, seconds: float | None, rounds: int | None, started: float) -> None:
    """Call ``step`` for ``rounds`` rounds, or until the next one would
    end after ``started + seconds``; always at least once."""
    done, longest = 0, 0.0
    while True:
        t0 = time.perf_counter()
        step()
        longest = max(longest, time.perf_counter() - t0)
        done += 1
        if rounds is not None:
            if done >= rounds:
                return
        elif time.perf_counter() + longest > started + seconds:
            return


def _cell_row(est: Estimator, metric: str) -> tuple:
    """``(name, value, kept n, p25, p75, raw median seconds)`` of a cell."""
    s = est.cells.get(metric)
    if s is None:
        return _plain_row(metric, 0.0)
    return (metric, s.value(), len(s.ratios), *s.quartiles(), s.median_seconds())


def _plain_row(metric: str, value: float, n: int = 0, raw: float = 0.0) -> tuple:
    return (metric, value, n, 0.0, 0.0, raw)


def _end_to_end(built, regenerate, first_setup_s, est, budget) -> list[tuple]:
    e2e = EndToEnd(built, regenerate, first_setup_s, est)
    _repeat(e2e.round, *budget)
    setup = est.cells.get("setup")
    return [
        _plain_row(
            "setup_s", e2e.setup_seconds(), len(setup.ratios) if setup else 0,
            setup.median_seconds() / e2e.setup_batch if setup else first_setup_s,
        ),
        *(_cell_row(est, m.name) for m in catalogue.END_TO_END if m.unit == "x_ref"),
        _plain_row("sim_efficiency", e2e.sim_efficiency),
        _plain_row("peak_rss_mb", peak_rss_mb()),
    ]


def _per_layer(name, built, est, budget, out) -> list[tuple]:
    rec = SpanRecorder()
    passes: list[dict] = []
    _repeat(lambda: passes.append(LayerPass(built, est, rec, name).run()), *budget)
    rec.write(HERE / "out" / f"trace-{name}.jsonl")
    values = {
        key: statistics.median(p[key] for p in passes if key in p)
        for key in {k for p in passes for k in p}
    }
    values.update(built.setup_layers)
    sim, seq = est.cells.get("rel_warm.simulated"), est.cells.get("ir.seq")
    values.update({
        "bench.ref_s": est.ref_median(),
        "bench.bracket_reject_share": est.reject_share,
        "ir.seq_s": seq.median_seconds() if seq else 0.0,
        "machine.sim_s": sim.median_seconds() if sim else 0.0,
    })
    if sim:
        values["machine.cycles_per_s"] = (
            values.get("machine.sim_cycles", 0) / sim.median_seconds()
        )
    print("# self seconds per span name: " + ", ".join(
        f"{k}={v:.4f}" for k, v in sorted(rec.self_times().items(), key=lambda kv: -kv[1])
    ), file=out)
    # 0 = this layer is not on the workload's path.
    return [
        _cell_row(est, m.name) if m.unit == "x_ref"
        else _plain_row(m.name, values.get(m.name, 0.0))
        for m in catalogue.PER_LAYER
    ]


def run_workload(
    name: str,
    seed: int = DEFAULT_SEED,
    seconds: float | None = catalogue.RUN_SECONDS,
    rounds: int | None = None,
    trace: bool = False,
    sizes: dict | None = None,
    out=sys.stdout,
) -> dict:
    """Measure one workload and return the result object of the contract.
    ``sizes`` exists for the smoke test; reported numbers never set it."""
    started = time.perf_counter()
    workload = WORKLOADS[name]
    built = workload.generate(seed, sizes)
    first_setup_s = time.perf_counter() - started
    built.fill_expected()
    _warm_imports(name, seed)

    leak_check = LeakCheck()
    tally = Tally()
    est = Estimator(built, tally)
    budget = (seconds, rounds, started)
    print(f"# {name} seed={seed} {'traced' if trace else 'untraced'}", file=out)
    try:
        if trace:
            rows = _per_layer(name, built, est, budget, out)
            declared = catalogue.PER_LAYER
        else:
            rows = _end_to_end(
                built, lambda: workload.generate(seed, sizes), first_setup_s, est, budget
            )
            declared = catalogue.END_TO_END
    finally:
        est.pin(False)
    for leak in leak_check.leaks():
        tally.count("leak", False, leak)
    values = {metric: value for metric, value, *_ in rows}
    if trace:
        values["fail_share"] = tally.fail_share

    units = {m.name: m.unit for m in declared}
    print(f"# {'metric':<42}{'value':>14} {'unit':<9}{'n':>4}{'p25':>11}{'p75':>11}{'raw_s':>11}", file=out)
    for metric, _value, n, p25, p75, raw in rows:
        print(f"  {metric:<42}{values[metric]:>14.6g} {units[metric]:<9}{n:>4}{p25:>11.4g}{p75:>11.4g}{raw:>11.4g}", file=out)
    print(
        f"# ref={est.ref_median() * 1e3:.3f} ms brackets={est.brackets} "
        f"bracket_reject_share={est.reject_share:.3f}",
        file=out,
    )
    for note in tally.notes:
        print(f"# FAILED {note}", file=out)

    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            metric: {"value": values[metric], "unit": units[metric]} for metric in values
        },
    }


# -- --check-repeat ---------------------------------------------------------
#: Untraced runs per workload in one set; the set's value is their median.
_SET_RUNS = 3


def _fresh_run(name: str, seed: int, trace: int) -> tuple[dict, int, float]:
    """One run in a fresh process: its result, bracket count and the
    share of them it rejected."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name,
         "--seed", str(seed), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"run of {name} failed:\n{proc.stdout}\n{proc.stderr}")
    brackets, share = re.search(
        r"brackets=(\d+) bracket_reject_share=([\d.]+)", proc.stdout
    ).groups()
    return json.loads(proc.stdout.splitlines()[-1]), int(brackets), float(share)


def check_repeat(seed: int) -> int:
    """Two full sets in fresh processes must agree: every end-to-end metric
    within its own bound, every exact count identically.  A set is, per
    workload, the median of three untraced runs and one traced run."""
    problems = []
    for name in WORKLOADS:
        sets, rejected, brackets = [], 0.0, 0
        for _ in range(2):
            runs = [_fresh_run(name, seed, 0) for _ in range(_SET_RUNS)]
            traced, _, _ = _fresh_run(name, seed, 1)
            results = [r for r, _, _ in runs] + [traced]
            if not all(r["correct"] for r in results):
                problems.append(f"{name}: {sum(r['failed'] for r in results)} failed operations")
            brackets += sum(n for _, n, _ in runs)
            rejected += sum(n * share for _, n, share in runs)
            sets.append({
                **traced["metrics"],
                **{
                    m.name: {"value": statistics.median(
                        r["metrics"][m.name]["value"] for r, _, _ in runs
                    )}
                    for m in catalogue.END_TO_END
                },
            })
        first, second = sets
        for m in catalogue.END_TO_END:
            a, b = first[m.name]["value"], second[m.name]["value"]
            apart = abs(a - b) / min(a, b) if min(a, b) > 0 else float("inf")
            verdict = "ok" if apart <= m.bound else "APART"
            print(f"{name:<14}{m.name:<24}{a:>12.5g}{b:>12.5g}{apart:>9.3f} bound {m.bound} {verdict}")
            if apart > m.bound:
                problems.append(f"{name}: {m.name} {a:.5g} vs {b:.5g}")
        for exact in catalogue.EXACT + catalogue.EXACT_ON.get(name, ()):
            a, b = first[exact]["value"], second[exact]["value"]
            if a != b:
                problems.append(f"{name}: exact {exact} {a!r} vs {b!r}")
        share = rejected / brackets
        print(f"{name:<14}bench.bracket_reject_share {share:.3f} over {brackets} brackets")
        if share > 0.6:
            problems.append(f"{name}: bracket_reject_share {share:.2f} > 0.6, box too noisy")
    for p in problems:
        print("FAIL", p)
    print("check-repeat:", "FAILED" if problems else "passed")
    return 1 if problems else 0


def main(argv=None) -> int:
    """Every way out of a run -- result printed, exception, Ctrl-C, SIGTERM
    from whoever timed it out -- goes through the janitor: the process
    exits only after each process it started has ended and been waited
    for, the standard library's resource tracker included."""
    janitor = Janitor()
    for sig in (signal.SIGTERM, signal.SIGINT):
        signal.signal(sig, janitor.terminated)
    try:
        return _main(argv)
    finally:
        sys.stdout.flush()
        janitor.sweep()


def _main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=catalogue.RUN_SECONDS,
                    help="wall budget of one run, set-up included")
    ap.add_argument("--rounds", type=int, default=None,
                    help="fixed number of rounds instead of a time budget")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--traced", action="store_const", const=1, dest="trace")
    ap.add_argument("--check-repeat", action="store_true")
    ap.add_argument("--benchmark-json", action="store_true",
                    help="print BENCHMARK.json as the catalogue defines it")
    args = ap.parse_args(argv)
    if args.benchmark_json:
        print(json.dumps(catalogue.benchmark_json(), indent=2))
        return 0
    if args.check_repeat:
        return check_repeat(args.seed)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        result = run_workload(
            name, args.seed, args.seconds, args.rounds, bool(args.trace)
        )
        print(json.dumps(result), flush=True)
    # A run that printed its result exits 0; failures are in the result.
    return 0


if __name__ == "__main__":
    sys.exit(main())
