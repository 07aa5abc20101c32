"""Warm vectorized calls, and the cold inspector, against the compiled
sequential loop.

The denominator is :func:`repro.backends.native.sequential` — the oracle's
own loop compiled from the same C text as the walk — not the interpreted
oracle, so the ratio says what the inspector/executor machinery costs on
one core.  The loops are ILU(0) lower solves of ``five_point(k, k)``
(``trisolve_5pt`` is ``k = 141``).  Every call's output is checked
bitwise against ``run_sequential()`` first, and the inspector's record
against the cold call's.  Calls are interleaved (sequential, warm call,
executor, inspector, ...) and each column is the minimum / median over
``--calls`` rounds, in ms.  The ``inspector`` column is a cold record
built fresh each round — levels, ``iter``, term codes, gathered layout
(:func:`~repro.backends.cache.build_inspector_record`, no cache) — the
cost a cold call pays on top of its walk.  Ungated; run by hand:

    PYTHONPATH=src python benchmarks/walk_vs_sequential.py            # k = 141, 250, 400
    PYTHONPATH=src python benchmarks/walk_vs_sequential.py --k 60 --calls 20
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from repro import InspectorCache, PlanSpec, VectorizedRunner, parallelize
from repro.analysis import record_mismatches
from repro.backends import native
from repro.backends.cache import build_inspector_record
from repro.sparse.ilu import ilu0
from repro.sparse.stencils import five_point
from repro.sparse.trisolve import lower_solve_loop


def measure(k: int, calls: int) -> dict:
    L, _ = ilu0(five_point(k, k))
    loop = lower_solve_loop(L, np.random.default_rng(1991).normal(size=L.n_rows))
    cache, spec = InspectorCache(), PlanSpec(backend="vectorized")
    t0 = time.perf_counter()
    oracle = loop.run_sequential()
    interpreted = time.perf_counter() - t0
    result = parallelize(loop, spec=spec, cache=cache)[0]  # the cold call
    runner = VectorizedRunner(cache=cache)
    record = runner._preprocess(loop)[0]  # a hit: the cold call's record
    steps = {
        "native.sequential": lambda: native.sequential(loop),
        "warm call": lambda: parallelize(loop, spec=spec, cache=cache)[0].y,
        # The executor alone: the copy of y, the one walk, any copy-back.
        "executor": lambda: runner._walk(loop, record),
        # A cold record: the levels with it, built fresh.
        "inspector": lambda: build_inspector_record(loop, fingerprint=record.fingerprint),
    }
    for name, step in steps.items():
        if name == "inspector":
            assert record_mismatches(step(), record) == []
        else:
            assert np.array_equal(step().view(np.uint64), oracle.view(np.uint64))
    times: dict[str, list[float]] = {name: [] for name in steps}
    for _ in range(calls):
        for name, step in steps.items():
            t = time.perf_counter()
            step()
            times[name].append(time.perf_counter() - t)
    row = {"n": loop.n, "levels": record.schedule.n_levels,
           "walk": result.extras["walk"], "interpreted_ms": interpreted * 1e3}
    for name, ts in times.items():
        row[name] = (min(ts) * 1e3, float(np.median(ts)) * 1e3)
    return row


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--k", type=int, nargs="*", default=[141, 250, 400])
    parser.add_argument("--calls", type=int, default=200)
    args = parser.parse_args(argv)
    print(f"kernel body: {native.describe()}")
    steps_order = ("native.sequential", "warm call", "executor", "inspector")
    for k in args.k:
        row = measure(k, args.calls)
        seq = row["native.sequential"]
        cells = "  ".join(
            f"{name} {row[name][0]:.3f} / {row[name][1]:.3f}"
            f" ({row[name][0] / seq[0]:.2f}x)"
            for name in steps_order
        )
        print(
            f"k={k} n={row['n']} levels={row['levels']} walk={row['walk']} "
            f"run_sequential {row['interpreted_ms']:.1f} ms | {cells}"
        )


if __name__ == "__main__":
    main()
