"""Wall-clock benchmark: sequential vs. threaded vs. vectorized backends.

The paper's performance claims are simulated; this experiment measures the
one backend that is genuinely fast on CPython.  On a Figure-4 test loop
with an odd ``L`` (no cross-iteration dependencies → a single wavefront,
the best case for batching) it reports:

- the sequential oracle's interpreted wall time,
- the threaded backend's wall time (GIL-bound, event-per-element — the
  honest "real threads" baseline),
- the vectorized backend cold (inspector cache miss: preprocessing plus
  execution) and warm (cache hit: execution only),
- an amortization curve — per-instance wall time of ``run_repeated`` over
  growing instance counts, the measured analogue of the paper's Figure 3:
  one cache miss up front, then executor-only instances,
- the inspector-cache hit/miss counters backing that curve.

The headline shape assertion (``check``): warm vectorized execution beats
the threaded backend by at least ``min_speedup``× (5× at the default
100k-iteration size), and the warm run actually hits the cache.

Run: ``python -m repro.bench.bench_vectorized [--small] [--json]
[--out=PATH] [n]``.  Every run also writes the machine-readable artifact
``BENCH_vectorized.json`` (override with ``--out=``) so the perf
trajectory is tracked across PRs.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.backends.threaded import ThreadedRunner
from repro.backends.vectorized import VectorizedRunner
from repro.bench.reporting import format_table
from repro.workloads.testloop import make_test_loop

__all__ = [
    "VectorizedBenchResult",
    "run_bench_vectorized",
    "bench_records",
    "write_bench_json",
    "main",
]

#: Default artifact path (repo root in CI) tracking the perf trajectory.
BENCH_JSON = "BENCH_vectorized.json"


@dataclass
class VectorizedBenchResult:
    """Measured wall-clock times (seconds) for one loop size."""

    n: int
    m: int
    l: int
    threads: int
    levels: int
    sequential_seconds: float
    threaded_seconds: float
    vectorized_cold_seconds: float
    vectorized_warm_seconds: float
    #: Warm wall time with ``observe=True`` — the observed-vs-bare column
    #: backing the span-overhead budget (tested <10%).
    vectorized_observed_seconds: float
    cold_preprocess_seconds: float
    warm_cache_hit: bool
    cache_stats: dict
    #: ``(instances, per-instance seconds, cumulative cache hits)`` rows.
    amortization: list[tuple[int, float, int]] = field(default_factory=list)
    #: Serialized :class:`~repro.obs.telemetry.Telemetry` of one observed
    #: warm run (level spans + cache metrics), or ``None``.
    telemetry: dict | None = None

    @property
    def observe_overhead(self) -> float:
        """Relative wall-time cost of observation on a warm run:
        ``observed/bare - 1``."""
        if self.vectorized_warm_seconds <= 0:
            return 0.0
        return (
            self.vectorized_observed_seconds / self.vectorized_warm_seconds
            - 1.0
        )

    @property
    def speedup_vs_threaded(self) -> float:
        return self.threaded_seconds / self.vectorized_warm_seconds

    @property
    def speedup_vs_sequential(self) -> float:
        return self.sequential_seconds / self.vectorized_warm_seconds

    def check(self, min_speedup: float = 5.0) -> None:
        """Shape assertions: the cache works and batching actually pays."""
        if not self.warm_cache_hit:
            raise AssertionError(
                "second vectorized run missed the inspector cache"
            )
        if self.speedup_vs_threaded < min_speedup:
            raise AssertionError(
                f"vectorized warm ({self.vectorized_warm_seconds * 1e3:.2f} "
                f"ms) is only {self.speedup_vs_threaded:.1f}x faster than "
                f"threaded ({self.threaded_seconds * 1e3:.2f} ms); "
                f"required {min_speedup:.1f}x"
            )
        per_instance = [t for _, t, _ in self.amortization]
        if per_instance and per_instance[-1] >= self.vectorized_cold_seconds:
            raise AssertionError(
                "amortization over instances did not reduce per-instance "
                "cost below a cold single run"
            )

    def report(self) -> str:
        ms = 1e3
        backends = format_table(
            ["backend", "wall (ms)", "vs sequential", "vs threaded"],
            [
                ("sequential", self.sequential_seconds * ms, 1.0,
                 self.threaded_seconds / self.sequential_seconds),
                (f"threaded({self.threads})", self.threaded_seconds * ms,
                 self.sequential_seconds / self.threaded_seconds, 1.0),
                ("vectorized (cold)", self.vectorized_cold_seconds * ms,
                 self.sequential_seconds / self.vectorized_cold_seconds,
                 self.threaded_seconds / self.vectorized_cold_seconds),
                ("vectorized (warm)", self.vectorized_warm_seconds * ms,
                 self.speedup_vs_sequential, self.speedup_vs_threaded),
                ("vectorized (observed)",
                 self.vectorized_observed_seconds * ms,
                 self.sequential_seconds / self.vectorized_observed_seconds,
                 self.threaded_seconds / self.vectorized_observed_seconds),
            ],
            title=(
                f"vectorized wavefront benchmark — figure4(N={self.n},"
                f"M={self.m},L={self.l}), {self.levels} wavefront level(s)"
            ),
        )
        curve = format_table(
            ["instances", "per-instance (ms)", "cache hits"],
            [(k, t * ms, h) for k, t, h in self.amortization],
            title=(
                "inspector amortization curve (one cache miss, "
                "then executor-only instances)"
            ),
        )
        stats = (
            f"cache: {self.cache_stats['hits']} hits / "
            f"{self.cache_stats['misses']} misses, "
            f"{self.cache_stats['bytes']} bytes cached; "
            f"cold preprocess {self.cold_preprocess_seconds * ms:.3f} ms"
        )
        return "\n\n".join([backends, curve, stats])

    def as_dict(self) -> dict:
        return {
            "n": self.n,
            "m": self.m,
            "l": self.l,
            "threads": self.threads,
            "levels": self.levels,
            "sequential_seconds": self.sequential_seconds,
            "threaded_seconds": self.threaded_seconds,
            "vectorized_cold_seconds": self.vectorized_cold_seconds,
            "vectorized_warm_seconds": self.vectorized_warm_seconds,
            "vectorized_observed_seconds": self.vectorized_observed_seconds,
            "observe_overhead": self.observe_overhead,
            "cold_preprocess_seconds": self.cold_preprocess_seconds,
            "warm_cache_hit": self.warm_cache_hit,
            "speedup_vs_threaded": self.speedup_vs_threaded,
            "speedup_vs_sequential": self.speedup_vs_sequential,
            "cache_stats": dict(self.cache_stats),
            "amortization": [
                {"instances": k, "per_instance_seconds": t, "cache_hits": h}
                for k, t, h in self.amortization
            ],
        }


def bench_records(result: VectorizedBenchResult) -> list[dict]:
    """Flat per-backend rows for cross-PR tracking: each row carries the
    loop size, the backend label, its wall time, and its speedup over the
    sequential oracle."""
    rows = [
        ("sequential", result.sequential_seconds),
        ("threaded", result.threaded_seconds),
        ("vectorized-cold", result.vectorized_cold_seconds),
        ("vectorized-warm", result.vectorized_warm_seconds),
        ("vectorized-observed", result.vectorized_observed_seconds),
    ]
    return [
        {
            "n": result.n,
            "backend": backend,
            "wall_seconds": seconds,
            "speedup": result.sequential_seconds / seconds,
        }
        for backend, seconds in rows
    ]


def write_bench_json(
    result: VectorizedBenchResult, path: str | Path = BENCH_JSON
) -> Path:
    """Write the machine-readable benchmark artifact.

    The file holds both the flat ``records`` rows (the stable cross-PR
    schema) and the full ``detail`` dict (cache stats, amortization
    curve) for deeper digging.
    """
    from repro.bench.registry import write_artifact

    payload = {
        "benchmark": "bench-vectorized",
        "records": bench_records(result),
        "detail": result.as_dict(),
        "telemetry": result.telemetry,
    }
    return write_artifact(payload, path)


def _best_of(repeats: int, fn):
    """Smallest wall time over ``repeats`` calls; returns (seconds, last)."""
    best, last = float("inf"), None
    for _ in range(repeats):
        t0 = time.perf_counter()
        last = fn()
        best = min(best, time.perf_counter() - t0)
    return best, last


def run_bench_vectorized(
    n: int = 100_000,
    m: int = 5,
    l: int = 7,
    threads: int = 4,
    repeats: int = 3,
    curve_instances: tuple[int, ...] = (1, 2, 5, 10, 20),
) -> VectorizedBenchResult:
    """Measure all three backends on one Figure-4 loop.

    ``l`` should be odd so the loop carries no cross-iteration dependence
    and collapses to a single wavefront — the configuration the headline
    ≥5× claim is about.  Every backend's output is asserted bitwise equal
    to the sequential oracle before any time is reported.
    """
    loop = make_test_loop(n=n, m=m, l=l)

    sequential_seconds, reference = _best_of(
        repeats, lambda: loop.run_sequential()
    )

    threaded = ThreadedRunner(threads=threads)
    threaded_seconds, threaded_result = _best_of(
        1, lambda: threaded.run(loop)
    )
    if not np.array_equal(threaded_result.y, reference):
        raise AssertionError("threaded backend diverged from the oracle")

    runner = VectorizedRunner()
    cold = runner.run(loop)
    if not np.array_equal(cold.y, reference):
        raise AssertionError("vectorized backend diverged from the oracle")
    warm_seconds, warm = _best_of(repeats, lambda: runner.run(loop))
    if not np.array_equal(warm.y, reference):
        raise AssertionError("warm vectorized run diverged from the oracle")

    # Observed warm runs: the artifact carries the unified telemetry blob
    # (level spans + cache metrics) and the observed-vs-bare column the
    # span-overhead budget test pins.
    from repro.backends.hooks import HookedRunner, Observe

    instrumented = HookedRunner(runner, [Observe])
    # Compare run wall times (result.wall_seconds), not end-to-end call
    # times: telemetry assembly happens after the run's clock stops and
    # is not part of the observation overhead the budget bounds.
    observed = instrumented.run(loop)
    observed_seconds = observed.wall_seconds
    for _ in range(repeats - 1):
        candidate = instrumented.run(loop)
        if candidate.wall_seconds < observed_seconds:
            observed, observed_seconds = candidate, candidate.wall_seconds
    telemetry = observed.telemetry.as_dict()

    amortization = []
    curve_runner = VectorizedRunner()
    for k in curve_instances:
        t0 = time.perf_counter()
        curve_runner.run_repeated(loop, k)
        wall = time.perf_counter() - t0
        amortization.append(
            (k, wall / k, curve_runner.cache.stats()["hits"])
        )

    return VectorizedBenchResult(
        n=n,
        m=m,
        l=l,
        threads=threads,
        levels=cold.extras["levels"],
        sequential_seconds=sequential_seconds,
        threaded_seconds=threaded_seconds,
        vectorized_cold_seconds=cold.wall_seconds,
        vectorized_warm_seconds=warm_seconds,
        vectorized_observed_seconds=observed_seconds,
        cold_preprocess_seconds=cold.extras["preprocess_seconds"],
        warm_cache_hit=warm.extras["cache_hit"],
        cache_stats=runner.cache.stats(),
        amortization=amortization,
        telemetry=telemetry,
    )


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    small = "--small" in args
    as_json = "--json" in args
    out = BENCH_JSON
    for a in args:
        if a.startswith("--out="):
            out = a.split("=", 1)[1]
    numeric = [a for a in args if a.isdigit()]
    n = int(numeric[0]) if numeric else (20_000 if small else 100_000)
    result = run_bench_vectorized(
        n=n, curve_instances=(1, 2, 5) if small else (1, 2, 5, 10, 20)
    )
    if as_json:
        print(json.dumps(result.as_dict(), indent=2))
    else:
        print(result.report())
    written = write_bench_json(result, out)
    if not as_json:
        print(f"\nwrote {written}")
    # The 5x acceptance bar is calibrated for the 100k-iteration size;
    # smoke-size runs keep a softer bar so CI noise can't flake them.
    result.check(min_speedup=2.0 if small else 5.0)
    if not as_json:
        print("\nshape check: PASS")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
