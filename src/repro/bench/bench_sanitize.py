"""Sanitizer overhead benchmark: shadow logging vs. the bare backend.

The execution sanitizer (``validate="sanitize"``) logs every shadow
access and post/wait event and replays the log against the loop's
required true-dependence pairs after the run.  That is only usable as a
routine validation mode if the tax stays bounded, so this benchmark
times the same ≥50k-iteration sparse triangular solve (the Table-1
substrate, shared with ``bench-multiproc``) through the threaded and
vectorized backends bare and under the :class:`Sanitize` run hook, and
asserts the sanitized wall clock stays within ``MAX_OVERHEAD`` (5x) of
the bare one at full problem size.

Every sanitized run must come back violation-free (the schedule is
correct; a report would be a bug in the backend or the detector) and
bitwise equal to the sequential oracle.  ``--small`` (the CI smoke
size) asserts correctness and cleanliness only — at tiny ``n`` constant
costs swamp the ratio, same policy as ``bench-multiproc``.

Run: ``python -m repro bench-sanitize [--small] [--json] [nx]``.  Every
run writes ``BENCH_sanitize.json`` (override with ``--out=``) with flat
``records`` rows plus an observed sanitized run's telemetry blob, whose
metrics carry the ``sanitize_events`` / ``sanitize_pairs_checked`` /
``sanitize_violations`` counters.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.backends import ThreadedRunner, VectorizedRunner
from repro.backends.hooks import HookedRunner, Sanitize
from repro.bench.bench_multiproc import _build_loop
from repro.bench.reporting import format_table

__all__ = [
    "MAX_OVERHEAD",
    "SanitizeBenchResult",
    "run_bench_sanitize",
    "write_bench_json",
    "main",
]

#: Default artifact path (repo root in CI), sibling of BENCH_multiproc.
BENCH_JSON = "BENCH_sanitize.json"

#: Acceptance ceiling: sanitized wall clock per backend may cost at most
#: this multiple of the bare run at full problem size.
MAX_OVERHEAD = 5.0


@dataclass
class SanitizeBenchResult:
    """Bare-vs-sanitized timings on the sparse forward-substitution loop."""

    nx: int
    ny: int
    n: int
    nnz: int
    threads: int
    sequential_seconds: float
    #: Flat rows: ``{"backend", "sanitized", "wall_seconds",
    #: "warm_seconds", "ok", "events", "pairs_checked", "violations"}``
    #: (counter keys only on sanitized rows).
    rows: list[dict] = field(default_factory=list)
    telemetry: dict | None = None

    def _wall(self, backend: str, sanitized: bool) -> float:
        row = next(
            r
            for r in self.rows
            if r["backend"] == backend and r["sanitized"] is sanitized
        )
        return min(row["wall_seconds"], row.get("warm_seconds", float("inf")))

    def overhead(self, backend: str) -> float:
        """Sanitized/bare wall-clock ratio for one backend, taking each
        side's best of the cold and warm runs so a transient stall on
        one timing (noisy CI neighbors) cannot trip the ceiling."""
        return self._wall(backend, True) / self._wall(backend, False)

    def check(self) -> None:
        """Correctness and cleanliness always; the overhead ceiling only
        at full size (``n >= 50_000``)."""
        bad = [r for r in self.rows if not r["ok"]]
        if bad:
            raise AssertionError(
                f"{len(bad)} run(s) diverged from the sequential oracle: "
                + ", ".join(r["backend"] for r in bad)
            )
        noisy = [r for r in self.rows if r.get("violations")]
        if noisy:
            raise AssertionError(
                "sanitizer reported violations on a correct schedule: "
                + ", ".join(r["backend"] for r in noisy)
            )
        if self.n < 50_000:
            return
        for backend in ("threaded", "vectorized"):
            ratio = self.overhead(backend)
            if ratio > MAX_OVERHEAD:
                raise AssertionError(
                    f"sanitizer overhead on {backend} is {ratio:.2f}x "
                    f"(> {MAX_OVERHEAD:.0f}x) on n={self.n}"
                )

    def report(self) -> str:
        ms = 1e3
        body: list[tuple] = [
            (
                "sequential",
                "",
                self.sequential_seconds * ms,
                "",
                "",
                "",
                "oracle",
            )
        ]
        for r in self.rows:
            body.append(
                (
                    r["backend"],
                    "yes" if r["sanitized"] else "no",
                    r["wall_seconds"] * ms,
                    r["warm_seconds"] * ms,
                    r.get("events", ""),
                    r.get("pairs_checked", ""),
                    "ok" if r["ok"] else "DIVERGED",
                )
            )
        table = format_table(
            [
                "backend",
                "sanitized",
                "cold (ms)",
                "warm (ms)",
                "events",
                "pairs",
                "check",
            ],
            body,
            title=(
                f"sanitizer benchmark — trisolve(ILU0(five_point("
                f"{self.nx}x{self.ny}))), n={self.n}, nnz={self.nnz}"
            ),
        )
        tail = "".join(
            f"\noverhead [{b}]: {self.overhead(b):.2f}x "
            f"(ceiling {MAX_OVERHEAD:.0f}x)"
            for b in ("threaded", "vectorized")
        )
        return table + tail

    def as_dict(self) -> dict:
        return {
            "nx": self.nx,
            "ny": self.ny,
            "n": self.n,
            "nnz": self.nnz,
            "threads": self.threads,
            "sequential_seconds": self.sequential_seconds,
            "max_overhead": MAX_OVERHEAD,
            "overhead": {
                b: self.overhead(b) for b in ("threaded", "vectorized")
            },
            "rows": self.rows,
        }


def run_bench_sanitize(
    nx: int = 224, ny: int | None = None, *, threads: int = 4
) -> SanitizeBenchResult:
    """Time bare vs. sanitized runs of forward substitution over ILU(0)
    of a ``nx x ny`` five-point Laplacian (224x224 -> n=50176, the
    smallest default clearing the ≥50k acceptance bar)."""
    ny = nx if ny is None else ny
    loop, nnz = _build_loop(nx, ny)
    n = loop.n

    t0 = time.perf_counter()
    reference = loop.run_sequential()
    sequential_seconds = time.perf_counter() - t0

    result = SanitizeBenchResult(
        nx=nx,
        ny=ny,
        n=n,
        nnz=nnz,
        threads=threads,
        sequential_seconds=sequential_seconds,
    )

    def build(backend: str):
        if backend == "threaded":
            return ThreadedRunner(threads=threads)
        return VectorizedRunner()

    def timed(runner) -> tuple[float, object]:
        t0 = time.perf_counter()
        out = runner.run(loop)
        return time.perf_counter() - t0, out

    for backend in ("threaded", "vectorized"):
        cold, out = timed(build(backend))
        warm, out2 = timed(build(backend))
        result.rows.append(
            {
                "backend": backend,
                "sanitized": False,
                "wall_seconds": cold,
                "warm_seconds": warm,
                "ok": bool(
                    np.array_equal(out.y, reference)
                    and np.array_equal(out2.y, reference)
                ),
            }
        )

        cold, out = timed(HookedRunner(build(backend), [Sanitize]))
        warm, out2 = timed(HookedRunner(build(backend), [Sanitize]))
        report = out.extras["sanitize"]
        result.rows.append(
            {
                "backend": backend,
                "sanitized": True,
                "wall_seconds": cold,
                "warm_seconds": warm,
                "ok": bool(
                    np.array_equal(out.y, reference)
                    and np.array_equal(out2.y, reference)
                ),
                "events": report["events"],
                "pairs_checked": report["pairs_checked"],
                "violations": report["total_violations"]
                + out2.extras["sanitize"]["total_violations"],
            }
        )

    # One observed sanitized run for the artifact's telemetry blob —
    # outside the timed rows, since span recording is not free.  Its
    # metrics carry the sanitize_* counters.
    from repro.backends import make_runner
    from repro.passes.spec import PlanSpec

    observed = make_runner(
        spec=PlanSpec(
            backend="threaded",
            processors=threads,
            validate="sanitize",
            observe=True,
        )
    )
    out = observed.run(loop)
    telemetry = out.telemetry
    assert telemetry is not None
    result.telemetry = telemetry.as_dict()
    return result


def write_bench_json(
    result: SanitizeBenchResult, path: str | Path = BENCH_JSON
) -> Path:
    """Write the machine-readable artifact: flat ``records`` rows (the
    stable cross-PR schema shared with the other ``BENCH_*`` artifacts),
    the ``detail`` dict, and the observed run's ``telemetry`` blob."""
    path = Path(path)
    records = [
        {
            "n": result.n,
            "backend": "sequential",
            "wall_seconds": result.sequential_seconds,
        }
    ]
    for row in result.rows:
        records.append({"n": result.n, **row})
    from repro.bench.registry import write_artifact

    payload = {
        "benchmark": "bench-sanitize",
        "records": records,
        "detail": result.as_dict(),
        "telemetry": result.telemetry,
    }
    return write_artifact(payload, path)


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    small = "--small" in args
    as_json = "--json" in args
    out = BENCH_JSON
    for a in args:
        if a.startswith("--out="):
            out = a.split("=", 1)[1]
    numeric = [a for a in args if a.isdigit()]
    nx = int(numeric[0]) if numeric else (48 if small else 224)
    result = run_bench_sanitize(nx)
    if as_json:
        print(json.dumps(result.as_dict(), indent=2))
    else:
        print(result.report())
    written = write_bench_json(result, out)
    if not as_json:
        print(f"\nwrote {written}")
    result.check()
    if not as_json:
        print("\ncheck: PASS")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
