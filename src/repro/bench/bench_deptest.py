"""Dependence-distance elision benchmark: post/wait vs. group barriers.

The dependence-test battery (:mod:`repro.analysis.deptest`) proves a
lower bound on every cross-iteration true-dependence distance; the
DistancePass turns that bound into group-synchronous execution — natural
order groups of ``group <= min_distance`` iterations with one barrier
between groups and **no** per-element post/wait flags (§2.2's
synchronization distance, generalized after arXiv 1311.2927).  This
benchmark measures what the elision buys on workloads whose distance is
genuinely larger than 1:

- **synchronization volume** — the baseline protocol's ``flag_sets`` +
  ``flag_checks`` (every post and every wait-side flag inspection) vs.
  the grouped run's (always zero) and its ``sync_elisions`` accounting;
- **wall clock** — end-to-end ``parallelize`` with and without
  ``analyze="symbolic"`` on the threaded and multiproc backends;
- **correctness** — every grouped output is bitwise-equal to the
  sequential oracle's.

Shape assertions (never raw speed): the grouped run posts/waits at least
30% less than the baseline (it eliminates 100% of flag traffic, the gate
is deliberately slack for future partial elisions), records at least one
``sync_elisions`` per elided iteration-pair, and matches the oracle
bitwise.

Run: ``python -m repro bench-deptest [--small] [--json] [n]``.  Every run
writes the machine-readable ``BENCH_deptest.json`` (override with
``--out=``), schema-checked in CI by ``python -m repro.bench.schema``.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.backends.cache import InspectorCache
from repro.bench.reporting import format_table
from repro.core.doacross import parallelize
from repro.core.sequential import run_reference
from repro.ir.loop import IrregularLoop
from repro.passes.spec import PlanSpec
from repro.workloads.synthetic import affine_loop, chain_loop

__all__ = [
    "DeptestCase",
    "DeptestBenchResult",
    "run_bench_deptest",
    "write_bench_json",
    "main",
]

#: Default artifact path (repo root in CI), sibling of the other BENCH_*.
BENCH_JSON = "BENCH_deptest.json"

#: Required fractional reduction in post/wait operations (the ISSUE gate).
MIN_REDUCTION = 0.30


@dataclass
class DeptestCase:
    """One workload × backend comparison: flagged protocol vs. groups."""

    workload: str
    backend: str
    n: int
    min_distance: int
    group: int
    baseline_ops: int
    grouped_ops: int
    sync_elisions: int
    group_barriers: int
    baseline_seconds: float
    grouped_seconds: float
    oracle_equal: bool

    @property
    def reduction(self) -> float:
        """Fraction of post/wait operations the grouping removed."""
        if self.baseline_ops == 0:
            return 0.0
        return 1.0 - self.grouped_ops / self.baseline_ops

    def check(self) -> None:
        """Shape assertions: correctness and accounting, never speed."""
        if not self.oracle_equal:
            raise AssertionError(
                f"{self.workload}/{self.backend}: grouped output diverged "
                f"from the sequential oracle"
            )
        if self.reduction < MIN_REDUCTION:
            raise AssertionError(
                f"{self.workload}/{self.backend}: post/wait reduction "
                f"{self.reduction:.0%} is below the {MIN_REDUCTION:.0%} "
                f"gate ({self.baseline_ops} -> {self.grouped_ops} ops)"
            )
        if self.sync_elisions < 1:
            raise AssertionError(
                f"{self.workload}/{self.backend}: no sync_elisions were "
                f"recorded"
            )
        if self.group_barriers != -(-self.n // self.group):
            raise AssertionError(
                f"{self.workload}/{self.backend}: expected "
                f"{-(-self.n // self.group)} group barriers, counted "
                f"{self.group_barriers}"
            )

    def as_dict(self) -> dict:
        return {
            "workload": self.workload,
            "backend": self.backend,
            "n": self.n,
            "min_distance": self.min_distance,
            "group": self.group,
            "baseline_ops": self.baseline_ops,
            "grouped_ops": self.grouped_ops,
            "reduction": self.reduction,
            "sync_elisions": self.sync_elisions,
            "group_barriers": self.group_barriers,
            "baseline_seconds": self.baseline_seconds,
            "grouped_seconds": self.grouped_seconds,
            "oracle_equal": self.oracle_equal,
        }


@dataclass
class DeptestBenchResult:
    """The full sweep, one :class:`DeptestCase` per workload × backend."""

    n: int
    distance: int
    cases: list[DeptestCase]

    def check(self) -> None:
        for case in self.cases:
            case.check()

    def report(self) -> str:
        rows = [
            (
                c.workload,
                c.backend,
                c.group,
                c.baseline_ops,
                c.grouped_ops,
                f"{c.reduction:.0%}",
                c.sync_elisions,
                c.group_barriers,
            )
            for c in self.cases
        ]
        return format_table(
            [
                "workload",
                "backend",
                "group",
                "post/wait ops",
                "grouped ops",
                "reduction",
                "elisions",
                "barriers",
            ],
            rows,
            title=(
                f"dependence-distance elision benchmark — n={self.n}, "
                f"distance={self.distance}"
            ),
        )

    def as_dict(self) -> dict:
        return {
            "n": self.n,
            "distance": self.distance,
            "cases": [c.as_dict() for c in self.cases],
        }


def _counters(result) -> dict:
    telemetry = result.telemetry
    assert telemetry is not None
    return telemetry.metrics.as_dict()["counters"]


def _run(loop: IrregularLoop, spec: PlanSpec):
    t0 = time.perf_counter()
    result, _plan = parallelize(loop, spec=spec, cache=InspectorCache())
    return result, time.perf_counter() - t0


def _bench_case(
    workload: str,
    loop: IrregularLoop,
    backend: str,
    *,
    processors: int,
    chunk: int | None,
) -> DeptestCase:
    oracle = run_reference(loop)

    base_spec = PlanSpec(
        backend=backend, processors=processors, chunk=chunk, observe=True
    )
    grouped_spec = PlanSpec(
        backend=backend,
        processors=processors,
        chunk=chunk,
        observe=True,
        analyze="symbolic",
    )
    baseline, base_wall = _run(loop, base_spec)
    grouped, grouped_wall = _run(loop, grouped_spec)

    elision = grouped.extras.get("distance_elision")
    if elision is None:
        raise AssertionError(
            f"{workload}/{backend}: the DistancePass planned no elision"
        )
    base_counters = _counters(baseline)
    grouped_counters = _counters(grouped)
    ops = lambda c: int(c.get("flag_sets", 0)) + int(c.get("flag_checks", 0))
    return DeptestCase(
        workload=workload,
        backend=backend,
        n=loop.n,
        min_distance=int(elision["min_distance"]),
        group=int(elision["group"]),
        baseline_ops=ops(base_counters),
        grouped_ops=ops(grouped_counters),
        sync_elisions=int(grouped_counters.get("sync_elisions", 0)),
        group_barriers=int(grouped_counters.get("group_barriers", 0)),
        baseline_seconds=base_wall,
        grouped_seconds=grouped_wall,
        oracle_equal=bool(np.array_equal(oracle.y, grouped.y)),
    )


def run_bench_deptest(
    n: int = 20_000, distance: int = 8
) -> DeptestBenchResult:
    """Sweep two distance-``k`` shapes over the flag-based backends.

    ``chain`` is the single-recurrence distance-``k`` loop; ``stencil``
    reads both ``i-k`` and ``i-2k`` (two strided slots, the battery's
    bound is the nearer one).  The multiproc chunk is fixed at 4 — at or
    below the distance, as the group alignment requires.
    """
    chunk = min(4, distance)
    chain = chain_loop(n, distance)
    stencil = affine_loop(
        n,
        (1, 0),
        [(1, -distance), (1, -2 * distance)],
        name=f"stencil(n={n},k={distance})",
    )
    cases = []
    for workload, loop in (("chain", chain), ("stencil", stencil)):
        cases.append(
            _bench_case(
                workload, loop, "threaded", processors=4, chunk=None
            )
        )
        cases.append(
            _bench_case(
                workload, loop, "multiproc", processors=2, chunk=chunk
            )
        )
    return DeptestBenchResult(n=n, distance=distance, cases=cases)


def write_bench_json(
    result: DeptestBenchResult, path: str | Path = BENCH_JSON
) -> Path:
    """Write the machine-readable artifact: flat ``records`` rows (two per
    workload × backend — flagged and grouped — the stable cross-PR schema
    shared with the other ``BENCH_*.json``) plus the ``detail`` dict."""
    path = Path(path)
    records = []
    for case in result.cases:
        records.append(
            {
                "n": case.n,
                "workload": case.workload,
                "backend": f"{case.backend}-flagged",
                "wall_seconds": case.baseline_seconds,
                "sync_ops": case.baseline_ops,
            }
        )
        records.append(
            {
                "n": case.n,
                "workload": case.workload,
                "backend": f"{case.backend}-grouped",
                "wall_seconds": case.grouped_seconds,
                "sync_ops": case.grouped_ops,
                "sync_elisions": case.sync_elisions,
                "group_barriers": case.group_barriers,
            }
        )
    from repro.bench.registry import write_artifact

    payload = {
        "benchmark": "bench-deptest",
        "records": records,
        "detail": result.as_dict(),
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
    n = int(numeric[0]) if numeric else (2_000 if small else 20_000)
    result = run_bench_deptest(n=n)
    if as_json:
        print(json.dumps(result.as_dict(), indent=2))
    else:
        print(result.report())
    written = write_bench_json(result, out)
    if not as_json:
        print(f"\nwrote {written}")
    result.check()
    if not as_json:
        print("\nshape check: PASS")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
