"""Ablation experiments (DESIGN.md §5, Abl. A–H).

Each ``ablation_*`` function sweeps one design knob the paper discusses (or
that the implementation exposes) and returns :class:`ExperimentRow` records;
the ``check_*`` function after it asserts the structure its rationale
predicts.  ``python -m repro ablations [--small]`` prints every table and
ends each with its check (:data:`repro.bench.experiments.EXPERIMENTS`).

- **A. Scheduling** — schedule kind × chunk size on the Figure-4 loop:
  chunked schedules break the term-level pipelining of short-distance
  chains (adjacent iterations land on the same processor), while chunk-1
  cyclic maximizes overlap; dynamic self-scheduling pays dispatch
  serialization on top.
- **B. Strip-mining** — §2.3's block size: smaller blocks shrink the
  modeled scratch footprint but add barriers and cut cross-block overlap.
- **C. Linear subscript** — §2.3's inspector elimination: identical
  executor, inspector phase removed.
- **D. Processor sweep** — the 5-PT triangular solve at P ∈ {1..32}.
- **E. Bus contention** — the optional shared-bus model, cost per access
  ∈ {0, 1, 2, 4} (0 turns it off).
- **F. Coherence / locality** — with invalidation misses priced, chain
  pipelining (cyclic chunk-1, every dependence crosses caches) trades off
  against locality (block schedules keep chains in one cache).
- **G. Inspector amortization** — repeated instances of one loop share a
  single inspector pass; the per-instance cost converges to executor +
  reduced postprocessor.
- **H. Processor sweep, Figure-4 loop** — P ∈ {1..32} on the test loop,
  dependence-free vs a distance-1 chain.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.bench.harness import (
    ExperimentRow,
    check_monotone_nondecreasing,
    require,
)
from repro.bench.reporting import format_table
from repro.core.doacross import PreprocessedDoacross
from repro.workloads.synthetic import chain_loop
from repro.machine.costs import CostModel
from repro.sparse.ilu import ilu0
from repro.sparse.spe import paper_problems
from repro.sparse.trisolve import lower_solve_loop
from repro.workloads.testloop import make_test_loop

__all__ = [
    "ablation_scheduling",
    "ablation_stripmine",
    "ablation_linear",
    "ablation_processors",
    "ablation_processors_testloop",
    "ablation_bus",
    "ablation_coherence",
    "ablation_amortization",
    "report",
]


def _total_cycles(rows: list[ExperimentRow]) -> dict[str, int]:
    return {r.label: r.result.total_cycles for r in rows}


def ablation_scheduling(
    n: int = 10000,
    m: int = 1,
    l: int = 8,
    processors: int = 16,
    kinds: tuple[str, ...] = ("cyclic", "block", "dynamic", "guided"),
    chunks: tuple[int, ...] = (1, 4, 16, 64),
) -> list[ExperimentRow]:
    """Abl. A: schedule kind × chunk size on a dependence-carrying
    Figure-4 configuration."""
    loop = make_test_loop(n=n, m=m, l=l)
    rows = []
    for kind in kinds:
        for chunk in chunks:
            if kind == "block" and chunk != chunks[0]:
                continue  # block scheduling has no chunk knob
            runner = PreprocessedDoacross(
                processors=processors, schedule=kind, chunk=chunk
            )
            result = runner.run(loop)
            rows.append(
                ExperimentRow(
                    label=f"{kind}/chunk={chunk}",
                    params={"kind": kind, "chunk": chunk},
                    result=result,
                )
            )
    return rows


def check_scheduling(rows: list[ExperimentRow]) -> None:
    """On a tight chain, cyclic chunk-1 beats big chunks and the block
    schedule."""
    total = _total_cycles(rows)
    for loser in ("cyclic/chunk=64", "block/chunk=1"):
        require(
            total["cyclic/chunk=1"] < total[loser],
            f"cyclic/chunk=1 ({total['cyclic/chunk=1']}) does not beat "
            f"{loser} ({total[loser]}) on a tight chain",
        )


def ablation_stripmine(
    n: int = 10000,
    m: int = 2,
    l: int = 8,
    processors: int = 16,
    blocks: tuple[int, ...] = (250, 500, 1000, 2500, 10000),
) -> list[ExperimentRow]:
    """Abl. B: §2.3 strip-mine block size (memory vs time trade-off)."""
    loop = make_test_loop(n=n, m=m, l=l)
    runner = PreprocessedDoacross(processors=processors)
    baseline = runner.run(loop)
    rows = [
        ExperimentRow(
            label="unblocked",
            params={"block": None},
            result=baseline,
            metrics={"scratch_elements": loop.y_size},
        )
    ]
    for block in blocks:
        result = runner.run_stripmined(loop, block=block)
        rows.append(
            ExperimentRow(
                label=f"block={block}",
                params={"block": block},
                result=result,
                metrics={
                    "scratch_elements": result.extras[
                        "modeled_scratch_elements"
                    ]
                },
            )
        )
    return rows


def check_stripmine(rows: list[ExperimentRow]) -> None:
    """Scratch shrinks with the block size, and tiny blocks are not free."""
    blocked = [r for r in rows if r.params["block"]]
    check_monotone_nondecreasing(
        [r.metrics["scratch_elements"] for r in blocked],
        label="scratch elements by block size",
    )
    require(
        blocked[0].result.total_cycles >= blocked[-1].result.total_cycles,
        "the smallest strip-mine block is faster than the largest",
    )


def ablation_linear(
    n: int = 10000,
    processors: int = 16,
    ms: tuple[int, ...] = (1, 5),
    l: int = 7,
) -> list[ExperimentRow]:
    """Abl. C: the §2.3 linear-subscript variant vs the full pipeline.

    The Figure-4 loop's write subscript is affine, so both run; the linear
    variant drops the inspector phase and the ``iter`` array.
    """
    rows = []
    runner = PreprocessedDoacross(processors=processors)
    for m in ms:
        loop = make_test_loop(n=n, m=m, l=l)
        for linear in (False, True):
            result = runner.run(loop, linear=linear)
            rows.append(
                ExperimentRow(
                    label=f"M={m}/{'linear' if linear else 'standard'}",
                    params={"m": m, "linear": linear},
                    result=result,
                    metrics={
                        "inspector_cycles": result.breakdown.inspector,
                    },
                )
            )
    return rows


def check_linear(rows: list[ExperimentRow]) -> None:
    """The linear variant has no inspector phase and is strictly faster."""
    by = {r.label: r for r in rows}
    for m in sorted({r.params["m"] for r in rows}):
        standard, linear = by[f"M={m}/standard"], by[f"M={m}/linear"]
        require(
            linear.metrics["inspector_cycles"] == 0,
            f"M={m}: the linear variant still ran an inspector",
        )
        require(
            linear.result.total_cycles < standard.result.total_cycles,
            f"M={m}: dropping the inspector did not save time",
        )


def ablation_processors(
    problem: str = "5-PT",
    processor_counts: tuple[int, ...] = (1, 2, 4, 8, 16, 32),
    small: bool = False,
) -> list[ExperimentRow]:
    """Abl. D: processor-count sweep on one Table-1 problem, natural and
    doconsider order."""
    A = paper_problems(small=small)[problem]
    L, _ = ilu0(A)
    rhs = np.ones(A.n_rows)
    loop = lower_solve_loop(L, rhs, name=problem)
    rows = []
    for p in processor_counts:
        runner = PreprocessedDoacross(processors=p)
        plain = runner.run(loop)
        reordered = runner.run(loop, reorder="doconsider")
        rows.append(
            ExperimentRow(
                label=f"P={p}",
                params={
                    "processors": p,
                    "max_wavefront": reordered.extras["max_wavefront"],
                },
                result=plain,
                metrics={
                    "plain_speedup": plain.speedup,
                    "reordered_speedup": reordered.speedup,
                    "plain_efficiency": plain.efficiency,
                    "reordered_efficiency": reordered.efficiency,
                },
            )
        )
    return rows


def check_processors(rows: list[ExperimentRow]) -> None:
    """Speedup grows with P for as long as the widest wavefront can feed
    the processors, efficiency decays throughout, and one processor
    measures pure machinery overhead (speedup < 1)."""
    fed = [
        r for r in rows if r.params["processors"] <= r.params["max_wavefront"]
    ]
    check_monotone_nondecreasing(
        [r.metrics["reordered_speedup"] for r in fed],
        label="reordered speedup by processor count",
    )
    check_monotone_nondecreasing(
        [r.metrics["reordered_efficiency"] for r in reversed(rows)],
        label="reordered efficiency by falling processor count",
    )
    require(
        rows[0].metrics["plain_speedup"] < 1.0,
        "one processor shows a speedup: the machinery overhead is unpriced",
    )


def ablation_processors_testloop(
    n: int = 4000,
    m: int = 1,
    processor_counts: tuple[int, ...] = (1, 2, 4, 8, 16, 32),
    ls: tuple[int, ...] = (3, 4, 10),
) -> list[ExperimentRow]:
    """Abl. H: processor sweep on the Figure-4 loop.

    Expected structure: for the dependence-free configuration (odd ``L``)
    speedup grows with ``P`` toward the plateau-limited ceiling, while a
    distance-1 chain (``L=4``) saturates almost immediately — adding
    processors cannot shorten the chain."""
    rows = []
    for l in ls:
        loop = make_test_loop(n=n, m=m, l=l)
        for p in processor_counts:
            runner = PreprocessedDoacross(processors=p)
            result = runner.run(loop)
            rows.append(
                ExperimentRow(
                    label=f"L={l}/P={p}",
                    params={"l": l, "processors": p},
                    result=result,
                )
            )
    return rows


def check_processors_testloop(rows: list[ExperimentRow]) -> None:
    """A dependence-free loop scales with P; a distance-1 chain saturates —
    the chain, not the machine, is the limit."""
    speedup = {
        (r.params["l"], r.params["processors"]): r.result.speedup for r in rows
    }
    require(
        speedup[3, 16] > 1.7 * speedup[3, 8] > 3 * speedup[3, 1],
        "dependence-free loop (L=3) does not scale from 1 to 8 to 16 "
        "processors",
    )
    require(
        speedup[4, 16] < 1.15 * speedup[4, 8],
        "distance-1 chain (L=4) still speeds up from 8 to 16 processors",
    )


def ablation_bus(
    n: int = 10000,
    m: int = 2,
    l: int = 5,
    processors: int = 16,
    bus_costs: tuple[int, ...] = (0, 1, 2, 4),
) -> list[ExperimentRow]:
    """Abl. E: shared-bus contention.  ``bus_per_access = 0`` disables the
    model; higher values serialize every shared access for that long."""
    rows = []
    for bus_cost in bus_costs:
        cm = CostModel(bus_per_access=bus_cost)
        runner = PreprocessedDoacross(
            processors=processors, cost_model=cm, bus=bus_cost > 0
        )
        result = runner.run(make_test_loop(n=n, m=m, l=l))
        rows.append(
            ExperimentRow(
                label=f"bus={bus_cost}",
                params={"bus_per_access": bus_cost},
                result=result,
            )
        )
    return rows


def check_bus(rows: list[ExperimentRow]) -> None:
    """Total time grows with the per-access bus cost."""
    totals = [r.result.total_cycles for r in rows]
    check_monotone_nondecreasing(totals, label="total cycles by bus cost")
    require(totals[-1] > totals[0], "the bus never became a bottleneck")


def ablation_coherence(
    n: int = 4000,
    processors: int = 16,
    miss_costs: tuple[int, ...] = (0, 10, 50, 200),
    kinds: tuple[str, ...] = ("cyclic", "block"),
) -> list[ExperimentRow]:
    """Abl. F: invalidation-miss cost × schedule on a distance-1 chain.

    Cyclic chunk-1 maximizes pipelining but every dependence crosses
    caches; block scheduling keeps the chain local but serializes it.  The
    crossover moves with the miss cost."""
    loop = chain_loop(n, 1)
    rows = []
    for kind in kinds:
        for miss in miss_costs:
            cm = CostModel(coherence_miss=miss)
            runner = PreprocessedDoacross(
                processors=processors,
                cost_model=cm,
                schedule=kind,
                coherence=miss > 0,
            )
            result = runner.run(loop)
            executor = next(
                p for p in result.phases if p.name == "executor"
            )
            rows.append(
                ExperimentRow(
                    label=f"{kind}/miss={miss}",
                    params={"kind": kind, "miss": miss},
                    result=result,
                    metrics={
                        "misses": sum(
                            p.coherence_misses for p in executor.processors
                        )
                    },
                )
            )
    return rows


def check_coherence(rows: list[ExperimentRow]) -> None:
    """The winner flips with the miss cost: pipelining (cyclic) while misses
    are cheap, locality (block) once they are dear; cyclic pays about one
    miss per dependence, block only at its boundaries."""
    total = _total_cycles(rows)
    require(
        total["cyclic/miss=0"] < total["block/miss=0"],
        "free misses: block scheduling beats pipelining",
    )
    require(
        total["block/miss=200"] < total["cyclic/miss=200"],
        "200-cycle misses: pipelining still beats locality",
    )
    misses = {r.label: r.metrics["misses"] for r in rows}
    require(
        misses["cyclic/miss=10"] > 50 * misses["block/miss=10"],
        f"cyclic misses ({misses['cyclic/miss=10']}) are not far above "
        f"block misses ({misses['block/miss=10']})",
    )


def ablation_amortization(
    n: int = 4000,
    processors: int = 16,
    instance_counts: tuple[int, ...] = (1, 2, 5, 10, 20),
) -> list[ExperimentRow]:
    """Abl. G: inspector amortization over repeated loop instances.

    Per-instance cost falls toward the executor + reduced-postprocessor
    floor as the single inspector pass spreads over more instances."""
    loop = make_test_loop(n=n, m=1, l=5)
    runner = PreprocessedDoacross(processors=processors)
    full = runner.run(loop)
    rows = []
    for instances in instance_counts:
        result = runner.run_amortized(loop, instances)
        per_instance = result.total_cycles / instances
        rows.append(
            ExperimentRow(
                label=f"instances={instances}",
                params={"instances": instances},
                result=result,
                metrics={
                    "per_instance_cycles": per_instance,
                    "gain_vs_full": full.total_cycles / per_instance,
                },
            )
        )
    return rows


def check_amortization(rows: list[ExperimentRow]) -> None:
    """Per-instance cost falls monotonically toward the executor floor, and
    the gain over the full pipeline ends above 1.15."""
    check_monotone_nondecreasing(
        [r.metrics["per_instance_cycles"] for r in reversed(rows)],
        label="per-instance cycles by falling instance count",
    )
    gains = [r.metrics["gain_vs_full"] for r in rows]
    check_monotone_nondecreasing(gains, label="gain vs the full pipeline")
    require(gains[-1] > 1.15, f"final gain {gains[-1]:.3f} not above 1.15")


def report(title: str) -> Callable[[list[ExperimentRow]], str]:
    """The table every ablation prints under ``title``, and the blank line
    that follows it."""

    def render(rows: list[ExperimentRow]) -> str:
        table = format_table(
            ["config", "efficiency", "speedup", "total cycles", "wait cycles"],
            [
                (
                    r.label,
                    r.result.efficiency,
                    r.result.speedup,
                    r.result.total_cycles,
                    r.result.wait_cycles,
                )
                for r in rows
            ],
            title=title,
        )
        return table + "\n"

    return render
