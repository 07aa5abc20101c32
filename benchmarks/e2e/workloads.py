"""The four workloads: sizes are fixed, the seed varies values and
structures.  The seed reaches the library only as the generated loops.

A workload is a *call sequence*: the list of loops one operation solves,
in order, through one shared inspector cache.  The three big loops are
sequences of length one; ``krylov_churn`` is 32 calls over 8 structures.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro import make_test_loop, random_irregular_loop
from repro.sparse.ilu import ilu0
from repro.sparse.stencils import five_point
from repro.sparse.trisolve import lower_solve_loop

from benchmarks.e2e.reference import reference_run

#: Seed used when none is given, and the one reserved for checking later
#: claims on inputs nobody tuned against (choosing-metrics guide, 6.3).
DEFAULT_SEED = 1991
HELDOUT_SEED = 320


@dataclass
class Built:
    """One generated workload instance."""

    calls: list  # the call sequence (loops, repeats included)
    unique: list  # its distinct loops, first-use order
    setup_layers: dict[str, float] = field(default_factory=dict)
    expected: list = field(default_factory=list)  # reference y per call

    def fill_expected(self) -> None:
        by_id = {id(loop): reference_run(loop) for loop in self.unique}
        self.expected = [by_id[id(loop)] for loop in self.calls]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    sizes: dict
    build: Callable[[int, dict], Built]

    def generate(self, seed: int, sizes: dict | None = None) -> Built:
        return self.build(seed, sizes or self.sizes)


def _fig4_val(rng, m: int) -> np.ndarray:
    # Positive coefficients summing below one keep an 8000-deep
    # recurrence bounded whatever the seed.
    return rng.uniform(0.1, 0.9, size=m) / m


def _build_trisolve(seed: int, sizes: dict) -> Built:
    rng = np.random.default_rng(seed)
    t0 = time.perf_counter()
    A = five_point(sizes["nx"], sizes["ny"])
    t1 = time.perf_counter()
    L, _U = ilu0(A)
    t2 = time.perf_counter()
    loop = lower_solve_loop(L, rng.normal(size=L.n_rows))
    t3 = time.perf_counter()
    return Built(
        calls=[loop],
        unique=[loop],
        setup_layers={
            "sparse.ilu0_s": t2 - t1,
            "sparse.loop_build_s": (t1 - t0) + (t3 - t2),
        },
    )


def _build_fig4(seed: int, sizes: dict) -> Built:
    rng = np.random.default_rng(seed)
    loop = make_test_loop(
        n=sizes["n"], m=sizes["m"], l=sizes["l"], val=_fig4_val(rng, sizes["m"])
    )
    return Built(calls=[loop], unique=[loop])


def _build_krylov(seed: int, sizes: dict) -> Built:
    unique = [
        random_irregular_loop(
            n=sizes["n"], max_terms=sizes["max_terms"], seed=seed + f
        )
        for f in range(sizes["structures"])
    ]
    calls = [loop for loop in unique for _ in range(sizes["solves"])]
    return Built(calls=calls, unique=unique)


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "trisolve_5pt",
            "Table-1 trisolve, ILU(0) of five_point(141,141), n=19881, 281 "
            "wavefronts: every layer does real work; seed -> rhs",
            {"nx": 141, "ny": 141},
            _build_trisolve,
        ),
        Workload(
            "fig4_doall",
            "Figure-4 loop n=50000 m=5 l=7, odd L, one wavefront, no waits: "
            "bulk kernel and postprocess dominate, scheduling is idle; seed -> val",
            {"n": 50_000, "m": 5, "l": 7},
            _build_fig4,
        ),
        Workload(
            "fig4_chain",
            "Figure-4 loop n=8000 m=5 l=8, distance-1 chain, 8000 wavefronts "
            "of width 1: per-level dispatch and post/wait dominate; seed -> val",
            {"n": 8_000, "m": 5, "l": 8},
            _build_fig4,
        ),
        Workload(
            "krylov_churn",
            "8 random structures n=2000 x 4 solves, one cache, 32 calls: "
            "per-call fixed cost and the miss path dominate; seed -> structures",
            {"n": 2_000, "max_terms": 4, "structures": 8, "solves": 4},
            _build_krylov,
        ),
    )
}

#: Toy sizes for the smoke test and the import warm-up; never used for a
#: reported number.
SMOKE_SIZES = {
    "trisolve_5pt": {"nx": 12, "ny": 12},
    "fig4_doall": {"n": 400, "m": 5, "l": 7},
    "fig4_chain": {"n": 120, "m": 5, "l": 8},
    "krylov_churn": {"n": 80, "max_terms": 4, "structures": 2, "solves": 2},
}
