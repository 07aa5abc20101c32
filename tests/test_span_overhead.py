"""The observation budget (ISSUE 8 satellite 1): ``observe=True`` must
cost under 10% wall time on the 50k-row sparse triangular solve.

Telemetry that doubles the run poisons its own numbers — the busy-wait
fractions and phase extents the doctor and tuner consume would describe
the instrumentation, not the loop.  The hot paths therefore batch raw
span rows (:meth:`~repro.obs.spans.SpanRecorder.record_batch` /
:meth:`~repro.obs.spans.SpanRecorder.record_wait_segments`) and
materialize Span objects lazily, outside the timed region.  This file is
the regression gate on that design.

Measurement discipline: bare/observed runs are interleaved in pairs and
compared by medians (single-run wall clocks on a shared CI box jitter by
±20%, far above the effect being measured), against a shared warm
inspector cache so the budget judges steady-state executor overhead.
Threads never outnumber cores (oversubscribed threads measure the OS
scheduler), and a ratio of two 5-sample medians still lands a point
over budget now and then, so the gate fails only when every one of
``ATTEMPTS`` fresh measurements is over.
"""

from __future__ import annotations

import os
import statistics

import numpy as np
import pytest

from repro.backends import InspectorCache, make_runner
from repro.passes import PlanSpec
from repro.sparse.ilu import ilu0
from repro.sparse.stencils import five_point
from repro.sparse.trisolve import lower_solve_loop
from repro.workloads.testloop import make_test_loop

#: The tested invariant: observed wall / bare wall - 1, per backend.
OVERHEAD_BUDGET = 0.10

#: Interleaved (bare, observed) pairs per measurement.
PAIRS = 5

#: Measurements per backend before the budget is declared blown.
ATTEMPTS = 3


@pytest.fixture(scope="module")
def trisolve():
    A = five_point(224, 224)  # the >=50k-row triangular solve
    L, _upper = ilu0(A)
    rhs = np.arange(1.0, A.n_rows + 1) / A.n_rows
    loop = lower_solve_loop(L, rhs, name="trisolve-224x224")
    assert loop.n >= 50_000
    return loop


def measured_overhead(loop, backend: str) -> float:
    processors = min(4, os.cpu_count() or 1)
    cache = InspectorCache()
    bare = make_runner(
        spec=PlanSpec(backend=backend, processors=processors), cache=cache
    )
    observed = make_runner(
        spec=PlanSpec(backend=backend, processors=processors, observe=True),
        cache=cache,
    )
    # Warm the shared inspector cache (and the allocator) outside the
    # measurement so preprocessing cost cancels out of both arms.
    result = bare.run(loop)
    assert np.array_equal(result.y, loop.run_sequential())

    bare_walls, observed_walls = [], []
    for _ in range(PAIRS):
        bare_walls.append(float(bare.run(loop).wall_seconds))
        observed_walls.append(float(observed.run(loop).wall_seconds))
    return statistics.median(observed_walls) / statistics.median(bare_walls) - 1.0


def assert_within_budget(loop, backend: str) -> None:
    for _ in range(ATTEMPTS):
        overhead = measured_overhead(loop, backend)
        if overhead < OVERHEAD_BUDGET:
            break
    assert overhead < OVERHEAD_BUDGET, (
        f"observe=True costs {overhead:.1%} wall time on the {backend} "
        f"backend, {loop.name} (budget {OVERHEAD_BUDGET:.0%}) — span "
        f"recording has crept back into the hot loop"
    )


@pytest.mark.parametrize("backend", ["threaded", "vectorized"])
def test_observe_overhead_within_budget(trisolve, backend):
    assert_within_budget(trisolve, backend)


def test_observe_overhead_within_budget_on_a_chain():
    # 8,000 wavefronts of width 1 run as one fused span in ~10 ms: one
    # level span and one width sample per level must stay inside it.
    assert_within_budget(make_test_loop(n=8_000, m=5, l=8), "vectorized")
