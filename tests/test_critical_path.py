"""Tests for critical-path bounds: they must bound the measured runs."""

import contextlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.doacross import PreprocessedDoacross
from repro.graph.critical_path import (
    critical_path_cycles,
    ideal_speedup,
    iteration_weights,
)
from repro.graph.depgraph import DependenceGraph
from repro.machine.costs import CostModel, WorkProfile
from repro.workloads.synthetic import chain_loop, random_irregular_loop
from repro.workloads.testloop import make_test_loop
from tests.conftest import no_compiler
from tests.strategies import affine_loops, loop_params


class TestWeights:
    def test_uniform_terms(self):
        cm = CostModel()
        loop = make_test_loop(n=10, m=3, l=5)
        w = iteration_weights(loop, cm)
        expected = (
            cm.exec_iter_overhead
            + cm.work.overhead
            + 3 * (cm.work.term + cm.dep_check)
            + cm.flag_set
        )
        assert all(x == expected for x in w)

    def test_respects_loop_profile(self):
        from repro.sparse.ilu import ilu0
        from repro.sparse.stencils import five_point
        from repro.sparse.trisolve import TRISOLVE_WORK, lower_solve_loop
        import numpy as np

        L, _ = ilu0(five_point(5, 5))
        loop = lower_solve_loop(L, np.ones(25))
        cm = CostModel()
        w = iteration_weights(loop, cm)
        t0 = int(loop.reads.term_counts()[0])
        assert w[0] == (
            cm.exec_iter_overhead
            + TRISOLVE_WORK.overhead
            + t0 * (TRISOLVE_WORK.term + cm.dep_check)
            + cm.flag_set
        )


class TestCriticalPath:
    def test_independent_loop_path_is_one_iteration(self):
        cm = CostModel()
        loop = make_test_loop(n=50, m=1, l=3)
        assert critical_path_cycles(loop, cm) == int(
            iteration_weights(loop, cm)[0]
        )

    def test_chain_path_grows_linearly(self):
        cm = CostModel()
        short = critical_path_cycles(chain_loop(50, 1), cm)
        long = critical_path_cycles(chain_loop(100, 1), cm)
        assert long > short
        step = cm.flag_check + cm.work.term_consume + cm.flag_set
        # Iteration 0 has no read terms; the pipeline's anchor is iteration
        # 1's full weight, followed by 98 pipelined steps.
        weights = iteration_weights(chain_loop(100, 1), cm)
        expected = int(weights[1]) + 98 * step
        assert long == expected

    def test_empty_loop(self):
        cm = CostModel()
        assert critical_path_cycles(random_irregular_loop(0, seed=0), cm) == 0


class TestBoundsHoldForMeasuredRuns:
    """The real invariant: no simulated executor phase can beat the DAG
    lower bound, and no measured executor speedup can beat the structural
    ceiling."""

    @pytest.mark.parametrize(
        "loop_factory",
        [
            lambda: chain_loop(150, 1),
            lambda: chain_loop(150, 6),
            lambda: make_test_loop(n=150, m=1, l=4),
            lambda: make_test_loop(n=150, m=3, l=10),
            lambda: random_irregular_loop(150, seed=5),
        ],
    )
    def test_executor_span_at_least_critical_path(self, loop_factory):
        cm = CostModel()
        loop = loop_factory()
        for runner in (
            PreprocessedDoacross(processors=16),
            PreprocessedDoacross(processors=4, schedule="dynamic", chunk=2),
        ):
            result = runner.run(loop)
            executor = next(
                p for p in result.phases if p.name == "executor"
            )
            assert executor.span >= critical_path_cycles(loop, cm)

    def test_doconsider_also_bounded(self):
        cm = CostModel()
        loop = random_irregular_loop(120, seed=3)
        result = PreprocessedDoacross(processors=16).run(loop, reorder="doconsider")
        executor = next(p for p in result.phases if p.name == "executor")
        assert executor.span >= critical_path_cycles(loop, cm)

    def test_ideal_speedup_sane(self):
        cm = CostModel()
        assert ideal_speedup(chain_loop(100, 1), cm) < 4
        wide = ideal_speedup(make_test_loop(n=100, m=1, l=3), cm)
        assert wide == pytest.approx(100.0)  # fully independent

    def test_ideal_speedup_empty_loop(self):
        assert ideal_speedup(random_irregular_loop(0, seed=0), CostModel()) == 1.0


def graph_sweep_cycles(loop, cm):
    """Reference: the forward sweep over a dependence graph's predecessor
    lists that ``critical_path_cycles`` was before it became one sweep of
    the max-plus recurrence."""
    graph = DependenceGraph.from_loop(loop)
    weights = iteration_weights(loop, cm)
    work = cm.effective_work(loop.work)
    step = cm.flag_check + work.term_consume + cm.flag_set
    finish = np.zeros(loop.n, dtype=np.int64)
    for r in range(loop.n):
        preds = graph.predecessors(r)
        after = int(finish[preds].max()) + step if len(preds) else 0
        finish[r] = max(int(weights[r]), after)
    return int(finish.max()) if loop.n else 0


@settings(max_examples=80, deadline=None)
@given(
    loop=st.one_of(
        loop_params.map(lambda p: random_irregular_loop(**p)), affine_loops()
    ),
    cm=st.sampled_from(
        [
            CostModel(),
            # A post-wake step heavier than a whole iteration.
            CostModel(
                flag_check=40, flag_set=9, dep_check=0, exec_iter_overhead=0,
                work=WorkProfile(overhead=0, term_setup=0, term_consume=7),
            ),
        ]
    ),
)
def test_both_bodies_equal_the_graph_sweep(loop, cm):
    want = graph_sweep_cycles(loop, cm)
    total = int(iteration_weights(loop, cm).sum())
    for body in (contextlib.nullcontext, no_compiler):
        with body():
            assert critical_path_cycles(loop, cm) == want
            assert ideal_speedup(loop, cm) == (
                total / want if loop.n and want else 1.0
            )
