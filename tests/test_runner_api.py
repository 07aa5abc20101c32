"""Tests for the unified Runner API: protocol conformance, the backend
selector, option validation, and the one ``parallelize`` body behind
both of its spellings."""

import inspect
from dataclasses import fields as dataclass_fields

import numpy as np
import pytest

import repro
from repro.backends import BACKENDS, make_runner
from repro.backends.base import Runner
from repro.backends.simulated import SimulatedRunner
from repro.backends.threaded import ThreadedRunner
from repro.backends.vectorized import VectorizedRunner
from repro.core.doacross import PreprocessedDoacross, parallelize
from repro.core.results import RunResult
from repro.errors import ScheduleError
from repro.machine.engine import Machine
from repro.passes import PlanSpec
from repro.workloads.synthetic import chain_loop, random_irregular_loop
from repro.workloads.testloop import make_test_loop


@pytest.fixture
def loop():
    return make_test_loop(n=120, m=2, l=8)


class TestProtocolConformance:
    def test_all_backends_are_runners(self):
        assert issubclass(SimulatedRunner, Runner)
        assert issubclass(ThreadedRunner, Runner)
        assert issubclass(VectorizedRunner, Runner)

    def test_runner_is_abstract(self):
        with pytest.raises(TypeError):
            Runner()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_run_returns_runresult(self, loop, backend):
        runner = make_runner(backend, processors=4)
        result = runner.run(loop)
        assert isinstance(result, RunResult)
        np.testing.assert_allclose(result.y, loop.run_sequential())

    def test_names(self):
        assert SimulatedRunner(Machine(2)).name == "simulated"
        assert ThreadedRunner().name == "threaded"
        assert VectorizedRunner().name == "vectorized"

    def test_make_runner_unknown_backend(self):
        with pytest.raises(ScheduleError, match="unknown backend"):
            make_runner("cuda")

    def test_exported_from_package_root(self):
        for name in (
            "Runner",
            "SimulatedRunner",
            "ThreadedRunner",
            "VectorizedRunner",
            "InspectorCache",
            "make_runner",
            "BACKENDS",
        ):
            assert hasattr(repro, name)


class TestThreadedRunResult:
    def test_run_returns_runresult(self, loop):
        result = ThreadedRunner(threads=2).run(loop)
        assert isinstance(result, RunResult)
        assert result.strategy == "threaded-doacross"
        assert result.wall_seconds is not None and result.wall_seconds > 0
        assert result.total_cycles == 0
        np.testing.assert_allclose(result.y, loop.run_sequential())

    def test_no_infinite_speedup_in_summary(self, loop):
        summary = ThreadedRunner(threads=2).run(loop).summary()
        assert "speedup=inf" not in summary
        assert "(measured)" in summary


class TestOptionValidation:
    def test_chunk_zero_rejected_at_init(self):
        with pytest.raises(ScheduleError, match="chunk must be >= 1"):
            PreprocessedDoacross(chunk=0)

    def test_negative_chunk_rejected_at_run(self, loop):
        with pytest.raises(ScheduleError, match="chunk must be >= 1"):
            PreprocessedDoacross().run(loop, chunk=-3)

    def test_unknown_schedule_rejected_at_init(self):
        with pytest.raises(ScheduleError, match="unknown schedule kind"):
            PreprocessedDoacross(schedule="bogus")

    def test_unknown_schedule_rejected_at_run(self, loop):
        with pytest.raises(ScheduleError, match="unknown schedule kind"):
            PreprocessedDoacross().run(loop, schedule="bogus")

    def test_schedule_instance_accepted(self, loop):
        from repro.machine.scheduler import StaticCyclicSchedule

        schedule = StaticCyclicSchedule(loop.n, 4)
        result = PreprocessedDoacross(processors=4).run(
            loop, schedule=schedule
        )
        np.testing.assert_allclose(result.y, loop.run_sequential())


class TestOneSpelling:
    REMOVED = {"schedule", "chunk", "validate", "observe", "analyze"}

    def test_entry_point_signatures(self):
        for fn, skip in ((parallelize, 1), (make_runner, 0)):
            params = list(inspect.signature(fn).parameters)[skip:]
            assert len(params) <= 7
            assert not self.REMOVED & set(params)
        assert len(dataclass_fields(PlanSpec)) == 9

    def test_positional_options_are_gone(self, loop):
        with pytest.raises(TypeError):
            parallelize(loop, 8)
        with pytest.raises(TypeError):
            PreprocessedDoacross().run(loop, None, "natural")

    def test_spec_rejects_shorthand_mix(self, loop):
        with pytest.raises(TypeError, match="cannot be combined"):
            parallelize(loop, spec=PlanSpec(), processors=4)
        with pytest.raises(TypeError, match="cannot be combined"):
            make_runner("threaded", spec=PlanSpec(backend="threaded"))

    def test_hooked_runner_is_flat(self):
        runner = make_runner(spec=PlanSpec(validate="static", observe=True))
        assert isinstance(runner.inner, SimulatedRunner)
        assert [hook.__name__ for hook in runner.hooks] == [
            "StaticValidate",
            "Observe",
        ]


# One loop per strategy the compiler can select, with the assertion (if
# any) that selects it.
STRATEGY_CASES = {
    "linear": (lambda: make_test_loop(n=400, m=5, l=8), {}),
    "preprocessed": (lambda: random_irregular_loop(300, seed=2), {}),
    "doall": (
        lambda: make_test_loop(n=400, m=5, l=7),
        {"assert_independent": True},
    ),
    "classic": (lambda: chain_loop(300, 4), {"known_distance": 4}),
}


class TestParallelizeDispatch:
    @pytest.mark.parametrize("strategy", STRATEGY_CASES)
    def test_both_spellings_run_one_body(self, strategy):
        build, asserts = STRATEGY_CASES[strategy]
        loop = build()
        short, plan = parallelize(loop, processors=16, **asserts)
        base, _ = parallelize(loop, spec=PlanSpec(processors=16), **asserts)
        assert plan.strategy == strategy
        assert np.array_equal(base.y, loop.run_sequential())
        for result in (short, base):
            assert result.strategy.startswith(strategy)
            assert result.extras["plan"] == plan.describe()
        assert (short.strategy, short.total_cycles) == (
            base.strategy,
            base.total_cycles,
        )
        assert short.y.tobytes() == base.y.tobytes()

        # The run hooks observe; they do not change what runs.
        for option in (
            {"validate": "static"},
            {"validate": "sanitize"},
            {"observe": True},
        ):
            hooked, _ = parallelize(
                loop, spec=PlanSpec(processors=16, **option), **asserts
            )
            assert (hooked.strategy, hooked.total_cycles) == (
                base.strategy,
                base.total_cycles,
            )
        reordered, _ = parallelize(
            loop,
            spec=PlanSpec(processors=16, reorder="doconsider"),
            **asserts,
        )
        assert reordered.strategy == base.strategy
        assert np.array_equal(reordered.y, base.y)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_all_backends_agree(self, loop, backend):
        result, plan = parallelize(loop, processors=4, backend=backend)
        np.testing.assert_allclose(result.y, loop.run_sequential())
        assert result.extras["plan"] == plan.describe()

    @pytest.mark.parametrize(
        "backend,label",
        [
            ("simulated", "doconsider(levels=6)"),
            ("threaded", "doconsider(levels=6)"),
            ("multiproc", "doconsider(levels=6)"),
            # Runs (and labels) its own wavefront order whatever the plan's.
            ("vectorized", "wavefront(levels=6)"),
            # Commits in natural chunk order; notes the order as ignored.
            ("speculative", "natural"),
        ],
    )
    def test_planned_doconsider_run_reports_the_order_it_ran(
        self, backend, label
    ):
        loop = random_irregular_loop(150, seed=5)
        spec = PlanSpec(backend=backend, processors=2, reorder="doconsider")
        result, _ = parallelize(loop, spec=spec)
        np.testing.assert_allclose(result.y, loop.run_sequential())
        assert result.order_label == label
        assert f"order={label}" in result.summary()
        assert repro.result_to_dict(result)["order"] == label

    def test_natural_order_strategies_keep_the_natural_label(self):
        # The simulated classic doacross synchronises on iteration numbers:
        # it runs in natural order whatever order the plan carries.
        spec = PlanSpec(processors=4, reorder="doconsider")
        result, _ = parallelize(chain_loop(64, 4), spec=spec, known_distance=4)
        assert result.strategy == "classic-doacross"
        assert result.order_label == "natural"

    def test_unknown_backend_rejected(self, loop):
        with pytest.raises(ScheduleError, match="unknown backend"):
            parallelize(loop, backend="quantum")
