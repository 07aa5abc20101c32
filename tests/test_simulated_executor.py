"""The simulated executor's two timing bodies agree, and each runs where
it should.

An executor phase is timed either by the max-plus recurrence
(``SimulatedRunner._executor_recurrence``) or by the event engine; the
engine is the only body that can run a bus, coherence, a dynamic schedule,
a trace, a shadow log or a caller's own schedule, and it is what the
recurrence is held against here.  ``on_engine`` (``tests/conftest.py``) is
the test-only seam that sends eligible phases to the engine too.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import PlanSpec, make_runner
from repro.backends.simulated import SimulatedRunner
from repro.core.doconsider import level_order
from repro.core.serialize import result_to_dict
from repro.ir.loop import INIT_EXTERNAL
from repro.machine.costs import CostModel
from repro.machine.engine import Machine
from repro.machine.scheduler import StaticCyclicSchedule
from repro.obs import validate_telemetry
from repro.workloads.synthetic import chain_loop, random_irregular_loop
from repro.workloads.testloop import make_test_loop
from tests.conftest import assert_same_bits, on_engine
from tests.strategies import affine_loops, loop_params

RECURRENCE = {"body": "recurrence", "reason": None}


def run_variant(runner, loop, variant, kind, chunk, order):
    """One of the four entry points onto ``_doacross``."""
    options = dict(schedule=kind, chunk=chunk)
    if variant == "stripmined":
        return runner.run_stripmined(loop, 7, schedule_kind=kind, chunk=chunk)
    if variant == "amortized":
        rhs = None
        if loop.init_kind == INIT_EXTERNAL:
            rhs = [loop.init_values * (k + 1.0) for k in range(3)]
        return runner.run_amortized(
            loop, 3, order=order, rhs_sequence=rhs, **options
        )
    return runner.run_preprocessed(
        loop, order=order, linear=variant == "linear", **options
    )


def assert_same_run(recurrence, engine):
    assert recurrence.extras["sim_executor"] == RECURRENCE
    assert engine.extras["sim_executor"]["body"] == "engine"
    assert recurrence.total_cycles == engine.total_cycles
    assert recurrence.wait_cycles == engine.wait_cycles
    assert recurrence.breakdown == engine.breakdown
    # PhaseStats and ProcessorStats are dataclasses: every field of every
    # processor of every phase.
    assert recurrence.phases == engine.phases
    assert np.array_equal(
        recurrence.y.view(np.uint64), engine.y.view(np.uint64)
    )


class TestRecurrenceEqualsEngine:
    @given(
        loop=st.one_of(
            loop_params.map(lambda p: random_irregular_loop(**p)),
            affine_loops(),
        ),
        variant=st.sampled_from(["plain", "linear", "stripmined", "amortized"]),
        kind=st.sampled_from(["block", "cyclic"]),
        chunk=st.integers(1, 5),
        processors=st.sampled_from([1, 2, 3, 16]),
        reorder=st.booleans(),
        data=st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_every_phase_field_and_y(
        self, loop, variant, kind, chunk, processors, reorder, data
    ):
        if variant == "linear" and loop.name != "prop-affine":
            loop = data.draw(affine_loops())
        # Strip-mine blocks cut the natural order.
        order = (
            level_order(loop)[0]
            if reorder and variant != "stripmined"
            else None
        )
        runner = SimulatedRunner(Machine(processors))
        recurrence = run_variant(runner, loop, variant, kind, chunk, order)
        with on_engine():
            engine = run_variant(runner, loop, variant, kind, chunk, order)
        assert_same_run(recurrence, engine)
        if variant != "amortized":
            assert_same_bits(recurrence.y, loop.run_sequential())

    @pytest.mark.parametrize("processors", [1, 4, 16])
    def test_costs_other_than_the_defaults(self, processors):
        # Zero-cost flag traffic and a heavy work profile move every term
        # of the recurrence's sums.
        from repro.machine.costs import WorkProfile

        model = CostModel(
            flag_check=0,
            flag_set=5,
            dep_check=1,
            exec_iter_overhead=0,
            work=WorkProfile(overhead=0, term_setup=9, term_consume=0),
        )
        loop = make_test_loop(n=300, m=3, l=8)
        runner = SimulatedRunner(Machine(processors, cost_model=model))
        recurrence = runner.run_preprocessed(loop)
        with on_engine():
            engine = runner.run_preprocessed(loop)
        assert_same_run(recurrence, engine)


class _Reversed(StaticCyclicSchedule):
    """A caller's schedule: cyclic, the processors numbered backwards."""

    def chunks_for(self, proc):
        return super().chunks_for(self.processors - 1 - proc)

    def lanes(self):
        return self.processors - 1 - super().lanes()


_CONTENDED = CostModel(bus_per_access=2, coherence_miss=12)


class TestRouting:
    """Which body times the executor is read off the machine, the schedule
    class and the hooks — and always said."""

    LOOP = make_test_loop(n=120, m=2, l=8)

    @pytest.mark.parametrize(
        "reason,machine,options",
        [
            ("bus", Machine(4, cost_model=_CONTENDED, bus=True), {}),
            ("coherence", Machine(4, cost_model=_CONTENDED, coherence=True), {}),
            ("dynamic-schedule", Machine(4), {"schedule": "dynamic"}),
            ("dynamic-schedule", Machine(4), {"schedule": "guided"}),
            ("trace", Machine(4), {"trace": True}),
            ("custom-schedule", Machine(4), {"schedule": _Reversed(120, 4)}),
        ],
    )
    def test_ineligible_configurations_take_the_engine(
        self, reason, machine, options
    ):
        result = SimulatedRunner(machine).run(self.LOOP, **options)
        assert result.extras["sim_executor"] == {
            "body": "engine",
            "reason": reason,
        }
        assert_same_bits(result.y, self.LOOP.run_sequential())

    @pytest.mark.parametrize(
        "reason,spec",
        [
            ("trace", PlanSpec(backend="simulated", observe=True)),
            ("sanitize", PlanSpec(backend="simulated", validate="sanitize")),
        ],
    )
    def test_hooks_that_need_a_timeline_take_the_engine(self, reason, spec):
        result = make_runner(spec=spec).run(self.LOOP)
        assert result.extras["sim_executor"]["reason"] == reason
        if reason == "sanitize":
            assert result.extras["sanitize"]["ok"]

    def test_first_disqualifier_is_the_one_named(self):
        machine = Machine(4, cost_model=_CONTENDED, bus=True, coherence=True)
        result = SimulatedRunner(machine).run(
            self.LOOP, schedule="dynamic", trace=True
        )
        assert result.extras["sim_executor"]["reason"] == "bus"

    @pytest.mark.parametrize(
        "loop",
        [
            random_irregular_loop(0, seed=0),
            random_irregular_loop(1, seed=3),
            make_test_loop(n=90, m=3, l=7),  # odd l: no WAIT term
        ],
        ids=["n=0", "n=1", "no-wait"],
    )
    @pytest.mark.parametrize("kind", ["block", "cyclic"])
    def test_degenerate_loops_take_the_recurrence(self, loop, kind):
        runner = SimulatedRunner(Machine(4))
        result = runner.run(loop, schedule=kind)
        assert result.extras["sim_executor"] == RECURRENCE
        assert result.wait_cycles == 0
        with on_engine():
            assert_same_run(result, runner.run(loop, schedule=kind))

    def test_built_in_schedule_instances_take_the_recurrence(self):
        runner = SimulatedRunner(Machine(4))
        result = runner.run(
            self.LOOP, schedule=StaticCyclicSchedule(120, 4, chunk=3)
        )
        assert result.extras["sim_executor"] == RECURRENCE

    def test_a_custom_schedule_times_like_the_built_in_it_permutes(self):
        runner = SimulatedRunner(Machine(4))
        plain = runner.run(self.LOOP, schedule="cyclic")
        custom = runner.run(self.LOOP, schedule=_Reversed(120, 4))
        assert custom.total_cycles == plain.total_cycles
        assert custom.wait_cycles == plain.wait_cycles

    def test_a_flag_set_twice_is_refused_by_both(self):
        # A loop is checked for output dependences when it is built; one
        # corrupted afterwards still cannot set a flag a second time.
        loop = chain_loop(20, 1)
        loop.write[3] = loop.write[2]
        runner = SimulatedRunner(Machine(2))
        with pytest.raises(ValueError, match="flag 2 set twice"):
            runner.run_preprocessed(loop)
        with on_engine(), pytest.raises(ValueError, match="flag 2 set twice"):
            runner.run_preprocessed(loop)
        assert runner.workspace.is_clean()

    def test_the_seam_is_restored(self):
        runner = SimulatedRunner(Machine(2))
        with on_engine():
            forced = runner.run(chain_loop(20, 1))
        assert forced.extras["sim_executor"] == {
            "body": "engine",
            "reason": "custom-schedule",
        }
        assert runner.run(chain_loop(20, 1)).extras["sim_executor"] == RECURRENCE


class TestCounters:
    def test_phase_counters_say_which_body_timed_them(self):
        # An observed run asks for a timeline: the engine.
        observed = make_runner(
            spec=PlanSpec(backend="simulated", processors=4, observe=True)
        ).run(make_test_loop(n=120, m=2, l=8))
        blob = json.loads(json.dumps(result_to_dict(observed)))
        validate_telemetry(blob["telemetry"])
        counters = blob["telemetry"]["metrics"]["counters"]
        assert counters["sim_phases_engine"] == 1
        assert counters["sim_phases_recurrence"] == 0
        assert blob["extras"]["sim_executor"] == {
            "body": "engine",
            "reason": "trace",
        }

    def test_every_instance_of_every_block_is_a_phase(self):
        from repro.obs.metrics import MetricsRegistry

        runner = SimulatedRunner(Machine(4))
        runner._obs_metrics = MetricsRegistry()
        loop = make_test_loop(n=120, m=2, l=8)
        runner.run_amortized(loop, 3)
        runner.run_stripmined(loop, 50)
        counters = runner._obs_metrics.as_dict()["counters"]
        assert counters["sim_phases_recurrence"] == 3 + 3
        assert counters["sim_phases_engine"] == 0
        # One span per executor phase, on whichever run_span body.
        assert (
            counters["kernel_spans_native"] + counters["kernel_spans_python"]
            == 6
        )
