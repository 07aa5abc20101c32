"""The simulated executor's two evaluators agree, and each runs where it
should.

Every phase's cycles are one per-position record
(``simulated._Timing``), read either by the max-plus recurrence
(``SimulatedRunner._recurrence``) or by the one engine body
(``SimulatedRunner._phase``); the engine is the only one that can run a
bus, coherence, a dynamic schedule, a trace or a caller's own schedule,
and it is what the recurrence is held against here, on both bodies of the
recurrence's sweep (:func:`repro.backends.native.max_plus`): for the
preprocessed doacross in all its variants, the classic doacross, the
doall and Figure 3's ``parallel do`` loops.  ``on_engine`` and
``no_compiler`` (``tests/conftest.py``) are the test-only seams that send
eligible phases to the engine too, and the sweep to its Python body.  A
sanitized run's shadow log is written without the engine on a static
schedule, and held to the engine's the same way; the recurrence's
operands live in a cache whose key is tested part by part.
"""

import ast
import contextlib
import copy
import dataclasses
import inspect
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import PlanSpec, make_runner
from repro.backends import native, simulated
from repro.backends.simulated import SimulatedRunner
from repro.core.doacross import PreprocessedDoacross
from repro.core.serialize import result_to_dict
from repro.errors import OutputDependenceError
from repro.graph.levels import compute_levels
from repro.ir.loop import INIT_EXTERNAL
from repro.machine.costs import CostModel
from repro.machine.engine import Machine
from repro.machine.scheduler import StaticCyclicSchedule
from repro.obs import validate_telemetry
from repro.sanitize.detector import detect
from repro.sanitize.shadow import ShadowCapture
from repro.workloads.synthetic import chain_loop, random_irregular_loop
from repro.workloads.testloop import make_test_loop
from tests.conftest import assert_same_bits, no_compiler, on_engine
from tests.strategies import affine_loops, loop_params

RECURRENCE = {"body": "recurrence", "reason": None}


def timed_by(result) -> dict:
    """``extras["sim_executor"]`` without the operand lookup's outcome:
    which body timed the executor, and why."""
    note = dict(result.extras["sim_executor"])
    assert note.pop("operands") in ("cached", "built")
    return note


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
    assert timed_by(recurrence) == RECURRENCE
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
            compute_levels(loop).order
            if reorder and variant != "stripmined"
            else None
        )
        runner = SimulatedRunner(Machine(processors))
        recurrence = run_variant(runner, loop, variant, kind, chunk, order)
        with no_compiler():
            python = run_variant(runner, loop, variant, kind, chunk, order)
        with on_engine():
            engine = run_variant(runner, loop, variant, kind, chunk, order)
        assert_same_run(recurrence, engine)
        assert_same_run(python, engine)
        if variant != "amortized":
            assert_same_bits(recurrence.y, loop.run_sequential())

    @given(
        n=st.integers(0, 90),
        distance=st.integers(1, 6),
        m=st.integers(1, 4),
        half_l=st.integers(0, 4),
        kind=st.sampled_from(["block", "cyclic"]),
        chunk=st.integers(1, 5),
        processors=st.sampled_from([1, 2, 3, 16]),
    )
    @settings(max_examples=60, deadline=None)
    def test_classic_and_doall(
        self, n, distance, m, half_l, kind, chunk, processors
    ):
        # Where each applies: a uniform-distance chain, an odd-L Figure-4
        # loop (it reads only never-written elements).
        chain = chain_loop(n + distance + 1, distance)
        independent = make_test_loop(n + 1, m, 2 * half_l + 1)
        runner = SimulatedRunner(Machine(processors))
        for loop, run in (
            (chain, lambda: runner.run_classic(
                chain, distance, schedule=kind, chunk=chunk
            )),
            (independent, lambda: runner.run_doall(
                independent, schedule=kind, chunk=chunk
            )),
        ):
            recurrence = run()
            with no_compiler():
                python = run()
            with on_engine():
                engine = run()
            assert_same_run(recurrence, engine)
            assert_same_run(python, engine)
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
        with no_compiler():
            python = runner.run_preprocessed(loop)
        with on_engine():
            engine = runner.run_preprocessed(loop)
        assert_same_run(recurrence, engine)
        assert_same_run(python, engine)


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
        assert timed_by(result) == {
            "body": "engine",
            "reason": reason,
        }
        assert_same_bits(result.y, self.LOOP.run_sequential())

    @pytest.mark.parametrize(
        "reason,spec", [("trace", PlanSpec(backend="simulated", observe=True))]
    )
    def test_hooks_that_need_a_timeline_take_the_engine(self, reason, spec):
        result = make_runner(spec=spec).run(self.LOOP)
        assert result.extras["sim_executor"]["reason"] == reason

    def test_a_sanitized_run_takes_the_recurrence(self):
        # The shadow log of a static schedule needs no timeline.
        spec = PlanSpec(backend="simulated", validate="sanitize")
        result = make_runner(spec=spec).run(self.LOOP)
        assert timed_by(result) == RECURRENCE
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
        assert timed_by(result) == RECURRENCE
        assert result.wait_cycles == 0
        with on_engine():
            assert_same_run(result, runner.run(loop, schedule=kind))

    def test_built_in_schedule_instances_take_the_recurrence(self):
        runner = SimulatedRunner(Machine(4))
        result = runner.run(
            self.LOOP, schedule=StaticCyclicSchedule(120, 4, chunk=3)
        )
        assert timed_by(result) == RECURRENCE

    def test_a_custom_schedule_times_like_the_built_in_it_permutes(self):
        runner = SimulatedRunner(Machine(4))
        plain = runner.run(self.LOOP, schedule="cyclic")
        custom = runner.run(self.LOOP, schedule=_Reversed(120, 4))
        assert custom.total_cycles == plain.total_cycles
        assert custom.wait_cycles == plain.wait_cycles

    def test_a_flag_set_twice_is_refused_by_both(self):
        # A loop is checked for output dependences when it is built; one
        # corrupted before first use is refused before any phase runs.
        # With or without a cache (whose hashing is then what checks).
        from repro import InspectorCache

        for cache in (None, InspectorCache()):
            loop = chain_loop(20, 1)
            loop.write[3] = loop.write[2]
            runner = SimulatedRunner(Machine(2), cache=cache)
            for body in (contextlib.nullcontext, on_engine):
                with body(), pytest.raises(OutputDependenceError) as info:
                    runner.run_preprocessed(loop)
                got = info.value
                assert (got.index, got.first_writer, got.second_writer) == (2, 2, 3)
            assert runner.workspace.is_clean()
            assert loop.write.flags.writeable  # refused before any freeze
        assert cache.stats()["sim_entries"] == 0

    def test_the_seam_is_restored(self):
        runner = SimulatedRunner(Machine(2))
        with on_engine():
            forced = runner.run(chain_loop(20, 1))
        assert timed_by(forced) == {
            "body": "engine",
            "reason": "custom-schedule",
        }
        assert timed_by(runner.run(chain_loop(20, 1))) == RECURRENCE


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
            "operands": "built",
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


class TestParallelDo:
    """Figure 3's inspector and postprocessor loops: ``count × cost`` per
    processor in closed form on a bus-free machine, the engine's answer
    field by field."""

    @pytest.mark.parametrize("coherence", [False, True])
    @pytest.mark.parametrize("processors", [1, 3, 4, 16])
    @pytest.mark.parametrize("n", [0, 1, 5, 16, 101])
    def test_closed_form_equals_engine(self, n, processors, coherence):
        machine = Machine(processors, cost_model=_CONTENDED, coherence=coherence)
        runner = SimulatedRunner(machine)
        for name, cost, accesses in (
            ("inspector", 3, 1),
            ("postprocessor", 4, 3),
            ("postprocessor", 0, 2),
        ):
            closed = runner._parallel_do(name, n, cost, accesses)
            with on_engine():
                engine = runner._parallel_do(name, n, cost, accesses)
            assert closed == engine

    def test_a_bus_queues_on_the_engine(self):
        runner = SimulatedRunner(Machine(4, cost_model=_CONTENDED, bus=True))
        phase = runner._parallel_do("postprocessor", 40, 4, 3)
        assert phase.total_resource_wait > 0
        assert phase.span > 10 * 4


def _shadow(runner, loop, run):
    """``run(runner)`` with a shadow log attached: the result, the log's
    lanes and its report."""
    runner._san_capture = capture = ShadowCapture()
    try:
        result = run(runner)
    finally:
        runner._san_capture = None
    return result, capture.lanes, detect(capture, loop).as_dict()


class TestShadowLog:
    """On a static schedule a processor's shadow log is its positions'
    accesses in position order, written without the engine: the same
    events per lane, and the same report, as the engine body logs."""

    LOOPS = {
        "chain-d1": chain_loop(90, 1),
        "chain-d3": chain_loop(90, 3),
        "fig4-l7": make_test_loop(120, 3, 7),
        "fig4-l8": make_test_loop(120, 3, 8),
        **{f"random-{s}": random_irregular_loop(110, seed=s) for s in range(3)},
    }
    VARIANTS = {
        "plain": lambda r, loop, **kw: r.run_preprocessed(loop, **kw),
        "doconsider": lambda r, loop, **kw: r.run_preprocessed(
            loop, order=compute_levels(loop).order, **kw
        ),
        "amortized": lambda r, loop, **kw: r.run_amortized(loop, 2, **kw),
        "stripmined": lambda r, loop, schedule, chunk: r.run_stripmined(
            loop, 25, schedule_kind=schedule, chunk=chunk
        ),
    }

    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    @pytest.mark.parametrize("kind,chunk", [("cyclic", 1), ("block", 1), ("cyclic", 4)])
    @pytest.mark.parametrize("processors", [1, 3, 16])
    def test_static_log_is_the_engine_log(self, processors, kind, chunk, variant):
        runner = SimulatedRunner(Machine(processors))
        for name, loop in self.LOOPS.items():

            def run(r):
                return self.VARIANTS[variant](r, loop, schedule=kind, chunk=chunk)

            result, lanes, report = _shadow(runner, loop, run)
            with on_engine():
                engine, engine_lanes, engine_report = _shadow(runner, loop, run)
            assert timed_by(result) == RECURRENCE, name
            assert engine.extras["sim_executor"]["body"] == "engine", name
            assert lanes and lanes == engine_lanes, name
            assert report == engine_report, name
            if variant != "stripmined":  # the log has no barrier between blocks
                assert report["ok"], name

    def test_a_dynamic_schedule_logs_from_the_engine(self):
        loop = make_test_loop(120, 3, 8)
        result, lanes, report = _shadow(
            SimulatedRunner(Machine(4)), loop,
            lambda r: r.run_preprocessed(loop, schedule="dynamic", chunk=4),
        )
        assert timed_by(result) == {"body": "engine", "reason": "dynamic-schedule"}
        assert report["ok"] and lanes


def test_one_engine_body():
    """Every phase walks one record: besides ``_phase``'s dealer, the
    module has one generator that yields engine operations."""
    generators = []

    def visit(node, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = path + (child.name,)
                if isinstance(child, ast.FunctionDef) and _yields(child):
                    generators.append(".".join(inner))
                visit(child, inner)
            else:
                visit(child, path)

    visit(ast.parse(inspect.getsource(simulated)), ())
    assert sorted(generators) == [
        "SimulatedRunner._phase.body",
        "SimulatedRunner._phase.factory_for.task",
        "SimulatedRunner._phase.factory_for.task",
    ]


def _yields(function: ast.FunctionDef) -> bool:
    """Whether ``function`` itself (not a function nested in it) yields."""
    stack = list(function.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Yield, ast.YieldFrom)):
            return True
        if not isinstance(node, (ast.FunctionDef, ast.Lambda, ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(node))
    return False


def _counting(monkeypatch, module, name: str) -> list:
    """Replace ``module.name`` by a wrapper that counts its calls."""
    calls = []
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


class TestOperandCache:
    """The executor operands and the cycle account are built once per key
    and served from the runner's :class:`InspectorCache`: a warm call
    sweeps nothing."""

    def test_a_warm_call_classifies_nothing(self, monkeypatch):
        from repro import InspectorCache, parallelize
        from repro.backends import native, simulated

        loop = make_test_loop(n=300, m=3, l=8)
        spec = PlanSpec(backend="simulated", processors=4)
        cache = InspectorCache()
        cold, _ = parallelize(loop, spec=spec, cache=cache)
        classified = _counting(monkeypatch, simulated, "classify_terms")
        sweeps = _counting(monkeypatch, native, "max_plus")
        engines = _counting(monkeypatch, Machine, "new_engine")
        warm, _ = parallelize(loop, spec=spec, cache=cache)
        assert cold.extras["sim_executor"]["operands"] == "built"
        assert warm.extras["sim_executor"]["operands"] == "cached"
        assert (classified, sweeps, engines) == ([], [], [])
        assert warm.wait_cycles > 0  # the cold sweep had waits to resolve
        # Field by field, the warm result is the cold one.
        assert warm.total_cycles == cold.total_cycles
        assert warm.wait_cycles == cold.wait_cycles
        assert warm.breakdown == cold.breakdown
        assert warm.phases == cold.phases
        assert_same_bits(warm.y, cold.y)

    def test_every_key_part_separates(self):
        # One shared cache, one set of index arrays; every configuration
        # that changes the operands must get its own entry, so each result
        # equals a fresh cache's — on the first pass (misses next to
        # other configurations' entries) and on the second (hits).
        from repro import InspectorCache
        from repro.machine.costs import WorkProfile

        loop = make_test_loop(n=240, m=3, l=8)
        heavy = copy.copy(loop)  # the same arrays, another work profile
        heavy.work = WorkProfile(overhead=9, term_setup=1, term_consume=7)
        order = compute_levels(loop).order
        slow = CostModel(flag_check=7, dep_check=5)
        configs = [
            ("plain", loop, 4, None, {}),
            ("cost-model", loop, 4, slow, {}),
            ("work-profile", heavy, 4, None, {}),
            ("processors", loop, 3, None, {}),
            ("block", loop, 4, None, {"schedule": "block"}),
            ("chunk", loop, 4, None, {"chunk": 3}),
            ("doconsider", loop, 4, None, {"order": order}),
            ("linear", loop, 4, None, {"linear": True}),
            ("strip", loop, 4, None, {"block": 50}),
            ("strip-other", loop, 4, None, {"block": 70}),
        ]

        def run(runner, lp, options):
            options = dict(options)
            if "block" in options:
                return runner.run_stripmined(lp, options.pop("block"), **options)
            return runner.run_preprocessed(lp, **options)

        shared = InspectorCache()
        for _ in range(2):
            for name, lp, processors, model, options in configs:
                got = run(
                    make_runner(
                        "simulated", processors=processors,
                        cost_model=model, cache=shared,
                    ),
                    lp, options,
                )
                fresh = run(
                    make_runner(
                        "simulated", processors=processors, cost_model=model
                    ),
                    lp, options,
                )
                assert got.phases == fresh.phases, name
                assert got.breakdown == fresh.breakdown, name
                assert got.total_cycles == fresh.total_cycles, name
                assert_same_bits(got.y, fresh.y)
        stats = shared.stats()
        assert stats["sim_entries"] == stats["sim_misses"] == len(configs)
        assert stats["sim_hits"] == len(configs)

    def test_doconsider_through_parallelize(self):
        from repro import InspectorCache, parallelize

        loop = make_test_loop(n=240, m=3, l=8)
        cache = InspectorCache()
        notes, cycles = [], []
        for reorder in ("natural", "doconsider", "doconsider", "natural"):
            spec = PlanSpec(backend="simulated", processors=4, reorder=reorder)
            result, _ = parallelize(loop, spec=spec, cache=cache)
            notes.append(result.extras["sim_executor"]["operands"])
            cycles.append(result.total_cycles)
        assert notes == ["built", "built", "cached", "cached"]
        assert cycles[0] == cycles[3] and cycles[1] == cycles[2]

    def test_an_order_changed_after_the_run_is_not_what_is_served(self):
        from repro import InspectorCache

        loop = random_irregular_loop(150, seed=5)
        order = compute_levels(loop).order
        assert not np.array_equal(order, np.arange(loop.n))
        runner = SimulatedRunner(Machine(4), cache=InspectorCache())
        first = runner.run(loop, order=order)
        kept = order.copy()
        order[:] = kept[::-1]  # the caller's buffer, reused for other data
        again = runner.run(loop, order=kept)
        assert again.extras["sim_executor"]["operands"] == "cached"
        assert again.phases == first.phases
        assert_same_bits(again.y, loop.run_sequential())

    def test_engine_runs_build_every_call(self):
        from repro import InspectorCache

        runner = SimulatedRunner(Machine(4), cache=InspectorCache())
        loop = make_test_loop(n=120, m=2, l=8)
        for options in ({"schedule": "dynamic"}, {"trace": True}):
            notes = [
                runner.run(loop, **options).extras["sim_executor"]["operands"]
                for _ in range(2)
            ]
            assert notes == ["built", "built"]
        assert runner.cache.stats()["sim_entries"] == 0

    def test_the_lookups_are_counted(self):
        from repro import InspectorCache
        from repro.obs.metrics import MetricsRegistry

        runner = SimulatedRunner(Machine(4), cache=InspectorCache())
        runner._obs_metrics = MetricsRegistry()
        loop = make_test_loop(n=120, m=2, l=8)
        for _ in range(3):
            runner.run(loop)
        counters = runner._obs_metrics.as_dict()["counters"]
        assert (counters["sim_operand_hits"], counters["sim_operand_misses"]) == (2, 1)
        assert counters["sim_phases_recurrence"] == 3

    def test_without_a_cache_nothing_is_kept_or_frozen(self):
        runner = SimulatedRunner(Machine(4))
        loop = make_test_loop(n=120, m=2, l=8)
        notes = [
            runner.run(loop).extras["sim_executor"]["operands"] for _ in range(2)
        ]
        assert notes == ["built", "built"]
        assert loop.write.flags.writeable and loop.reads.index.flags.writeable

    @pytest.mark.parametrize(
        "machine, options",
        [
            ({}, {}),
            ({"bus": True, "cost_model": _CONTENDED}, {}),
            ({"coherence": True, "cost_model": _CONTENDED}, {}),
            ({}, {"schedule": "dynamic"}),
            ({}, {"trace": True}),
            ({}, {"schedule": StaticCyclicSchedule(120, 4)}),
        ],
        ids=["default", "bus", "coherence", "dynamic", "trace", "instance"],
    )
    def test_given_a_cache_every_machine_freezes(self, machine, options):
        # Whether a run freezes the index arrays is the cache's to say,
        # not the machine's or the schedule's.
        from repro import InspectorCache

        runner = SimulatedRunner(Machine(4, **machine), cache=InspectorCache())
        loop = make_test_loop(n=120, m=2, l=8)
        runner.run(loop, **options)
        with pytest.raises(ValueError, match="read-only"):
            loop.write[0] = loop.write[1]


def _cached_amortized(instances: int):
    """``PreprocessedDoacross.run_amortized`` on a runner given a cache
    (``ENTRY_POINTS`` keys it by the name of the wrapper class that once
    held it, ``AmortizedDoacross``)."""

    def run(runner, loop):
        pd = PreprocessedDoacross(processors=runner.machine.processors)
        pd._runner = runner
        return pd.run_amortized(loop, instances)

    return run


class TestCycleAccount:
    """A recurrence-timed run's cycle account — merged phases, breakdown,
    wait and sequential cycles, schedule description — is built by the
    first call per key and instance count and read by every later one:
    a warm call sweeps nothing, runs no ``parallel do`` and merges no
    phase, and reports exactly the cold call's cycles."""

    ENTRY_POINTS = {
        "preprocessed": lambda r, loop: r.run_preprocessed(loop),
        "linear": lambda r, loop: r.run_preprocessed(loop, linear=True),
        "stripmined": lambda r, loop: r.run_stripmined(loop, 70),
        "doconsider": lambda r, loop: r.run_preprocessed(
            loop, order=compute_levels(loop).order, order_label="doconsider"
        ),
        "amortized-1": lambda r, loop: r.run_amortized(loop, 1),
        "amortized-3": lambda r, loop: r.run_amortized(loop, 3),
        "AmortizedDoacross-1": _cached_amortized(1),
        "AmortizedDoacross-3": _cached_amortized(3),
    }

    @staticmethod
    def assert_same_cycles(got, want):
        assert got.total_cycles == want.total_cycles
        assert got.wait_cycles == want.wait_cycles
        assert got.sequential_cycles == want.sequential_cycles
        assert got.breakdown == want.breakdown
        assert got.schedule == want.schedule
        assert [p.name for p in got.phases] == [p.name for p in want.phases]
        for a, b in zip(got.phases, want.phases):
            assert len(a.processors) == len(b.processors)
            for x, y in zip(a.processors, b.processors):
                assert x == y  # every ProcessorStats field
        assert got.efficiency == want.efficiency

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_a_warm_call_times_nothing(self, monkeypatch, entry):
        from repro import InspectorCache

        run = self.ENTRY_POINTS[entry]
        loop = make_test_loop(n=240, m=3, l=8)
        runner = SimulatedRunner(Machine(4), cache=InspectorCache())
        cold = run(runner, loop)
        fresh = run(SimulatedRunner(Machine(4)), loop)
        counted = [
            _counting(monkeypatch, native, "max_plus"),
            _counting(monkeypatch, SimulatedRunner, "_parallel_do"),
            _counting(monkeypatch, SimulatedRunner, "_recurrence"),
            _counting(monkeypatch, SimulatedRunner, "_account"),
        ]
        warm = run(runner, loop)
        again = run(runner, loop)
        assert counted == [[], [], [], []]
        assert cold.extras["sim_executor"]["operands"] == "built"
        assert warm.extras["sim_executor"]["operands"] == "cached"
        assert warm.wait_cycles > 0  # there were waits to time
        for result in (cold, warm, again):
            self.assert_same_cycles(result, fresh)
            assert_same_bits(result.y, fresh.y)
            assert (result.strategy, result.order_label) == (
                fresh.strategy, fresh.order_label,
            )
            assert result.extras == fresh.extras | {
                "sim_executor": result.extras["sim_executor"]
            }

    def test_a_shared_account_cannot_be_changed_through_a_result(self):
        from repro import InspectorCache

        loop = make_test_loop(n=240, m=3, l=8)
        runner = SimulatedRunner(Machine(4), cache=InspectorCache())
        cold = runner.run(loop)
        warm = runner.run(loop)
        with pytest.raises(dataclasses.FrozenInstanceError):
            warm.phases[0].processors[0].compute_cycles = 0
        with pytest.raises(dataclasses.FrozenInstanceError):
            warm.breakdown.executor = 0
        with pytest.raises(TypeError):
            warm.phases[0].processors[0] = None
        warm.phases.clear()  # the result's own list
        warm.extras.clear()
        again = runner.run(loop)
        assert again.extras["sim_executor"]["operands"] == "cached"
        self.assert_same_cycles(again, cold)

    def test_the_entry_counts_the_account(self):
        from repro import InspectorCache

        cache = InspectorCache()
        runner = SimulatedRunner(Machine(4), cache=cache)
        loop = make_test_loop(n=240, m=3, l=8)
        runner.run_preprocessed(loop)
        (operands,) = cache._sim.values()
        (account,) = operands.accounts.values()
        blocks = sum(block.nbytes for block in operands.blocks)
        assert account.nbytes > 0
        assert operands.nbytes == blocks + account.nbytes
        runner.run_amortized(loop, 3)  # same key, another instance count
        assert sorted(operands.accounts) == [1, 3]
        assert cache.stats()["bytes"] == operands.nbytes
        assert cache.stats()["sim_entries"] == 1

    @pytest.mark.parametrize("entry", ["preprocessed", "amortized-3", "stripmined"])
    def test_a_sanitized_warm_call_still_logs(self, entry):
        from repro import InspectorCache

        run = self.ENTRY_POINTS[entry]
        loop = random_irregular_loop(150, seed=4)
        runner = SimulatedRunner(Machine(3), cache=InspectorCache())
        cold, cold_lanes, cold_report = _shadow(runner, loop, lambda r: run(r, loop))
        warm, warm_lanes, warm_report = _shadow(runner, loop, lambda r: run(r, loop))
        _, lanes, report = _shadow(
            SimulatedRunner(Machine(3)), loop, lambda r: run(r, loop)
        )
        assert warm.extras["sim_executor"]["operands"] == "cached"
        assert warm_lanes and warm_lanes == cold_lanes == lanes
        assert warm_report == cold_report == report
