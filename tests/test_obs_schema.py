"""The cross-backend telemetry contract.

One schema, three backends: every observed run — simulated cycles,
threaded wall clock, vectorized wall clock — must attach a
``RunResult.telemetry`` blob that passes :func:`validate_telemetry`,
report the same three pipeline phases, and survive JSON serialization.
This file is the acceptance gate the obs subsystem was built against.
"""

import json

import numpy as np
import pytest

from repro import PlanSpec, parallelize
from repro.backends import HookedRunner, InspectorCache, ThreadedRunner, make_runner
from repro.core.serialize import result_to_dict
from repro.errors import TelemetryError
from repro.obs import (
    CAT_COMPUTE,
    CAT_PHASE,
    CAT_RUN,
    CAT_WAIT,
    CLOCK_CYCLES,
    CLOCK_WALL,
    PHASE_NAMES,
    validate_telemetry,
)
from repro.workloads.testloop import make_test_loop

BACKENDS = ("simulated", "threaded", "vectorized")


@pytest.fixture(scope="module")
def loop():
    # Even l: the loop carries true cross-iteration dependencies, so the
    # busy-wait machinery (and its wait spans) actually engages.
    return make_test_loop(n=400, m=2, l=8)


@pytest.fixture(scope="module")
def observed(loop):
    """One observed run per backend (module-scoped: runs are not free)."""
    return {
        backend: make_runner(
            spec=PlanSpec(backend=backend, processors=4, observe=True),
        ).run(loop)
        for backend in BACKENDS
    }


class TestSharedSchema:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_telemetry_validates(self, observed, backend):
        result = observed[backend]
        assert result.telemetry is not None
        validate_telemetry(result.telemetry.as_dict())

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_all_three_phases_reported(self, observed, backend):
        phases = observed[backend].telemetry.phase_totals()
        assert set(PHASE_NAMES) <= set(phases), backend
        assert all(v >= 0 for v in phases.values())

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_exactly_one_run_span_brackets_everything(self, observed, backend):
        tel = observed[backend].telemetry
        runs = [s for s in tel.spans if s.cat == CAT_RUN]
        assert len(runs) == 1
        assert runs[0].start == 0.0
        assert runs[0].end == pytest.approx(tel.span_total())

    def test_span_and_metric_keys_identical_across_backends(self, observed):
        span_keysets = set()
        metric_keysets = set()
        for result in observed.values():
            blob = result.telemetry.as_dict()
            for span in blob["spans"]:
                span_keysets.add(frozenset(span.keys()))
            metric_keysets.add(frozenset(blob["metrics"].keys()))
        assert len(span_keysets) == 1
        assert len(metric_keysets) == 1

    def test_clocks(self, observed):
        assert observed["simulated"].telemetry.clock == CLOCK_CYCLES
        assert observed["threaded"].telemetry.clock == CLOCK_WALL
        assert observed["vectorized"].telemetry.clock == CLOCK_WALL

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_serializes_through_json(self, observed, backend):
        blob = json.loads(json.dumps(result_to_dict(observed[backend])))
        assert blob["telemetry"] is not None
        validate_telemetry(blob["telemetry"])

    def test_unobserved_run_has_no_telemetry(self, loop):
        result = make_runner("threaded", processors=4).run(loop)
        assert result.telemetry is None
        assert result_to_dict(result)["telemetry"] is None

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_parallelize_observe(self, loop, backend):
        result, _ = parallelize(
            loop,
            spec=PlanSpec(processors=4, backend=backend, observe=True),
        )
        assert result.telemetry is not None
        validate_telemetry(result.telemetry.as_dict())

    def test_observed_values_equal_oracle(self, loop, observed):
        reference = loop.run_sequential()
        for backend, result in observed.items():
            assert np.array_equal(result.y, reference), backend


class TestThreadedAccountingInvariant:
    """Wall-clock analogue of the simulated trace/stats invariant: each
    lane's compute + wait spans exactly tile its executor phase span."""

    def test_compute_plus_wait_tiles_executor_phase(self, observed):
        tel = observed["threaded"].telemetry
        lanes = tel.lanes()
        assert lanes, "no lanes recorded"
        for lane in lanes:
            phase = [
                s
                for s in tel.spans
                if s.cat == CAT_PHASE and s.name == "executor" and s.lane == lane
            ]
            assert len(phase) == 1, f"lane {lane}"
            children = sum(
                s.duration
                for s in tel.spans
                if s.cat in (CAT_COMPUTE, CAT_WAIT) and s.lane == lane
            )
            assert children == pytest.approx(
                phase[0].duration, rel=1e-6, abs=1e-9
            ), f"lane {lane}"

    def test_children_stay_inside_their_phase(self, observed):
        tel = observed["threaded"].telemetry
        for lane in tel.lanes():
            (phase,) = [
                s
                for s in tel.spans
                if s.cat == CAT_PHASE and s.name == "executor" and s.lane == lane
            ]
            for s in tel.spans:
                if s.lane == lane and s.cat in (CAT_COMPUTE, CAT_WAIT):
                    assert s.start >= phase.start - 1e-9
                    assert s.end <= phase.end + 1e-9

    def test_wait_metrics_match_wait_spans(self, observed):
        tel = observed["threaded"].telemetry
        counters = tel.metrics.as_dict()["counters"]
        wait_spans = [s for s in tel.spans if s.cat == CAT_WAIT]
        assert counters["busy_waits"] == len(wait_spans)
        assert counters["wait_seconds"] == pytest.approx(
            sum(s.duration for s in wait_spans), rel=1e-6, abs=1e-9
        )
        # Dependence-carrying loop on >1 thread: some waits must block.
        assert counters["flag_sets"] == 400
        assert counters["flag_checks"] >= 1


class TestSimulatedTelemetry:
    def test_phase_extents_match_breakdown(self, observed):
        result = observed["simulated"]
        phases = result.telemetry.phase_totals()
        b = result.breakdown
        for name in PHASE_NAMES:
            assert phases[name] == pytest.approx(float(getattr(b, name)))
        assert result.telemetry.span_total() == pytest.approx(
            float(result.total_cycles)
        )

    def test_trace_not_left_behind_unless_requested(self, loop):
        runner = make_runner(
            spec=PlanSpec(backend="simulated", processors=4, observe=True),
        )
        result = runner.run(loop)
        assert "trace" not in result.extras
        assert any(s.cat == CAT_COMPUTE for s in result.telemetry.spans)
        traced = runner.run(loop, trace=True)
        assert "trace" in traced.extras


class TestInspectorCacheMetrics:
    """Satellite: cache hit/miss counters flow through the registry and
    survive RunResult serialization."""

    def test_cache_stats_survive_serialization(self, loop):
        cache = InspectorCache()
        runner = make_runner(
            spec=PlanSpec(backend="vectorized", observe=True),
            cache=cache,
        )
        cold = runner.run(loop)
        warm = runner.run(loop)

        cold_counters = cold.telemetry.metrics.as_dict()["counters"]
        assert cold_counters["inspector_cache_misses"] == 1
        assert cold_counters["inspector_cache_hits"] == 0

        blob = json.loads(json.dumps(result_to_dict(warm)))
        counters = blob["telemetry"]["metrics"]["counters"]
        gauges = blob["telemetry"]["metrics"]["gauges"]
        assert counters["inspector_cache_hits"] == 1
        assert counters["inspector_cache_misses"] == 0
        assert gauges["inspector_cache_hits_total"] == 1
        assert gauges["inspector_cache_misses_total"] == 1
        assert gauges["inspector_cache_entries"] == 1
        assert blob["extras"]["cache_hits_total"] == 1
        assert blob["extras"]["cache_misses_total"] == 1

    def test_level_width_histogram(self, observed):
        metrics = observed["vectorized"].telemetry.metrics.as_dict()
        hist = metrics["histograms"]["level_width"]
        assert hist["count"] >= 1
        assert hist["sum"] == 400  # every iteration is in exactly one level


class TestKernelBodyCounters:
    """Which ``run_span`` body ran is part of the schema: two counters on
    every backend (the simulator's executor values are one span per
    phase), validated and serialized like the rest."""

    @pytest.mark.parametrize(
        "backend",
        ("threaded", "vectorized", "multiproc", "speculative", "simulated"),
    )
    def test_counters_account_for_every_span(self, loop, backend):
        result = make_runner(
            spec=PlanSpec(backend=backend, processors=2, observe=True)
        ).run(loop)
        blob = json.loads(json.dumps(result_to_dict(result)))
        validate_telemetry(blob["telemetry"])
        counters = blob["telemetry"]["metrics"]["counters"]
        native, python = (
            counters["kernel_spans_native"], counters["kernel_spans_python"]
        )
        assert native + python >= 1
        note = blob["extras"]["kernel"]
        assert note["body"] == ("native" if native else "python")
        assert (note["reason"] is None) == (python == 0)


class TestIgnoredOptions:
    """Satellite: silently-dropped run options become structured notes."""

    @pytest.mark.parametrize("backend", ("threaded", "vectorized"))
    def test_notes_recorded_and_serialized(self, loop, backend):
        result = make_runner(backend, processors=2).run(
            loop, schedule="block", chunk=4, trace=True
        )
        notes = result.extras["ignored_options"]
        assert {n["option"] for n in notes} == {"schedule", "chunk", "trace"}
        for note in notes:
            assert note["backend"] == backend
            assert note["reason"]
        blob = json.loads(json.dumps(result_to_dict(result)))
        assert blob["ignored_options"] == notes
        assert "ignored schedule=" in result.summary()

    def test_defaults_produce_no_notes(self, loop):
        for backend in BACKENDS:
            result = make_runner(backend, processors=2).run(loop)
            assert "ignored_options" not in result.extras, backend
            assert result_to_dict(result)["ignored_options"] == []

    def test_simulated_honors_options_no_notes(self, loop):
        result = make_runner("simulated", processors=2).run(
            loop, schedule="block", chunk=4, trace=True
        )
        assert "ignored_options" not in result.extras


class TestValidatorRejects:
    def base(self):
        return {
            "schema_version": 1,
            "backend": "threaded",
            "clock": "wall_seconds",
            "spans": [],
            "metrics": {"counters": {}, "gauges": {}, "histograms": {}},
        }

    def test_accepts_minimal(self):
        validate_telemetry(self.base())

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda b: b.update(schema_version=99),
            lambda b: b.update(clock="fortnights"),
            lambda b: b.update(backend=""),
            lambda b: b.pop("metrics"),
            lambda b: b["metrics"].pop("histograms"),
            lambda b: b.update(
                spans=[
                    {
                        "name": "x",
                        "cat": "nonsense",
                        "start": 0,
                        "end": 1,
                        "lane": 0,
                        "attrs": {},
                    }
                ]
            ),
            lambda b: b.update(
                spans=[
                    {
                        "name": "x",
                        "cat": "compute",
                        "start": 5,
                        "end": 1,
                        "lane": 0,
                        "attrs": {},
                    }
                ]
            ),
        ],
    )
    def test_rejects(self, mutate):
        blob = self.base()
        mutate(blob)
        with pytest.raises(TelemetryError):
            validate_telemetry(blob)

    def test_spans_without_run_span_rejected(self):
        blob = self.base()
        blob["spans"] = [
            {
                "name": "compute",
                "cat": "compute",
                "start": 0,
                "end": 1,
                "lane": 0,
                "attrs": {},
            }
        ]
        with pytest.raises(TelemetryError, match="run-category"):
            validate_telemetry(blob)


class TestComposition:
    def test_instrumented_over_validating(self, loop):
        runner = make_runner(
            spec=PlanSpec(
                backend="threaded",
                processors=2,
                validate="static",
                observe=True,
            ),
        )
        assert isinstance(runner, HookedRunner)
        assert isinstance(runner.inner, ThreadedRunner)
        result = runner.run(loop)
        assert result.telemetry is not None
        assert result.telemetry.backend == "threaded"
        assert "race_check" in result.extras
        validate_telemetry(result.telemetry.as_dict())

    def test_hooks_detached_after_run(self, loop):
        runner = make_runner(
            spec=PlanSpec(backend="threaded", processors=2, observe=True),
        )
        inner = runner.inner
        runner.run(loop)
        assert inner._obs_recorder is None
        assert inner._obs_metrics is None


class TestPercentiles:
    """MetricsRegistry.percentiles and its surfacing in serialized blobs."""

    def test_quantiles_linear_interpolation(self):
        from repro.obs import MetricsRegistry

        met = MetricsRegistry()
        met.observe_many("lat", [float(v) for v in range(1, 101)])
        q = met.percentiles("lat")
        assert q["p50"] == pytest.approx(50.5)
        assert q["p95"] == pytest.approx(95.05)
        assert q["p99"] == pytest.approx(99.01)

    def test_single_sample_collapses_all_quantiles(self):
        from repro.obs import MetricsRegistry

        met = MetricsRegistry()
        met.observe("lat", 7.0)
        assert met.percentiles("lat") == {"p50": 7.0, "p95": 7.0, "p99": 7.0}

    def test_unknown_histogram_is_empty(self):
        from repro.obs import MetricsRegistry

        assert MetricsRegistry().percentiles("never_observed") == {}

    def test_as_dict_injects_quantiles_and_validates(self):
        from repro.obs import MetricsRegistry

        met = MetricsRegistry()
        met.observe_many("level_width", [1.0, 2.0, 8.0])
        blob = met.as_dict()["histograms"]["level_width"]
        assert {"count", "sum", "min", "max", "p50", "p95", "p99"} <= set(blob)
        telemetry = {
            "schema_version": 1,
            "backend": "vectorized",
            "clock": "wall_seconds",
            "spans": [],
            "metrics": met.as_dict(),
        }
        validate_telemetry(telemetry)  # optional keys pass the gate

    def test_merge_carries_samples(self):
        from repro.obs import MetricsRegistry

        a, b = MetricsRegistry(), MetricsRegistry()
        a.observe_many("lat", [1.0, 2.0])
        b.observe_many("lat", [3.0, 4.0])
        a.merge(b)
        assert a.percentiles("lat")["p50"] == pytest.approx(2.5)

    def test_vectorized_run_reports_level_width_percentiles(self, loop):
        from repro.passes import PlanSpec

        result, _ = parallelize(
            loop, spec=PlanSpec(backend="vectorized", observe=True)
        )
        hist = result.telemetry.metrics.as_dict()["histograms"]["level_width"]
        assert "p50" in hist and hist["p50"] <= hist["max"]
