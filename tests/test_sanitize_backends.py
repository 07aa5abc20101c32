"""``validate="sanitize"`` end to end: backends, PlanSpec, CLI, metrics.

The detector's unit behaviour is pinned in ``test_sanitize_detector``;
here the concern is the *wiring* — that every concrete backend logs a
shadow capture the detector accepts, that the spec and ``plan_loop`` route
the mode, that telemetry carries the counters, and that the CLI speaks
both text and JSON.
"""

import json

import numpy as np
import pytest

import repro
from repro.backends import (
    HookedRunner,
    MultiprocRunner,
    ThreadedRunner,
    VectorizedRunner,
    make_runner,
)
from repro.backends.hooks import Sanitize
from repro.errors import SanitizerError
from repro.passes.plan import plan_loop
from repro.passes.spec import PlanSpec, UnsupportedPlanOption
from repro.workloads.synthetic import chain_loop, random_irregular_loop


@pytest.fixture(scope="module")
def loops():
    return [chain_loop(120, 2), random_irregular_loop(150, seed=5)]


class TestSanitizingRunnerRoundTrips:
    @pytest.mark.parametrize("backend", ["threaded", "vectorized"])
    def test_clean_runs_are_clean_and_correct(self, backend, loops):
        for loop in loops:
            inner = (
                ThreadedRunner(threads=3)
                if backend == "threaded"
                else VectorizedRunner()
            )
            result = HookedRunner(inner, [Sanitize]).run(loop)
            assert np.allclose(result.y, loop.run_sequential())
            report = result.extras["sanitize"]
            assert report["ok"] is True
            assert report["pairs_checked"] > 0
            assert report["events"] > 0

    def test_multiproc_round_trip(self, loops):
        inner = MultiprocRunner(workers=3)
        try:
            for loop in loops:
                result = HookedRunner(inner, [Sanitize]).run(loop)
                assert np.allclose(result.y, loop.run_sequential())
                report = result.extras["sanitize"]
                assert report["ok"] is True
                # Lanes are pid-tagged (pid, wid) pairs: two pool
                # generations can never alias.
                assert report["lanes"] >= 1
        finally:
            inner.close()

    def test_error_report_carries_the_structured_report(self, loops):
        """SanitizerError is a ScheduleError and exposes the full
        report, so callers can branch on violation kinds."""
        from repro.errors import ScheduleError

        assert issubclass(SanitizerError, ScheduleError)


class TestSpecWiring:
    def test_spec_accepts_sanitize_and_rejects_unknown(self):
        from repro.errors import ScheduleError

        assert PlanSpec(validate="sanitize").validate == "sanitize"
        with pytest.raises(ScheduleError, match="sanitize"):
            PlanSpec(validate="dynamic")

    @pytest.mark.parametrize(
        "backend", ["simulated", "threaded", "vectorized", "multiproc"]
    )
    def test_all_concrete_backends_support_the_option(self, backend):
        spec = PlanSpec(backend=backend, processors=2, validate="sanitize")
        loop = chain_loop(60, 1)
        result, _plan = repro.parallelize(loop, spec=spec)
        assert np.allclose(result.y, loop.run_sequential())
        report = result.extras["sanitize"]
        assert report["ok"] is True

    def test_auto_backend_rejects_sanitize_with_a_reason(self):
        spec = PlanSpec(backend="auto", validate="sanitize")
        with pytest.raises(UnsupportedPlanOption) as info:
            plan_loop(chain_loop(60, 1), spec)
        assert info.value.option == "sanitize"
        assert "wall time the tuner trains on" in str(info.value)

    def test_sanitize_pass_records_the_contract(self):
        loop = chain_loop(60, 1)
        plan = plan_loop(
            loop, PlanSpec(backend="threaded", validate="sanitize")
        )
        assert plan.sanitize_pairs == 59
        assert "sanitize" in plan.passes
        # Without the mode the stage does not run.
        bare = plan_loop(loop, PlanSpec(backend="threaded"))
        assert bare.sanitize_pairs is None

    def test_make_runner_builds_the_wrapper(self):
        runner = make_runner(
            spec=PlanSpec(
                backend="vectorized", validate="sanitize"
            )
        )
        assert isinstance(runner, HookedRunner)
        assert runner.hooks == (Sanitize,)
        assert isinstance(runner.inner, VectorizedRunner)

    def test_parallelize_spec_path(self):
        loop = chain_loop(80, 1)
        result, _plan = repro.parallelize(
            loop,
            spec=repro.PlanSpec(backend="threaded", validate="sanitize"),
        )
        assert np.allclose(result.y, loop.run_sequential())
        assert result.extras["sanitize"]["ok"] is True


class TestSimulatedStrategies:
    def test_preprocessed_strategy_is_instrumented(self):
        loop = chain_loop(80, 1)
        result, _plan = repro.parallelize(
            loop, spec=PlanSpec(validate="sanitize")
        )
        assert np.allclose(result.y, loop.run_sequential())
        report = result.extras["sanitize"]
        assert report["ok"] is True
        assert report["pairs_checked"] > 0

    def test_doall_strategy_reports_uninstrumented(self):
        # Odd L makes the Figure-4 loop dependence-free; the simulated
        # doall strategy has no shadow hooks.
        loop = repro.make_test_loop(n=40, m=2, l=7)
        result, _plan = repro.parallelize(
            loop, spec=PlanSpec(validate="sanitize"), assert_independent=True
        )
        assert result.strategy == "doall"
        report = result.extras["sanitize"]
        assert report["ok"] is True
        assert report["pairs_checked"] == 0


class TestTelemetryCounters:
    def test_observed_run_carries_sanitize_metrics(self):
        loop = chain_loop(100, 1)
        runner = make_runner(
            spec=PlanSpec(
                backend="threaded",
                processors=2,
                validate="sanitize",
                observe=True,
            )
        )
        result = runner.run(loop)
        telemetry = result.telemetry.as_dict()
        metrics = telemetry["metrics"]["counters"]
        assert metrics["sanitize_pairs_checked"] == 99
        assert metrics["sanitize_violations"] == 0
        assert metrics["sanitize_events"] > 0
        assert metrics["sanitize_lanes"] >= 1


class TestSanitizeCli:
    def run_cli(self, capsys, *argv):
        from repro.__main__ import main as repro_main

        code = repro_main(["sanitize", *argv])
        return code, capsys.readouterr().out

    def test_clean_target_text_report(self, capsys):
        code, out = self.run_cli(capsys, "chain:n=80,d=1")
        assert code == 0
        assert "clean" in out
        assert "dependence pair(s)" in out

    def test_json_mode(self, capsys):
        code, out = self.run_cli(
            capsys, "chain:n=80,d=1", "--json", "--backend=vectorized"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["backend"] == "vectorized"
        (entry,) = [
            e for e in payload["targets"] if "chain" in str(e["loop"])
        ]
        assert entry["sanitize"]["ok"] is True
        assert entry["sanitize"]["backend"] == "vectorized"

    def test_mutants_mode_meets_the_gate(self, capsys):
        code, out = self.run_cli(capsys, "--mutants", "--min-kill=1.0")
        assert code == 0
        assert "kill rate" in out

    def test_mutants_json(self, capsys):
        code, out = self.run_cli(capsys, "--mutants", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["kill_rate"] >= 0.9
        assert payload["baseline_clean"] is True
