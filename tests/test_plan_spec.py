"""Tests for :class:`repro.passes.PlanSpec` — the consolidated run
configuration — and the plan-time option support matrix that keeps
planned runs free of ``extras["ignored_options"]`` notes.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.backends import make_runner
from repro.core.doacross import parallelize
from repro.errors import ScheduleError
from repro.passes import (
    OPTION_SUPPORT,
    PlanSpec,
    SPEC_BACKENDS,
    UnsupportedPlanOption,
    check_options,
)
from repro.workloads.testloop import make_test_loop


@pytest.fixture
def loop():
    return make_test_loop(n=120, m=2, l=8)


class TestValueObject:
    def test_frozen(self):
        spec = PlanSpec()
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.backend = "threaded"

    def test_hashable_and_equal_by_value(self):
        a = PlanSpec(backend="threaded", processors=4)
        b = PlanSpec(backend="threaded", processors=4)
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_defaults(self):
        spec = PlanSpec()
        assert spec.backend == "simulated"
        assert spec.processors == 16
        assert spec.reorder == "natural"
        assert spec.tunable_options() == {}

    def test_as_dict_is_json_safe_and_complete(self):
        import json

        spec = PlanSpec(backend="threaded", wait_timeout=2.5)
        d = spec.as_dict()
        assert json.loads(json.dumps(d)) == d
        assert set(d) == {
            "backend",
            "processors",
            "schedule",
            "chunk",
            "reorder",
            "analyze",
            "validate",
            "observe",
            "wait_timeout",
        }

    def test_tunable_options_lists_only_set_knobs(self):
        spec = PlanSpec(schedule="cyclic", chunk=3)
        assert spec.tunable_options() == {"schedule": "cyclic", "chunk": 3}


class TestConstructionValidation:
    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"backend": "cuda"}, "unknown backend"),
            ({"processors": 0}, "processors must be >= 1"),
            ({"chunk": 0}, "chunk must be >= 1"),
            ({"schedule": "bogus"}, "unknown schedule kind"),
            ({"reorder": "colored"}, "unknown reorder kind"),
            ({"analyze": "psychic"}, "unknown analyze mode"),
            ({"validate": "dynamic"}, "unknown validate mode"),
            ({"wait_timeout": 0}, "wait_timeout must be > 0"),
        ],
    )
    def test_malformed_values_raise_at_construction(self, kwargs, match):
        with pytest.raises(ScheduleError, match=match):
            PlanSpec(**kwargs)

    def test_well_formed_but_unsupported_passes_construction(self):
        # Support is a backend property, checked at plan time — the same
        # spec must be rebasable across backends.
        spec = PlanSpec(backend="vectorized", chunk=4)
        check_options(spec, backend="multiproc")  # fine there
        with pytest.raises(UnsupportedPlanOption):
            check_options(spec)


class TestOptionSupportMatrix:
    def test_every_backend_has_a_row(self):
        assert set(OPTION_SUPPORT) == set(SPEC_BACKENDS)

    @pytest.mark.parametrize(
        "backend, option, value",
        [
            ("threaded", "schedule", "cyclic"),
            ("threaded", "chunk", 2),
            ("vectorized", "chunk", 2),
            ("vectorized", "wait_timeout", 1.0),
            ("multiproc", "schedule", "block"),
            ("simulated", "wait_timeout", 1.0),
            ("auto", "schedule", "cyclic"),
        ],
    )
    def test_unsupported_option_raises_with_reason(self, backend, option, value):
        spec = PlanSpec(backend=backend, **{option: value})
        with pytest.raises(UnsupportedPlanOption) as exc_info:
            check_options(spec)
        err = exc_info.value
        assert err.backend == backend
        assert err.option == option
        assert err.value == value
        assert err.reason  # every rejection explains itself
        assert err.as_dict()["reason"] == err.reason

    def test_unsupported_is_a_schedule_error(self):
        # Callers catching the repro error taxonomy keep working.
        with pytest.raises(ScheduleError):
            check_options(PlanSpec(backend="vectorized", chunk=2))

    @pytest.mark.parametrize(
        "backend, kwargs",
        [
            ("simulated", {"schedule": "cyclic", "chunk": 2}),
            ("threaded", {"wait_timeout": 5.0}),
            ("vectorized", {}),
            ("multiproc", {"chunk": 3, "wait_timeout": 5.0}),
            ("auto", {"chunk": 3, "wait_timeout": 5.0}),
        ],
    )
    def test_supported_options_check_clean(self, backend, kwargs):
        check_options(PlanSpec(backend=backend, **kwargs))


class TestPlannedVersusDirectRuns:
    def test_direct_run_options_are_noted_not_rejected(self, loop):
        # Options handed straight to Runner.run bypass planning: the
        # backend notes what it ignores.  Only planning rejects.
        runner = make_runner("threaded", processors=2)
        result = runner.run(loop, schedule="block")
        notes = result.extras["ignored_options"]
        assert notes and notes[0]["option"] == "schedule"

    def test_planned_run_attaches_schedule_plan(self, loop):
        result, _ = parallelize(
            loop, spec=PlanSpec(backend="threaded", processors=2)
        )
        audit = result.extras["schedule_plan"]
        assert audit["backend"] == "threaded"
        assert audit["passes"][0] == "validate-options"
        assert "ignored_options" not in result.extras
