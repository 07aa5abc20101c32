"""Tests for the telemetry-driven auto-tuner (ISSUE 6 tentpole):
``backend="auto"`` through ``plan_loop`` / ``execute_plan``.

Covers the feature extraction, the explore-then-exploit policy, the
persistence of decisions/measurements on a shared
:class:`~repro.backends.cache.InspectorCache` (keyed by the same
structural fingerprint the inspector cache amortizes under), and the
end-to-end correctness contract: whatever the tuner picks, ``y`` is
bitwise equal to the sequential oracle.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends.cache import InspectorCache, loop_fingerprint
from repro.core.doacross import parallelize
from repro.passes import (
    PlanSpec,
    features_from_telemetry,
    plan_loop,
    record_run_outcome,
)
from repro.passes.autotune import record_doctor_hints
from repro.passes.autotune import AUTO_CANDIDATES, _MAX_SAMPLES, TunerDecision
from repro.workloads.testloop import make_test_loop


@pytest.fixture
def loop():
    return make_test_loop(n=120, m=2, l=8)


@pytest.fixture
def cache():
    return InspectorCache()


# ---------------------------------------------------------------------------
# Feature extraction
# ---------------------------------------------------------------------------


class TestFeatures:
    def test_threaded_run_yields_wait_fractions(self, loop):
        result, _ = parallelize(
            loop, spec=PlanSpec(backend="threaded", processors=2, observe=True)
        )
        features = features_from_telemetry(result.telemetry)
        assert set(features) >= {"wait_fraction", "mean_wait_fraction"}
        assert all(isinstance(k, str) for k in features["wait_fraction"])
        assert all(v >= 0.0 for v in features["wait_fraction"].values())
        assert features["mean_wait_fraction"] >= 0.0

    def test_vectorized_run_yields_level_width_histogram(self, loop):
        result, _ = parallelize(
            loop,
            spec=PlanSpec(backend="vectorized", processors=2, observe=True),
        )
        features = features_from_telemetry(result.telemetry)
        hist = features["level_width"]
        assert hist["count"] > 0
        assert hist["sum"] == loop.n  # widths over all levels sum to n

    def test_features_are_json_safe(self, loop):
        import json

        result, _ = parallelize(
            loop, spec=PlanSpec(backend="threaded", processors=2, observe=True)
        )
        features = features_from_telemetry(result.telemetry)
        assert json.loads(json.dumps(features)) == features


# ---------------------------------------------------------------------------
# The tuner store on InspectorCache
# ---------------------------------------------------------------------------


class TestTunerStore:
    def test_state_shape_and_identity(self, cache):
        state = cache.tuner_state("fp-1")
        assert state == {"measurements": {}, "features": {}, "decision": None}
        assert cache.tuner_state("fp-1") is state  # persistent, not a copy
        assert cache.stats()["tuner_entries"] == 1

    def test_record_run_outcome_caps_samples(self, cache):
        for i in range(_MAX_SAMPLES + 4):
            record_run_outcome(cache, "fp-1", "threaded", float(i))
        samples = cache.tuner_state("fp-1")["measurements"]["threaded"]
        assert len(samples) == _MAX_SAMPLES
        assert samples == [float(i) for i in range(4, _MAX_SAMPLES + 4)]

    def test_record_run_outcome_stores_features(self, cache, loop):
        result, _ = parallelize(
            loop, spec=PlanSpec(backend="threaded", processors=2, observe=True)
        )
        record_run_outcome(
            cache, "fp-1", "threaded", 0.01, telemetry=result.telemetry
        )
        stored = cache.tuner_state("fp-1")["features"]["threaded"]
        assert "mean_wait_fraction" in stored

    def test_clear_drops_tuner_state(self, cache):
        cache.tuner_state("fp-1")["measurements"]["threaded"] = [1.0]
        cache.clear()
        assert cache.stats()["tuner_entries"] == 0
        assert cache.tuner_state("fp-1")["measurements"] == {}


# ---------------------------------------------------------------------------
# Explore-then-exploit policy
# ---------------------------------------------------------------------------


class TestPolicy:
    def test_first_sight_uses_width_heuristic(self, loop, cache):
        plan = plan_loop(loop, PlanSpec(backend="auto"), cache=cache)
        assert plan.backend in AUTO_CANDIDATES
        assert plan.tuner.source == "heuristic"
        assert "wavefront width" in plan.tuner.reason
        assert plan.tuner.fingerprint == loop_fingerprint(loop)

    @pytest.mark.parametrize("l", [7, 8], ids=["one-wavefront", "chain"])
    def test_vectorized_is_tried_first_whatever_the_width(self, l, cache):
        # A chain is no longer threaded's to lose: the vectorized backend
        # walks its width-1 levels in one span.
        plan = plan_loop(
            make_test_loop(n=200, m=5, l=l), PlanSpec(backend="auto"), cache=cache
        )
        assert plan.tuner.source == "heuristic"
        assert plan.backend == "vectorized"

    def test_explores_unmeasured_candidates_before_exploiting(self, loop, cache):
        fp = loop_fingerprint(loop)
        seen: list[str] = []
        for _ in range(len(AUTO_CANDIDATES)):
            plan = plan_loop(loop, PlanSpec(backend="auto"), cache=cache)
            seen.append(plan.backend)
            # Simulate the measured run the planner would normally feed back.
            record_run_outcome(cache, fp, plan.backend, 0.01)
        assert sorted(seen) == sorted(AUTO_CANDIDATES)
        sources = [
            cache.tuner_state(fp)["decision"]["source"],
        ]
        assert sources == ["explore"]  # last pre-exploit decision

    def test_exploits_best_median_once_all_measured(self, loop, cache):
        fp = loop_fingerprint(loop)
        walls = {
            "vectorized": 0.002,
            "threaded": 0.010,
            "multiproc": 0.050,
            "speculative": 0.020,
        }
        for backend, wall in walls.items():
            for jitter in (0.0, wall, -0.0005):
                record_run_outcome(cache, fp, backend, wall + jitter)
        plan = plan_loop(loop, PlanSpec(backend="auto"), cache=cache)
        assert plan.backend == "vectorized"
        assert plan.tuner.source == "telemetry"
        assert "median wall" in plan.tuner.reason

    def test_decision_persisted_on_cache(self, loop, cache):
        plan = plan_loop(loop, PlanSpec(backend="auto"), cache=cache)
        stored = cache.tuner_state(loop_fingerprint(loop))["decision"]
        assert stored == plan.tuner.as_dict()

    def test_separate_structures_tune_separately(self, cache):
        wide = make_test_loop(n=120, m=2, l=8)
        narrow = make_test_loop(n=60, m=2, l=2)
        plan_loop(wide, PlanSpec(backend="auto"), cache=cache)
        plan_loop(narrow, PlanSpec(backend="auto"), cache=cache)
        assert cache.stats()["tuner_entries"] == 2

    def test_decision_audit_is_json_safe(self):
        import json

        decision = TunerDecision(
            backend="vectorized",
            chunk=None,
            source="telemetry",
            reason="test",
            fingerprint="fp",
        )
        assert json.loads(json.dumps(decision.as_dict())) == decision.as_dict()


# ---------------------------------------------------------------------------
# End-to-end: parallelize(backend="auto")
# ---------------------------------------------------------------------------


class TestAutoEndToEnd:
    def test_auto_is_correct_and_audited(self, loop, cache):
        result, plan = parallelize(loop, backend="auto", cache=cache)
        assert np.array_equal(result.y, loop.run_sequential())
        audit = result.extras["schedule_plan"]
        assert audit["requested_backend"] == "auto"
        assert audit["backend"] in AUTO_CANDIDATES
        assert result.extras["tuner"]["source"] in (
            "heuristic",
            "explore",
            "telemetry",
        )
        assert plan.describe()  # the transform plan still rides along

    def test_auto_runs_are_always_observed(self, loop, cache):
        # Telemetry is the tuner's training data, so observe is forced on.
        result, _ = parallelize(loop, backend="auto", cache=cache)
        assert result.telemetry is not None

    def test_auto_feeds_measurements_back(self, loop, cache):
        parallelize(loop, backend="auto", cache=cache)
        state = cache.tuner_state(loop_fingerprint(loop))
        measured = [b for b, s in state["measurements"].items() if s]
        assert len(measured) == 1
        assert measured[0] == state["decision"]["backend"]

    def test_auto_converges_to_telemetry_source(self, loop, cache):
        sources = []
        for _ in range(len(AUTO_CANDIDATES) + 2):
            result, _ = parallelize(loop, backend="auto", cache=cache)
            sources.append(result.extras["tuner"]["source"])
            assert np.array_equal(result.y, loop.run_sequential())
        assert sources[0] == "heuristic"
        assert set(sources[1 : len(AUTO_CANDIDATES)]) <= {"explore"}
        assert sources[-1] == "telemetry"

    def test_auto_via_spec_matches_backend_kwarg(self, loop, cache):
        result, _ = parallelize(
            loop, spec=PlanSpec(backend="auto", processors=4), cache=cache
        )
        assert np.array_equal(result.y, loop.run_sequential())
        assert result.extras["schedule_plan"]["backend"] in AUTO_CANDIDATES


# ---------------------------------------------------------------------------
# Perf-doctor hints as tuner priors
# ---------------------------------------------------------------------------


class TestDoctorHints:
    def _hint(self, cache, fp, backend="vectorized"):
        from repro.obs.findings import Finding

        record_doctor_hints(
            cache,
            fp,
            [
                Finding(
                    kind="wait_bound",
                    severity="critical",
                    summary="lanes mostly busy-wait",
                    evidence={"mean_wait_fraction": 0.9},
                    recommendation={"backend": backend},
                )
            ],
        )

    def test_hint_recorded_from_first_backend_recommendation(self, cache):
        self._hint(cache, "fp-1")
        hints = cache.tuner_state("fp-1")["hints"]
        assert hints["backend"] == "vectorized"
        assert hints["kind"] == "wait_bound"

    def test_finding_without_backend_records_nothing(self, cache):
        from repro.obs.findings import Finding

        record_doctor_hints(
            cache,
            "fp-1",
            [
                Finding(
                    kind="cache_cold",
                    severity="info",
                    summary="cold cache",
                    evidence={},
                    recommendation={"cache": "share"},
                )
            ],
        )
        assert "hints" not in cache.tuner_state("fp-1")

    def test_hinted_backend_is_measured_first(self, loop, cache):
        # The width heuristic would rank vectorized first on this wide
        # loop; a threaded hint overrides it.
        self._hint(cache, loop_fingerprint(loop), backend="threaded")
        plan = plan_loop(loop, PlanSpec(backend="auto"), cache=cache)
        assert plan.backend == "threaded"
        assert plan.tuner.source == "hint"
        assert "doctor" in plan.tuner.reason

    def test_hint_shortcuts_remaining_exploration(self, loop, cache):
        # With a hint, explore stops after the hinted backend is timed —
        # the tuner exploits without measuring the other two candidates.
        fp = loop_fingerprint(loop)
        self._hint(cache, fp, backend="threaded")
        first = plan_loop(loop, PlanSpec(backend="auto"), cache=cache)
        record_run_outcome(cache, fp, first.backend, 0.01)
        second = plan_loop(loop, PlanSpec(backend="auto"), cache=cache)
        assert second.backend == "threaded"
        assert second.tuner.source == "hint"
        assert "without timing" in second.tuner.reason
        # Unhinted, the same state would still be exploring.
        del cache.tuner_state(fp)["hints"]
        unhinted = plan_loop(loop, PlanSpec(backend="auto"), cache=cache)
        assert unhinted.tuner.source == "explore"

    def test_diagnose_run_with_cache_plants_hint(self, cache):
        # End to end: a PlanSpec(diagnose=True) run on a wait-bound loop
        # leaves a hint the next auto plan consumes.
        from repro import chain_loop

        chain = chain_loop(300, 1)
        result, _ = parallelize(
            chain,
            spec=PlanSpec(backend="threaded", processors=8, diagnose=True),
            cache=cache,
        )
        kinds = [f["kind"] for f in result.extras["doctor"]]
        assert "wait_bound" in kinds
        hints = cache.tuner_state(loop_fingerprint(chain)).get("hints")
        assert hints is not None
        plan = plan_loop(chain, PlanSpec(backend="auto"), cache=cache)
        assert plan.tuner.source == "hint"
        assert plan.backend == hints["backend"]
