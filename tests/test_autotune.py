"""Tests for the wall-time auto-tuner: ``backend="auto"`` through
``plan_loop`` / ``execute_plan``.

Covers the explore-then-exploit policy over measured wall times, the
persistence of decisions/measurements on a shared
:class:`~repro.backends.cache.InspectorCache` (keyed by the same
structural fingerprint the inspector cache amortizes under, and bounded
by its capacity), observation only on request, and the end-to-end
correctness contract: whatever the tuner picks, ``y`` is bitwise equal
to the sequential oracle.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends.cache import InspectorCache, loop_fingerprint
from repro.core.doacross import parallelize
from repro.passes import PlanSpec, plan_loop, record_run_outcome
from repro.passes.autotune import AUTO_CANDIDATES, _MAX_SAMPLES, TunerDecision
from repro.workloads.testloop import make_test_loop


@pytest.fixture
def loop():
    return make_test_loop(n=120, m=2, l=8)


@pytest.fixture
def cache():
    return InspectorCache()


# ---------------------------------------------------------------------------
# The tuner store on InspectorCache
# ---------------------------------------------------------------------------


class TestTunerStore:
    def test_state_shape_and_identity(self, cache):
        state = cache.tuner_state("fp-1")
        assert state == {"measurements": {}, "decision": None}
        assert cache.tuner_state("fp-1") is state  # persistent, not a copy
        assert cache.stats()["tuner_entries"] == 1

    def test_record_run_outcome_caps_samples(self, cache):
        for i in range(_MAX_SAMPLES + 4):
            record_run_outcome(cache, "fp-1", "threaded", float(i))
        samples = cache.tuner_state("fp-1")["measurements"]["threaded"]
        assert len(samples) == _MAX_SAMPLES
        assert samples == [float(i) for i in range(4, _MAX_SAMPLES + 4)]

    def test_clear_drops_tuner_state(self, cache):
        cache.tuner_state("fp-1")["measurements"]["threaded"] = [1.0]
        cache.clear()
        assert cache.stats()["tuner_entries"] == 0
        assert cache.tuner_state("fp-1")["measurements"] == {}

    def test_slots_are_bounded_and_their_evictions_counted(self):
        cache = InspectorCache(capacity=2)
        first = cache.tuner_state("fp-1")
        cache.tuner_state("fp-2")
        evictions = cache.evictions
        cache.tuner_state("fp-3")
        assert cache.evictions == evictions + 1
        assert cache.stats()["tuner_entries"] == 2
        assert cache.tuner_state("fp-1") is not first  # oldest slot gone


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

    def test_auto_observes_only_when_asked(self, loop, cache):
        # The tuner trains on wall time: telemetry is the caller's choice.
        result, _ = parallelize(loop, backend="auto", cache=cache)
        assert result.telemetry is None
        assert result.wall_seconds is not None
        observed, _ = parallelize(
            loop,
            spec=PlanSpec(backend="auto", processors=2, observe=True),
            cache=cache,
        )
        assert observed.telemetry is not None
        assert observed.extras["tuner"]["backend"] in AUTO_CANDIDATES

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
