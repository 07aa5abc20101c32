"""The telemetry-driven perf doctor (ISSUE 8 tentpole, part 3).

Unit tests drive each diagnostic rule with synthetic telemetry; the
end-to-end acceptance test runs the issue's scenario — a narrow-wavefront
dependence chain on 8 threaded workers — and checks both that the doctor
flags it wait-bound and that the recommended backend is *measurably*
faster on the same loop.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
import pytest

from repro import chain_loop
from repro.backends import InspectorCache, make_runner
from repro.core.doacross import parallelize
from repro.obs import MetricsRegistry, Span, Telemetry
from repro.obs.spans import CAT_COMPUTE, CAT_PHASE, CAT_WAIT
from repro.obs.telemetry import CLOCK_WALL
from repro.passes import PlanSpec
from repro.perf.doctor import diagnose, diagnose_result
from repro.perf.findings import (
    FINDING_KINDS,
    SEV_CRITICAL,
    SEV_INFO,
    SEV_WARNING,
    Finding,
)


def telem(backend="threaded", spans=(), counters=None, gauges=None,
          hists=None):
    met = MetricsRegistry()
    for name, value in (counters or {}).items():
        met.count(name, value)
    for name, value in (gauges or {}).items():
        met.gauge(name, value)
    for name, values in (hists or {}).items():
        met.observe_many(name, values)
    return Telemetry(
        backend=backend, clock=CLOCK_WALL, spans=list(spans), metrics=met
    )


def lane(n, compute, wait=0.0, at=0.0):
    spans = [Span("compute", CAT_COMPUTE, at, at + compute, lane=n)]
    if wait:
        spans.append(
            Span("wait", CAT_WAIT, at + compute, at + compute + wait, lane=n)
        )
    return spans


def by_kind(findings):
    return {f.kind: f for f in findings}


class TestFindingObject:
    def test_rejects_unknown_kind_and_severity(self):
        with pytest.raises(ValueError, match="kind"):
            Finding(kind="mystery", severity=SEV_INFO, summary="x")
        with pytest.raises(ValueError, match="severity"):
            Finding(kind="wait_bound", severity="mild", summary="x")

    def test_as_dict_json_safe_and_one_line(self):
        import json

        f = Finding(
            kind="wait_bound",
            severity=SEV_CRITICAL,
            summary="waits dominate",
            evidence={"mean_wait_fraction": 0.9},
            recommendation={"backend": "vectorized"},
        )
        assert json.loads(json.dumps(f.as_dict())) == f.as_dict()
        line = f.one_line()
        assert "[critical]" in line and "backend='vectorized'" in line


class TestWaitBound:
    def test_critical_above_half(self):
        t = telem(spans=lane(0, compute=1.0, wait=9.0))
        finding = by_kind(diagnose(t))["wait_bound"]
        assert finding.severity == SEV_CRITICAL
        assert finding.recommendation == {"backend": "vectorized"}
        assert finding.evidence["mean_wait_fraction"] == pytest.approx(0.9)

    def test_warning_between_thresholds(self):
        t = telem(spans=lane(0, compute=7.0, wait=3.0))
        assert by_kind(diagnose(t))["wait_bound"].severity == SEV_WARNING

    def test_low_wait_share_is_healthy(self):
        t = telem(spans=lane(0, compute=9.5, wait=0.5))
        assert "wait_bound" not in by_kind(diagnose(t))

    def test_batched_backend_not_judged_wait_bound(self):
        # The vectorized backend has no per-element waits; the rule only
        # applies to point-to-point protocols.
        t = telem(backend="vectorized", spans=lane(0, 1.0, wait=9.0))
        assert "wait_bound" not in by_kind(diagnose(t))


class TestLoadImbalance:
    def test_skewed_lane_flagged(self):
        t = telem(spans=lane(0, compute=10.0) + lane(1, compute=1.0))
        finding = by_kind(diagnose(t))["load_imbalance"]
        assert finding.severity == SEV_WARNING
        assert finding.evidence["max_lane"] == 0
        assert finding.evidence["max_over_mean"] == pytest.approx(10 / 5.5)

    def test_balanced_lanes_healthy(self):
        t = telem(spans=lane(0, compute=5.0) + lane(1, compute=4.5))
        assert "load_imbalance" not in by_kind(diagnose(t))

    def test_single_lane_never_imbalanced(self):
        t = telem(spans=lane(0, compute=5.0))
        assert "load_imbalance" not in by_kind(diagnose(t))


class TestNarrowWavefronts:
    def test_chain_widths_critical_for_many_workers(self):
        t = telem(
            backend="multiproc",
            hists={"level_width": [1.0, 1.0, 1.0, 2.0]},
            gauges={"processors": 8},
        )
        finding = by_kind(diagnose(t))["narrow_wavefronts"]
        assert finding.severity == SEV_CRITICAL
        # Never the 13x slower point-to-point backend.
        assert finding.recommendation == {"backend": "vectorized"}

    def test_moderate_widths_warn(self):
        t = telem(
            backend="threaded",
            hists={"level_width": [4.0, 4.0, 4.0]},
            gauges={"processors": 8},
        )
        assert by_kind(diagnose(t))["narrow_wavefronts"].severity == SEV_WARNING

    def test_vectorized_run_is_not_sent_elsewhere(self):
        """The vectorized backend walks every level in one span, whatever
        their width: nothing to report, no other backend recommended."""
        loop = chain_loop(300, 1)
        result = make_runner(
            spec=PlanSpec(backend="vectorized", observe=True)
        ).run(loop)
        assert result.telemetry.metrics.as_dict()["histograms"][
            "level_width"
        ]["count"] == 300
        findings = diagnose(result.telemetry, processors=8)
        assert "narrow_wavefronts" not in by_kind(findings)

    def test_wide_wavefronts_healthy(self):
        t = telem(
            backend="vectorized",
            hists={"level_width": [64.0, 128.0]},
            gauges={"processors": 8},
        )
        assert "narrow_wavefronts" not in by_kind(diagnose(t))

    def test_processors_argument_overrides_gauge(self):
        t = telem(backend="threaded", hists={"level_width": [4.0, 4.0]})
        assert "narrow_wavefronts" not in by_kind(diagnose(t, processors=1))
        assert "narrow_wavefronts" in by_kind(diagnose(t, processors=16))


class TestInspectorDominant:
    def phases(self, inspector, executor):
        return [
            Span("inspector", CAT_PHASE, 0.0, inspector, lane=0),
            Span("executor", CAT_PHASE, inspector, inspector + executor,
                 lane=0),
        ]

    def test_dominant_inspector_flagged(self):
        t = telem(spans=self.phases(6.0, 2.0))
        finding = by_kind(diagnose(t))["inspector_dominant"]
        assert finding.recommendation == {"analyze": "symbolic"}
        assert finding.evidence["inspector_share"] == pytest.approx(0.75)

    def test_amortized_inspector_healthy(self):
        t = telem(spans=self.phases(1.0, 9.0))
        assert "inspector_dominant" not in by_kind(diagnose(t))

    def test_elided_inspector_not_judged(self):
        t = telem(spans=self.phases(6.0, 2.0))
        findings = diagnose(t, extras={"inspector_elided": True})
        assert "inspector_dominant" not in by_kind(findings)


class TestCacheAndEscalation:
    def test_cold_cache_is_info(self):
        t = telem(
            gauges={
                "inspector_cache_hits_total": 0,
                "inspector_cache_misses_total": 3,
            }
        )
        finding = by_kind(diagnose(t))["cache_cold"]
        assert finding.severity == SEV_INFO

    def test_warm_cache_healthy(self):
        t = telem(
            gauges={
                "inspector_cache_hits_total": 5,
                "inspector_cache_misses_total": 1,
            }
        )
        assert "cache_cold" not in by_kind(diagnose(t))

    def test_escalation_share_sets_severity(self):
        mostly = telem(
            backend="multiproc",
            counters={"wait_escalations": 8, "busy_waits": 10},
        )
        assert (
            by_kind(diagnose(mostly))["wait_escalation"].severity
            == SEV_WARNING
        )
        rare = telem(
            backend="multiproc",
            counters={"wait_escalations": 1, "busy_waits": 100},
        )
        assert by_kind(diagnose(rare))["wait_escalation"].severity == SEV_INFO

    def test_no_escalations_healthy(self):
        t = telem(backend="multiproc", counters={"busy_waits": 100})
        assert "wait_escalation" not in by_kind(diagnose(t))


class TestDiagnoseContract:
    def test_kinds_are_closed_vocabulary_and_sorted_by_severity(self):
        t = telem(
            spans=lane(0, compute=1.0, wait=9.0) + lane(1, compute=0.05),
            gauges={
                "inspector_cache_hits_total": 0,
                "inspector_cache_misses_total": 1,
            },
        )
        findings = diagnose(t)
        assert all(f.kind in FINDING_KINDS for f in findings)
        ranks = {"critical": 0, "warning": 1, "info": 2}
        severities = [ranks[f.severity] for f in findings]
        assert severities == sorted(severities)

    def test_diagnose_result_requires_telemetry(self):
        loop = chain_loop(50, 1)
        runner = make_runner(spec=PlanSpec(backend="vectorized"))
        result = runner.run(loop)
        with pytest.raises(ValueError, match="observe=True"):
            diagnose_result(result)

    def test_plan_spec_diagnose_attaches_findings(self):
        loop = chain_loop(120, 1)
        result, _ = parallelize(
            loop,
            spec=PlanSpec(backend="threaded", processors=4, diagnose=True),
        )
        assert result.telemetry is not None  # diagnose implies observe
        assert isinstance(result.extras["doctor"], list)
        for f in result.extras["doctor"]:
            assert set(f) == {
                "kind", "severity", "summary", "evidence", "recommendation",
            }


def doctor_main(argv):
    from repro.__main__ import main

    return main(["doctor", *argv])


class TestDoctorCli:
    def test_builtin_loop_run_prints_findings(self, capsys):
        assert doctor_main(
            ["chain:n=200,d=1", "--backend=threaded", "--processors=8"]
        ) == 0
        out = capsys.readouterr().out
        assert "wait_bound" in out
        assert "backend=vectorized" in out

    def test_json_output_parses(self, capsys):
        import json

        doctor_main(["chain:n=200,d=1", "--json"])
        blob = json.loads(capsys.readouterr().out)
        assert any(f["kind"] == "wait_bound" for f in blob["findings"])

    def test_saved_artifact_diagnosed(self, tmp_path, capsys):
        import json

        loop = chain_loop(200, 1)
        result = make_runner(
            spec=PlanSpec(backend="threaded", processors=8, observe=True)
        ).run(loop)
        blob = result.telemetry.as_dict()
        # Bare, and nested the way ``profile --json`` prints it.
        for payload in (blob, {"telemetry": blob}):
            artifact = tmp_path / "telemetry.json"
            artifact.write_text(json.dumps(payload), encoding="utf-8")
            assert doctor_main([f"--telemetry={artifact}"]) == 0
            assert "wait_bound" in capsys.readouterr().out

    def test_saved_spans_jsonl_diagnosed(self, tmp_path, capsys):
        from repro.obs import write_spans_jsonl
        loop = chain_loop(200, 1)
        result = make_runner(
            spec=PlanSpec(backend="threaded", processors=8, observe=True)
        ).run(loop)
        path = write_spans_jsonl(result.telemetry, tmp_path / "run.jsonl")
        assert doctor_main([f"--telemetry={path}"]) == 0
        assert "wait_bound" in capsys.readouterr().out

    def test_unreadable_telemetry_fails_cleanly(self, tmp_path, capsys):
        assert doctor_main([f"--telemetry={tmp_path / 'nope.json'}"]) == 2
        assert "cannot load telemetry" in capsys.readouterr().err


class TestEndToEnd:
    """The issue's acceptance scenario: diagnose a wait-bound run, then
    verify the recommendation is measurably faster."""

    def test_recommendation_names_a_measurably_faster_backend(self):
        # A distance-1 chain serializes 8 threaded workers: every
        # iteration busy-waits on its predecessor's flag.
        loop = chain_loop(400, 1)
        result, _ = parallelize(
            loop,
            spec=PlanSpec(backend="threaded", processors=8, diagnose=True),
        )
        findings = {f["kind"]: f for f in result.extras["doctor"]}
        assert "wait_bound" in findings
        assert findings["wait_bound"]["severity"] in ("warning", "critical")
        recommended = findings["wait_bound"]["recommendation"]["backend"]
        assert recommended != "threaded"

        def median_wall(backend):
            # Warm runs (shared cache, min-of-3): the doctor's claim is
            # about steady-state executor speed, not cold preprocessing.
            cache = InspectorCache()
            runner = make_runner(
                spec=PlanSpec(backend=backend, processors=8), cache=cache
            )
            runner.run(loop)
            walls = []
            for _ in range(3):
                t0 = time.perf_counter()
                out = runner.run(loop)
                walls.append(time.perf_counter() - t0)
                assert np.array_equal(out.y, loop.run_sequential())
            return statistics.median(walls)

        assert median_wall(recommended) < median_wall("threaded")
