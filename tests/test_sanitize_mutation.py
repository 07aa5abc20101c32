"""The schedule-mutation harness: detector power, proven not assumed.

``run_mutation_suite`` is the CI gate; these tests pin the pieces it is
built from — that the harness's unmutated log *is* the log the real
backend writes (lane for lane, event for event) and is clean, that each
registered mutant is killed with a violation kind its description
promises, that a mutant with no site is reported as such rather than as
a kill, and that the module re-derives nothing the kernel owns.
"""

import inspect
import re

import numpy as np
import pytest

from repro.backends import kernel
from repro.sanitize import mutate
from repro.sanitize.detector import detect
from repro.sanitize.mutate import (
    MUTANTS,
    MutantResult,
    MutationReport,
    run_mutation_suite,
)
from repro.sanitize.shadow import ShadowCapture
from repro.workloads.synthetic import chain_loop, random_irregular_loop


def _suite_loops():
    return [
        chain_loop(48, 1),
        chain_loop(60, 3),
        random_irregular_loop(100, seed=5),
    ]


@pytest.fixture(scope="module")
def suite_report():
    return run_mutation_suite()


def _lanes(capture):
    """Lanes keyed by worker (multiproc's ``(pid, wid)`` -> ``wid``), span
    events compared as arrays."""
    return {
        (lane[1] if isinstance(lane, tuple) else lane): [
            tuple(
                x.tolist() if isinstance(x, np.ndarray) else x for x in ev
            )
            for ev in events
        ]
        for lane, events in capture.lanes.items()
    }


class TestInterpreterConformance:
    """There is no interpreter any more: what conforms is the harness's
    capture, to the backend it claims to be."""

    @pytest.mark.parametrize(
        "mode", ["chunked", "threaded", "walk", "speculative"]
    )
    def test_unmutated_logs_are_clean(self, mode):
        for loop in _suite_loops():
            protocol = getattr(mutate, mode)(loop)
            report = detect(protocol.capture, loop)
            assert report.ok, (
                f"false positive: {mode} on {loop.name}: {report.summary()}"
            )
            assert report.pairs_checked > 0
            # The same runner, really run, under the sanitizer's capture.
            runner = protocol.runner
            real = runner._san_capture = ShadowCapture()
            try:
                runner.run(loop)
            finally:
                getattr(runner, "close", lambda: None)()
            assert _lanes(protocol.capture) == _lanes(real), (
                f"{mode} harness log drifted from the {runner.name} "
                f"backend's on {loop.name}"
            )

    def test_the_walk_capture_is_one_lane_with_one_span_event(self):
        loop = chain_loop(24, 1)
        capture = mutate.walk(loop).capture
        ((kind, order, codes),) = capture.lanes[0]
        assert (kind, list(capture.lanes)) == ("s", [0])
        assert np.array_equal(order, np.arange(24))  # n levels of one
        assert np.array_equal(codes, np.full(23, kernel.WAIT))
        assert detect(capture, loop).events == 24 + 23

    def test_module_rederives_nothing_the_kernel_owns(self):
        """The structural claim of the harness, as a check: no Figure-5
        compare, no lane/strip arithmetic, no level computation."""
        source = inspect.getsource(mutate)
        for rederivation in (
            r"writer\w* == i\b",  # the Figure-5 compare ...
            r"<=? writer\w* < i\b",
            r"[%/] (cfg|self)\.(lanes|workers|chunk)",  # ... strip-of / lane-of
            r"level_of",  # ... and a private wavefront sweep
            r"ProtocolInterpreter|InterpreterConfig",
        ):
            assert not re.search(rederivation, source), rederivation
        assert mutate.kernel is kernel
        for owned in ("lane_positions", "classify_terms", "run_span"):
            assert f"kernel.{owned}(" in source


class TestMutantRegistry:
    def test_registry_covers_all_four_shapes(self):
        modes = {m.shape.__name__ for m in MUTANTS}
        assert modes == {"chunked", "threaded", "walk", "speculative"}
        assert len(MUTANTS) == 14
        assert len({m.name for m in MUTANTS}) == 14

    @pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
    def test_each_mutant_is_killed_with_the_expected_kind(self, mutant):
        for loop in _suite_loops():
            protocol = mutant.shape(loop)
            assert mutant.apply(protocol), (
                f"{mutant.name} found no site on {loop.name}"
            )
            report = detect(protocol.capture, loop)
            assert not report.ok, f"{mutant.name} survived on {loop.name}"
            assert set(report.counts) & set(mutant.expect), (
                f"{mutant.name} on {loop.name}: got {report.counts}, "
                f"expected one of {mutant.expect}"
            )

    def test_the_chunked_shape_waits_on_same_lane_earlier_strips(self):
        """The drift that motivated running the real kernel: a model that
        elides same-owner earlier-strip waits logs 64 acquires here."""
        capture = mutate.chunked(random_irregular_loop(100, seed=5)).capture
        acquires = sum(
            ev[0] == "a" for events in capture.lanes.values() for ev in events
        )
        assert acquires == 91


class TestSuiteGate:
    def test_full_suite_meets_the_ci_gate(self, suite_report):
        assert suite_report.baseline_clean
        assert len(suite_report.baselines) == 4 * 3
        assert suite_report.kill_rate == 1.0
        assert suite_report.passed(min_kill=1.0)
        # Every mutant applies to, and is killed on, every workload.
        assert all(len(r.verdicts) == 3 for r in suite_report.results)

    def test_a_mutant_with_no_site_is_not_applicable_not_killed(self):
        """Regression: a mutant that ran on zero workloads used to be
        reported KILLED (with an empty workload) and counted as a kill."""
        doall = chain_loop(40, 64)
        report = run_mutation_suite(workloads=[("w0", doall)])
        untested = [r for r in report.results if not r.verdicts]
        assert {"stale-iter", "drop-conflict-edge"} <= {
            r.name for r in untested
        }
        text = report.summary()
        assert text.count("[NOT APPLICABLE]") == len(untested)
        assert text.count("[KILLED]") == len(report.results) - len(untested)
        # The untested are not in the denominator, and veto the gate.
        assert report.kill_rate == 1.0
        assert f"1/{len(report.results) - len(untested)} mutant(s)" in text
        assert not report.passed(min_kill=0.0)

    def test_summary_and_dict_round_trip(self, suite_report):
        text = suite_report.summary()
        assert "kill rate 100%" in text
        assert "[KILLED]" in text
        d = suite_report.as_dict()
        assert d["baseline_clean"] is True
        assert len(d["mutants"]) == len(MUTANTS)
        assert all(m["killed"] for m in d["mutants"])

    def test_pass_arithmetic(self):
        report = MutationReport(
            results=[
                MutantResult("a", "threaded", ("x",), {"w": {"x": 2}}),
                MutantResult("b", "threaded", ("x",), {"w": {}}),
                # Killed for a reason nobody expected: not a kill.
                MutantResult("c", "threaded", ("x",), {"w": {"y": 1}}),
                # Killed on the easy workload only: not a kill.
                MutantResult(
                    "d", "threaded", ("x",), {"w": {"x": 1}, "v": {}}
                ),
            ],
            baselines=[("threaded", "w", True)],
        )
        assert [r.killed for r in report.results] == [
            True, False, False, False,
        ]
        assert report.kill_rate == 0.25
        assert not report.passed(min_kill=0.9)
        assert report.passed(min_kill=0.25)
        report.baselines.append(("chunked", "w", False))
        assert not report.passed(min_kill=0.25)  # false positive vetoes
        assert "FALSE POSITIVE" in report.summary()

    def test_empty_report_never_passes(self):
        assert MutationReport().kill_rate == 0.0
        assert not MutationReport().passed()
