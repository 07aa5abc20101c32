"""Liveness under corrupted schedules: bounded waits, never hangs.

A correct doacross schedule sets every ready flag the executor waits on
(deadlock freedom, DESIGN.md §6).  These tests corrupt that invariant on
purpose — running a distance-1 chain in *reversed* order, with the
backend's own order validation monkeypatched out — and demand that both
real-concurrency backends surface :class:`~repro.errors.WaitTimeout`
within a hard 2-second ceiling instead of hanging the suite.

The :class:`~repro.backends.WaitLadder` itself is unit-tested in
isolation with an injected clock and sleep, so rung transitions (spin →
escalating sleep → timeout) are checked deterministically, without
real time passing.
"""

from __future__ import annotations

import pickle
import time

import numpy as np
import pytest

from repro.backends import MultiprocRunner, ThreadedRunner, WaitLadder
from repro.backends import base as base_mod
from repro.backends.waitladder import DEFAULT_LADDER
from repro.errors import ReproError, WaitTimeout
from repro.workloads.synthetic import chain_loop

#: Generous wall-clock ceiling for the deliberately-corrupted runs: the
#: ladders below time out after 0.3s, so 2s means "raised, not hung".
CEILING_SECONDS = 2.0


class TestWaitLadderUnit:
    def test_immediately_ready_costs_nothing(self):
        def boom(_delay):
            raise AssertionError("ready wait must not sleep")

        slept = WaitLadder().wait(lambda: True, sleep=boom)
        assert slept == 0.0

    def test_ready_within_spin_rung_never_reads_clock(self):
        polls = iter([False, False, False, True])

        def boom():
            raise AssertionError("spin rung must not read the clock")

        slept = WaitLadder(spin=10).wait(
            lambda: next(polls), clock=boom, sleep=boom
        )
        assert slept == 0.0

    def test_sleep_rung_escalates_and_caps(self):
        ladder = WaitLadder(
            spin=0, sleep_initial=1e-4, sleep_max=4e-4, timeout=100.0
        )
        now = 0.0
        delays: list[float] = []

        def clock() -> float:
            return now

        def sleep(delay: float) -> None:
            nonlocal now
            now += delay
            delays.append(delay)

        # Poll 1 is the spin rung (spin=0 still polls once); the next six
        # answers drive six sleeps before the ready poll succeeds.
        countdown = iter([False] * 6 + [True])
        slept = ladder.wait(lambda: next(countdown), clock=clock, sleep=sleep)
        # Doubling from sleep_initial, clamped at sleep_max thereafter.
        assert delays == [1e-4, 2e-4, 4e-4, 4e-4, 4e-4, 4e-4]
        assert slept == pytest.approx(sum(delays))

    def test_timeout_raises_with_element_and_duration(self):
        ladder = WaitLadder(
            spin=0, sleep_initial=0.25, sleep_max=0.25, timeout=1.0
        )
        now = 0.0

        def clock() -> float:
            return now

        def sleep(delay: float) -> None:
            nonlocal now
            now += delay

        with pytest.raises(WaitTimeout) as info:
            ladder.wait(lambda: False, element=42, clock=clock, sleep=sleep)
        assert info.value.element == 42
        assert info.value.waited_seconds >= 1.0
        assert "element 42" in str(info.value)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"spin": -1},
            {"sleep_initial": 0.0},
            {"sleep_initial": -1e-3},
            {"sleep_initial": 2e-3, "sleep_max": 1e-3},
            {"timeout": 0.0},
            {"timeout": -5.0},
        ],
    )
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            WaitLadder(**kwargs)

    def test_ladder_is_immutable_and_picklable(self):
        ladder = WaitLadder(spin=7, timeout=1.5)
        with pytest.raises(Exception):
            ladder.spin = 8  # frozen dataclass
        clone = pickle.loads(pickle.dumps(ladder))
        assert clone == ladder

    def test_wait_timeout_survives_pickling(self):
        """The exception crosses the worker->main process queue."""
        exc = WaitTimeout("corrupt", element=3, waited_seconds=0.5)
        clone = pickle.loads(pickle.dumps(exc))
        assert isinstance(clone, WaitTimeout)
        assert clone.element == 3
        assert clone.waited_seconds == 0.5

    def test_default_ladder_is_sane(self):
        assert DEFAULT_LADDER.timeout >= 1.0
        assert DEFAULT_LADDER.sleep_max <= 0.01


def _corrupt_order(loop) -> np.ndarray:
    """Reversed execution order on a distance-1 chain: iteration 0 runs
    last, so every consumer waits on a flag its producer can never set
    first — the canonical unsatisfiable schedule."""
    return np.arange(loop.n - 1, -1, -1, dtype=np.int64)


@pytest.fixture
def chain():
    return chain_loop(64, 1)


class TestCorruptedScheduleLiveness:
    def test_threaded_raises_wait_timeout_not_hang(
        self, chain, monkeypatch
    ):
        monkeypatch.setattr(
            base_mod, "validate_execution_order", lambda loop, order: None
        )
        runner = ThreadedRunner(threads=2, wait_timeout=0.3)
        start = time.perf_counter()
        with pytest.raises(WaitTimeout):
            runner.run(chain, order=_corrupt_order(chain))
        assert time.perf_counter() - start < CEILING_SECONDS

    def test_multiproc_raises_wait_timeout_not_hang(self, chain, monkeypatch):
        monkeypatch.setattr(
            base_mod, "validate_execution_order", lambda loop, order: None
        )
        ladder = WaitLadder(
            spin=10, sleep_initial=1e-4, sleep_max=1e-3, timeout=0.3
        )
        runner = MultiprocRunner(workers=2, ladder=ladder)
        try:
            start = time.perf_counter()
            with pytest.raises(WaitTimeout):
                runner.run(chain, order=_corrupt_order(chain))
            assert time.perf_counter() - start < CEILING_SECONDS
            # The pool survives the failed run and the session scrub
            # restores the scratch arrays: the next run is correct.
            result = runner.run(chain)
            assert np.array_equal(result.y, chain.run_sequential())
        finally:
            runner.close()

    def test_race_checker_passes_the_corrupt_order(self, chain):
        """The happens-before checker is a *safety* model: under the
        reversed order every true-dependence read is still protected by
        a wait edge, so there is no race to report — the schedule's
        defect is a liveness one (the awaited flags are never set), which
        no static race check can see.  This pins the division of labor:
        hb catches unordered reads, the ladder catches unsatisfiable
        waits."""
        from repro.lint.hb import check_backend_schedule

        for backend in ("threaded", "multiproc"):
            report = check_backend_schedule(
                chain, backend, processors=2, order=_corrupt_order(chain)
            )
            assert report.passed
            assert report.checked_edges == chain.n - 1

    def test_threaded_rejects_nonpositive_timeout(self):
        with pytest.raises(ValueError):
            ThreadedRunner(threads=2, wait_timeout=0.0)

    def test_multiproc_collect_errors_are_repro_errors(self, chain):
        """Whatever goes wrong on the far side of the queue surfaces as
        a ReproError subclass, never a bare hang or a raw pickle blob."""
        runner = MultiprocRunner(workers=2)
        try:
            result = runner.run(chain)
            assert np.array_equal(result.y, chain.run_sequential())
        except ReproError:
            pytest.fail("healthy run must not raise")
        finally:
            runner.close()


class TestCorruptedScheduleSanitize:
    """The sanitizer names the edge the liveness failure stalls on.

    ``test_race_checker_passes_the_corrupt_order`` above pins that static
    happens-before *passes* the reversed chain — every read is behind a
    wait edge, the defect is that the awaited flags are never set.  The
    static model predicts exactly which edge that is: the first corrupt
    iteration (``i = n-1``) reads element ``n-2``, whose producing write
    is scheduled *after* it, so the wait on flag ``n-2`` can never be
    satisfied.  Under ``validate="sanitize"`` the shadow log records the
    acquire before the wait blocks, and the partial replay surfaces it
    as an ``unsatisfied-acquire`` violation on that same element.
    """

    def _expect_unsatisfied(self, runner, chain):
        from repro.errors import SanitizerError

        start = time.perf_counter()
        with pytest.raises(SanitizerError) as info:
            runner.run(chain, order=_corrupt_order(chain))
        assert time.perf_counter() - start < CEILING_SECONDS
        report = info.value.report
        kinds = {v.kind for v in report.violations}
        assert kinds == {"unsatisfied-acquire"}
        # The static hb edge for the first corrupt iteration: i = n-1
        # reads element n-2.  That exact flag is among the stalled waits.
        stalled_tokens = {v.token for v in report.violations}
        assert chain.n - 2 in stalled_tokens

    def test_threaded_sanitizer_names_the_missing_edge(
        self, chain, monkeypatch
    ):
        from repro.backends.hooks import HookedRunner, Sanitize

        monkeypatch.setattr(
            base_mod, "validate_execution_order", lambda loop, order: None
        )
        runner = HookedRunner(
            ThreadedRunner(threads=2, wait_timeout=0.3), [Sanitize]
        )
        self._expect_unsatisfied(runner, chain)

    def test_multiproc_sanitizer_names_the_missing_edge(
        self, chain, monkeypatch
    ):
        from repro.backends.hooks import HookedRunner, Sanitize

        monkeypatch.setattr(
            base_mod, "validate_execution_order", lambda loop, order: None
        )
        ladder = WaitLadder(
            spin=10, sleep_initial=1e-4, sleep_max=1e-3, timeout=0.3
        )
        inner = MultiprocRunner(workers=2, ladder=ladder)
        runner = HookedRunner(inner, [Sanitize])
        try:
            self._expect_unsatisfied(runner, chain)
            # The pool survives the sanitized failure; a clean rerun
            # through the same sanitizing wrapper is correct and quiet.
            result = runner.run(chain)
            assert np.array_equal(result.y, chain.run_sequential())
            assert result.extras["sanitize"]["violations"] == []
        finally:
            inner.close()

    def test_sanitizer_agrees_with_static_hb_on_the_clean_order(self, chain):
        """Positive control: on the *correct* order both models agree
        there is nothing to report — static hb passes and the dynamic
        replay is violation-free."""
        from repro.backends.hooks import HookedRunner, Sanitize
        from repro.lint.hb import check_backend_schedule

        assert check_backend_schedule(chain, "threaded", processors=2).passed
        runner = HookedRunner(ThreadedRunner(threads=2), [Sanitize])
        result = runner.run(chain)
        assert np.array_equal(result.y, chain.run_sequential())
        assert result.extras["sanitize"]["violations"] == []
