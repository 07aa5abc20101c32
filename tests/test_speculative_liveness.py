"""Liveness of the speculative backend under a hostile conflict detector.

The speculative backend's liveness story is the retry budget: unlike the
threaded/multiproc backends (whose busy-waits need a
:class:`~repro.errors.WaitTimeout` ceiling, ``test_wait_liveness.py``),
speculation never blocks — the only way it can fail to make progress is
a conflict detector that keeps vetoing commits.  These tests inject
exactly that fault through the documented
:meth:`~repro.backends.SpeculativeRunner._conflicts` seam — a paranoid
detector that reports *every* chunk as conflicting — and demand that the
backend drains its ``max_rounds`` budget, falls back to sequential
chunk-order execution, and returns the bitwise oracle answer within a
hard wall-clock ceiling instead of livelocking.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.backends import SpeculativeRunner
from repro.workloads.synthetic import chain_loop, random_irregular_loop

#: Generous ceiling for the sabotaged runs: each is a few dozen
#: milliseconds of real work, so 2s means "completed, not livelocked".
CEILING_SECONDS = 2.0


def _paranoid(monkeypatch) -> None:
    """Every chunk conflicts, every round, forever."""
    monkeypatch.setattr(
        SpeculativeRunner,
        "_conflicts",
        lambda self, reads, writes, pending, deferred: True,
    )


class TestParanoidDetectorLiveness:
    def test_budget_drains_into_fallback_in_bounded_time(
        self, monkeypatch
    ):
        _paranoid(monkeypatch)
        loop = chain_loop(256, 1)
        runner = SpeculativeRunner(workers=2, chunk=16)
        start = time.perf_counter()
        result = runner.run(loop)
        assert time.perf_counter() - start < CEILING_SECONDS
        assert np.array_equal(result.y, loop.run_sequential())
        stats = result.extras["speculation"]
        assert stats["sequential_fallback"]
        assert stats["rounds"] == runner.max_rounds
        # Nothing ever commits speculatively: the fallback executes
        # every chunk, and every round rolled every chunk back.
        assert stats["fallback_chunks"] == stats["chunks"]
        assert (
            stats["chunks_rolled_back"]
            == runner.max_rounds * stats["chunks"]
        )

    @pytest.mark.parametrize("max_rounds", [1, 3])
    def test_any_budget_is_honored(self, monkeypatch, max_rounds):
        _paranoid(monkeypatch)
        loop = random_irregular_loop(120, seed=7)
        runner = SpeculativeRunner(
            workers=2, chunk=8, max_rounds=max_rounds
        )
        start = time.perf_counter()
        result = runner.run(loop)
        assert time.perf_counter() - start < CEILING_SECONDS
        assert np.array_equal(result.y, loop.run_sequential())
        assert result.extras["speculation"]["rounds"] == max_rounds

    def test_fallback_run_still_satisfies_the_sanitizer(
        self, monkeypatch
    ):
        """The fallback path is not exempt from the dependence contract:
        its shadow log must replay clean — every cross-chunk true
        dependence covered by the commit chain."""
        from repro.backends.hooks import HookedRunner, Sanitize

        _paranoid(monkeypatch)
        loop = chain_loop(96, 1)
        runner = HookedRunner(
            SpeculativeRunner(workers=2, chunk=8), [Sanitize]
        )
        result = runner.run(loop)
        assert np.array_equal(result.y, loop.run_sequential())
        assert result.extras["sanitize"]["violations"] == []
        assert result.extras["speculation"]["sequential_fallback"]

    def test_telemetry_counts_the_wasted_rounds(self, monkeypatch):
        """Observed sabotaged runs put the damage on the record: the
        speculation_rounds / chunks_rolled_back / fallback_chunks
        counters are how the perf trajectory would surface a
        misbehaving detector in production."""
        from repro.backends import make_runner
        from repro.passes.spec import PlanSpec

        _paranoid(monkeypatch)
        runner = make_runner(
            spec=PlanSpec(backend="speculative", processors=2, observe=True)
        )
        result = runner.run(chain_loop(64, 1), chunk=8)
        counters = result.telemetry.metrics.as_dict()["counters"]
        assert counters["speculation_rounds"] == 8
        assert counters["chunks_rolled_back"] == 8 * 8
        assert counters["fallback_chunks"] == 8

    def test_healthy_detector_never_falls_back_on_doall(self):
        """Positive control for the injection seam: with the real
        detector, a conflict-free loop commits in one round — the
        paranoid behavior above is the fault, not the norm."""
        from repro.workloads.synthetic import conflict_frontier_loop

        loop = conflict_frontier_loop(128, 16, 0.0)
        result = SpeculativeRunner(workers=2, chunk=16).run(loop)
        stats = result.extras["speculation"]
        assert not stats["sequential_fallback"]
        assert stats["rounds"] == 1
        assert stats["chunks_rolled_back"] == 0

        # The other end of the dial, same detector: half the boundaries
        # conflicting rolls chunks back but finishes inside the budget;
        # a dense chunk chain commits one chunk per round, so 16 chunks
        # drain the 8-round budget into the fallback on their own.
        half = SpeculativeRunner(workers=2, chunk=16).run(
            conflict_frontier_loop(128, 16, 0.5)
        )
        assert half.extras["speculation"]["chunks_rolled_back"] >= 1
        assert not half.extras["speculation"]["sequential_fallback"]
        for dense in (conflict_frontier_loop(128, 8, 1.0), chain_loop(128, 1)):
            result = SpeculativeRunner(workers=2, chunk=8).run(dense)
            assert np.array_equal(result.y, dense.run_sequential())
            assert result.extras["speculation"]["sequential_fallback"]
