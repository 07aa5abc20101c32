"""The vectorized executor is one walk: a single ``kernel.run_span`` call
over the record's level-major order, whatever the width profile.

Two things are pinned here: the bitwise contract (``np.array_equal`` with
``run_sequential``) on every shape of width profile, on the compiled body
and again on the Python body (``tests/conftest.py::no_compiler``), and —
without a timer — that an execution costs exactly one span call, so a
regression to per-level dispatch fails tier-1.
"""

from __future__ import annotations

import numpy as np
import pytest
import contextlib

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import PlanSpec, make_runner, parallelize
from repro.backends import kernel
from repro.backends.cache import InspectorCache
from repro.backends.vectorized import VectorizedRunner
from repro.errors import InvalidLoopError
from repro.graph.levels import compute_levels
from repro.ir.accesses import ReadTable
from repro.ir.loop import INIT_EXTERNAL, IrregularLoop
from repro.obs.spans import CAT_LEVEL
from repro.sparse.ilu import ilu0
from repro.sparse.stencils import five_point
from repro.sparse.trisolve import lower_solve_loop
from repro.workloads.synthetic import chain_loop, random_irregular_loop
from repro.workloads.testloop import make_test_loop
from tests.conftest import no_compiler

WIDE = 24
#: The compiled walk where there is one, and the Python walk.
BODIES = (contextlib.nullcontext, no_compiler)


def layered_loop(widths, seed=0, external=False):
    """A loop whose wavefront widths are exactly ``widths``: iteration
    ``j`` of layer ``k`` truly depends on one iteration of layer ``k-1``
    only, and also reads a never-written element, an element written
    later (antidependence) and sometimes its own (the live accumulator),
    in shuffled term order.  Writes are an indirect permutation."""
    rng = np.random.default_rng(seed)
    n = sum(widths)
    y_size = n + 5
    perm = rng.permutation(y_size)
    write, unwritten = perm[:n], perm[n:]
    terms, first, prev = [], 0, None
    for width in widths:
        for j in range(width):
            i = first + j
            t = [(int(rng.choice(unwritten)), 0.25)]
            if i + 1 < n:
                t.append((int(write[rng.integers(i + 1, n)]), -0.125))
            if rng.random() < 0.4:
                t.append((int(write[i]), 0.5))
            if prev is not None:
                t.append((int(write[prev[0] + j % prev[1]]), 0.375))
            terms.append([t[k] for k in rng.permutation(len(t))])
        prev, first = (first, width), first + width
    init = {}
    if external:
        init = {"init_kind": INIT_EXTERNAL, "init_values": rng.normal(size=n)}
    return IrregularLoop.from_arrays(
        write,
        ReadTable.from_lists(terms),
        y_size=y_size,
        y0=rng.normal(size=y_size),
        name=f"layered{list(widths)}",
        **init,
    )


def small_trisolve(nx=14, seed=0):
    L, _ = ilu0(five_point(nx, nx))
    rhs = np.random.default_rng(seed).normal(size=L.n_rows)
    return lower_solve_loop(L, rhs)


@pytest.fixture
def span_calls(monkeypatch):
    """Iterations handed to each ``kernel.run_span`` call made while the
    test runs, through a counting wrapper."""
    calls: list[int] = []
    real = kernel.run_span

    def counting(its, *args, **kwargs):
        calls.append(len(its))
        return real(its, *args, **kwargs)

    monkeypatch.setattr(kernel, "run_span", counting)
    return calls


# ---------------------------------------------------------------------------
# Bitwise == run_sequential
# ---------------------------------------------------------------------------


def assert_bitwise(loop, **options):
    """``VectorizedRunner().run(loop, **options)`` equals the oracle bit
    for bit on both walk bodies."""
    oracle = loop.run_sequential()
    for body in BODIES:
        with body():
            result = VectorizedRunner().run(loop, **options)
        assert np.array_equal(result.y, oracle), (loop.name, body)
    return result


class TestBitwise:
    @pytest.mark.parametrize("distance", [1, 3])
    def test_chains(self, distance):
        result = assert_bitwise(chain_loop(400, distance))
        assert result.extras["levels"] == -(-400 // distance)

    @pytest.mark.parametrize(
        "widths",
        [
            [1] * 40,
            [WIDE] * 4,
            [WIDE, 1, WIDE],
            [2, WIDE, 7, 8, 1, 1, 2 * WIDE, 3],
        ],
        ids=["all-narrow", "all-wide", "lone-narrow", "alternating"],
    )
    @pytest.mark.parametrize("external", [False, True], ids=["old", "external"])
    def test_width_profiles(self, widths, external):
        for seed in range(3):
            loop = layered_loop(widths, seed=seed, external=external)
            result = assert_bitwise(loop)
            assert result.extras["levels"] == len(widths)

    def test_trisolve_straddles_the_threshold_on_both_sides(self):
        # Level widths 1, 2, ..., 14, ..., 2, 1: narrow and wide levels,
        # one walk.
        loop = small_trisolve()
        result = assert_bitwise(loop)
        assert result.extras["levels"] == 27
        assert result.extras["max_width"] == 14

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("external", [False, True], ids=["old", "external"])
    def test_random_loops_mix_both_kinds(self, seed, external):
        assert_bitwise(
            random_irregular_loop(600, seed=seed, external_init=external)
        )

    @pytest.mark.parametrize("n", [0, 1])
    def test_degenerate_loops(self, n):
        assert_bitwise(random_irregular_loop(n, seed=1))

    def test_run_repeated_with_rhs_sequence(self):
        loop = small_trisolve()
        rng = np.random.default_rng(5)
        rhs = [rng.normal(size=loop.n) for _ in range(3)]
        y = loop.y0
        for r in rhs:
            clone = loop.with_name(loop.name)
            clone.y0, clone.init_values = y, r
            y = clone.run_sequential()
        for body in BODIES:
            with body():
                result = VectorizedRunner().run_repeated(
                    loop, 3, rhs_sequence=rhs
                )
            assert np.array_equal(result.y, y)

    def test_run_repeated_feeds_each_instance_the_last(self):
        loop = layered_loop([WIDE, 1, 2, WIDE])
        y = loop.y0
        for _ in range(3):
            clone = loop.with_name(loop.name)
            clone.y0 = y
            y = clone.run_sequential()
        for body in BODIES:
            with body():
                result = VectorizedRunner().run_repeated(loop, 3)
            assert np.array_equal(result.y, y)

    @pytest.mark.parametrize("shape", [(2,), (1,)], ids=["n-by-2", "n-by-1"])
    def test_run_repeated_refuses_a_rhs_that_is_not_a_vector(self, shape):
        # Such a rhs once reached the walk and failed there with a bare
        # NotImplementedError from a multi-dimensional memoryview.
        L, _ = ilu0(five_point(60, 60))
        loop = lower_solve_loop(L, np.ones(L.n_rows))
        rhs = [np.ones((loop.n, *shape))] * 2
        for runner in (VectorizedRunner(), make_runner("simulated")):
            repeat = getattr(runner, "run_repeated", None) or runner.run_amortized
            with pytest.raises(InvalidLoopError, match="shape"):
                repeat(loop, 2, rhs_sequence=rhs)

    @pytest.mark.parametrize(
        "loop",
        [chain_loop(300, 1), chain_loop(300, 5), make_test_loop(n=300, m=5, l=8)],
        ids=lambda loop: loop.name,
    )
    def test_symbolic_records_carry_the_same_segments(self, loop):
        # "symbolic+check" compares the record's codes and level cuts
        # against the runtime inspector's.
        for body in BODIES:
            with body():
                result = VectorizedRunner(analyze="symbolic+check").run(loop)
            assert result.extras["inspector_elided"] is True
            assert np.array_equal(result.y, loop.run_sequential())

    @pytest.mark.parametrize("group", [2, 4, 32])
    def test_group_sync_records(self, group):
        # Distance groups replace the DAG levels.
        loop = chain_loop(320, 32)
        result = assert_bitwise(loop, group_sync=group)
        assert result.extras["levels"] == 320 // group

    @given(
        n=st.integers(0, 300),
        max_terms=st.integers(0, 5),
        y_extra=st.integers(0, 12),
        seed=st.integers(0, 10_000),
        external_init=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_loops_property(self, **params):
        assert_bitwise(random_irregular_loop(**params))

    @given(
        widths=st.lists(
            st.sampled_from([1, 2, 7, 8, WIDE]), min_size=1, max_size=8
        ),
        seed=st.integers(0, 1000),
        external=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_width_profiles_property(self, widths, seed, external):
        assert_bitwise(layered_loop(widths, seed=seed, external=external))


# ---------------------------------------------------------------------------
# What an execution costs, counted
# ---------------------------------------------------------------------------


class TestOneWalk:
    @pytest.mark.parametrize(
        "loop",
        [
            make_test_loop(n=500, m=5, l=7),  # fig4_doall, small
            make_test_loop(n=500, m=5, l=8),  # fig4_chain, small
            layered_loop([1, 2, WIDE, WIDE, 3, WIDE, 1, 1, 1]),
            small_trisolve(),
        ],
        ids=["doall", "chain", "layered", "trisolve"],
    )
    def test_one_span_call_per_execute(self, span_calls, loop):
        levels = compute_levels(loop).n_levels
        spec = PlanSpec(backend="vectorized", observe=True)
        result = make_runner(spec=spec).run(loop)
        assert span_calls == [loop.n]
        assert np.array_equal(result.y, loop.run_sequential())
        # One level span covers the walk; the width profile is still
        # sampled once per level.
        spans = [s for s in result.telemetry.spans if s.cat == CAT_LEVEL]
        assert [s.name for s in spans] == [f"levels[0:{levels}]"]
        hist = result.telemetry.metrics.as_dict()["histograms"]["level_width"]
        assert (hist["count"], hist["sum"]) == (levels, loop.n)
        # ... and so does every instance of a repeated run, and every
        # call of the public path, cold or warm.
        span_calls.clear()
        VectorizedRunner().run_repeated(loop, 2)
        cache = InspectorCache()
        for _ in range(2):
            parallelize(loop, spec=PlanSpec(backend="vectorized"), cache=cache)
        assert span_calls == [loop.n] * 4


# ---------------------------------------------------------------------------
# The sanitizer still sees the level protocol
# ---------------------------------------------------------------------------


class TestObservedAndSanitized:
    @pytest.mark.parametrize(
        "loop",
        [
            chain_loop(200, 1),
            layered_loop([WIDE, 2, 1, WIDE, 3], external=True),
            small_trisolve(10),
        ],
        ids=["chain", "layered", "trisolve"],
    )
    def test_sanitize_keeps_one_lane_per_level(self, loop):
        spec = PlanSpec(backend="vectorized", validate="sanitize")
        result = make_runner(spec=spec).run(loop)
        assert np.array_equal(result.y, loop.run_sequential())
        report = result.extras["sanitize"]
        assert report["ok"] is True
        assert report["lanes"] == result.extras["levels"]
        assert report["pairs_checked"] > 0
