"""The vectorized executor is hybrid by construction: a run of narrow
wavefronts is one scalar ``kernel.run_span`` call, a wide wavefront is one
NumPy batch, and which is which is decided per level from the schedule.

Three things are pinned here: the segment table the record carries, the
bitwise contract (``np.array_equal`` with ``run_sequential``) on every
shape of width profile, and — without a timer — that a chain costs one
span call and a doall one bulk level, so a regression to per-level
dispatch fails tier-1.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import PlanSpec, make_runner, parallelize
from repro.backends import kernel
from repro.backends.cache import (
    _FUSE_BELOW,
    InspectorCache,
    build_inspector_record,
)
from repro.backends.kernel import ACC, LOCAL, OLD, WAIT
from repro.backends.vectorized import VectorizedRunner
from repro.ir.accesses import ReadTable
from repro.ir.loop import INIT_EXTERNAL, IrregularLoop
from repro.obs.spans import CAT_LEVEL
from repro.sparse.ilu import ilu0
from repro.sparse.stencils import five_point
from repro.sparse.trisolve import lower_solve_loop
from repro.workloads.synthetic import chain_loop, random_irregular_loop
from repro.workloads.testloop import make_test_loop

WIDE = 3 * _FUSE_BELOW


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


def segments(record):
    return [
        (bool(f), int(a), int(b))
        for f, a, b in zip(record.seg_fused, record.seg_ptr, record.seg_ptr[1:])
    ]


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


def bulk_levels(loop, **options):
    """Run ``loop`` observed; returns ``(result, bulk levels executed)``
    — each bulk level leaves one ``level[k]`` span."""
    runner = make_runner(spec=PlanSpec(backend="vectorized", observe=True))
    result = runner.run(loop, **options)
    bulk = [
        s for s in result.telemetry.spans
        if s.cat == CAT_LEVEL and s.name.startswith("level[")
    ]
    return result, len(bulk)


# ---------------------------------------------------------------------------
# The segment table
# ---------------------------------------------------------------------------


class TestSegments:
    @pytest.mark.parametrize(
        "widths,expected",
        [
            ([1] * 9, [(True, 0, 9)]),
            ([WIDE] * 3, [(False, 0, 3)]),
            ([WIDE, 2, WIDE], [(False, 0, 1), (True, 1, 2), (False, 2, 3)]),
            (
                [1, _FUSE_BELOW - 1, _FUSE_BELOW, _FUSE_BELOW + 1, 3, 3],
                [(True, 0, 2), (False, 2, 4), (True, 4, 6)],
            ),
        ],
        ids=["all-narrow", "all-wide", "lone-narrow", "straddle"],
    )
    def test_maximal_runs_of_narrow_levels_fuse(self, widths, expected):
        record = build_inspector_record(layered_loop(widths))
        assert record.schedule.level_sizes().tolist() == widths
        assert segments(record) == expected
        assert record.fused_runs == sum(f for f, _, _ in expected)
        assert record.fused_levels == sum(b - a for f, a, b in expected if f)

    def test_fused_levels_have_no_slots_and_bulk_levels_keep_theirs(self):
        loop = layered_loop([WIDE, 2, 1, WIDE, 3])
        record = build_inspector_record(loop)
        slots = np.diff(record.slot_ptr)
        narrow = record.schedule.level_sizes() < _FUSE_BELOW
        assert not slots[narrow].any()
        for k in np.flatnonzero(~narrow):
            lo, hi = record.schedule.level_ptr[k : k + 2]
            counts = record.exec_counts[lo:hi]
            active = record.slot_active[record.slot_ptr[k] : record.slot_ptr[k + 1]]
            assert active.tolist() == [
                int((counts > j).sum()) for j in range(int(counts.max()))
            ]

    def test_codes_restate_env_index_and_intra(self):
        loop = layered_loop([WIDE, 2, 1, WIDE, 3], seed=3)
        record = build_inspector_record(loop)
        assert record.codes.dtype == np.int8
        assert LOCAL not in record.codes
        assert np.array_equal(record.codes == ACC, record.intra)
        renamed = record.env_index >= loop.y_size
        assert np.array_equal(record.codes == WAIT, renamed & ~record.intra)
        assert np.array_equal(record.codes == OLD, ~renamed & ~record.intra)
        # ... and are what the kernel's own classifier says, chunk = 1.
        reads = loop.reads
        assert np.array_equal(
            record.codes,
            kernel.classify_terms(
                reads.ptr, reads.index, record.iter_array, record.exec_order, 1
            ),
        )

    def test_new_fields_are_counted_in_nbytes(self):
        record = build_inspector_record(chain_loop(64, 1))
        new = record.codes.nbytes + record.seg_ptr.nbytes + record.seg_fused.nbytes
        assert new == 63 + 2 * 8 + 1
        assert record.nbytes >= new

    @pytest.mark.parametrize("n", [0, 1])
    def test_degenerate_loops(self, n):
        loop = random_irregular_loop(n, seed=1)
        record = build_inspector_record(loop)
        assert segments(record) == ([(True, 0, 1)] if n else [])
        assert np.array_equal(VectorizedRunner().run(loop).y, loop.run_sequential())


# ---------------------------------------------------------------------------
# Bitwise == run_sequential
# ---------------------------------------------------------------------------


def assert_bitwise(loop, **options):
    result = VectorizedRunner().run(loop, **options)
    assert np.array_equal(result.y, loop.run_sequential()), loop.name
    return result


class TestBitwise:
    @pytest.mark.parametrize("distance", [1, 3])
    def test_chains(self, distance):
        result = assert_bitwise(chain_loop(400, distance))
        # d = 3: levels of width 3, still all narrow.
        assert result.extras["fused_levels"] == result.extras["levels"]

    @pytest.mark.parametrize(
        "widths",
        [
            [1] * 40,
            [WIDE] * 4,
            [WIDE, 1, WIDE],
            [2, WIDE, _FUSE_BELOW - 1, _FUSE_BELOW, 1, 1, 2 * WIDE, 3],
        ],
        ids=["all-narrow", "all-wide", "lone-narrow", "alternating"],
    )
    @pytest.mark.parametrize("external", [False, True], ids=["old", "external"])
    def test_width_profiles(self, widths, external):
        for seed in range(3):
            assert_bitwise(layered_loop(widths, seed=seed, external=external))

    def test_trisolve_straddles_the_threshold_on_both_sides(self):
        loop = small_trisolve()
        result = assert_bitwise(loop)
        record = build_inspector_record(loop)
        assert [f for f, _, _ in segments(record)] == [True, False, True]
        assert 0 < result.extras["fused_levels"] < result.extras["levels"]

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("external", [False, True], ids=["old", "external"])
    def test_random_loops_mix_both_kinds(self, seed, external):
        loop = random_irregular_loop(600, seed=seed, external_init=external)
        result = assert_bitwise(loop)
        assert 0 < result.extras["fused_levels"] < result.extras["levels"]

    def test_run_repeated_with_rhs_sequence(self):
        loop = small_trisolve()
        rng = np.random.default_rng(5)
        rhs = [rng.normal(size=loop.n) for _ in range(3)]
        result = VectorizedRunner().run_repeated(loop, 3, rhs_sequence=rhs)
        y = loop.y0
        for r in rhs:
            clone = loop.with_name(loop.name)
            clone.y0, clone.init_values = y, r
            y = clone.run_sequential()
        assert np.array_equal(result.y, y)

    def test_run_repeated_feeds_each_instance_the_last(self):
        loop = layered_loop([WIDE, 1, 2, WIDE])
        result = VectorizedRunner().run_repeated(loop, 3)
        y = loop.y0
        for _ in range(3):
            clone = loop.with_name(loop.name)
            clone.y0 = y
            y = clone.run_sequential()
        assert np.array_equal(result.y, y)

    @pytest.mark.parametrize(
        "loop",
        [chain_loop(300, 1), chain_loop(300, 5), make_test_loop(n=300, m=5, l=8)],
        ids=lambda loop: loop.name,
    )
    def test_symbolic_records_carry_the_same_segments(self, loop):
        # "symbolic+check" compares every record field, the new ones
        # included, against the runtime inspector's.
        runner = VectorizedRunner(analyze="symbolic+check")
        result = runner.run(loop)
        assert result.extras["inspector_elided"] is True
        assert np.array_equal(result.y, loop.run_sequential())
        assert result.extras["fused_levels"] == result.extras["levels"]

    @pytest.mark.parametrize("group", [2, 4, 4 * _FUSE_BELOW])
    def test_group_sync_records(self, group):
        # Distance groups replace the DAG levels: narrow groups fuse,
        # a group of 4 * _FUSE_BELOW iterations is one bulk level.
        loop = chain_loop(40 * _FUSE_BELOW, 4 * _FUSE_BELOW)
        result = assert_bitwise(loop, group_sync=group)
        fused = result.extras["fused_levels"]
        assert fused == (result.extras["levels"] if group < _FUSE_BELOW else 0)

    @given(
        n=st.integers(0, 300),
        max_terms=st.integers(0, 5),
        y_extra=st.integers(0, 12),
        seed=st.integers(0, 10_000),
        external_init=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_loops_property(self, **params):
        loop = random_irregular_loop(**params)
        assert np.array_equal(
            VectorizedRunner().run(loop).y, loop.run_sequential()
        )

    @given(
        widths=st.lists(
            st.sampled_from([1, 2, _FUSE_BELOW - 1, _FUSE_BELOW, WIDE]),
            min_size=1, max_size=8,
        ),
        seed=st.integers(0, 1000),
        external=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_width_profiles_property(self, widths, seed, external):
        loop = layered_loop(widths, seed=seed, external=external)
        assert np.array_equal(
            VectorizedRunner().run(loop).y, loop.run_sequential()
        )


# ---------------------------------------------------------------------------
# Dispatch: what a run costs, counted
# ---------------------------------------------------------------------------


class TestDispatch:
    def test_a_chain_is_one_span_call_and_no_bulk_level(self, span_calls):
        loop = make_test_loop(n=500, m=5, l=8)  # fig4_chain, small
        result, bulk = bulk_levels(loop)
        assert (span_calls, bulk) == ([500], 0)
        assert result.extras["levels"] == result.extras["fused_levels"] == 500
        assert np.array_equal(result.y, loop.run_sequential())

    def test_a_doall_is_one_bulk_level_and_no_span_call(self, span_calls):
        loop = make_test_loop(n=500, m=5, l=7)  # fig4_doall, small
        result, bulk = bulk_levels(loop)
        assert (span_calls, bulk) == ([], 1)
        assert result.extras["fused_levels"] == 0
        assert np.array_equal(result.y, loop.run_sequential())

    def test_one_span_call_per_fused_run(self, span_calls):
        loop = layered_loop([1, 2, WIDE, WIDE, 3, WIDE, 1, 1, 1])
        result, bulk = bulk_levels(loop)
        assert (span_calls, bulk) == ([3, 3, 3], 3)
        assert np.array_equal(result.y, loop.run_sequential())

    def test_the_public_path_dispatches_the_same_way(self, span_calls):
        loop = chain_loop(300, 1)
        cache = InspectorCache()
        for _ in range(2):  # cold, then warm
            result, _plan = parallelize(
                loop, spec=PlanSpec(backend="vectorized"), cache=cache
            )
            assert np.array_equal(result.y, loop.run_sequential())
        assert span_calls == [300, 300]


# ---------------------------------------------------------------------------
# Telemetry and sanitizer say what ran
# ---------------------------------------------------------------------------


class TestObservedAndSanitized:
    def test_one_level_span_per_fused_run_one_width_sample_per_level(self):
        widths = [WIDE, 2, 1, WIDE, 3]
        loop = layered_loop(widths)
        runner = make_runner(spec=PlanSpec(backend="vectorized", observe=True))
        result = runner.run(loop)
        spans = [s for s in result.telemetry.spans if s.cat == CAT_LEVEL]
        assert [s.name for s in spans] == [
            "level[0]", "levels[1:3]", "level[3]", "levels[4:5]",
        ]
        assert spans[1].attrs == {"level": 1, "levels": 2, "width": 3}
        assert spans[2].attrs == {"level": 3, "width": WIDE}
        metrics = result.telemetry.metrics.as_dict()
        hist = metrics["histograms"]["level_width"]
        assert hist["count"] == len(widths) and hist["sum"] == sum(widths)
        assert metrics["gauges"]["fused_runs"] == 2
        assert metrics["gauges"]["fused_levels"] == 3
        assert result.extras["fused_levels"] == 3

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
