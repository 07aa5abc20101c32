"""The warm walk's record: the structure gathered into walk order, and
the ``ynew`` renaming only where an antidependence needs it.

Every :class:`~repro.backends.cache.InspectorRecord` carries the loop's
``write`` / ``ptr`` / ``index`` in the schedule's order (a
:class:`~repro.backends.cache.WalkLayout`, ``None`` for the identity
order) and ``renames``: whether some ``OLD`` term reads an element an
iteration writes.  Here: what those hold, that one record serves every
loop of its structure whatever that loop's values, and that a corrupt
layout is refused with the caller's ``y`` untouched on both bodies of
the walk.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings

from repro import (
    AmortizedDoacross,
    InspectorCache,
    PlanSpec,
    ReadTable,
    VectorizedRunner,
    parallelize,
)
from repro.analysis import record_mismatches
from repro.backends import kernel, native
from repro.backends.cache import WalkLayout, build_inspector_record
from repro.errors import InvalidLoopError
from repro.ir.analysis import CAT_ANTI, classify_reads
from repro.ir.loop import INIT_EXTERNAL
from repro.sparse.ilu import ilu0
from repro.sparse.stencils import five_point
from repro.sparse.trisolve import lower_solve_loop
from repro.workloads.synthetic import affine_loop, chain_loop, random_irregular_loop
from repro.workloads.testloop import make_test_loop
from tests.conftest import assert_same_bits, no_compiler
from tests.strategies import loop_params


def trisolve(k: int = 12, seed: int = 0):
    """The ILU(0) lower solve of a ``k × k`` five-point grid: wavefronts
    out of natural order, no antidependence (``trisolve_5pt``'s shape)."""
    L, _ = ilu0(five_point(k, k))
    rhs = np.random.default_rng(seed).normal(size=L.n_rows)
    return lower_solve_loop(L, rhs)


#: One loop of each benchmark workload's shape, with the layout and
#: renaming its record must carry.
SHAPES = [
    ("trisolve", lambda: trisolve(), "gathered", False),
    ("krylov", lambda: random_irregular_loop(400, max_terms=4, seed=1991),
     "gathered", True),
    ("fig4-doall", lambda: make_test_loop(400, 5, 7), "identity", False),
    ("fig4-chain", lambda: make_test_loop(400, 5, 8), "identity", True),
]


@pytest.mark.parametrize(
    "make,layout,renamed", [s[1:] for s in SHAPES], ids=[s[0] for s in SHAPES]
)
def test_each_benchmark_shape_walks_its_layout_and_says_so(make, layout, renamed):
    loop = make()
    record = build_inspector_record(loop)
    assert (record.layout is None) == (layout == "identity")
    assert record.renames is renamed
    result = VectorizedRunner().run(loop)
    assert result.extras["walk"] == {"layout": layout, "renamed": renamed}
    assert_same_bits(result.y, loop.run_sequential())


def test_the_layout_is_the_structure_in_walk_order():
    loop = trisolve()
    record = build_inspector_record(loop)
    order, reads, lay = record.schedule.order, loop.reads, record.layout
    assert not np.array_equal(order, np.arange(loop.n))
    assert np.array_equal(lay.write, loop.write[order])
    assert np.array_equal(lay.start, reads.ptr[order])
    assert lay.ptr[0] == 0 and lay.ptr[-1] == len(lay.index) == len(record.codes)
    for t, i in enumerate(order.tolist()):
        lo, hi = reads.ptr[i], reads.ptr[i + 1]
        assert np.array_equal(lay.index[lay.ptr[t] : lay.ptr[t + 1]], reads.index[lo:hi])
    assert record.nbytes == (
        sum(a.nbytes for a in (record.iter_array, record.codes))
        + sum(
            a.nbytes
            for a in (record.schedule.levels, order, record.schedule.level_ptr)
        )
        + sum(a.nbytes for a in (lay.write, lay.ptr, lay.index, lay.start))
    )


def test_an_identity_order_copies_nothing():
    loop = make_test_loop(400, 5, 7)
    record = build_inspector_record(loop)
    assert record.layout is None
    assert record.nbytes == sum(
        a.nbytes
        for a in (
            record.iter_array, record.codes, record.schedule.levels,
            record.schedule.order, record.schedule.level_ptr,
        )
    )


@given(loop_params)
@settings(max_examples=60, deadline=None)
def test_renames_exactly_when_an_old_term_reads_a_written_element(params):
    loop = random_irregular_loop(**params)
    _, _, categories = classify_reads(loop)
    record = build_inspector_record(loop)
    assert record.renames == bool((categories == CAT_ANTI).any())
    assert_same_bits(VectorizedRunner().run(loop).y, loop.run_sequential())


def test_record_mismatches_compares_the_layout_and_the_rename_flag():
    loop = trisolve()
    a, b = build_inspector_record(loop), build_inspector_record(loop)
    assert record_mismatches(a, b) == []
    flipped = dataclasses.replace(b, renames=not b.renames)
    assert record_mismatches(a, flipped) == ["record field 'renames' differs"]
    start = b.layout.start.copy()
    start[3] += 1
    moved = dataclasses.replace(
        b, layout=dataclasses.replace(b.layout, start=start)
    )
    assert record_mismatches(a, moved) == ["layout field 'start' differs"]
    assert record_mismatches(a, dataclasses.replace(b, layout=None)) == [
        "record field 'layout' differs"
    ]


# ----------------------------------------------------------------------
# One record, many loops
# ----------------------------------------------------------------------
def sibling(loop, seed: int):
    """A loop of the same structure (the same frozen index arrays) with
    its own coefficients, initial values and ``y0``."""
    rng = np.random.default_rng(seed)
    twin = loop.with_name(f"{loop.name}-{seed}")
    reads = loop.reads
    twin.reads = ReadTable(
        reads.ptr, reads.index, rng.uniform(-0.45, 0.45, len(reads.coeff))
    )
    twin.y0 = rng.normal(size=loop.y_size)
    if loop.init_kind == INIT_EXTERNAL:
        twin.init_values = rng.normal(size=loop.n)
    return twin


def record_arrays(record):
    arrays = [record.iter_array, record.codes, record.schedule.levels,
              record.schedule.order, record.schedule.level_ptr]
    if record.layout is not None:
        arrays += list(vars(record.layout).values())
    return arrays


#: (name, loop, runner options, run options, layout, renamed).
RECORD_KINDS = [
    ("runtime", lambda: trisolve(), {}, {}, "gathered", False),
    ("runtime-renamed",
     lambda: random_irregular_loop(300, seed=7, external_init=True), {}, {},
     "gathered", True),
    ("symbolic", lambda: chain_loop(96, 4), {"analyze": "symbolic"}, {},
     "identity", False),
    ("symbolic-renamed",
     lambda: affine_loop(80, (1, 0), [(1, 1)], name="anti-only"),
     {"analyze": "symbolic"}, {}, "identity", True),
    ("distance-group",
     lambda: affine_loop(96, (1, 0), [(1, -8), (1, 3)], name="anti+true8"),
     {}, {"group_sync": 8}, "identity", True),
]


@pytest.mark.parametrize(
    "make,options,run_options,layout,renamed",
    [k[1:] for k in RECORD_KINDS], ids=[k[0] for k in RECORD_KINDS],
)
def test_one_record_serves_every_loop_of_its_structure(
    make, options, run_options, layout, renamed
):
    base = make()
    loops = [base, sibling(base, 1), sibling(base, 2)]
    runner = VectorizedRunner(cache=InspectorCache(), **options)
    results = [runner.run(loop, **run_options) for loop in loops]
    assert [r.extras["cache_hit"] for r in results] == [False, True, True]
    assert runner.cache.misses == 1
    for loop, result in zip(loops, results):
        assert result.extras["walk"] == {"layout": layout, "renamed": renamed}
        assert_same_bits(result.y, loop.run_sequential())
    assert not np.array_equal(results[0].y, results[1].y)
    # The record holds structure only: no array of it is, or equals, a
    # per-call value.
    (record,) = runner.cache._entries.values()
    values = [
        a for loop in loops
        for a in (loop.reads.coeff, loop.y0, loop.init_values)
        if a is not None
    ]
    for held in record_arrays(record):
        for value in values:
            assert not np.shares_memory(held, value)
            assert held.shape != value.shape or not np.array_equal(held, value)


@pytest.mark.parametrize(
    "make,renamed",
    [
        (lambda: trisolve(), False),
        (lambda: random_irregular_loop(300, seed=7, external_init=True), True),
    ],
    ids=["in-place", "renamed"],
)
def test_repeated_instances_chain_through_one_record(make, renamed):
    loop = make()
    rng = np.random.default_rng(5)
    rhs = [rng.normal(size=loop.n) for _ in range(3)]
    got = VectorizedRunner().run_repeated(loop, 3, rhs_sequence=rhs)
    y = loop.y0
    for values in rhs:
        step = loop.with_name("step")
        step.y0, step.init_values = y, values
        y = step.run_sequential()
    assert_same_bits(got.y, y)
    assert got.extras["walk"]["renamed"] is renamed
    assert_same_bits(AmortizedDoacross().run(loop, 3, rhs_sequence=rhs).y, y)
    # The same loop, its own init every instance: instance k reads k-1's y.
    again = VectorizedRunner().run_repeated(loop, 3)
    y = loop.y0
    for _ in range(3):
        step = loop.with_name("step")
        step.y0 = y
        y = step.run_sequential()
    assert_same_bits(again.y, y)


def test_parallelize_warm_calls_share_the_record_across_values():
    loop, cache = trisolve(seed=3), InspectorCache()
    spec = PlanSpec(backend="vectorized")
    for twin in (loop, sibling(loop, 4), sibling(loop, 5)):
        result = parallelize(twin, spec=spec, cache=cache)[0]
        assert_same_bits(result.y, twin.run_sequential())
    assert (cache.hits, cache.misses) == (2, 1)


# ----------------------------------------------------------------------
# A corrupt layout is refused, the caller's y untouched
# ----------------------------------------------------------------------
CORRUPTIONS = ["write", "ptr", "index", "start", "codes"]


def corrupt(record, loop, what: str):
    """A copy of ``record`` with one bad entry at the first position past
    the span cut-off that has terms; returns it and that position."""
    lay = record.layout
    t = next(t for t in range(40, loop.n) if lay.ptr[t + 1] > lay.ptr[t])
    k = int(lay.ptr[t])
    fields = {name: a.copy() for name, a in vars(lay).items()}
    codes = record.codes
    if what == "write":
        fields["write"][t] = loop.y_size
    elif what == "ptr":
        fields["ptr"][t + 1] = k - 1
    elif what == "index":
        fields["index"][k] = -1  # a memoryview would wrap it silently
    elif what == "start":
        fields["start"][t] = len(loop.reads.coeff) - (lay.ptr[t + 1] - k) + 1
    elif what == "codes":  # the code cursor runs past the codes
        codes = codes[: k + 1].copy()
    layout = WalkLayout(**fields)
    return dataclasses.replace(record, layout=layout, codes=codes), t


@pytest.mark.parametrize("what", CORRUPTIONS)
@pytest.mark.parametrize("body", ["native", "python"])
def test_a_corrupt_layout_is_refused_with_y_untouched(body, what):
    loop = trisolve()
    runner = VectorizedRunner()
    record = runner._preprocess(loop)[0]
    bad, t = corrupt(record, loop, what)
    y = np.random.default_rng(1).normal(size=loop.y_size)
    y_before, y0_before = y.copy(), loop.y0.copy()
    kernel.take_tally()
    match = rf"span position {t} \(iteration {int(record.schedule.order[t])}\)"
    if body == "python":
        with no_compiler(), pytest.raises(InvalidLoopError, match=match):
            runner._execute(loop, bad, y=y)
    else:
        if native.unavailable() is not None:
            pytest.skip(f"no compiled body: {native.unavailable()}")
        with pytest.raises(InvalidLoopError, match=match):
            runner._execute(loop, bad, y=y)
    # A refused compiled span is not tallied; the Python walk never ran.
    assert kernel.take_tally()[:2] == ((0, 0) if body == "native" else (0, 1))
    assert np.array_equal(y.view(np.uint64), y_before.view(np.uint64))
    assert np.array_equal(loop.y0.view(np.uint64), y0_before.view(np.uint64))
    # The intact record still runs: nothing was cached from the refusal.
    assert_same_bits(runner._execute(loop, record, y=y), _from(loop, y))


@pytest.mark.parametrize("body", ["native", "python"])
def test_a_code_cursor_past_the_codes_is_refused(body):
    loop = trisolve()
    record = build_inspector_record(loop)
    lay, reads = record.layout, loop.reads
    y = loop.y0.copy()
    out = np.zeros(loop.y_size)
    args = (
        record.schedule.order, record.codes, lay.write, lay.ptr, lay.index,
        reads.coeff, loop.init_values, y, out, out,
    )
    if body == "python":
        with no_compiler(), pytest.raises(InvalidLoopError, match="span position"):
            kernel.run_span(*args, cur=len(record.codes) - 1, start=lay.start)
    else:
        if native.unavailable() is not None:
            pytest.skip(f"no compiled body: {native.unavailable()}")
        with pytest.raises(InvalidLoopError, match="span position"):
            kernel.run_span(*args, cur=len(record.codes) - 1, start=lay.start)
    assert np.array_equal(y, loop.y0)  # the old values: read, never written


def _from(loop, y):
    step = loop.with_name("from")
    step.y0 = y
    return step.run_sequential()


def test_a_warm_call_recomputes_no_structure_statistic(monkeypatch):
    from repro.core.sequential import sequential_time
    from repro.graph.levels import LevelSchedule
    from repro.machine.costs import CostModel

    from repro.passes import plan_loop

    loop, cache = trisolve(), InspectorCache()
    spec = PlanSpec(backend="vectorized")
    cold = parallelize(loop, spec=spec, cache=cache)[0]

    def recomputed(*_args):
        raise AssertionError("a warm call recomputed a structure statistic")

    monkeypatch.setattr(ReadTable, "term_counts", recomputed)
    monkeypatch.setattr(LevelSchedule, "level_sizes", recomputed)
    warm = parallelize(loop, spec=spec, cache=cache)[0]
    assert warm.extras["cache_hit"]
    for key in ("levels", "max_width", "average_width", "walk"):
        assert warm.extras[key] == cold.extras[key]
    assert warm.sequential_cycles == cold.sequential_cycles
    plan = plan_loop(loop, spec, cache)
    assert plan.describe()["max_wavefront"] == cold.extras["max_width"]
    monkeypatch.undo()
    # The values are the ones the statistics give.
    sizes = plan.levels.level_sizes()
    assert cold.extras["max_width"] == int(sizes.max())
    work = CostModel().effective_work(loop.work)
    assert sequential_time(loop, CostModel()) == int(
        loop.n * work.overhead + int(loop.reads.term_counts().sum()) * work.term
    )
