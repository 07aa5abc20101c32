"""The inspector's two bodies build the same thing.

``build_inspector_record`` and ``compute_levels`` run the compiled
inspector (:func:`repro.backends.native.inspect`: one C call for ``iter``,
the levels, their order, the term codes and the gathered layout) and,
without the compiled object, today's NumPy body over the max-plus sweep
(``tests/conftest.py::no_compiler`` takes the compiler away).  Every
record and schedule the compiled body builds must equal the NumPy body's
field for field, dtypes included, and every refusal of a mutated loop
must be the same exception at the same position, with the loop untouched.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings

from repro import InspectorCache, PlanSpec
from repro.analysis import record_mismatches
from repro.backends import native
from repro.backends.cache import build_inspector_record
from repro.errors import InvalidLoopError, OutputDependenceError
from repro.graph.levels import LevelSchedule, compute_levels
from repro.passes import plan_loop
from repro.sparse.ilu import ilu0
from repro.sparse.stencils import five_point
from repro.sparse.trisolve import lower_solve_loop
from repro.workloads.synthetic import chain_loop, random_irregular_loop
from repro.workloads.testloop import make_test_loop
from tests.conftest import no_compiler
from tests.strategies import affine_loops, loop_params

needs_compiler = pytest.mark.skipif(
    native.find_compiler() is None, reason="no gcc on PATH"
)

SCHEDULE_ARRAYS = ("levels", "order", "level_ptr")


def trisolve(k: int):
    L, _upper = ilu0(five_point(k, k))
    return lower_solve_loop(L, np.arange(1.0, L.n_rows + 1) / L.n_rows)


def assert_same_arrays(a, b, what: str) -> None:
    assert a.dtype == b.dtype, f"{what}: {a.dtype} != {b.dtype}"
    assert np.array_equal(a, b), f"{what} differs"


def assert_same_schedules(compiled: LevelSchedule, numpy: LevelSchedule) -> None:
    for name in SCHEDULE_ARRAYS:
        assert_same_arrays(getattr(compiled, name), getattr(numpy, name), name)


def assert_bodies_agree(loop, schedule: LevelSchedule | None = None):
    """Both bodies' record (and, without ``schedule``, levels) of
    ``loop``: equal field for field; returns the compiled record."""
    compiled = build_inspector_record(loop, schedule)
    with no_compiler():
        numpy = build_inspector_record(loop, schedule)
        numpy_levels = compute_levels(loop) if schedule is None else None
    assert record_mismatches(compiled, numpy) == []
    for name in ("iter_array", "codes"):
        assert_same_arrays(getattr(compiled, name), getattr(numpy, name), name)
    if compiled.layout is not None:
        for name in ("write", "ptr", "index", "start"):
            assert_same_arrays(
                getattr(compiled.layout, name), getattr(numpy.layout, name), name
            )
    if schedule is not None:
        assert compiled.schedule is schedule and numpy.schedule is schedule
        return compiled
    levels = compute_levels(loop)
    assert numpy.schedule.body == numpy_levels.body == "python (no-compiler)"
    why = native.unavailable()
    body = "native" if why is None else f"python ({why})"
    assert compiled.schedule.body == levels.body == body
    for s in (compiled.schedule, levels, numpy_levels):
        assert_same_schedules(s, numpy.schedule)
    return compiled


# ---------------------------------------------------------------------------
# generated loops, benchmark shapes, edge shapes
# ---------------------------------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(params=loop_params)
@example(params={"n": 0, "max_terms": 0, "y_extra": 0, "seed": 0, "external_init": False})
@example(params={"n": 1, "max_terms": 3, "y_extra": 0, "seed": 0, "external_init": False})
def test_generated_loops(params):
    assert_bodies_agree(random_irregular_loop(**params))


@settings(max_examples=40, deadline=None)
@given(loop=affine_loops())
def test_affine_loops(loop):
    assert_bodies_agree(loop)


#: The benchmark's four loops at its smoke sizes (krylov_churn: two of
#: its structures), an ILU(0) trisolve, and the order shapes.
SHAPES = {
    "trisolve_5pt": lambda: trisolve(12),
    "fig4_doall": lambda: make_test_loop(n=400, m=5, l=7),
    "fig4_chain": lambda: make_test_loop(n=120, m=5, l=8),
    "krylov_churn-0": lambda: random_irregular_loop(80, max_terms=4, seed=1991),
    "krylov_churn-1": lambda: random_irregular_loop(80, max_terms=4, seed=1992),
    "ilu0-trisolve": lambda: trisolve(30),
    "chain": lambda: chain_loop(200, 1),
    "chain-distance-3": lambda: chain_loop(200, 3),
    "one-level": lambda: random_irregular_loop(300, max_terms=0, seed=1),
    "n=0": lambda: random_irregular_loop(0, seed=1),
    "n=1": lambda: random_irregular_loop(1, max_terms=4, seed=1),
}
#: ``(layout, renames, levels)`` of each shape (``None``: any count), so
#: both layouts and both renaming cases are covered.
WALKS = {
    "trisolve_5pt": ("gathered", False, 23),
    "fig4_doall": ("identity", False, 1),
    "krylov_churn-0": ("gathered", True, None),
    "fig4_chain": ("identity", True, 120),
    "ilu0-trisolve": ("gathered", False, 59),
    "chain": ("identity", False, 200),
    "one-level": ("identity", False, 1),
    "n=0": ("identity", False, 0),
    "n=1": ("identity", False, 1),
}


@pytest.mark.parametrize("name", SHAPES)
def test_shapes(name):
    record = assert_bodies_agree(SHAPES[name]())
    if name in WALKS:
        layout = "identity" if record.layout is None else "gathered"
        want_layout, want_renames, want_levels = WALKS[name]
        assert (layout, record.renames) == (want_layout, want_renames)
        assert want_levels in (None, record.schedule.n_levels)


@pytest.mark.parametrize("name", ["trisolve_5pt", "krylov_churn-0", "fig4_chain"])
def test_a_given_schedule_is_classified_in_its_order(name):
    # The level memo's schedule, and one that is no level schedule at all
    # (distance groups; a reversed order): only the order is read.
    loop = SHAPES[name]()
    n = loop.n
    for schedule in (
        compute_levels(loop),
        LevelSchedule.from_levels(np.arange(n, dtype=np.int64) // 4),
        LevelSchedule.from_levels(np.arange(n, dtype=np.int64)[::-1].copy()),
    ):
        assert_bodies_agree(loop, schedule)


# ---------------------------------------------------------------------------
# one inspection per cold vectorized plan
# ---------------------------------------------------------------------------


@needs_compiler
@pytest.mark.parametrize("cached", [True, False], ids=["cache", "no-cache"])
def test_a_cold_vectorized_plan_inspects_once(monkeypatch, cached):
    calls = []
    real = native.inspect

    def counted(loop, *, order=None, codes=True):
        calls.append((order is None, codes))
        return real(loop, order=order, codes=codes)

    monkeypatch.setattr(native, "inspect", counted)
    loop = trisolve(20)
    cache = InspectorCache() if cached else None
    spec = PlanSpec(backend="vectorized")
    plan = plan_loop(loop, spec, cache)
    assert calls == [(True, True)]
    assert plan.describe()["levels_body"] == "native"
    assert plan.record.schedule is plan.levels
    if cached:
        stats = cache.stats()
        assert stats["levels_misses"] == stats["misses"] == 1
        assert stats["levels_hits"] == stats["hits"] == 0
        warm = plan_loop(loop, spec, cache)
        assert calls == [(True, True)]
        assert warm.levels is plan.levels and warm.record is plan.record
        stats = cache.stats()
        assert stats["levels_hits"] == stats["hits"] == 1


# ---------------------------------------------------------------------------
# mutated subscripts: the same refusal on both bodies, nothing written
# ---------------------------------------------------------------------------


def mutated(where: str):
    loop = random_irregular_loop(200, seed=3)
    ptr, index = loop.reads.ptr, loop.reads.index
    i = next(i for i in range(100, loop.n) if ptr[i + 1] > ptr[i])
    j = next(j for j in range(120, loop.n) if ptr[j + 1] > ptr[j])
    if where == "read-negative":
        index[ptr[i]] = -1
    elif where == "read-too-large":
        index[ptr[i]] = loop.y_size
    elif where == "write-negative":
        loop.write[i] = -1
    elif where == "write-too-large":
        loop.write[i] = loop.y_size
    elif where == "write-duplicate":
        loop.write[10] = loop.write[i]
    elif where == "ptr-decreasing":
        ptr[i + 1] = ptr[i] - 1
    elif where == "read-before-duplicate":
        index[ptr[i]] = loop.y_size
        loop.write[10] = loop.write[j]
    elif where == "duplicate-before-read":
        loop.write[10] = loop.write[i]
        index[ptr[j]] = -1
    elif where == "read-of-the-duplicate":
        loop.write[10] = loop.write[i]
        index[ptr[i]] = -1
    return loop


FAULTS = [
    "read-negative", "read-too-large", "write-negative", "write-too-large",
    "write-duplicate", "ptr-decreasing", "read-before-duplicate",
    "duplicate-before-read", "read-of-the-duplicate",
]


def refusal(call):
    with pytest.raises((InvalidLoopError, OutputDependenceError)) as info:
        call()
    got = info.value
    if isinstance(got, OutputDependenceError):
        return type(got), (got.index, got.first_writer, got.second_writer)
    position = str(got).split("position ")[1].split(" ")[0]
    return type(got), position


@pytest.mark.parametrize("where", FAULTS)
def test_a_mutated_loop_is_refused_alike_and_left_untouched(where):
    loop = mutated(where)
    arrays = [loop.write, loop.reads.ptr, loop.reads.index, loop.reads.coeff, loop.y0]
    before = [a.copy() for a in arrays]
    got = {}
    for body, ctx in (("compiled", None), ("numpy", no_compiler)):
        for name, call in (
            ("record", lambda: build_inspector_record(loop, fingerprint="-")),
            ("levels", lambda: compute_levels(loop)),
        ):
            if ctx is None:
                got[body, name] = refusal(call)
            else:
                with ctx():
                    got[body, name] = refusal(call)
    assert len(set(got.values())) == 1, got
    kind = next(iter(got.values()))[0]
    duplicate = where in ("write-duplicate", "duplicate-before-read")
    assert kind is (OutputDependenceError if duplicate else InvalidLoopError)
    for a, b in zip(arrays, before):
        assert np.array_equal(a.view(np.uint8), b.view(np.uint8))


@needs_compiler
def test_inconsistent_operands_are_refused_before_the_call():
    loop = random_irregular_loop(50, seed=2)
    for bad in ("short-order", "ptr-start", "ptr-end"):
        clone = pickle.loads(pickle.dumps(loop))
        order = None
        if bad == "short-order":
            order = np.arange(clone.n - 1, dtype=np.int64)
        elif bad == "ptr-start":
            clone.reads.ptr[0] = 1
        else:
            clone.reads.ptr[-1] -= 1
        with pytest.raises(InvalidLoopError, match="inconsistent operands"):
            native.inspect(clone, order=order)
    clone = pickle.loads(pickle.dumps(loop))
    clone.write = clone.write.astype(np.int32)
    assert native.inspect(clone) == "non-array-operand"
    assert compute_levels(clone).body == "python (non-array-operand)"
