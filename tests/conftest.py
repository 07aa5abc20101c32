"""Shared fixtures for the test suite."""

from __future__ import annotations

import contextlib

import numpy as np
import pytest

from repro.backends import native, simulated
from repro.core.doacross import PreprocessedDoacross
from repro.ir.accesses import ReadSlot
from repro.ir.loop import IrregularLoop
from repro.ir.subscript import AffineSubscript
from repro.machine.costs import CostModel
from repro.machine.engine import Machine
from repro.workloads.synthetic import chain_loop, random_irregular_loop
from repro.workloads.testloop import make_test_loop


def pytest_report_header(config):
    """Which ``run_span`` body eligible spans run on in this session."""
    return f"kernel body: {native.describe()}"


def pytest_terminal_summary(terminalreporter, config):
    # ``addopts = -q`` suppresses the header; say it at the end instead.
    if config.getoption("verbose") < 0:
        terminalreporter.write_line(pytest_report_header(config))


@pytest.fixture
def cost_model() -> CostModel:
    return CostModel()


@pytest.fixture
def machine4(cost_model) -> Machine:
    return Machine(4, cost_model=cost_model)


@pytest.fixture
def machine16(cost_model) -> Machine:
    return Machine(16, cost_model=cost_model)


@pytest.fixture
def runner16() -> PreprocessedDoacross:
    return PreprocessedDoacross(processors=16)


@pytest.fixture
def runner4() -> PreprocessedDoacross:
    return PreprocessedDoacross(processors=4)


@pytest.fixture
def small_random_loop():
    return random_irregular_loop(n=120, max_terms=3, seed=7)


@pytest.fixture
def small_test_loop():
    return make_test_loop(n=200, m=2, l=6)


@pytest.fixture(scope="session")
def measured():
    """``measured(exp, size)``: the result of one record of the experiment
    table at ``"reduced"`` or ``"full"`` size, run once per session however
    many tests read it (copy before doctoring)."""
    results = {}

    def run(exp, size):
        if (exp.name, size) not in results:
            kwargs = {"reduced": exp.reduced, "full": {}}[size]
            results[exp.name, size] = exp.run(**kwargs)
        return results[exp.name, size]

    return run


def assert_matches_oracle(result_y: np.ndarray, loop) -> None:
    """Every strategy must reproduce the sequential oracle exactly (up to
    floating-point associativity, which the executor preserves by summing
    terms in the same order — so we demand tight agreement)."""
    reference = loop.run_sequential()
    np.testing.assert_allclose(result_y, reference, rtol=1e-12, atol=1e-12)


@contextlib.contextmanager
def on_engine():
    """Inside, the simulator times every executor phase on the event
    engine: no schedule class is one the recurrence knows, so each is a
    caller's own (reason ``custom-schedule``).  Test-only — there is no
    runner option for this."""
    saved = simulated._RECURRENCE_SCHEDULES
    simulated._RECURRENCE_SCHEDULES = ()
    try:
        yield
    finally:
        simulated._RECURRENCE_SCHEDULES = saved


@contextlib.contextmanager
def no_compiler():
    """Inside, the process has no compiler: the max-plus sweep runs its
    Python body (``python (no-compiler)``) and every span the Python walk.
    Test-only — nothing selects a body by hand."""
    saved = native.find_compiler, native._body
    native.find_compiler, native._body = (lambda: None), None
    try:
        yield
    finally:
        native.find_compiler, native._body = saved


def assert_same_bits(got: np.ndarray, oracle: np.ndarray) -> None:
    """The contract between the executors and ``run_sequential()`` that
    actually holds: bit-equal wherever the oracle is not NaN (finite
    values, ±inf and the sign of zero included), NaN exactly where the
    oracle is NaN.  NaN *payload* bits are not compared — IEEE 754 leaves
    the result of an operation on two NaNs to the implementation, NumPy's
    batched kernels and ``gcc -O2`` commute the operands, and the payload
    that survives differs."""
    got, oracle = np.asarray(got), np.asarray(oracle)
    assert got.shape == oracle.shape and got.dtype == oracle.dtype == np.float64
    nan = np.isnan(oracle)
    assert np.array_equal(np.isnan(got), nan), "NaNs at different positions"
    assert np.array_equal(got[~nan].view(np.uint64), oracle[~nan].view(np.uint64))


def assert_write_refused(loop, mutate, *cached: np.ndarray) -> None:
    """After ``loop``'s first fingerprint its index arrays are read-only:
    ``mutate(loop)`` (an in-place write into one of them) raises
    ``ValueError``, and neither the index arrays nor the ``cached``
    arrays (a cached record's or level schedule's) change by a bit."""
    arrays = (loop.write, loop.reads.ptr, loop.reads.index) + cached
    before = [a.tobytes() for a in arrays]
    with pytest.raises(ValueError, match="read-only"):
        mutate(loop)
    assert [a.tobytes() for a in arrays] == before


def record_arrays(record) -> tuple[np.ndarray, ...]:
    """Every array of an inspector record."""
    schedule = record.schedule
    return (
        record.iter_array, record.codes,
        schedule.levels, schedule.order, schedule.level_ptr,
    )


def redeclared(base, slots, name: str) -> IrregularLoop:
    """``base``'s arrays under other (possibly lying) read-slot
    declarations."""
    return IrregularLoop(
        n=base.n,
        y_size=base.y_size,
        write_subscript=base.write_subscript,
        reads=base.reads,
        y0=base.y0,
        name=name,
        read_slots=slots,
    )


def lying_slot_chain() -> IrregularLoop:
    """``chain_loop(48, 2)``'s arrays declared as a distance-1 chain: the
    slot's subscript gives 1 at iteration 2, where the read table has 0."""
    return redeclared(
        chain_loop(48, 2),
        [ReadSlot(AffineSubscript(1, -1), start=2)],
        "lying-chain",
    )
