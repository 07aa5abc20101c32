"""One run envelope for the wall-clock backends.

``threaded``, ``multiproc``, ``vectorized`` and ``speculative`` share one
``run`` (:class:`~repro.backends.base.WallClockRunner`): the same checks in
the same order before anything runs, and the same notes for the options
a backend does not honor — with the reason the plan-time rejection
(:func:`~repro.passes.spec.check_options`) gives.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import PlanSpec, make_runner
from repro.errors import ProofError
from repro.passes.spec import OPTION_SUPPORT, UnsupportedPlanOption, check_options
from repro.workloads.synthetic import chain_loop
from repro.workloads.testloop import make_test_loop
from tests.conftest import assert_same_bits

WALL_CLOCK = ("threaded", "multiproc", "vectorized", "speculative")


@pytest.fixture(scope="module")
def runners():
    """One two-lane runner per wall-clock backend, reused by every test."""
    made = {b: make_runner(b, processors=2) for b in WALL_CLOCK}
    yield made
    made["multiproc"].close()


def _refusals(runners, make_loop, **options) -> dict:
    """Each backend's refusal of one bad run: ``(class, message)``, with
    the loop's ``y0`` checked bitwise untouched."""
    out = {}
    for backend, runner in runners.items():
        loop = make_loop()
        y0 = loop.y0.copy()
        with pytest.raises(Exception) as info:
            runner.run(loop, **options)
        assert np.array_equal(loop.y0.view(np.uint64), y0.view(np.uint64))
        out[backend] = (type(info.value), str(info.value))
    return out


def _shared_write():
    """Figure-4 loop whose iterations 4 and 5 write one element."""
    loop = make_test_loop(60, 5, 8)
    loop.write[5] = loop.write[4]
    return loop


ILLEGAL_ORDERS = {
    "reversed": np.arange(60)[::-1].copy(),
    "not-a-permutation": np.zeros(60, dtype=np.int64),
}


@pytest.mark.parametrize("order", sorted(ILLEGAL_ORDERS))
def test_the_loop_is_checked_before_the_order(runners, order):
    refusals = _refusals(runners, _shared_write, order=ILLEGAL_ORDERS[order])
    assert len(set(refusals.values())) == 1, refusals
    (cls, message), = set(refusals.values())
    assert cls.__name__ == "OutputDependenceError", message


@pytest.mark.parametrize("order", sorted(ILLEGAL_ORDERS))
def test_the_group_is_checked_before_the_order(runners, order):
    # Distance-1 chain under groups of 8, and an order no executor could
    # run: the unsound group is what every backend names.
    refusals = _refusals(
        runners, lambda: chain_loop(60, 1),
        order=ILLEGAL_ORDERS[order], group_sync=8,
    )
    assert len(set(refusals.values())) == 1, refusals
    (cls, message), = set(refusals.values())
    assert issubclass(cls, ProofError)
    assert "no proven dependence-distance bound >= 8" in message


def test_speculation_checks_a_group_and_notes_it_ignored(runners):
    loop = chain_loop(64, 4)
    result = runners["speculative"].run(loop, group_sync=4)
    assert_same_bits(result.y, loop.run_sequential())
    (note,) = result.extras["ignored_options"]
    assert (note["option"], note["value"]) == ("group_sync", 4)
    assert "distance_group" not in result.extras


#: Every option a wall-clock backend rejects at plan time and takes
#: directly as a run option.
REJECTED = [
    (backend, option, value)
    for backend in WALL_CLOCK
    for option, value in (("schedule", "block"), ("chunk", 4))
    if option not in OPTION_SUPPORT[backend]
]


@pytest.mark.parametrize(
    "backend,option,value", REJECTED, ids=[f"{b}-{o}" for b, o, _ in REJECTED]
)
def test_a_noted_option_carries_the_plan_time_reason(
    runners, backend, option, value
):
    with pytest.raises(UnsupportedPlanOption) as info:
        check_options(PlanSpec(backend=backend, **{option: value}))
    loop = chain_loop(40, 1)
    result = runners[backend].run(loop, **{option: value})
    assert_same_bits(result.y, loop.run_sequential())
    (note,) = result.extras["ignored_options"]
    assert (note["backend"], note["option"], note["value"]) == (
        backend, option, value,
    )
    assert note["reason"] == info.value.reason
