"""Direct tests of the simulated backend's edge cases and internals.

``PINNED`` holds cycle counts and digests captured at the commit *before*
every doacross variant moved onto the one ``_doacross`` pipeline; no
literal in it was edited afterwards.
"""

import hashlib

import numpy as np
import pytest

from repro.backends.cache import InspectorCache
from repro.backends.simulated import SimulatedRunner
from repro.core.doacross import PreprocessedDoacross
from repro.graph.levels import compute_levels
from repro.core.workspace import DoacrossWorkspace
from repro.errors import (
    InvalidLoopError,
    ScheduleError,
    SimulationDeadlockError,
)
from repro.machine.costs import CostModel
from repro.machine.engine import Machine
from repro.machine.scheduler import (
    DynamicSchedule,
    IterationSchedule,
    StaticCyclicSchedule,
)
from repro.sparse.ilu import ilu0
from repro.sparse.stencils import five_point
from repro.sparse.trisolve import lower_solve_loop
from repro.workloads.synthetic import chain_loop, random_irregular_loop
from repro.workloads.testloop import make_test_loop
from tests.conftest import assert_matches_oracle, on_engine

@pytest.fixture
def runner():
    return SimulatedRunner(Machine(4))


class TestScheduleResolution:
    def test_accepts_schedule_instance(self, runner):
        loop = make_test_loop(n=60, m=1, l=3)
        schedule = StaticCyclicSchedule(60, 4, chunk=2)
        result = runner.run_preprocessed(loop, schedule=schedule)
        assert_matches_oracle(result.y, loop)

    def test_rejects_mismatched_schedule_size(self, runner):
        loop = make_test_loop(n=60, m=1, l=3)
        with pytest.raises(InvalidLoopError, match="covers"):
            runner.run_preprocessed(
                loop, schedule=StaticCyclicSchedule(50, 4)
            )

    @pytest.mark.parametrize(
        "chunks,message",
        [
            (lambda n, proc: [(0, n // 2)] if proc == 0 else [], "unassigned"),
            (lambda n, proc: [(0, n)] if proc < 2 else [], "assigned twice"),
            (lambda n, proc: [(0, n + 1)] if proc == 0 else [], "out of range"),
        ],
        ids=["gap", "overlap", "overrun"],
    )
    def test_rejects_a_static_schedule_that_is_no_partition(
        self, runner, chunks, message
    ):
        class Dealt(IterationSchedule):
            def chunks_for(self, proc):
                return chunks(self.n, proc)

        loop = chain_loop(60, 1)
        for run in (
            lambda s: runner.run_preprocessed(loop, schedule=s),
            lambda s: runner.run_amortized(loop, 2, schedule=s),
            lambda s: runner.run_classic(loop, 1, schedule=s),
            lambda s: runner.run_doall(make_test_loop(60, 1, 3), schedule=s),
        ):
            with pytest.raises(ScheduleError, match=message):
                run(Dealt(60, 4))
        assert runner.workspace.is_clean()
        assert runner.workspace.invocations == 0  # before any phase

    @pytest.mark.parametrize("built_for", [2, 8])
    def test_rejects_a_static_schedule_for_another_machine_size(
        self, runner, built_for
    ):
        # Eight: half the positions would never run.  Two: the engine
        # would ask it for a processor it does not have.
        loop = chain_loop(60, 1)
        with pytest.raises(ScheduleError, match="the machine has 4"):
            runner.run_preprocessed(
                loop, schedule=StaticCyclicSchedule(60, built_for)
            )
        assert runner.workspace.invocations == 0

    def test_dynamic_schedule_instance_reset_between_runs(self, runner):
        loop = make_test_loop(n=40, m=1, l=3)
        schedule = DynamicSchedule(40, 4, chunk=8)
        first = runner.run_preprocessed(loop, schedule=schedule)
        second = runner.run_preprocessed(loop, schedule=schedule)
        assert first.total_cycles == second.total_cycles


class TestEdgeCases:
    def test_empty_loop_every_entry_point(self, runner):
        loop = random_irregular_loop(0, seed=0)
        for result in (
            runner.run_preprocessed(loop),
            runner.run_stripmined(loop, block=4),
            runner.run_doall(loop),
            runner.run_amortized(loop, 2),
        ):
            np.testing.assert_allclose(result.y, loop.y0)

    def test_single_iteration_loop(self, runner):
        loop = random_irregular_loop(1, seed=3)
        result = runner.run_preprocessed(loop)
        assert_matches_oracle(result.y, loop)

    def test_more_processors_than_iterations(self):
        runner = SimulatedRunner(Machine(32))
        loop = random_irregular_loop(5, seed=2)
        result = runner.run_preprocessed(loop)
        assert_matches_oracle(result.y, loop)

    def test_one_processor_machine(self):
        runner = SimulatedRunner(Machine(1))
        loop = chain_loop(50, 1)
        result = runner.run_preprocessed(loop)
        assert_matches_oracle(result.y, loop)
        # Nothing to wait for on one processor: the chain is sequential.
        assert result.wait_cycles == 0

    def test_machine_validation(self):
        with pytest.raises(ValueError, match="at least one"):
            Machine(0)

    def test_machine_repr(self):
        assert "processors=4" in repr(Machine(4))


class TestDispatchAccounting:
    def test_dynamic_dispatch_counts_recorded(self, runner):
        loop = make_test_loop(n=64, m=1, l=3)
        result = runner.run_preprocessed(loop, schedule="dynamic", chunk=8)
        executor = next(p for p in result.phases if p.name == "executor")
        dispatches = sum(p.dispatches for p in executor.processors)
        # 8 chunks of 8 plus one empty-claim probe per processor.
        assert dispatches == 8 + 4

    def test_static_schedules_have_no_dispatches(self, runner):
        loop = make_test_loop(n=64, m=1, l=3)
        result = runner.run_preprocessed(loop, schedule="cyclic")
        executor = next(p for p in result.phases if p.name == "executor")
        assert sum(p.dispatches for p in executor.processors) == 0

    def test_dispatch_serializes_through_counter(self, runner):
        """Dynamic chunk-1 on a trivial loop: 16+ grabs serialize on the
        dispatch resource, visible as resource wait."""
        loop = make_test_loop(n=64, m=1, l=3)
        result = runner.run_preprocessed(loop, schedule="dynamic", chunk=1)
        executor = next(p for p in result.phases if p.name == "executor")
        assert sum(p.resource_wait_cycles for p in executor.processors) > 0


class TestWorkspaceSharing:
    def test_shared_workspace_between_runner_instances(self):
        ws = DoacrossWorkspace()
        machine = Machine(4)
        a = SimulatedRunner(machine, ws)
        b = SimulatedRunner(machine, ws)
        loop = random_irregular_loop(40, seed=1)
        a.run_preprocessed(loop)
        b.run_preprocessed(loop)
        assert ws.invocations == 2
        assert ws.is_clean()


# ----------------------------------------------------------------------
# Same behaviour as the three pipelines the one pipeline replaced
# ----------------------------------------------------------------------
def _trisolve():
    factor, _ = ilu0(five_point(5, 5))
    return lower_solve_loop(factor, np.linspace(1.0, 2.0, 25))


def _rhs(k):
    return np.linspace(float(k), k + 1.0, 25)


PIN_LOOPS = {
    "chain200": lambda: chain_loop(200, 1),
    "chain64d4": lambda: chain_loop(64, 4),
    "random150": lambda: random_irregular_loop(150, seed=5),
    "fig4-2-8": lambda: make_test_loop(300, 2, 8),
    "fig4-3-7": lambda: make_test_loop(300, 3, 7),
    "trisolve25": _trisolve,
}
PIN_SCHEDULES = (("cyclic", 1), ("block", 1), ("dynamic", 4), ("guided", 2))
_CONTENDED = CostModel(bus_per_access=2, coherence_miss=12)
PIN_MACHINES = (
    lambda: Machine(4),
    lambda: Machine(4, cost_model=_CONTENDED, bus=True),
    lambda: Machine(4, cost_model=_CONTENDED, coherence=True),
)
PIN_VARIANTS = {
    "preprocessed": lambda r, loop, **kw: r.run_preprocessed(loop, **kw),
    "doconsider": lambda r, loop, **kw: r.run_preprocessed(
        loop, order=compute_levels(loop).order, **kw
    ),
    "linear": lambda r, loop, **kw: r.run_preprocessed(loop, linear=True, **kw),
    "amortized1": lambda r, loop, **kw: r.run_amortized(loop, 1, **kw),
    "amortized3": lambda r, loop, **kw: r.run_amortized(loop, 3, **kw),
    "amortized3-rhs": lambda r, loop, **kw: r.run_amortized(
        loop, 3, rhs_sequence=[_rhs(k) for k in range(3)], **kw
    ),
    "strip7": lambda r, loop, schedule, chunk: r.run_stripmined(
        loop, 7, schedule_kind=schedule, chunk=chunk
    ),
    "strip64": lambda r, loop, schedule, chunk: r.run_stripmined(
        loop, 64, schedule_kind=schedule, chunk=chunk
    ),
    "classic1": lambda r, loop, **kw: r.run_classic(loop, 1, **kw),
    "classic4": lambda r, loop, **kw: r.run_classic(loop, 4, **kw),
    "doall": lambda r, loop, **kw: r.run_doall(loop, **kw),
}


def _pin_cell(result):
    """``(total_cycles, wait_cycles, digest)``; the digest covers the four
    breakdown fields, every phase's ``(name, span)`` and ``sha256(y)``."""
    b = result.breakdown
    blob = repr(
        (
            int(b.inspector),
            int(b.executor),
            int(b.postprocessor),
            int(b.barriers),
            [(p.name, int(p.span)) for p in result.phases],
            hashlib.sha256(result.y.tobytes()).hexdigest(),
        )
    )
    digest = hashlib.sha256(blob.encode()).hexdigest()[:12]
    return int(result.total_cycles), int(result.wait_cycles), digest


def _pin_row(loop_name, variant, cache=None):
    """The twelve cells of one (loop, variant): schedules x machines, each
    on a runner of its own (sharing ``cache`` when one is given)."""
    loop = PIN_LOOPS[loop_name]()
    return [
        [
            _pin_cell(
                PIN_VARIANTS[variant](
                    SimulatedRunner(machine(), cache=cache),
                    loop,
                    schedule=kind,
                    chunk=chunk,
                )
            )
            for machine in PIN_MACHINES
        ]
        for kind, chunk in PIN_SCHEDULES
    ]


# Rows: schedules cyclic-1 / block / dynamic-4 / guided-2; columns:
# plain / bus / coherence machine.  Captured at the parent commit.
PINNED = {
    ("chain200", "preprocessed"): [
        [(1916, 808, "fe3ff128dfc8"), (3624, 0, "170e7e420604"), (4304, 7900, "37d95f46a9bc")],
        [(4654, 5880, "ae7522cc9071"), (7444, 7638, "06a7aa13bef7"), (4690, 5916, "dcaacd6a7470")],
        [(4034, 8200, "441baa64d400"), (6542, 10516, "3f23d79f5aaa"), (4622, 9892, "dc34a60af0e2")],
        [(4376, 10132, "1ce98059f0c2"), (7028, 13114, "6fa0d763ac29"), (4670, 10960, "2c13faa13f0d")],
    ],
    ("chain200", "doconsider"): [
        [(1916, 808, "fe3ff128dfc8"), (3624, 0, "170e7e420604"), (4304, 7900, "37d95f46a9bc")],
        [(4654, 5880, "ae7522cc9071"), (7444, 7638, "06a7aa13bef7"), (4690, 5916, "dcaacd6a7470")],
        [(4034, 8200, "441baa64d400"), (6542, 10516, "3f23d79f5aaa"), (4622, 9892, "dc34a60af0e2")],
        [(4376, 10132, "1ce98059f0c2"), (7028, 13114, "6fa0d763ac29"), (4670, 10960, "2c13faa13f0d")],
    ],
    ("chain200", "linear"): [
        [(1680, 808, "35a93239c810"), (2988, 0, "fa324e6e7ec9"), (4068, 7900, "83ca3c72ff87")],
        [(4418, 5880, "80a3e7abba5a"), (6808, 7638, "5d9b00032dfa"), (4454, 5916, "66d341ed05d0")],
        [(3798, 8200, "f9ee7f2a84d1"), (5906, 10516, "920adce3c4fe"), (4386, 9892, "0331da03b86c")],
        [(4140, 10132, "7fdbfd43cf16"), (6392, 13114, "70c976814f51"), (4434, 10960, "137d956f228b")],
    ],
    ("chain200", "amortized1"): [
        [(1916, 808, "fe3ff128dfc8"), (3624, 0, "170e7e420604"), (4304, 7900, "37d95f46a9bc")],
        [(4654, 5880, "ae7522cc9071"), (7444, 7638, "06a7aa13bef7"), (4690, 5916, "dcaacd6a7470")],
        [(4034, 8200, "441baa64d400"), (6542, 10516, "3f23d79f5aaa"), (4622, 9892, "dc34a60af0e2")],
        [(4376, 10132, "1ce98059f0c2"), (7028, 13114, "6fa0d763ac29"), (4670, 10960, "2c13faa13f0d")],
    ],
    ("chain200", "amortized3"): [
        [(5076, 2424, "f796a1c71643"), (8600, 0, "3f553519c926"), (12240, 23700, "37eaa476a4d8")],
        [(13290, 17640, "4b9ee806a2c8"), (20060, 22914, "4e5d6989bf79"), (13398, 17748, "30434cf3e7a6")],
        [(11430, 24600, "46fb9125079b"), (17354, 31548, "cb1458238b12"), (13194, 29676, "76d60e72316c")],
        [(12456, 30396, "93547755b1dc"), (18812, 39342, "03f76f97598d"), (13338, 32880, "e164f476578a")],
    ],
    ("chain200", "strip7"): [
        [(5360, 1200, "7e46c1ace8af"), (7026, 0, "efc43bbdb50a"), (7412, 5268, "e7c331016576")],
        [(6530, 4200, "f01509c8322a"), (8594, 4200, "20981a04d8ce"), (7574, 5244, "7ff3c76020fa")],
        [(8052, 1446, "203c6e6e54ef"), (10458, 1942, "2d1855b65f84"), (8388, 1446, "ee06a4a6a0cb")],
        [(7422, 2166, "b711128f2b44"), (9486, 3006, "73169d1a37b0"), (8274, 3174, "fb8637291bca")],
    ],
    ("chain200", "strip64"): [
        [(2276, 850, "8423b83d0724"), (4002, 0, "baaf422e90cc"), (4628, 7618, "67e5814267a8")],
        [(4846, 5610, "3b943a76fede"), (7582, 7152, "8b93c0ccc355"), (4990, 5754, "04fa21efc110")],
        [(4466, 7168, "3058ceed368f"), (6992, 9226, "bd425ec62559"), (5018, 8572, "424ebe457af2")],
        [(4396, 7710, "e3cedacd522d"), (6892, 9924, "8d4e63c307d9"), (5008, 9258, "d51e477b4a3b")],
    ],
    ("chain200", "classic1"): [
        [(3228, 9480, "f7f4daa53c15"), (3228, 9480, "f7f4daa53c15"), (3228, 9480, "f7f4daa53c15")],
        [(3228, 4776, "f7f4daa53c15"), (3228, 4776, "f7f4daa53c15"), (3228, 4776, "f7f4daa53c15")],
        [(3252, 8568, "159c8f5accd0"), (3252, 8568, "159c8f5accd0"), (3252, 8568, "159c8f5accd0")],
        [(3252, 9096, "159c8f5accd0"), (3252, 9096, "159c8f5accd0"), (3252, 9096, "159c8f5accd0")],
    ],
    ("chain64d4", "preprocessed"): [
        [(608, 0, "f5428da92c4e"), (1236, 0, "cdcf7fda4830"), (608, 0, "f5428da92c4e")],
        [(1310, 1332, "a11e8d253629"), (2136, 1740, "3a52db0b7273"), (1454, 1476, "18e69d991698")],
        [(716, 0, "177ec06866e6"), (1348, 0, "dd0255ab60a4"), (920, 36, "43b8ffdd1c6f")],
        [(820, 414, "9071ac3ef6ff"), (1488, 564, "83b07a0cc169"), (1102, 934, "357c319d6bc6")],
    ],
    ("chain64d4", "doconsider"): [
        [(608, 0, "f5428da92c4e"), (1236, 0, "cdcf7fda4830"), (608, 0, "f5428da92c4e")],
        [(1310, 1332, "a11e8d253629"), (2136, 1740, "3a52db0b7273"), (1454, 1476, "18e69d991698")],
        [(716, 0, "177ec06866e6"), (1348, 0, "dd0255ab60a4"), (920, 36, "43b8ffdd1c6f")],
        [(820, 414, "9071ac3ef6ff"), (1488, 564, "83b07a0cc169"), (1102, 934, "357c319d6bc6")],
    ],
    ("chain64d4", "linear"): [
        [(508, 0, "80ee72c12dd5"), (1008, 0, "69dc0cb0f9da"), (508, 0, "80ee72c12dd5")],
        [(1210, 1332, "f11bd16a640d"), (1908, 1740, "3802d9c49f19"), (1354, 1476, "796659fc7d70")],
        [(616, 0, "6e3f33bc396d"), (1120, 0, "33be2a4d1569"), (820, 36, "ae6e5dfaee33")],
        [(720, 414, "ed00fce4e101"), (1260, 564, "ad89360e6788"), (1002, 934, "a1e663aaad1d")],
    ],
    ("chain64d4", "amortized1"): [
        [(608, 0, "f5428da92c4e"), (1236, 0, "cdcf7fda4830"), (608, 0, "f5428da92c4e")],
        [(1310, 1332, "a11e8d253629"), (2136, 1740, "3a52db0b7273"), (1454, 1476, "18e69d991698")],
        [(716, 0, "177ec06866e6"), (1348, 0, "dd0255ab60a4"), (920, 36, "43b8ffdd1c6f")],
        [(820, 414, "9071ac3ef6ff"), (1488, 564, "83b07a0cc169"), (1102, 934, "357c319d6bc6")],
    ],
    ("chain64d4", "amortized3"): [
        [(1560, 0, "842f8f0d4ab9"), (2932, 0, "17c76a5e6b72"), (1560, 0, "842f8f0d4ab9")],
        [(3666, 3996, "edfb6d0507b8"), (5632, 5220, "9eaab2e4e021"), (4098, 4428, "5975ee7c9e83")],
        [(1884, 0, "05f077b1e9d1"), (3268, 0, "e050cb1d5422"), (2496, 108, "3f6ff39c7213")],
        [(2196, 1242, "23aff4d23f18"), (3688, 1692, "b863fee51c80"), (3042, 2802, "35bc53405443")],
    ],
    ("chain64d4", "strip7"): [
        [(1658, 0, "da8e3d1c64f1"), (2322, 0, "6499a76202f9"), (1658, 0, "da8e3d1c64f1")],
        [(1718, 64, "2158e19b865b"), (2344, 0, "86c69d5d0cef"), (1934, 64, "ef225b8b3670")],
        [(2328, 0, "1df216415290"), (2934, 0, "a4e9ddfe5824"), (2556, 0, "72b8677a82b1")],
        [(2232, 0, "9958d94cb8a1"), (2772, 0, "c20dd125c3b3"), (2376, 0, "48ad41a8af12")],
    ],
    ("chain64d4", "strip64"): [
        [(608, 0, "f5428da92c4e"), (1236, 0, "cdcf7fda4830"), (608, 0, "f5428da92c4e")],
        [(1310, 1332, "a11e8d253629"), (2136, 1740, "3a52db0b7273"), (1454, 1476, "18e69d991698")],
        [(716, 0, "177ec06866e6"), (1348, 0, "dd0255ab60a4"), (920, 36, "43b8ffdd1c6f")],
        [(820, 414, "9071ac3ef6ff"), (1488, 564, "83b07a0cc169"), (1102, 934, "357c319d6bc6")],
    ],
    ("chain64d4", "classic4"): [
        [(284, 0, "e01cf9d4c6f8"), (284, 0, "e01cf9d4c6f8"), (284, 0, "e01cf9d4c6f8")],
        [(884, 1152, "947e644b47e2"), (884, 1152, "947e644b47e2"), (884, 1152, "947e644b47e2")],
        [(396, 24, "d9d455a0aac0"), (396, 24, "d9d455a0aac0"), (396, 24, "d9d455a0aac0")],
        [(540, 576, "5a690523ae94"), (540, 576, "5a690523ae94"), (540, 576, "5a690523ae94")],
    ],
    ("random150", "preprocessed"): [
        [(1728, 116, "4e9d7bec83a8"), (3354, 36, "0cbecfa0b02d"), (2052, 200, "273ef079e039")],
        [(3868, 4030, "20e55b977455"), (5964, 5124, "12d6e734e11b"), (4666, 4408, "7eb065eb6dbd")],
        [(1886, 52, "4fe38ab74ce7"), (3482, 52, "a872d7c605e9"), (2234, 126, "8cabceb13107")],
        [(2232, 1742, "54a0b493e8f8"), (3964, 2302, "6fd368679089"), (2712, 2244, "0f91ef93c944")],
    ],
    ("random150", "doconsider"): [
        [(1738, 178, "eccc022e2f25"), (3384, 188, "ac1e92e12310"), (2074, 118, "893447852e96")],
        [(3236, 1770, "22860675243c"), (5126, 2248, "0ab6e4d90e30"), (3992, 1974, "36dc6e57566f")],
        [(1874, 34, "db5b4a8aad33"), (3502, 38, "76181d997bf7"), (2158, 52, "62aa197a68b9")],
        [(1818, 0, "0cd7b676e670"), (3478, 22, "6a88cfb5afee"), (2154, 0, "975c0eed6cdf")],
    ],
    ("random150", "amortized1"): [
        [(1728, 116, "4e9d7bec83a8"), (3354, 36, "0cbecfa0b02d"), (2052, 200, "273ef079e039")],
        [(3868, 4030, "20e55b977455"), (5964, 5124, "12d6e734e11b"), (4666, 4408, "7eb065eb6dbd")],
        [(1886, 52, "4fe38ab74ce7"), (3482, 52, "a872d7c605e9"), (2234, 126, "8cabceb13107")],
        [(2232, 1742, "54a0b493e8f8"), (3964, 2302, "6fd368679089"), (2712, 2244, "0f91ef93c944")],
    ],
    ("random150", "amortized3"): [
        [(4656, 348, "e6eb19ef7471"), (8346, 108, "547a1171b90d"), (5628, 600, "2085bf64bcb0")],
        [(11076, 12090, "765710f5607f"), (16176, 15372, "d11e08f52562"), (13470, 13224, "9c0abfff0a90")],
        [(5130, 156, "fa3e8221794e"), (8730, 156, "291eb6cedde0"), (6174, 378, "2a4a4d8db48e")],
        [(6168, 5226, "51e233700196"), (10176, 6906, "4187815173d3"), (7608, 6732, "0cfcd5131d6f")],
    ],
    ("random150", "strip7"): [
        [(4470, 28, "1b276c80f267"), (6160, 18, "bf3306c0c3c4"), (4482, 28, "af0bd8c90741")],
        [(4378, 22, "ba013267ab1d"), (6046, 10, "9956dfb301a8"), (4402, 22, "991ad010601f")],
        [(5946, 0, "39cd8a51bceb"), (7730, 0, "3df7478b1f22"), (5946, 0, "39cd8a51bceb")],
        [(5408, 0, "17a1ae25a035"), (6886, 0, "b1385d5a2052"), (5414, 0, "05fc813cbbcc")],
    ],
    ("random150", "strip64"): [
        [(1946, 108, "18b080ad525f"), (3558, 36, "1d368148384d"), (2096, 168, "0a6cb45364fb")],
        [(2932, 1842, "08bd22cad2f4"), (4792, 2314, "6a700e9026b4"), (3248, 1922, "1bd235c1a903")],
        [(2194, 86, "509a17bc0822"), (3814, 90, "364fcaf218c5"), (2318, 116, "f57c65036e4b")],
        [(2210, 66, "256df441f1e6"), (3786, 64, "8311bb0c960c"), (2330, 64, "8b795ebb2fc3")],
    ],
    ("fig4-2-8", "preprocessed"): [
        [(3422, 18, "de8a6e8939bb"), (6432, 0, "abf91daa4744"), (5222, 42, "c7d71e1c8e06")],
        [(10424, 14022, "1fdf5a38be0c"), (15182, 17484, "2da5b63a645f"), (10496, 14058, "9396a40ba50d")],
        [(6330, 10258, "4dbb3cb2758d"), (10102, 12798, "87e08ab457f0"), (8106, 13702, "6f32815f27cb")],
        [(9156, 22406, "b51b950959f6"), (13608, 28066, "118f6a6bf5b2"), (9774, 23582, "1c529b479d60")],
    ],
    ("fig4-2-8", "doconsider"): [
        [(3422, 18, "de8a6e8939bb"), (6432, 0, "abf91daa4744"), (5222, 42, "c7d71e1c8e06")],
        [(10424, 14022, "1fdf5a38be0c"), (15182, 17484, "2da5b63a645f"), (10496, 14058, "9396a40ba50d")],
        [(6330, 10258, "4dbb3cb2758d"), (10102, 12798, "87e08ab457f0"), (8106, 13702, "6f32815f27cb")],
        [(9156, 22406, "b51b950959f6"), (13608, 28066, "118f6a6bf5b2"), (9774, 23582, "1c529b479d60")],
    ],
    ("fig4-2-8", "linear"): [
        [(3086, 18, "65c29669d96c"), (5496, 0, "6cc2a8370c7c"), (4886, 42, "07beeac8f42f")],
        [(10088, 14022, "2e6cc68be6d1"), (14246, 17484, "74b2cad5476b"), (10160, 14058, "650c50960a8e")],
        [(5994, 10258, "18d50a29862f"), (9166, 12798, "9cce1edba6c6"), (7770, 13702, "8eac8ddd4eb9")],
        [(8820, 22406, "8e200d20d765"), (12672, 28066, "6b66503129cc"), (9438, 23582, "1b4ce01758b8")],
    ],
    ("fig4-2-8", "amortized1"): [
        [(3422, 18, "de8a6e8939bb"), (6432, 0, "abf91daa4744"), (5222, 42, "c7d71e1c8e06")],
        [(10424, 14022, "1fdf5a38be0c"), (15182, 17484, "2da5b63a645f"), (10496, 14058, "9396a40ba50d")],
        [(6330, 10258, "4dbb3cb2758d"), (10102, 12798, "87e08ab457f0"), (8106, 13702, "6f32815f27cb")],
        [(9156, 22406, "b51b950959f6"), (13608, 28066, "118f6a6bf5b2"), (9774, 23582, "1c529b479d60")],
    ],
    ("fig4-2-8", "amortized3"): [
        [(9294, 54, "1e1dc00403fa"), (15924, 0, "71152a9685fc"), (14694, 126, "6c32bdb68897")],
        [(30300, 42066, "0aa93908c9d7"), (42174, 52452, "6aa8aec14ffd"), (30516, 42174, "d3a6808b36d4")],
        [(18018, 30774, "4b669fa3c8df"), (26934, 38394, "34b9f54440fc"), (23346, 41106, "e87564da9778")],
        [(26496, 67218, "c6ff41799f51"), (37452, 84198, "ad49d93ba5b1"), (28350, 70746, "59c1fbe3a247")],
    ],
    ("fig4-2-8", "strip7"): [
        [(8508, 774, "4c4c8bad12af"), (11760, 0, "5716d7f9cc35"), (10468, 1366, "903caf9aff64")],
        [(10202, 4202, "81f8462c9071"), (13280, 3170, "c14282d16274"), (11748, 5222, "b28eb73735ad")],
        [(13390, 2064, "7daa33288c11"), (17238, 2752, "68ddd7eae6d8"), (14416, 1548, "36662c5b8f9f")],
        [(11266, 1782, "f7bf5a9d985b"), (14350, 2210, "51ca79af9f71"), (13234, 2790, "b02ee40ca7e4")],
    ],
    ("fig4-2-8", "strip64"): [
        [(3910, 90, "a7c9b7a2845f"), (6960, 0, "f6978f475d61"), (5710, 210, "bb55403055c9")],
        [(10120, 12510, "5b007b264ecb"), (14710, 15420, "e5830ecd9e9b"), (10480, 12690, "fe66995949a3")],
        [(7050, 9290, "b5133d6436a9"), (10910, 11790, "bd3b159dc9d9"), (8730, 12110, "49154cb5cc85")],
        [(7224, 11270, "b9294acfa26b"), (11128, 14454, "64df783cb3d9"), (8874, 14222, "21d44f0e5dae")],
    ],
    ("fig4-3-7", "preprocessed"): [
        [(3858, 0, "4dd3368d0d7a"), (7038, 0, "802fa1b99342"), (3858, 0, "4dd3368d0d7a")],
        [(3858, 0, "4dd3368d0d7a"), (7038, 0, "802fa1b99342"), (3858, 0, "4dd3368d0d7a")],
        [(4160, 0, "c349069e69d2"), (7320, 0, "325553f50a0e"), (4160, 0, "c349069e69d2")],
        [(4002, 0, "57694a9b6a63"), (7196, 0, "5a850415fbb6"), (4002, 0, "57694a9b6a63")],
    ],
    ("fig4-3-7", "doconsider"): [
        [(3858, 0, "4dd3368d0d7a"), (7038, 0, "802fa1b99342"), (3858, 0, "4dd3368d0d7a")],
        [(3858, 0, "4dd3368d0d7a"), (7038, 0, "802fa1b99342"), (3858, 0, "4dd3368d0d7a")],
        [(4160, 0, "c349069e69d2"), (7320, 0, "325553f50a0e"), (4160, 0, "c349069e69d2")],
        [(4002, 0, "57694a9b6a63"), (7196, 0, "5a850415fbb6"), (4002, 0, "57694a9b6a63")],
    ],
    ("fig4-3-7", "linear"): [
        [(3522, 0, "b99168a0c37b"), (6102, 0, "41b128f43065"), (3522, 0, "b99168a0c37b")],
        [(3522, 0, "b99168a0c37b"), (6102, 0, "41b128f43065"), (3522, 0, "b99168a0c37b")],
        [(3824, 0, "a0b29db0938e"), (6384, 0, "5f54927a09be"), (3824, 0, "a0b29db0938e")],
        [(3666, 0, "7679b1c93e4c"), (6260, 0, "46236e30bf68"), (3666, 0, "7679b1c93e4c")],
    ],
    ("fig4-3-7", "amortized1"): [
        [(3858, 0, "4dd3368d0d7a"), (7038, 0, "802fa1b99342"), (3858, 0, "4dd3368d0d7a")],
        [(3858, 0, "4dd3368d0d7a"), (7038, 0, "802fa1b99342"), (3858, 0, "4dd3368d0d7a")],
        [(4160, 0, "c349069e69d2"), (7320, 0, "325553f50a0e"), (4160, 0, "c349069e69d2")],
        [(4002, 0, "57694a9b6a63"), (7196, 0, "5a850415fbb6"), (4002, 0, "57694a9b6a63")],
    ],
    ("fig4-3-7", "amortized3"): [
        [(10602, 0, "c61d0e0cb503"), (17742, 0, "dc9d2b7f216c"), (10602, 0, "c61d0e0cb503")],
        [(10602, 0, "c61d0e0cb503"), (17742, 0, "dc9d2b7f216c"), (10602, 0, "c61d0e0cb503")],
        [(11508, 0, "9818af0002bf"), (18588, 0, "b708708f10f3"), (11508, 0, "9818af0002bf")],
        [(11034, 0, "7304b75ae60d"), (18216, 0, "fc474a9d000c"), (11034, 0, "7304b75ae60d")],
    ],
    ("fig4-3-7", "strip7"): [
        [(8944, 0, "e0c715ddfb44"), (12706, 0, "9e805ed3bf67"), (8944, 0, "e0c715ddfb44")],
        [(8944, 0, "e0c715ddfb44"), (12706, 0, "9e805ed3bf67"), (8944, 0, "e0c715ddfb44")],
        [(13244, 0, "7c6a0924a9cb"), (17016, 0, "52bf1e7c7070"), (13244, 0, "7c6a0924a9cb")],
        [(11428, 0, "d05a20f77938"), (13920, 0, "3888a323208f"), (11428, 0, "d05a20f77938")],
    ],
    ("fig4-3-7", "strip64"): [
        [(4290, 0, "7c46fb2a9bc4"), (7590, 0, "93b316707f75"), (4290, 0, "7c46fb2a9bc4")],
        [(4290, 0, "7c46fb2a9bc4"), (7590, 0, "93b316707f75"), (4290, 0, "7c46fb2a9bc4")],
        [(4784, 0, "02ea80be5f36"), (7944, 0, "5bcf7e140a68"), (4784, 0, "02ea80be5f36")],
        [(4934, 0, "d503765f375a"), (8166, 0, "bbe41c93487c"), (4934, 0, "d503765f375a")],
    ],
    ("fig4-3-7", "doall"): [
        [(1836, 0, "4ad87bfc8c78"), (1836, 0, "4ad87bfc8c78"), (1836, 0, "4ad87bfc8c78")],
        [(1836, 0, "4ad87bfc8c78"), (1836, 0, "4ad87bfc8c78"), (1836, 0, "4ad87bfc8c78")],
        [(2124, 0, "ebd583a5f5da"), (2124, 0, "ebd583a5f5da"), (2124, 0, "ebd583a5f5da")],
        [(1992, 0, "ff3f7e039e5d"), (1992, 0, "ff3f7e039e5d"), (1992, 0, "ff3f7e039e5d")],
    ],
    ("trisolve25", "amortized3-rhs"): [
        [(1356, 162, "c8132f65c058"), (1867, 54, "aab092ccdd9b"), (1788, 810, "12eaab3c7eea")],
        [(3435, 3996, "ea481894c6ea"), (4315, 4644, "ff7e98752f77"), (3939, 4500, "2347abc8a942")],
        [(2778, 4617, "267e659cf4ff"), (3520, 5352, "d8d9468b8c28"), (3534, 6057, "ca7ade9331ac")],
        [(2130, 2232, "ba6a51e49218"), (2734, 2481, "747635ea0cfe"), (2841, 3708, "99e1cca13b47")],
    ],
}


class TestSameBehaviourAsTheOldPipelines:
    @pytest.mark.parametrize(
        "loop_name,variant", sorted(PINNED), ids=lambda v: str(v)
    )
    def test_pinned(self, loop_name, variant):
        assert _pin_row(loop_name, variant) == PINNED[loop_name, variant]

    @pytest.mark.parametrize(
        "loop_name,variant", sorted(PINNED), ids=lambda v: str(v)
    )
    def test_pinned_on_the_engine(self, loop_name, variant):
        # The same 456 cells with no phase timed by the recurrence.
        with on_engine():
            assert _pin_row(loop_name, variant) == PINNED[loop_name, variant]

    @pytest.mark.parametrize(
        "loop_name,variant", sorted(PINNED), ids=lambda v: str(v)
    )
    def test_pinned_again_through_one_warm_cache(self, loop_name, variant):
        # Twice through one cache: the second pass is served the operands
        # the first built (the default machine's two static schedules; the
        # engine's cells and the classic / doall strategies build none).
        cache = InspectorCache()
        for _ in range(2):
            assert _pin_row(loop_name, variant, cache) == PINNED[loop_name, variant]
        stats = cache.stats()
        built = 0 if variant.startswith(("classic", "doall")) else 2
        assert (stats["sim_misses"], stats["sim_hits"]) == (built, built)


class TestOnePipeline:
    """Equivalences the shared loop nest makes true by construction."""

    LOOPS = ("chain64d4", "random150", "fig4-2-8")

    @staticmethod
    def cycles(result):
        b = result.breakdown
        return (
            result.total_cycles,
            result.wait_cycles,
            (b.inspector, b.executor, b.postprocessor, b.barriers),
            [(p.name, p.span) for p in result.phases],
        )

    @pytest.mark.parametrize("kind,chunk", PIN_SCHEDULES)
    @pytest.mark.parametrize("loop_name", LOOPS)
    def test_one_instance_is_the_plain_doacross(self, loop_name, kind, chunk):
        loop = PIN_LOOPS[loop_name]()
        runner = SimulatedRunner(Machine(4))
        plain = runner.run_preprocessed(loop, schedule=kind, chunk=chunk)
        once = runner.run_amortized(loop, 1, schedule=kind, chunk=chunk)
        assert self.cycles(once) == self.cycles(plain)
        assert np.array_equal(once.y, plain.y)

    @pytest.mark.parametrize("kind,chunk", PIN_SCHEDULES)
    @pytest.mark.parametrize("loop_name", LOOPS)
    def test_one_block_is_the_plain_doacross(self, loop_name, kind, chunk):
        loop = PIN_LOOPS[loop_name]()
        runner = SimulatedRunner(Machine(4))
        plain = runner.run_preprocessed(loop, schedule=kind, chunk=chunk)
        for block in (loop.n, loop.n + 7):
            strip = runner.run_stripmined(
                loop, block, schedule_kind=kind, chunk=chunk
            )
            assert self.cycles(strip) == self.cycles(plain)
            assert strip.schedule == plain.schedule
            assert np.array_equal(strip.y, plain.y)

    @pytest.mark.parametrize("kind,chunk", PIN_SCHEDULES)
    @pytest.mark.parametrize("loop_name", ("chain64d4", "fig4-2-8"))
    def test_linear_is_the_plain_doacross_minus_the_inspector(
        self, loop_name, kind, chunk
    ):
        loop = PIN_LOOPS[loop_name]()
        runner = SimulatedRunner(Machine(4))
        plain = runner.run_preprocessed(loop, schedule=kind, chunk=chunk)
        linear = runner.run_preprocessed(
            loop, schedule=kind, chunk=chunk, linear=True
        )
        barrier = runner.machine.cost_model.barrier(4)
        assert plain.breakdown.inspector > 0
        assert linear.total_cycles == (
            plain.total_cycles - plain.breakdown.inspector - barrier
        )
        assert self.cycles(linear)[3] == self.cycles(plain)[3][1:]
        assert linear.wait_cycles == plain.wait_cycles
        assert np.array_equal(linear.y, plain.y)


class _Backwards(IterationSchedule):
    """Hands processor 0 its positions out of order — the executor
    deadlocks on a distance-1 chain."""

    def chunks_for(self, proc):
        half = self.n // 2
        return [(half, self.n), (0, half)] if proc == 0 else []


class TestFailedExecutorLeavesTheRunnerUsable:
    """A deadlocked executor must not poison the shared workspace: the
    block in flight gets its ``iter`` entries restored."""

    ENTRY_POINTS = {
        "run": lambda pd, loop: pd.run(loop),
        "run_stripmined": lambda pd, loop: pd.run_stripmined(loop, 8),
        "run_amortized": lambda pd, loop: pd.runner().run_amortized(loop, 1),
    }

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    @pytest.mark.parametrize("failing", ["run", "run_amortized"])
    def test_next_run_is_correct(self, failing, entry):
        pd = PreprocessedDoacross(processors=2)
        loop = chain_loop(40, 1)
        with pytest.raises(SimulationDeadlockError) as deadlock:
            if failing == "run":
                pd.run(loop, schedule=_Backwards(40, 2))
            else:
                pd.runner().run_amortized(
                    loop, 2, schedule=_Backwards(40, 2)
                )
        # Per-processor order is the engine's to refuse: processor 0 is
        # parked on the flag position 19 would have set.
        assert deadlock.value.waiters == {0: 19}
        assert pd.workspace.is_clean()
        result = self.ENTRY_POINTS[entry](pd, loop)
        assert np.array_equal(result.y, loop.run_sequential())

    def test_bad_strip_schedule_leaves_the_workspace_clean(self):
        runner = SimulatedRunner(Machine(4))
        loop = make_test_loop(n=60, m=1, l=4)
        with pytest.raises(ScheduleError, match="unknown schedule kind"):
            runner.run_stripmined(loop, 8, schedule_kind="bogus")
        assert runner.workspace.is_clean()
