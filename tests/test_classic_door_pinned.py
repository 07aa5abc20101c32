"""The classic door's doconsider and amortized runs, pinned.

``PINNED`` was captured at the commit before ``reorder="doconsider"`` and
``run_amortized`` replaced the two wrapper classes that ran these calls
(a doconsider wrapper around a ``PreprocessedDoacross``, and an amortizing
one); no literal in it was edited afterwards.  A cell is ``(total_cycles,
wait_cycles, breakdown, digest of every phase's ProcessorStats,
order_label, extras, digest of y's bytes)``; the extras are those of
``EXTRAS`` the run reports.  The doconsider runs' ``strategy`` is the one
intended difference: it is now the variant that ran, as on a planned run.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.core.doacross import PreprocessedDoacross
from repro.sparse.ilu import ilu0
from repro.sparse.spe import paper_problems
from repro.sparse.trisolve import lower_solve_loop
from repro.workloads.synthetic import chain_loop, random_irregular_loop
from repro.workloads.testloop import make_test_loop

EXTRAS = (
    "n_levels",
    "max_wavefront",
    "reorder_cycles_modeled",
    "instances",
    "inspector_runs",
)


def table1_loop(name):
    """A reduced Table-1 forward substitution, as ``table1 --small`` builds it."""
    A = paper_problems(small=True)[name]
    L, _ = ilu0(A)
    rhs = np.arange(1.0, A.n_rows + 1) / A.n_rows
    return lower_solve_loop(L, rhs, name=name)


LOOPS = {
    **{
        name: (lambda name=name: table1_loop(name))
        for name in ("SPE2", "SPE5", "5-PT", "7-PT", "9-PT")
    },
    "chain60d3": lambda: chain_loop(60, 3),
    **{
        f"random90s{s}": (lambda s=s: random_irregular_loop(90, seed=s))
        for s in range(3)
    },
    "fig4-400-2-8": lambda: make_test_loop(400, 2, 8),
}


def rhs_sequence(loop):
    rng = np.random.default_rng(7)
    return [rng.normal(size=loop.n) for _ in range(3)]


#: call name -> run on one loop; doconsider on a runner of P processors,
#: the amortized calls on one 8-processor runner.
CALLS = {
    **{
        f"doconsider-P{p}": (
            lambda loop, p=p: PreprocessedDoacross(processors=p).run(
                loop, reorder="doconsider"
            )
        )
        for p in (1, 8, 16)
    },
    **{
        f"amortized{k}{suffix}": (
            lambda loop, k=k, reorder=reorder: PreprocessedDoacross(
                processors=8
            ).run_amortized(loop, k, reorder=reorder)
        )
        for k in (1, 3)
        for suffix, reorder in (("", "natural"), ("-levels", "doconsider"))
    },
    "amortized3-rhs": lambda loop: PreprocessedDoacross(
        processors=8
    ).run_amortized(loop, 3, rhs_sequence=rhs_sequence(loop)),
}


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:12]


def cell(result):
    b = result.breakdown
    stats = repr(
        [
            (phase.name, [dataclasses.astuple(p) for p in phase.processors])
            for phase in result.phases
        ]
    )
    return (
        result.total_cycles,
        result.wait_cycles,
        (b.inspector, b.executor, b.postprocessor, b.barriers),
        digest(stats.encode()),
        result.order_label,
        tuple((k, result.extras[k]) for k in EXTRAS if k in result.extras),
        digest(np.ascontiguousarray(result.y).tobytes()),
    )


PINNED = {
    ("5-PT", "amortized1"): (1485, 1380, (72, 1113, 144, 156), "310841f76305", "natural", (("instances", 1), ("inspector_runs", 1)), "918b067800b7"),
    ("5-PT", "amortized1-levels"): (1377, 489, (72, 1005, 144, 156), "cd8303314283", "doconsider(levels=23)", (("instances", 1), ("inspector_runs", 1)), "918b067800b7"),
    ("5-PT", "amortized3"): (4135, 4140, (72, 3339, 360, 364), "0aa72fd9f52e", "natural", (("instances", 3), ("inspector_runs", 1)), "918b067800b7"),
    ("5-PT", "amortized3-levels"): (3811, 1467, (72, 3015, 360, 364), "2a1f40fe47e5", "doconsider(levels=23)", (("instances", 3), ("inspector_runs", 1)), "918b067800b7"),
    ("5-PT", "amortized3-rhs"): (4135, 4140, (72, 3339, 360, 364), "0aa72fd9f52e", "natural", (("instances", 3), ("inspector_runs", 1)), "c31c96889cd1"),
    ("5-PT", "doconsider-P1"): (9072, 0, (576, 7272, 1152, 72), "27a77a2a2a63", "doconsider(levels=23)", (("n_levels", 23), ("max_wavefront", 12), ("reorder_cycles_modeled", 3840)), "918b067800b7"),
    ("5-PT", "doconsider-P16"): (1023, 2082, (36, 663, 72, 252), "80458bcd800b", "doconsider(levels=23)", (("n_levels", 23), ("max_wavefront", 12), ("reorder_cycles_modeled", 2268)), "918b067800b7"),
    ("5-PT", "doconsider-P8"): (1377, 489, (72, 1005, 144, 156), "cd8303314283", "doconsider(levels=23)", (("n_levels", 23), ("max_wavefront", 12), ("reorder_cycles_modeled", 1700)), "918b067800b7"),
    ("7-PT", "amortized1"): (2445, 1506, (108, 1965, 216, 156), "05cb6c5d1e70", "natural", (("instances", 1), ("inspector_runs", 1)), "42c0b14c747b"),
    ("7-PT", "amortized1-levels"): (2313, 246, (108, 1833, 216, 156), "4fa20d29ef95", "doconsider(levels=16)", (("instances", 1), ("inspector_runs", 1)), "42c0b14c747b"),
    ("7-PT", "amortized3"): (6907, 4518, (108, 5895, 540, 364), "eb9b65e2208a", "natural", (("instances", 3), ("inspector_runs", 1)), "42c0b14c747b"),
    ("7-PT", "amortized3-levels"): (6511, 738, (108, 5499, 540, 364), "e983e493de3e", "doconsider(levels=16)", (("instances", 3), ("inspector_runs", 1)), "42c0b14c747b"),
    ("7-PT", "amortized3-rhs"): (6907, 4518, (108, 5895, 540, 364), "eb9b65e2208a", "natural", (("instances", 3), ("inspector_runs", 1)), "73e9259a3d26"),
    ("7-PT", "doconsider-P1"): (16596, 0, (864, 13932, 1728, 72), "7ec7450025bf", "doconsider(levels=16)", (("n_levels", 16), ("max_wavefront", 27), ("reorder_cycles_modeled", 6456)), "42c0b14c747b"),
    ("7-PT", "doconsider-P16"): (1428, 780, (56, 1008, 112, 252), "779638398fba", "doconsider(levels=16)", (("n_levels", 16), ("max_wavefront", 27), ("reorder_cycles_modeled", 1840)), "42c0b14c747b"),
    ("7-PT", "doconsider-P8"): (2313, 246, (108, 1833, 216, 156), "4fa20d29ef95", "doconsider(levels=16)", (("n_levels", 16), ("max_wavefront", 27), ("reorder_cycles_modeled", 1668)), "42c0b14c747b"),
    ("9-PT", "amortized1"): (2091, 1026, (72, 1719, 144, 156), "2185ba8eee92", "natural", (("instances", 1), ("inspector_runs", 1)), "b7777b0fa75f"),
    ("9-PT", "amortized1-levels"): (2118, 1200, (72, 1746, 144, 156), "3638113974a1", "doconsider(levels=34)", (("instances", 1), ("inspector_runs", 1)), "b7777b0fa75f"),
    ("9-PT", "amortized3"): (5953, 3078, (72, 5157, 360, 364), "7834279fbdab", "natural", (("instances", 3), ("inspector_runs", 1)), "b7777b0fa75f"),
    ("9-PT", "amortized3-levels"): (6034, 3600, (72, 5238, 360, 364), "28735ca75e78", "doconsider(levels=34)", (("instances", 3), ("inspector_runs", 1)), "b7777b0fa75f"),
    ("9-PT", "amortized3-rhs"): (5953, 3078, (72, 5157, 360, 364), "7834279fbdab", "natural", (("instances", 3), ("inspector_runs", 1)), "4dad68e91fdd"),
    ("9-PT", "doconsider-P1"): (14154, 0, (576, 12354, 1152, 72), "4945f4376c99", "doconsider(levels=34)", (("n_levels", 34), ("max_wavefront", 6), ("reorder_cycles_modeled", 6040)), "b7777b0fa75f"),
    ("9-PT", "doconsider-P16"): (1341, 2001, (36, 981, 72, 252), "bc9a9c6b1a34", "doconsider(levels=34)", (("n_levels", 34), ("max_wavefront", 6), ("reorder_cycles_modeled", 3324)), "b7777b0fa75f"),
    ("9-PT", "doconsider-P8"): (2118, 1200, (72, 1746, 144, 156), "3638113974a1", "doconsider(levels=34)", (("n_levels", 34), ("max_wavefront", 6), ("reorder_cycles_modeled", 2540)), "b7777b0fa75f"),
    ("SPE2", "amortized1"): (4737, 1743, (56, 4413, 112, 156), "32a29aec8dd4", "natural", (("instances", 1), ("inspector_runs", 1)), "9fe56a3ce7ce"),
    ("SPE2", "amortized1-levels"): (4650, 939, (56, 4326, 112, 156), "8a1ec75a127e", "doconsider(levels=36)", (("instances", 1), ("inspector_runs", 1)), "9fe56a3ce7ce"),
    ("SPE2", "amortized3"): (13939, 5229, (56, 13239, 280, 364), "d9eff31a11ea", "natural", (("instances", 3), ("inspector_runs", 1)), "9fe56a3ce7ce"),
    ("SPE2", "amortized3-levels"): (13678, 2817, (56, 12978, 280, 364), "48720b8d5b49", "doconsider(levels=36)", (("instances", 3), ("inspector_runs", 1)), "9fe56a3ce7ce"),
    ("SPE2", "amortized3-rhs"): (13939, 5229, (56, 13239, 280, 364), "d9eff31a11ea", "natural", (("instances", 3), ("inspector_runs", 1)), "34ed7771eb61"),
    ("SPE2", "doconsider-P1"): (33282, 0, (432, 31914, 864, 72), "258e612e1a78", "doconsider(levels=36)", (("n_levels", 36), ("max_wavefront", 5), ("reorder_cycles_modeled", 13416)), "9fe56a3ce7ce"),
    ("SPE2", "doconsider-P16"): (2718, 1839, (28, 2382, 56, 252), "d7e331933f3b", "doconsider(levels=36)", (("n_levels", 36), ("max_wavefront", 5), ("reorder_cycles_modeled", 3972)), "9fe56a3ce7ce"),
    ("SPE2", "doconsider-P8"): (4650, 939, (56, 4326, 112, 156), "8a1ec75a127e", "doconsider(levels=36)", (("n_levels", 36), ("max_wavefront", 5), ("reorder_cycles_modeled", 3556)), "9fe56a3ce7ce"),
    ("SPE5", "amortized1"): (3096, 1854, (60, 2760, 120, 156), "5f8d7df0ef56", "natural", (("instances", 1), ("inspector_runs", 1)), "8b4673ed6d4b"),
    ("SPE5", "amortized1-levels"): (3030, 990, (60, 2694, 120, 156), "35ac17f570d8", "doconsider(levels=27)", (("instances", 1), ("inspector_runs", 1)), "8b4673ed6d4b"),
    ("SPE5", "amortized3"): (9004, 5562, (60, 8280, 300, 364), "ad8843eb0e39", "natural", (("instances", 3), ("inspector_runs", 1)), "8b4673ed6d4b"),
    ("SPE5", "amortized3-levels"): (8806, 2970, (60, 8082, 300, 364), "5067d4f5d8b3", "doconsider(levels=27)", (("instances", 3), ("inspector_runs", 1)), "8b4673ed6d4b"),
    ("SPE5", "amortized3-rhs"): (9004, 5562, (60, 8280, 300, 364), "ad8843eb0e39", "natural", (("instances", 3), ("inspector_runs", 1)), "22f4a4417368"),
    ("SPE5", "doconsider-P1"): (20970, 0, (480, 19458, 960, 72), "2e528ad5bb19", "doconsider(levels=27)", (("n_levels", 27), ("max_wavefront", 8), ("reorder_cycles_modeled", 8496)), "8b4673ed6d4b"),
    ("SPE5", "doconsider-P16"): (1863, 2280, (32, 1515, 64, 252), "5073ff53fd0d", "doconsider(levels=27)", (("n_levels", 27), ("max_wavefront", 8), ("reorder_cycles_modeled", 2900)), "8b4673ed6d4b"),
    ("SPE5", "doconsider-P8"): (3030, 990, (60, 2694, 120, 156), "35ac17f570d8", "doconsider(levels=27)", (("n_levels", 27), ("max_wavefront", 8), ("reorder_cycles_modeled", 2496)), "8b4673ed6d4b"),
    ("chain60d3", "amortized1"): (412, 20, (32, 160, 64, 156), "2ea96f6ff617", "natural", (("instances", 1), ("inspector_runs", 1)), "da998d0183f8"),
    ("chain60d3", "amortized1-levels"): (412, 20, (32, 160, 64, 156), "2ea96f6ff617", "doconsider(levels=20)", (("instances", 1), ("inspector_runs", 1)), "da998d0183f8"),
    ("chain60d3", "amortized3"): (1036, 60, (32, 480, 160, 364), "73477b085248", "natural", (("instances", 3), ("inspector_runs", 1)), "a0bd71943868"),
    ("chain60d3", "amortized3-levels"): (1036, 60, (32, 480, 160, 364), "73477b085248", "doconsider(levels=20)", (("instances", 3), ("inspector_runs", 1)), "a0bd71943868"),
    ("chain60d3", "doconsider-P1"): (1956, 0, (240, 1164, 480, 72), "e805f4b7a295", "doconsider(levels=20)", (("n_levels", 20), ("max_wavefront", 3), ("reorder_cycles_modeled", 1440)), "da998d0183f8"),
    ("chain60d3", "doconsider-P16"): (428, 674, (16, 128, 32, 252), "f456cee5bee2", "doconsider(levels=20)", (("n_levels", 20), ("max_wavefront", 3), ("reorder_cycles_modeled", 1876)), "da998d0183f8"),
    ("chain60d3", "doconsider-P8"): (412, 20, (32, 160, 64, 156), "2ea96f6ff617", "doconsider(levels=20)", (("n_levels", 20), ("max_wavefront", 3), ("reorder_cycles_modeled", 1232)), "da998d0183f8"),
    ("fig4-400-2-8", "amortized1"): (3178, 6388, (200, 2422, 400, 156), "b57bd1b8af80", "natural", (("instances", 1), ("inspector_runs", 1)), "1213bd1ae4f4"),
    ("fig4-400-2-8", "amortized1-levels"): (3178, 6388, (200, 2422, 400, 156), "b57bd1b8af80", "doconsider(levels=200)", (("instances", 1), ("inspector_runs", 1)), "1213bd1ae4f4"),
    ("fig4-400-2-8", "amortized3"): (8830, 19164, (200, 7266, 1000, 364), "8fcf974b5254", "natural", (("instances", 3), ("inspector_runs", 1)), "780ea64ffc09"),
    ("fig4-400-2-8", "amortized3-levels"): (8830, 19164, (200, 7266, 1000, 364), "8fcf974b5254", "doconsider(levels=200)", (("instances", 3), ("inspector_runs", 1)), "780ea64ffc09"),
    ("fig4-400-2-8", "doconsider-P1"): (17662, 0, (1600, 12790, 3200, 72), "a3ed1f69d91e", "doconsider(levels=200)", (("n_levels", 200), ("max_wavefront", 2), ("reorder_cycles_modeled", 14384)), "1213bd1ae4f4"),
    ("fig4-400-2-8", "doconsider-P16"): (2974, 25182, (100, 2422, 200, 252), "d436f998795e", "doconsider(levels=200)", (("n_levels", 200), ("max_wavefront", 2), ("reorder_cycles_modeled", 17984)), "1213bd1ae4f4"),
    ("fig4-400-2-8", "doconsider-P8"): (3178, 6388, (200, 2422, 400, 156), "b57bd1b8af80", "doconsider(levels=200)", (("n_levels", 200), ("max_wavefront", 2), ("reorder_cycles_modeled", 11852)), "1213bd1ae4f4"),
    ("random90s0", "amortized1"): (770, 208, (48, 470, 96, 156), "cf642d90d23f", "natural", (("instances", 1), ("inspector_runs", 1)), "c410b59f6652"),
    ("random90s0", "amortized1-levels"): (724, 6, (48, 424, 96, 156), "8565ef67b73c", "doconsider(levels=5)", (("instances", 1), ("inspector_runs", 1)), "c410b59f6652"),
    ("random90s0", "amortized3"): (2062, 624, (48, 1410, 240, 364), "afb4a5751334", "natural", (("instances", 3), ("inspector_runs", 1)), "26b2a0d70a54"),
    ("random90s0", "amortized3-levels"): (1924, 18, (48, 1272, 240, 364), "d6bec03d9ddb", "doconsider(levels=5)", (("instances", 3), ("inspector_runs", 1)), "26b2a0d70a54"),
    ("random90s0", "doconsider-P1"): (4072, 0, (360, 2920, 720, 72), "40b00ea2fb25", "doconsider(levels=5)", (("n_levels", 5), ("max_wavefront", 41), ("reorder_cycles_modeled", 1560)), "c410b59f6652"),
    ("random90s0", "doconsider-P16"): (562, 182, (24, 238, 48, 252), "d64c83cea30b", "doconsider(levels=5)", (("n_levels", 5), ("max_wavefront", 41), ("reorder_cycles_modeled", 604)), "c410b59f6652"),
    ("random90s0", "doconsider-P8"): (724, 6, (48, 424, 96, 156), "8565ef67b73c", "doconsider(levels=5)", (("n_levels", 5), ("max_wavefront", 41), ("reorder_cycles_modeled", 504)), "c410b59f6652"),
    ("random90s1", "amortized1"): (750, 158, (48, 450, 96, 156), "261d8e1208cd", "natural", (("instances", 1), ("inspector_runs", 1)), "ff451fe909d5"),
    ("random90s1", "amortized1-levels"): (704, 158, (48, 404, 96, 156), "09f001f0738e", "doconsider(levels=5)", (("instances", 1), ("inspector_runs", 1)), "ff451fe909d5"),
    ("random90s1", "amortized3"): (2002, 474, (48, 1350, 240, 364), "06ff410e6f11", "natural", (("instances", 3), ("inspector_runs", 1)), "fa8377e62a55"),
    ("random90s1", "amortized3-levels"): (1864, 474, (48, 1212, 240, 364), "eaf550d276c4", "doconsider(levels=5)", (("instances", 3), ("inspector_runs", 1)), "fa8377e62a55"),
    ("random90s1", "doconsider-P1"): (3924, 0, (360, 2772, 720, 72), "fb9cfcdd6eb3", "doconsider(levels=5)", (("n_levels", 5), ("max_wavefront", 44), ("reorder_cycles_modeled", 1464)), "ff451fe909d5"),
    ("random90s1", "doconsider-P16"): (570, 192, (24, 246, 48, 252), "df66aa247cef", "doconsider(levels=5)", (("n_levels", 5), ("max_wavefront", 44), ("reorder_cycles_modeled", 600)), "ff451fe909d5"),
    ("random90s1", "doconsider-P8"): (704, 158, (48, 404, 96, 156), "09f001f0738e", "doconsider(levels=5)", (("n_levels", 5), ("max_wavefront", 44), ("reorder_cycles_modeled", 488)), "ff451fe909d5"),
    ("random90s2", "amortized1"): (718, 302, (48, 418, 96, 156), "e949dbc3a3b3", "natural", (("instances", 1), ("inspector_runs", 1)), "ba64fe8cd1fe"),
    ("random90s2", "amortized1-levels"): (712, 28, (48, 412, 96, 156), "cd921575fdfb", "doconsider(levels=4)", (("instances", 1), ("inspector_runs", 1)), "ba64fe8cd1fe"),
    ("random90s2", "amortized3"): (1906, 906, (48, 1254, 240, 364), "346238a1d7de", "natural", (("instances", 3), ("inspector_runs", 1)), "23d97c0c8956"),
    ("random90s2", "amortized3-levels"): (1888, 84, (48, 1236, 240, 364), "72b069c74665", "doconsider(levels=4)", (("instances", 3), ("inspector_runs", 1)), "23d97c0c8956"),
    ("random90s2", "doconsider-P1"): (3850, 0, (360, 2698, 720, 72), "9d1c9f2a0a2d", "doconsider(levels=4)", (("n_levels", 4), ("max_wavefront", 48), ("reorder_cycles_modeled", 1528)), "ba64fe8cd1fe"),
    ("random90s2", "doconsider-P16"): (584, 140, (24, 260, 48, 252), "35609d0b192b", "doconsider(levels=4)", (("n_levels", 4), ("max_wavefront", 48), ("reorder_cycles_modeled", 516)), "ba64fe8cd1fe"),
    ("random90s2", "doconsider-P8"): (712, 28, (48, 412, 96, 156), "cd921575fdfb", "doconsider(levels=4)", (("n_levels", 4), ("max_wavefront", 48), ("reorder_cycles_modeled", 444)), "ba64fe8cd1fe"),
}


@pytest.mark.parametrize("loop_name,call", sorted(PINNED), ids=lambda v: str(v))
def test_pinned(loop_name, call):
    result = CALLS[call](LOOPS[loop_name]())
    assert cell(result) == PINNED[loop_name, call]
    if call.startswith("doconsider"):
        assert result.strategy == "preprocessed-doacross"


def test_every_call_is_pinned():
    # The rhs call runs on the external-init (Table-1) loops only.
    external = {"SPE2", "SPE5", "5-PT", "7-PT", "9-PT"}
    assert set(PINNED) == {
        (loop, call)
        for loop in LOOPS
        for call in CALLS
        if call != "amortized3-rhs" or loop in external
    }
