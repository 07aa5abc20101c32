"""One dependence test per read slot: the battery is the classifier.

1. **Same behaviour.**  ``PINNED`` holds digests of what ``analyze_loop``
   concluded at the commit *before* the engine's own per-slot rule set
   (``_classify_slot``: same-stride / congruence / interval / monotone)
   was deleted in favour of the dependence-test battery — the verdict's
   ``(kind, distance, min_distance, write_injective, fully_classified)``
   and every slot's ``(kind, distance, active, dep_range)`` — over a
   4,320-pair affine grid, 132 closed-form pairs mixing affine, ``Mod``
   and ``FloorDiv`` subscripts, and every builtin / ``examples/`` /
   ``workloads/`` loop.  No literal in it was edited afterwards.
2. **The one intended change**: twenty n = 2 rows, named in
   ``STRONGER_N2``, where the battery proves no aliasing at all and the
   old rule set said ``unknown`` (ten: the verdict becomes the elidable
   ``doall-proven``) or ``no-true`` (ten: same verdict, stronger slot).
3. **Structure**: ``src/`` holds one per-slot rule set.
"""

from __future__ import annotations

import hashlib
import inspect
import itertools
import pathlib
import re

import numpy as np
import pytest

from repro.analysis import (
    analyze_loop,
    build_symbolic_record,
    cross_check,
    engine,
    records_equal,
)
from repro.backends.cache import build_inspector_record
from repro.backends.vectorized import VectorizedRunner
from repro.ir.subscript import Const, Index
from repro.lint.cli import collect_loops
from repro.workloads.synthetic import affine_loop
from repro.workloads.testloop import make_test_loop

REPO = pathlib.Path(__file__).resolve().parents[1]
SRC = REPO / "src" / "repro"

# ---------------------------------------------------------------------------
# The capture
# ---------------------------------------------------------------------------

GRID_N = (2, 7, 30, 60)
STRIDES = (-3, -2, -1, 1, 2, 3)
WRITE_OFFSETS = (-2, 0, 3)
READ_OFFSETS = (-6, -4, -3, -1, 0, 1, 2, 3, 5, 6)

_I = Index()
MIXED_N = 24
# Injective on 0..23, so the loop constructor accepts them as writes.
MIXED_WRITES = {
    "i": _I,
    "2i+1": _I * 2 + 1,
    "3i": _I * 3,
    "40-i": _I * -1 + 40,
    "i%32": _I % 32,
    "2(i%32)+1": (_I % 32) * 2 + 1,
    "(2i)//2": (_I * 2) // 2,
    "(4i+2)//2": (_I * 4 + 2) // 2,
    "i+8(i//8)": _I + (_I // 8) * 8,
    "i//1": _I // 1,
    "2i+i%2": _I * 2 + _I % 2,
}
MIXED_READS = {
    "i-3": _I + -3,
    "i+3": _I + 3,
    "2i-21": _I * 2 + -21,
    "20-i": _I * -1 + 20,
    "5": Const(5),
    "i%8": _I % 8,
    "2(i%8)": (_I % 8) * 2,
    "(i%8)+40": _I % 8 + 40,
    "i//2": _I // 2,
    "i%32": _I % 32,
    "2(i//2)": (_I // 2) * 2,
    "2(i%32)+1": (_I % 32) * 2 + 1,
}
SPECS = (
    "figure4",
    "figure4:n=64,m=2,l=7",
    "figure4:n=2000,m=5,l=7",
    "figure4:n=2000,m=5,l=8",
    "chain",
    "chain:n=500,d=4",
    "random",
    "examples/",
    "workloads/",
)


def row(loop) -> tuple:
    v = analyze_loop(loop)
    return (
        (v.kind, v.distance, v.min_distance, v.write_injective,
         v.fully_classified),
        tuple(
            (s.kind, s.distance, tuple(s.active), s.dep_range)
            for s in v.slots
        ),
    )


def digest(rows) -> str:
    return hashlib.sha256(repr(rows).encode()).hexdigest()[:12]


def affine_rows(n: int, cw: int) -> dict:
    return {
        (dw, cr, dr): row(affine_loop(n, (cw, dw), [(cr, dr)]))
        for dw, cr, dr in itertools.product(
            WRITE_OFFSETS, STRIDES, READ_OFFSETS
        )
    }


def mixed_rows(write: str) -> dict:
    return {
        read: row(
            affine_loop(MIXED_N, MIXED_WRITES[write], [expr], y_extra=8)
        )
        for read, expr in MIXED_READS.items()
    }


# Captured at the parent commit.  affine: one digest per (n, write stride)
# over 180 (write offset, read stride, read offset) rows; mixed: one per
# write form over the 12 read forms; collected: one per loop.
PINNED = {
    "affine": {
        "n=2,cw=-3": "c8d87d6270d3",
        "n=2,cw=-2": "0e5a5f31d131",
        "n=2,cw=-1": "0d3b0fb51835",
        "n=2,cw=1": "f1763647e0b9",
        "n=2,cw=2": "0d24a7125107",
        "n=2,cw=3": "2c5451f42e4b",
        "n=7,cw=-3": "bbf302b67351",
        "n=7,cw=-2": "3cf522e21f0b",
        "n=7,cw=-1": "8903ff98d8d6",
        "n=7,cw=1": "4f4df961df41",
        "n=7,cw=2": "1f1f3323530a",
        "n=7,cw=3": "6781e70217c5",
        "n=30,cw=-3": "a5b161174b20",
        "n=30,cw=-2": "76b338bcdddd",
        "n=30,cw=-1": "1a6d42a895b7",
        "n=30,cw=1": "2b0e9b2d66a1",
        "n=30,cw=2": "ecc31a931c65",
        "n=30,cw=3": "beb43feb9509",
        "n=60,cw=-3": "a76c4b715607",
        "n=60,cw=-2": "cbd1af4d1b29",
        "n=60,cw=-1": "8795c3bb0bc8",
        "n=60,cw=1": "267e724f8bd0",
        "n=60,cw=2": "47999d486fd9",
        "n=60,cw=3": "edd84624fcbc",
    },
    "mixed": {
        "i": "7f3a3401d982",
        "2i+1": "34ed9ab8c590",
        "3i": "4b4a0984bb0e",
        "40-i": "2e1c0da60cca",
        "i%32": "7f3a3401d982",
        "2(i%32)+1": "34ed9ab8c590",
        "(2i)//2": "7f3a3401d982",
        "(4i+2)//2": "34ed9ab8c590",
        "i+8(i//8)": "2a9ad135e4af",
        "i//1": "7f3a3401d982",
        "2i+i%2": "41c5ffa1129e",
    },
    "collected": {
        "builtin:figure4::figure4(N=200,M=2,L=8)": "8bfcce98af37",
        "builtin:figure4:n=64,m=2,l=7::figure4(N=64,M=2,L=7)": "2f8b92a39c48",
        "builtin:figure4:n=2000,m=5,l=7::figure4(N=2000,M=5,L=7)": "7908c04fa8d8",
        "builtin:figure4:n=2000,m=5,l=8::figure4(N=2000,M=5,L=8)": "3d60bfcf94ac",
        "builtin:chain::chain(n=200,d=1)": "bfcf1d592ea6",
        "builtin:chain:n=500,d=4::chain(n=500,d=4)": "1157d58426e7",
        "builtin:random::random(n=200,seed=0)": "f6ac0bc97861",
        "examples/quickstart.py::quickstart-figure4": "045d48f232a2",
        "examples/quickstart.py::quickstart-independent": "159ec4d81a81",
        "examples/static_analysis.py::affine-write": "1aa1a7e78a79",
        "examples/static_analysis.py::independent": "c0dae9604d86",
        "examples/static_analysis.py::irregular": "f6ac0bc97861",
        "workloads/proven_affine.py::chain-d3": "ce955e2cd9b0",
        "workloads/proven_affine.py::figure4-dep": "963fa160ca75",
        "workloads/proven_affine.py::figure4-indep": "d934f3847892",
        "workloads/proven_affine.py::stride-disjoint": "5dec4cae7bdb",
        "workloads/proven_affine.py::stride-chain": "05f895d4a01d",
        "workloads/symbolic_frontier.py::halving-read": "7b3a0b4b2da4",
        "workloads/symbolic_frontier.py::mod-stagger": "391f9c9bde85",
        "workloads/symbolic_frontier.py::opaque-random": "f6ac0bc97861",
    },
}

# The n = 2 rows that differ from the parent, by write stride:
# (write offset, read stride, read offset) -> the slot kind the parent's
# rule set gave.  With two iterations and unequal strides the relaxed
# distance function admits no integer over the feasible readers, so the
# battery proves direction "-"; the parent's engine only got as far as
# "the read stays on the later side" (no-true) or nothing (unknown).
STRONGER_N2 = {
    -3: {(-2, -2, -4): "no-true", (-2, -2, -1): "unknown",
         (0, -2, 1): "unknown", (3, -2, 1): "no-true"},
    -2: {(-2, -3, -3): "no-true", (-2, -3, 0): "unknown",
         (0, -3, -1): "no-true", (0, -3, 2): "unknown",
         (3, -3, 2): "no-true", (3, -3, 5): "unknown"},
    2: {(-2, 3, -4): "unknown", (-2, 3, -1): "no-true",
        (0, 3, 1): "no-true", (3, 3, 1): "unknown"},
    3: {(-2, 2, -3): "unknown", (-2, 2, 0): "no-true",
        (0, 2, -1): "unknown", (0, 2, 2): "no-true",
        (3, 2, 2): "unknown", (3, 2, 5): "no-true"},
}
_DOALL = ("doall-proven", None, None, True, True)
PARENT_ROW = {
    "unknown": (
        ("injective-write", None, None, True, False),
        (("unknown", None, (0, 2), None),),
    ),
    "no-true": (_DOALL, (("no-true", None, (0, 2), None),)),
}
STRONGER_ROW = (_DOALL, (("none", None, (0, 2), None),))
NAMED_ROWS = [
    (cw, *key) for cw, rows in STRONGER_N2.items() for key in rows
]


@pytest.mark.parametrize("n,cw", itertools.product(GRID_N, STRIDES))
def test_affine_grid_matches_parent(n, cw):
    rows = affine_rows(n, cw)
    assert len(rows) == 180
    if n == 2:
        for key, parent_kind in STRONGER_N2.get(cw, {}).items():
            assert rows[key] == STRONGER_ROW, (cw, key)
            rows[key] = PARENT_ROW[parent_kind]
    assert digest(sorted(rows.items())) == PINNED["affine"][f"n={n},cw={cw}"]


@pytest.mark.parametrize("write", MIXED_WRITES)
def test_mixed_closed_forms_match_parent(write):
    rows = mixed_rows(write)
    assert digest(sorted(rows.items())) == PINNED["mixed"][write]


def test_collected_loops_match_parent(monkeypatch):
    monkeypatch.chdir(REPO)  # the relative targets are part of the keys
    rows = {
        f"{source}::{name}": digest(row(loop))
        for source, name, loop in collect_loops(list(SPECS))
    }
    assert rows == PINNED["collected"]


def test_the_capture_has_the_advertised_size():
    assert len(GRID_N) * len(STRIDES) * 180 == 4320
    assert len(MIXED_WRITES) * len(MIXED_READS) == 132
    assert len(NAMED_ROWS) == 20
    kinds = [k for rows in STRONGER_N2.values() for k in rows.values()]
    assert kinds.count("unknown") == kinds.count("no-true") == 10


@pytest.mark.parametrize("cw,dw,cr,dr", NAMED_ROWS)
def test_stronger_n2_rows_are_sound(cw, dw, cr, dr):
    loop = affine_loop(2, (cw, dw), [(cr, dr)])
    verdict = analyze_loop(loop)
    assert verdict.elidable and verdict.kind == "doall-proven"
    (slot,) = verdict.slots
    assert (slot.kind, slot.direction) == ("none", "-")
    # Brute force: no (writer, reader) pair aliases at all.
    writes = loop.write_subscript.materialize(2)
    reads = loop.read_slots[0].subscript.materialize(2)
    assert not set(writes.tolist()) & set(reads.tolist())
    assert cross_check(loop, verdict, strict=True).ok
    assert records_equal(
        build_symbolic_record(loop), build_inspector_record(loop)
    )
    result = VectorizedRunner(analyze="symbolic+check").run(loop)
    assert result.extras["inspector_elided"] is True
    assert np.array_equal(result.y, loop.run_sequential())


# ---------------------------------------------------------------------------
# Structure: one per-slot rule set
# ---------------------------------------------------------------------------


def _src_hits(pattern: str) -> dict[str, list[str]]:
    hits = {}
    for path in sorted(SRC.rglob("*.py")):
        found = re.findall(pattern, path.read_text())
        if found:
            hits[str(path.relative_to(SRC))] = found
    return hits


def test_the_second_rule_set_and_the_vectors_record_are_gone():
    gone = (
        r"_classify_slot|DependenceVector|BatteryResult|run_battery"
        r"|\.vectors\b|same-stride-distance|congruence-disjoint"
        r"|interval-disjoint|monotone-no-true|inactive-slot"
    )
    assert _src_hits(gone) == {}
    assert not (SRC / "analysis" / "deptest").exists()  # one module now


def test_per_slot_rule_ids_live_in_one_module():
    assert set(_src_hits(r'"deptest-[a-z-]+"')) == {"analysis/deptest.py"}


def test_analyze_loop_calls_exactly_one_per_slot_function():
    source = inspect.getsource(engine.analyze_loop)
    assert source.count("classify_slot(") == 1
    # The engine itself never looks at a read subscript.
    assert ".subscript" not in inspect.getsource(engine)


@pytest.mark.parametrize("m", [1, 2, 5])
def test_a_proof_has_one_step_per_slot_plus_two(m):
    for ell in (7, 8):
        verdict = analyze_loop(make_test_loop(n=2000, m=m, l=ell))
        assert len(verdict.slots) == m
        targets = [step.target for step in verdict.proof.steps]
        assert targets == (
            ["write"] + [f"slot[{j}]" for j in range(m)] + ["loop"]
        )
