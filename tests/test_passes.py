"""Planning tests: ``plan_loop`` is one function, ``Plan`` is typed.

1. **Same behaviour.**  ``PINNED`` holds digests of what ``plan_loop``
   decided at the commit *before* the schedule-pass framework
   (``SchedulePass`` / ``PassContext`` / ``PassPipeline`` + ten pass
   classes) became one function; no literal in it was edited afterwards.
   The parent published the elision, sanitize and record decisions under
   ``plan.artifacts[...]``; they were read from there at capture.
2. **Two bug fixes**, each failing at that commit: the symbolic verdict
   is a plan decision (``plan_loop`` + ``execute_plan`` honors ``analyze``
   on the simulated backend like ``parallelize`` does), and an
   auto-planned run reports the chunk its *resolved* backend uses.
3. **Structure**: no pass framework, no untyped artifact dict.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import pathlib
import re

import numpy as np
import pytest

import repro
from repro import InspectorCache, parallelize
from repro.backends import BACKENDS
from repro.errors import ProofError, ScheduleError
from repro.ir.accesses import ReadSlot
from repro.ir.loop import IrregularLoop
from repro.ir.subscript import AffineSubscript
from repro.passes import (
    Plan,
    PlanSpec,
    UnsupportedPlanOption,
    autotune,
    execute_plan,
    plan_loop,
)
from repro.ir.transform import plan_transform
from repro.passes.spec import OPTION_REASONS
from repro.sparse.ilu import ilu0
from repro.sparse.stencils import five_point
from repro.sparse.trisolve import lower_solve_loop
from repro.workloads.synthetic import chain_loop, random_irregular_loop
from repro.workloads.testloop import make_test_loop


def _stencil_loop(nx: int = 9, ny: int = 9):
    A = five_point(nx, ny)
    L, _upper = ilu0(A)
    rhs = np.arange(1.0, A.n_rows + 1) / A.n_rows
    return lower_solve_loop(L, rhs, name=f"stencil-trisolve-{nx}x{ny}")


@pytest.fixture
def loop():
    return make_test_loop(n=120, m=2, l=8)


# ---------------------------------------------------------------------------
# Same behaviour: the parent-pinned planning table
# ---------------------------------------------------------------------------

PIN_LOOPS = {
    "fig4-even": lambda: make_test_loop(150, 3, 8),
    "fig4-odd": lambda: make_test_loop(150, 3, 7),
    "chain": lambda: chain_loop(160, 3),
    "random": lambda: random_irregular_loop(150, seed=5),
    "stencil": _stencil_loop,
    "empty": lambda: random_irregular_loop(0),
}


def _sha(array):
    if array is None:
        return None
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def _as_parent_spelled(elision):
    """The elision decision with its certificate respelled the way the
    commit ``PINNED`` was captured at spelled it.  The per-slot record was
    a ``vectors`` entry then (``rule`` was ``test``, its proof step was
    targeted ``deptest[j]`` and rode inside the entry); the content is
    unchanged, which is what keeping the digests pins."""
    if elision is None:
        return None
    cert = elision["certificate"]
    steps = cert["proof"]["steps"]
    vectors = [
        {
            "slot": s["slot"],
            "test": s["rule"],
            "applicable": s["applicable"],
            "direction": s["direction"],
            "distance": s["distance"],
            "min_distance": s["min_distance"],
            "steps": [
                dict(step, target=f"deptest[{s['slot']}]")
                for step in steps
                if step["target"] == f"slot[{s['slot']}]"
            ],
        }
        for s in cert["slots"]
    ]
    return dict(
        elision,
        certificate={
            "loop": cert["loop"],
            "min_distance": cert["min_distance"],
            "vectors": vectors,
        },
    )


#: The auto/sanitize rejection as the commit ``PINNED`` was captured at
#: worded it (the tuner trained on telemetry then; now on wall time).
_PARENT_AUTO_SANITIZE = (
    "the sanitizer's shadow logging inflates the telemetry the tuner "
    "trains on; sanitize against a concrete backend instead"
)


def _pin_cell(loop, spec_kwargs, cache):
    """Everything one ``plan_loop`` call decided (fingerprints dropped), or
    the error it raised.  Fields removed after the capture are put back
    with the value they always held — ``PlanSpec.diagnose`` (``False``)
    and ``TunerDecision.chunk`` (the spec's) — the auto/sanitize
    rejection is worded as it was, and an auto plan's prebuilt record
    and ``inspector`` stage are left out, so the digests still pin the
    decisions."""
    try:
        plan = plan_loop(loop, PlanSpec(**spec_kwargs), cache)
    except ScheduleError as exc:
        message = str(exc).replace(
            OPTION_REASONS[("auto", "sanitize")], _PARENT_AUTO_SANITIZE
        )
        return [type(exc).__name__, message]
    described = plan.describe()
    described["spec"]["diagnose"] = False
    if "tuner" in described:
        described["tuner"]["chunk"] = spec_kwargs["chunk"]
    del described["fingerprint"]
    # Added after the capture; which body computed the levels depends on
    # the machine (a compiler or not), not on the planning decisions.
    described.pop("levels_body", None)
    # Added after the capture too; it says whether this loop object was
    # fingerprinted before, not what was decided.
    described.pop("fingerprint_body", None)
    if "tuner" in described:
        del described["tuner"]["fingerprint"]
    passes, prebuilt = list(plan.passes), plan.record is not None
    if spec_kwargs["backend"] == "auto":
        # Since the capture, an auto plan that resolves to vectorized
        # prebuilds the record after the tuner chose (TestAutoRecord);
        # spelled as the parent planned it, the digest pins the rest.
        passes = [p for p in passes if p != "inspector"]
        described["passes"] = passes
        prebuilt = False
    return [
        described,
        passes,
        _sha(plan.order),
        _sha(plan.levels.levels),
        plan.chunk,
        _as_parent_spelled(plan.distance_elision),
        plan.sanitize_pairs,
        prebuilt,
    ]


def _pin_row(loop_name, backend, chunk):
    """Digest of the 24 cells of one (loop, backend, chunk): reorder x
    analyze x validate, each planned without a cache, on a fresh cache,
    and again on that now-warm cache."""
    cells = []
    for reorder, analyze, validate in itertools.product(
        ("natural", "doconsider"), (None, "symbolic"), (None, "sanitize")
    ):
        spec_kwargs = dict(
            backend=backend,
            processors=4,
            chunk=chunk,
            reorder=reorder,
            analyze=analyze,
            validate=validate,
        )
        loop, cache = PIN_LOOPS[loop_name](), InspectorCache()
        cells.append(
            [
                _pin_cell(loop, spec_kwargs, None),
                _pin_cell(loop, spec_kwargs, cache),
                _pin_cell(loop, spec_kwargs, cache),
            ]
        )
    blob = json.dumps(cells, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


# loop -> backend -> (chunk=None row, chunk=4 row).  Captured at the
# parent commit; error cells (chunk on threaded / vectorized, sanitize on
# auto) included.
PINNED = {
    "fig4-even": {
        "simulated": ("001569c5319b", "de3c9f6fbd52"),
        "threaded": ("38a145927047", "df5d437fd59c"),
        "vectorized": ("149ab6bde562", "e3fe4558f9a7"),
        "multiproc": ("3fb0c2d7ce76", "c394cd10572d"),
        "speculative": ("c9ab065a7936", "ee7546f928d4"),
        "auto": ("79c0b9a6820e", "755b9b9c77cb"),
    },
    "fig4-odd": {
        "simulated": ("4d92d616749a", "47a88e41aad6"),
        "threaded": ("e2c9ac4b640a", "df5d437fd59c"),
        "vectorized": ("44b3efebf7b9", "e3fe4558f9a7"),
        "multiproc": ("ea71c41ae375", "4de668a18aab"),
        "speculative": ("8fad093bd5fa", "1c67e3b00636"),
        "auto": ("c0f33d0b7de3", "a1f8e959b49f"),
    },
    "chain": {
        "simulated": ("6485d8a224e1", "2490996dbec5"),
        "threaded": ("e0ebe28efa02", "df5d437fd59c"),
        "vectorized": ("337d772f215e", "e3fe4558f9a7"),
        "multiproc": ("77ae03eebe79", "85f51626fa42"),
        "speculative": ("20e678bbc1f9", "e1159b8945fb"),
        "auto": ("cffad1f542ed", "a57363ec2822"),
    },
    "random": {
        "simulated": ("68abbed52d75", "3c99b51fce64"),
        "threaded": ("f0baf2ae822c", "df5d437fd59c"),
        "vectorized": ("c6c7808b3422", "e3fe4558f9a7"),
        "multiproc": ("63ec25c516eb", "ddadd94e3230"),
        "speculative": ("9d6c452e74e1", "2ab82c39c8dc"),
        "auto": ("9bacd5a30f16", "56a7d685f4a1"),
    },
    "stencil": {
        "simulated": ("74199b046c99", "11f400e80da0"),
        "threaded": ("af3756dac74e", "df5d437fd59c"),
        "vectorized": ("4b3dfd7daf2e", "e3fe4558f9a7"),
        "multiproc": ("3194f14af8fb", "0b09f9ca15a4"),
        "speculative": ("7d8c7adc1133", "30583fd1d913"),
        "auto": ("45417c511272", "41b61852ebd0"),
    },
    "empty": {
        "simulated": ("db4b7ce3dcf3", "afaca7bdc56b"),
        "threaded": ("7be4463f4caf", "df5d437fd59c"),
        "vectorized": ("094f60e86b80", "e3fe4558f9a7"),
        "multiproc": ("397832c6de2c", "84b62a1b679c"),
        "speculative": ("fb895c7da101", "f7f430a2f23d"),
        "auto": ("9dc7ac1cca58", "54edb5306aaa"),
    },
}

# The only rows allowed to differ from the parent: (loop, "auto", chunk=4).
# Every plan in them resolves to vectorized, which has no chunk, so the
# chunk fix (TestAutoChunk) takes ``chunk`` out of ``plan.chunk`` and
# ``describe()`` — and changes nothing else in those cells.  The verdict
# fix moves no captured value: the verdict is not part of ``describe()``.
AUTO_CHUNK_FIX = {
    "fig4-even": "534538bef9f2",
    "fig4-odd": "c6308d379a44",
    "chain": "852a34bb587e",
    "random": "e4365b004a64",
    "stencil": "2fcbc6cbc353",
    "empty": "3cb68fa9520a",
}


@pytest.mark.parametrize("backend", BACKENDS + ("auto",))
@pytest.mark.parametrize("loop_name", sorted(PIN_LOOPS))
def test_planning_decisions_match_parent(loop_name, backend, monkeypatch):
    # Cache-less auto plans learn on the process-wide store; isolate it.
    monkeypatch.setattr(autotune, "_DEFAULT_STORE", InspectorCache())
    unchunked, chunked = PINNED[loop_name][backend]
    if backend == "auto":
        chunked = AUTO_CHUNK_FIX[loop_name]
    assert _pin_row(loop_name, backend, None) == unchunked
    assert _pin_row(loop_name, backend, 4) == chunked


# ---------------------------------------------------------------------------
# Plan content
# ---------------------------------------------------------------------------


class TestPlanContent:
    def test_default_plan_artifacts(self, loop):
        plan = plan_loop(loop, PlanSpec(backend="simulated"))
        assert plan.backend == "simulated"
        assert plan.passes == (
            "validate-options",
            "fingerprint",
            "level-schedule",
            "doconsider",
            "fixed-backend",
            "stripmine",
        )
        assert isinstance(plan.fingerprint, str) and len(plan.fingerprint) > 8
        assert plan.levels is not None
        assert plan.order is None  # reorder="natural"
        described = plan.describe()
        assert described["backend"] == "simulated"
        assert described["requested_backend"] == "simulated"
        assert described["n_levels"] == plan.levels.n_levels
        assert described["levels_cached"] is False  # no cache to serve it

    def test_doconsider_reorder_provides_wavefront_order(self, loop):
        plan = plan_loop(loop, PlanSpec(reorder="doconsider"))
        assert plan.order is not None
        assert np.array_equal(np.sort(plan.order), np.arange(loop.n))
        assert np.array_equal(plan.order, plan.levels.order)

    def test_vectorized_plan_prebuilds_inspector_record(self, loop):
        plan = plan_loop(loop, PlanSpec(backend="vectorized"))
        assert plan.passes[-1] == "inspector"
        assert plan.record is not None

    def test_multiproc_chunk_default_is_stripmine_formula(self, loop):
        plan = plan_loop(loop, PlanSpec(backend="multiproc", processors=4))
        assert plan.chunk == max(1, -(-loop.n // (4 * 4)))
        explicit = plan_loop(
            loop, PlanSpec(backend="multiproc", processors=4, chunk=7)
        )
        assert explicit.chunk == 7


# ---------------------------------------------------------------------------
# The spec path never ignores options (but speculation's doconsider order)
# ---------------------------------------------------------------------------


class TestNoIgnoredOptions:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_spec_path_has_no_ignored_options(self, loop, backend):
        spec = PlanSpec(backend=backend, processors=2)
        plan = plan_loop(loop, spec)
        result = execute_plan(loop, plan)
        assert "ignored_options" not in result.extras
        assert result.extras["schedule_plan"]["backend"] == backend
        assert np.array_equal(result.y, loop.run_sequential())

    #: How each backend labels a doconsider run; speculation commits in
    #: natural chunk order, so it runs naturally and says so.
    DOCONSIDER_LABELS = {
        "simulated": ("doconsider(levels=6)", None),
        "threaded": ("doconsider(levels=6)", None),
        "vectorized": ("wavefront(levels=6)", None),
        "multiproc": ("doconsider(levels=6)", None),
        "speculative": ("natural", ["order"]),
    }

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_doconsider_is_ignored_only_by_speculation(self, backend):
        loop = random_irregular_loop(200, seed=5)
        spec = PlanSpec(backend=backend, processors=2, reorder="doconsider")
        result, _ = parallelize(loop, spec=spec)
        notes = result.extras.get("ignored_options")
        assert (
            result.order_label,
            None if notes is None else [n["option"] for n in notes],
        ) == self.DOCONSIDER_LABELS[backend]
        assert np.array_equal(result.y, loop.run_sequential())

    def test_all_backends_bitwise_identical_through_pipeline(self, loop):
        reference = loop.run_sequential()
        for backend in BACKENDS:
            plan = plan_loop(loop, PlanSpec(backend=backend, processors=2))
            result = execute_plan(loop, plan)
            assert np.array_equal(result.y, reference), backend

    def test_unsupported_option_rejected_structured(self, loop):
        with pytest.raises(UnsupportedPlanOption) as exc_info:
            plan_loop(loop, PlanSpec(backend="vectorized", chunk=4))
        err = exc_info.value
        assert (err.backend, err.option, err.value) == ("vectorized", "chunk", 4)
        assert err.as_dict() == {
            "backend": "vectorized",
            "option": "chunk",
            "value": 4,
            "reason": err.reason,
        }


# ---------------------------------------------------------------------------
# Bug fix: the symbolic verdict is a plan decision
# ---------------------------------------------------------------------------


class TestVerdictIsPlanned:
    SPEC = PlanSpec(backend="simulated", processors=4, analyze="symbolic+check")

    def test_simulated_analyze_is_honored_without_parallelize(self):
        loop = make_test_loop(n=200, m=2, l=7)
        direct, _transform = parallelize(loop, spec=self.SPEC)
        planned = execute_plan(loop, plan_loop(loop, self.SPEC))
        assert planned.strategy == direct.strategy == "doall"
        assert planned.extras["verdict"] == direct.extras["verdict"]
        assert planned.extras["verdict"] == "doall-proven"

    def test_cross_check_runs_on_both_paths(self):
        base = chain_loop(48, 2)
        # Same arrays, but the declared slot claims distance 1 instead of 2.
        lying = IrregularLoop(
            n=base.n,
            y_size=base.y_size,
            write_subscript=base.write_subscript,
            reads=base.reads,
            y0=base.y0,
            name="lying-chain",
            read_slots=[ReadSlot(AffineSubscript(1, -1), start=2)],
        )
        with pytest.raises(ProofError) as direct:
            parallelize(lying, spec=self.SPEC)
        with pytest.raises(ProofError) as planned:
            execute_plan(lying, plan_loop(lying, self.SPEC))
        assert str(planned.value) == str(direct.value)


# ---------------------------------------------------------------------------
# Bug fix: an auto-planned run reports the chunk its resolved backend uses
# ---------------------------------------------------------------------------

#: The exploration order of a narrow-wavefront structure.
AUTO_ROUNDS = ("vectorized", "threaded", "multiproc", "speculative")


@pytest.fixture(scope="module")
def auto_chunk_rounds():
    loop, cache = make_test_loop(n=400, m=2, l=8), InspectorCache()
    spec = PlanSpec(backend="auto", processors=2, chunk=4)
    return [parallelize(loop, spec=spec, cache=cache)[0] for _ in AUTO_ROUNDS]


class TestAutoChunk:
    @pytest.mark.parametrize("round_", range(len(AUTO_ROUNDS)))
    def test_reported_chunk_is_the_resolved_backends(
        self, auto_chunk_rounds, round_
    ):
        result = auto_chunk_rounds[round_]
        planned = result.extras["schedule_plan"]
        assert planned["backend"] == AUTO_ROUNDS[round_]
        assert ("chunk" in planned) == (
            planned["backend"] in ("multiproc", "speculative")
        )
        assert planned["spec"]["chunk"] == 4  # the request stays visible
        assert "ignored_options" not in result.extras


class TestAutoRecord:
    """An auto plan that resolves to vectorized prebuilds its record after
    the tuner chose, as a vectorized plan does before: one record lookup
    per call, made by the plan, and none by the runner."""

    @staticmethod
    def _steady(loop, cache):
        """Measurements that make the tuner exploit ``vectorized``."""
        fingerprint = plan_loop(loop, PlanSpec(), cache).fingerprint
        for backend in autotune.AUTO_CANDIDATES:
            wall = 1e-3 if backend == "vectorized" else 1.0
            autotune.record_run_outcome(cache, fingerprint, backend, wall)

    def test_a_steady_auto_plan_carries_its_record(self):
        loop, cache = random_irregular_loop(500, max_terms=4, seed=7), InspectorCache()
        self._steady(loop, cache)
        spec = PlanSpec(backend="auto", processors=2)
        built, served = (plan_loop(loop, spec, cache) for _ in range(2))
        for plan in (built, served):
            assert plan.backend == "vectorized"
            assert plan.tuner.source == "telemetry"
            assert plan.passes[-1] == "inspector"
        assert built.record is not None and not built.record_cached
        assert served.record is built.record and served.record_cached

    def test_a_steady_auto_call_runs_no_plan_transform(self, monkeypatch):
        import repro.core.doacross as doacross

        loop, cache = random_irregular_loop(500, max_terms=4, seed=7), InspectorCache()
        spec = PlanSpec(backend="auto", processors=2)
        parallelize(loop, spec=spec, cache=cache)
        self._steady(loop, cache)
        calls = []
        real = doacross.plan_transform
        monkeypatch.setattr(
            doacross,
            "plan_transform",
            lambda *a, **k: calls.append(1) or real(*a, **k),
        )
        before = cache.stats()
        result, transform = parallelize(loop, spec=spec, cache=cache)
        after = cache.stats()
        assert calls == []
        assert transform == plan_transform(loop)
        assert result.extras["schedule_plan"]["backend"] == "vectorized"
        assert np.array_equal(result.y, loop.run_sequential())
        # One record lookup and one levels lookup, both hits.
        assert after["hits"] - before["hits"] == 1
        assert after["misses"] == before["misses"]
        assert after["levels_hits"] - before["levels_hits"] == 1

    def test_exploring_keeps_the_cache_counters(self):
        """(hits, misses, levels hits, levels misses) after each of the
        four exploring calls, as captured before the record moved into
        the plan."""
        loop, cache = random_irregular_loop(500, max_terms=4, seed=7), InspectorCache()
        spec = PlanSpec(backend="auto", processors=2)
        seen = []
        for _ in autotune.AUTO_CANDIDATES:
            parallelize(loop, spec=spec, cache=cache)
            st = cache.stats()
            seen.append(
                (st["hits"], st["misses"], st["levels_hits"], st["levels_misses"])
            )
        assert seen == [(0, 1, 0, 1), (0, 1, 1, 1), (1, 1, 2, 1), (1, 1, 3, 1)]


# ---------------------------------------------------------------------------
# Structure: one function, one typed dataclass, no framework
# ---------------------------------------------------------------------------


def test_planning_has_no_pass_framework():
    src = pathlib.Path(repro.__file__).parent
    passes = sorted((src / "passes").glob("*.py"))
    assert [path.stem for path in passes] == [
        "__init__", "autotune", "distance", "execute", "plan", "spec",
    ]
    framework = re.compile(
        r"class \w+Pass\b|PassContext|PassPipeline|PassContractError"
        r"|\.artifacts\b"
    )
    assert [
        str(path) for path in src.rglob("*.py")
        if framework.search(path.read_text())
    ] == []
    # Exactly one function assembles a Plan ...
    assert sum(path.read_text().count("Plan(") for path in passes) == 1
    # ... and a new planning decision is a new typed field, never a dict key.
    assert {f.name for f in dataclasses.fields(Plan)} == {
        "spec", "backend", "fingerprint", "fingerprint_body", "passes",
        "levels", "levels_cached", "order", "chunk", "tuner", "verdict",
        "distance_elision", "sanitize_pairs", "record", "record_cached",
    }
