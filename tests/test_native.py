"""The compiled ``run_span``, ``sequential`` and ``max_plus`` bodies
around the C itself: build, cache, load, fall back — and how a run or a
plan says which body it used; ``native.sequential`` against the oracle,
and the gathered walk layout on both bodies.

The walk's arithmetic and bounds checks are ``tests/test_kernel.py``'s,
the sweep's ``tests/test_levels.py``'s, ``tests/test_critical_path.py``'s
and ``tests/test_simulated_executor.py``'s;
here the compiler lookup, the build function and ``subprocess`` are
patched (no environment switch selects a body), each test on its own
empty cache directory and its own unresolved process state.
"""

from __future__ import annotations

import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings

from repro import InspectorCache, PlanSpec, make_runner, parallelize
from repro.backends import kernel, native
from repro.errors import InvalidLoopError
from repro.ir.analysis import writer_map
from repro.passes import execute_plan, plan_loop
from repro.workloads.synthetic import chain_loop, random_irregular_loop
from repro.workloads.testloop import make_test_loop
from tests.conftest import assert_same_bits
from tests.strategies import affine_loops, loop_params

SRC = Path(__file__).resolve().parents[1] / "src"

needs_compiler = pytest.mark.skipif(
    native.find_compiler() is None, reason="no gcc on PATH"
)


@pytest.fixture
def cache_home(monkeypatch, tmp_path):
    """An empty per-user cache and a process that has resolved nothing."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setattr(native, "_body", None)
    return tmp_path / "repro-doacross"


def one_span(n=64, out=None):
    """A callback-free ``n``-iteration span, checked against the oracle;
    returns its tally.  ``out``: a write buffer other than the array."""
    loop = chain_loop(n, 1)
    its, reads = np.arange(n), loop.reads
    codes = kernel.classify_terms(reads.ptr, reads.index, writer_map(loop), its, n)
    ynew = np.zeros(loop.y_size) if out is None else out
    kernel.take_tally()
    cur = kernel.run_span(
        its, codes, loop.write, reads.ptr, reads.index, reads.coeff, None,
        loop.y0, ynew, ynew,
    )
    assert cur == len(codes)
    y = loop.y0.copy()
    y[loop.write] = [ynew[w] for w in loop.write.tolist()]
    assert np.array_equal(y, loop.run_sequential())
    return kernel.take_tally()


def files(directory: Path) -> list[str]:
    return sorted(p.name for p in directory.iterdir())


# ----------------------------------------------------------------------
# Build and cache
# ----------------------------------------------------------------------
@needs_compiler
class TestBuildCache:
    def test_first_span_builds_one_object_and_leaves_nothing_else(
        self, cache_home
    ):
        assert not cache_home.exists()  # importing / asking builds nothing
        assert native.unavailable() is None
        assert one_span(8) == (0, 1, "short-span")
        assert one_span(out={}) == (0, 1, "non-array-operand")
        assert not cache_home.exists()  # ... nor does an ineligible span
        assert one_span() == (1, 0, None)
        version = subprocess.run(
            ["gcc", "-dumpfullversion"], capture_output=True, text=True
        ).stdout.strip()
        names = files(cache_home)
        assert native.object_name(version) in names
        assert [n.rsplit(".", 1)[1] for n in names] == ["version", "so"]
        assert cache_home.stat().st_mode & 0o777 == 0o700
        assert native.describe() == f"native (gcc {version}, {cache_home})"

    def test_name_covers_source_flags_compiler_and_machine(self, monkeypatch):
        base = native.object_name("12.2.0")
        assert native.object_name("12.2.0") == base
        assert native.object_name("13.1.0") != base
        monkeypatch.setattr(native, "FLAGS", (*native.FLAGS, "-g"))
        flagged = native.object_name("12.2.0")
        assert flagged != base
        monkeypatch.setattr(native.platform, "machine", lambda: "riscv64")
        assert native.object_name("12.2.0") not in (base, flagged)
        monkeypatch.setattr(native, "c_source", lambda: "int x;")
        assert native.object_name("12.2.0") not in (base, flagged)

    def test_a_warm_cache_process_starts_no_child(self, cache_home, monkeypatch):
        # Why it matters: the benchmark's peak_rss_mb adds the largest
        # waited-for child, and a vfork-ed compiler is accounted at the
        # parent's own peak RSS — +16 % on fig4_chain for the one process
        # that compiles.  Every later process must find the object.
        assert one_span() == (1, 0, None)
        before = files(cache_home)
        monkeypatch.setattr(native, "_body", None)  # "a new process"

        def no_children(*_args, **_kwargs):
            raise AssertionError("a warm-cache process started a child")

        monkeypatch.setattr(subprocess, "run", no_children)
        monkeypatch.setattr(subprocess, "Popen", no_children)
        monkeypatch.setattr(os, "posix_spawn", no_children)
        monkeypatch.setattr(os, "fork", no_children)
        assert one_span() == (1, 0, None)
        assert files(cache_home) == before

    def test_two_processes_racing_to_build_both_load(self, cache_home):
        script = (
            "import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]\n"
            "from tests.test_native import one_span\n"
            "from repro.backends import native\n"
            "print(one_span(), native.describe())\n"
        )
        env = dict(os.environ, XDG_CACHE_HOME=str(cache_home.parent))
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", script, str(SRC), str(SRC.parent)],
                env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                text=True,
            )
            for _ in range(2)
        ]
        outs = [p.communicate(timeout=120) for p in procs]
        for proc, (out, err) in zip(procs, outs):
            assert proc.returncode == 0, err
            assert out.startswith("(1, 0, None) native (gcc "), (out, err)
        # One object, one version stamp, no temporary left by either.
        assert [n.rsplit(".", 1)[1] for n in files(cache_home)] == [
            "version", "so",
        ]

    def test_a_failed_build_is_reported_once_and_leaves_no_file(
        self, cache_home, monkeypatch
    ):
        monkeypatch.setattr(native, "c_source", lambda: "this is not C\n")
        with pytest.warns(RuntimeWarning, match="compiled bodies are unavailable"):
            tally = one_span()
        assert tally[:2] == (0, 1)
        assert tally[2].startswith("build-failed: ") and "error" in tally[2]
        assert "\n" not in tally[2]
        # Only the compiler's version stamp: no .so, no temporary, no .c/.o.
        assert [n.rsplit(".", 1)[1] for n in files(cache_home)] == ["version"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # once per process
            assert one_span() == (0, 1, tally[2])
        assert native.describe() == f"python ({tally[2]})"

    def test_a_raising_build_function_is_a_failed_build(
        self, cache_home, monkeypatch
    ):
        def build(cc, source, target):
            raise RuntimeError("cc1: out of memory")

        monkeypatch.setattr(native, "build", build)
        with pytest.warns(RuntimeWarning):
            assert one_span() == (0, 1, "build-failed: cc1: out of memory")

    @pytest.mark.parametrize("mode", [0o770, 0o707, 0o777])
    def test_a_cache_directory_others_can_write_is_not_loaded_from(
        self, cache_home, mode
    ):
        assert one_span() == (1, 0, None)  # a perfectly good object is there
        cache_home.chmod(mode)
        native._body = None  # the fixture's monkeypatch restores it
        assert one_span() == (0, 1, "unsafe-cache-dir")
        assert native.describe() == "python (unsafe-cache-dir)"

    def test_without_a_home_cache_the_temp_dir_holds_a_private_one(
        self, cache_home, monkeypatch, tmp_path
    ):
        blocker = tmp_path / "a-file"
        blocker.write_text("")
        monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))  # mkdir fails
        monkeypatch.setattr(native.tempfile, "gettempdir", lambda: str(tmp_path))
        assert one_span() == (1, 0, None)
        private = tmp_path / f"repro-doacross-{os.getuid()}"
        assert private.stat().st_mode & 0o777 == 0o700
        assert len(files(private)) == 2


# ----------------------------------------------------------------------
# Which body ran is observable
# ----------------------------------------------------------------------
def _counters(result) -> dict:
    counters = result.telemetry.metrics.as_dict()["counters"]
    return {
        body: counters[f"kernel_spans_{body}"] for body in ("native", "python")
    }


CELLS = [
    # backend, loop, plan options, (body, reason) with a compiler
    ("vectorized", lambda: chain_loop(400, 1), {}, ("native", None)),
    ("vectorized", lambda: random_irregular_loop(20, seed=5), {},
     ("python", "short-span")),
    ("threaded", lambda: chain_loop(400, 1), {}, ("python", "blocking-span")),
    ("multiproc", lambda: chain_loop(400, 1), {}, ("python", "blocking-span")),
    ("speculative", lambda: chain_loop(400, 1), {},
     ("python", "non-array-operand")),
    ("threaded", lambda: chain_loop(512, 128), {"analyze": "symbolic"},
     ("native", None)),
    ("multiproc", lambda: chain_loop(512, 128), {"analyze": "symbolic"},
     ("native", None)),
    ("vectorized", lambda: chain_loop(400, 1), {"validate": "sanitize"},
     ("native", None)),  # logged as one span event; the walk stays compiled
    ("threaded", lambda: chain_loop(400, 1), {"validate": "sanitize"},
     ("python", "sanitize")),
]


@pytest.mark.parametrize(
    "backend,make_loop,options,expected", CELLS,
    ids=[f"{b}-{e[1] or e[0]}-{'-'.join(o.values()) or 'plain'}"
         for b, _l, o, e in CELLS],
)
def test_every_run_names_its_kernel_body(backend, make_loop, options, expected):
    loop = make_loop()
    spec = PlanSpec(backend=backend, processors=2, observe=True, **options)
    result, _plan = parallelize(loop, spec=spec)
    assert np.array_equal(result.y, loop.run_sequential())
    body, reason = expected
    if native.unavailable() is not None:
        body, reason = "python", native.unavailable()
    assert result.extras["kernel"] == {"body": body, "reason": reason}
    counts = _counters(result)
    assert counts["native" if body == "native" else "python"] > 0
    assert (counts["native"] > 0) == (body == "native")


def test_a_doall_names_its_kernel_body():
    # One level of 400 iterations is still one walk, so the run names the
    # body it ran on.
    loop = make_test_loop(n=400, m=2, l=7)
    spec = PlanSpec(backend="vectorized", observe=True)
    result = make_runner(spec=spec).run(loop)
    assert result.extras["levels"] == 1
    body = "native" if native.unavailable() is None else "python"
    assert result.extras["kernel"]["body"] == body
    assert _counters(result) == {"native": 0, "python": 0, body: 1}


FALLBACK_CELLS = [
    (backend, options)
    for backend in ("vectorized", "threaded", "multiproc", "speculative")
    for options in ({}, {"analyze": "symbolic"}, {"validate": "sanitize"})
] + [("simulated", {})]  # its executor values are run_span's too


@needs_compiler
def test_a_cold_plan_names_its_level_body_a_warm_one_none(cache_home):
    loop, cache = chain_loop(400, 1), InspectorCache()
    spec = PlanSpec(backend="simulated")
    assert plan_loop(loop, spec, cache).describe()["levels_body"] == "native"
    assert cache_home.exists()  # the level pass built the one object
    assert "levels_body" not in plan_loop(loop, spec, cache).describe()


@needs_compiler
def test_every_caller_of_the_sweep_reaches_the_compiled_body(
    monkeypatch, cache_home
):
    # Only compute_levels names its body; an operand of the wrong dtype in
    # the other callers would fall to the Python sweep unsaid.
    from repro.backends.simulated import SimulatedRunner
    from repro.graph.critical_path import critical_path_cycles
    from repro.graph.levels import compute_levels
    from repro.machine.costs import CostModel
    from repro.machine.engine import Machine

    bodies, sweep = [], native.max_plus

    def spy(*args, **kwargs):
        got = sweep(*args, **kwargs)
        bodies.append(got[2])
        return got

    monkeypatch.setattr(native, "max_plus", spy)
    loop = make_test_loop(n=120, m=2, l=8)
    compute_levels(loop)
    critical_path_cycles(loop, CostModel())
    SimulatedRunner(Machine(4)).run_preprocessed(loop)
    assert bodies == ["native"] * 3


def test_without_a_compiler_levels_run_in_python_and_say_so(
    monkeypatch, cache_home
):
    monkeypatch.setattr(native, "find_compiler", lambda: None)
    loop = chain_loop(400, 1)
    plan = plan_loop(loop, PlanSpec(backend="vectorized"))
    assert plan.describe()["levels_body"] == "python (no-compiler)"
    assert np.array_equal(plan.levels.levels, np.arange(400))
    assert np.array_equal(execute_plan(loop, plan).y, loop.run_sequential())
    assert not cache_home.exists()


@pytest.mark.parametrize("backend,options", FALLBACK_CELLS)
def test_without_a_compiler_every_span_is_python_and_says_no_compiler(
    backend, options, monkeypatch, cache_home
):
    monkeypatch.setattr(native, "find_compiler", lambda: None)
    assert native.describe() == "python (no-compiler)"
    for loop in (chain_loop(400, 1), random_irregular_loop(300, seed=5)):
        spec = PlanSpec(backend=backend, processors=2, observe=True, **options)
        result, _plan = parallelize(loop, spec=spec)
        assert np.array_equal(result.y, loop.run_sequential())
        assert result.extras["kernel"] == {
            "body": "python", "reason": "no-compiler",
        }
        assert _counters(result)["native"] == 0
    assert not cache_home.exists()


# ----------------------------------------------------------------------
# The oracle's loop compiled: native.sequential
# ----------------------------------------------------------------------
def benchmark_loops():
    """The four gated workloads' distinct loops at their sizes, default
    seed (``benchmarks/e2e/workloads.py``)."""
    from benchmarks.e2e.workloads import DEFAULT_SEED, WORKLOADS

    return {
        name: workload.generate(DEFAULT_SEED).unique
        for name, workload in WORKLOADS.items()
    }


@given(loop_params)
@settings(max_examples=80, deadline=None)
def test_sequential_is_the_oracle_bitwise_on_irregular_loops(params):
    loop = random_irregular_loop(**params)
    y0 = loop.y0.copy()
    assert_same_bits(native.sequential(loop), loop.run_sequential())
    assert np.array_equal(loop.y0, y0)


@given(affine_loops())
@settings(max_examples=40, deadline=None)
def test_sequential_is_the_oracle_bitwise_on_affine_loops(loop):
    assert_same_bits(native.sequential(loop), loop.run_sequential())


def test_sequential_is_the_oracle_bitwise_on_the_benchmark_loops():
    # The same loops say which walk the vectorized backend takes on each:
    # the four combinations of layout and renaming, one per workload.
    walks = {}
    for name, loops in benchmark_loops().items():
        for loop in loops:
            assert_same_bits(native.sequential(loop), loop.run_sequential())
        walks[name] = make_runner("vectorized").run(loops[0]).extras["walk"]
    assert walks == {
        "trisolve_5pt": {"layout": "gathered", "renamed": False},
        "fig4_doall": {"layout": "identity", "renamed": False},
        "fig4_chain": {"layout": "identity", "renamed": True},
        "krylov_churn": {"layout": "gathered", "renamed": True},
    }


def test_sequential_refuses_a_subscript_outside_y_and_leaves_y0(cache_home):
    loop = random_irregular_loop(64, seed=4)
    loop.reads.index[5] = loop.y_size  # before first use: not frozen yet
    y0 = loop.y0.copy()
    if native.find_compiler() is None:
        pytest.skip("no gcc on PATH")
    with pytest.raises(InvalidLoopError, match="sequential: iteration"):
        native.sequential(loop)
    assert np.array_equal(loop.y0, y0)


def test_without_a_compiler_sequential_is_the_oracle_and_builds_nothing(
    monkeypatch, cache_home
):
    monkeypatch.setattr(native, "find_compiler", lambda: None)
    loop = random_irregular_loop(300, seed=5, external_init=True)
    assert_same_bits(native.sequential(loop), loop.run_sequential())
    assert native.unavailable() == "no-compiler"
    assert not cache_home.exists()


# ----------------------------------------------------------------------
# The gathered layout on both bodies
# ----------------------------------------------------------------------
@pytest.mark.parametrize("renamed", [False, True], ids=["in-place", "renamed"])
def test_the_python_walk_runs_the_gathered_layout_bitwise_like_the_compiled(
    monkeypatch, renamed
):
    from repro.backends.cache import build_inspector_record
    from repro.sparse.ilu import ilu0
    from repro.sparse.stencils import five_point
    from repro.sparse.trisolve import lower_solve_loop

    if renamed:
        loop = random_irregular_loop(400, seed=9, external_init=True)
    else:
        L, _ = ilu0(five_point(16, 16))
        loop = lower_solve_loop(L, np.random.default_rng(2).normal(size=L.n_rows))
    record = build_inspector_record(loop)
    lay = record.layout
    assert lay is not None and record.renames is renamed
    runs = {}
    for cutoff, body in ((0, "native"), (1 << 62, "python")):
        if body == "native" and native.unavailable() is not None:
            continue
        monkeypatch.setattr(kernel, "_NATIVE_FROM", cutoff)
        out = loop.y0.copy()
        new = np.empty_like(out) if renamed else out
        kernel.take_tally()
        cur = kernel.run_span(
            record.schedule.order, record.codes, lay.write, lay.ptr,
            lay.index, loop.reads.coeff, loop.init_values, out, new, new,
            start=lay.start,
        )
        assert kernel.take_tally()[:2] == ((1, 0) if body == "native" else (0, 1))
        assert cur == len(record.codes)
        if renamed:
            out[loop.write] = new[loop.write]
        runs[body] = out
        assert_same_bits(out, loop.run_sequential())
    if "native" in runs:
        assert np.array_equal(
            runs["native"].view(np.uint64), runs["python"].view(np.uint64)
        )
