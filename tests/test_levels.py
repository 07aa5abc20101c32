"""Tests for level scheduling, with networkx as an independent oracle.

For a loop, ``compute_levels`` is the compiled inspector's level pass
(``native.inspect(codes=False)``); where no compiled object exists it is
``sweep_levels``, the no-compiler body: one max-plus sweep in Python.  For
a dependence graph it is one max-plus sweep over the predecessor lists.
Every comparison below runs with and without the compiler
(``tests/conftest.py::no_compiler`` takes it away).
"""

import contextlib

import networkx as nx
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import BACKENDS, PlanSpec, make_runner, parallelize
from repro.backends import native
from repro.errors import InvalidLoopError, OutputDependenceError
from repro.graph.depgraph import DependenceGraph
from repro.graph.levels import compute_levels
from repro.ir.analysis import dependence_pairs
from repro.sparse.ilu import ilu0
from repro.sparse.stencils import five_point
from repro.sparse.trisolve import lower_solve_loop
from repro.workloads.synthetic import chain_loop, random_irregular_loop
from repro.workloads.testloop import make_test_loop
from tests.conftest import no_compiler
from tests.strategies import affine_loops, loop_params


def nx_levels(loop):
    """Oracle: longest-path level per node via networkx."""
    g = nx.DiGraph()
    g.add_nodes_from(range(loop.n))
    g.add_edges_from(map(tuple, dependence_pairs(loop).tolist()))
    levels = {}
    for node in nx.topological_sort(g):
        preds = list(g.predecessors(node))
        levels[node] = 1 + max((levels[p] for p in preds), default=-1)
    return np.array([levels[i] for i in range(loop.n)])


class TestLevels:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_networkx_oracle(self, seed):
        loop = random_irregular_loop(70, seed=seed)
        schedule = compute_levels(loop)
        np.testing.assert_array_equal(schedule.levels, nx_levels(loop))

    def test_chain(self):
        schedule = compute_levels(chain_loop(12, 1))
        np.testing.assert_array_equal(schedule.levels, np.arange(12))
        assert schedule.n_levels == 12

    def test_level_ptr_partitions_order(self):
        loop = random_irregular_loop(50, seed=3)
        s = compute_levels(loop)
        assert s.level_ptr[0] == 0
        assert s.level_ptr[-1] == 50
        for k in range(s.n_levels):
            segment = s.order[s.level_ptr[k] : s.level_ptr[k + 1]]
            assert np.all(s.levels[segment] == k)

    def test_level_sizes_sum_to_n(self):
        loop = random_irregular_loop(64, seed=8)
        s = compute_levels(loop)
        assert int(s.level_sizes().sum()) == 64
        assert s.max_width() == int(s.level_sizes().max())

    def test_validate_passes_for_computed_levels(self):
        loop = random_irregular_loop(60, seed=2)
        g = DependenceGraph.from_loop(loop)
        compute_levels(g).validate(g)

    def test_validate_catches_bad_levels(self):
        g = DependenceGraph(2, np.array([[0, 1]]))
        s = compute_levels(g)
        s.levels[:] = 0  # corrupt
        with pytest.raises(AssertionError, match="ascend"):
            s.validate(g)

    def test_empty_loop(self):
        s = compute_levels(random_irregular_loop(0, seed=0))
        assert s.n_levels == 0
        assert s.n == 0
        assert s.max_width() == 0
        assert s.average_width() == 0.0

    def test_order_stable_within_level(self):
        """Ties broken by original index (deterministic reports)."""
        loop = random_irregular_loop(40, max_terms=0, seed=0)  # all level 0
        s = compute_levels(loop)
        np.testing.assert_array_equal(s.order, np.arange(40))


def sweep_levels(graph):
    """Reference: one forward pass (edges point forward, so natural order
    is topological), ``level = 1 + max(level of predecessors)``."""
    levels = [0] * graph.n
    for r in range(graph.n):
        for w in graph.predecessors(r).tolist():
            levels[r] = max(levels[r], levels[w] + 1)
    return np.array(levels, dtype=np.int64)


def assert_matches_sweep(source):
    """Both bodies on ``source`` (a loop, or a graph), each equal to the
    reference sweep in ``levels``, ``order`` and ``level_ptr``; returns
    the compiled body's schedule."""
    graph = (
        source
        if isinstance(source, DependenceGraph)
        else DependenceGraph.from_loop(source)
    )
    want = sweep_levels(graph)
    compiled = compute_levels(source)
    with no_compiler():
        python = compute_levels(source)
    why = native.unavailable()
    assert compiled.body == ("native" if why is None else f"python ({why})")
    assert python.body == "python (no-compiler)"
    for s in (compiled, python):
        np.testing.assert_array_equal(s.levels, want)
        np.testing.assert_array_equal(
            s.order, np.lexsort((np.arange(graph.n), want))
        )
        np.testing.assert_array_equal(
            s.level_ptr[1:], np.cumsum(np.bincount(want, minlength=s.n_levels))
        )
    return compiled


def hourglass_graph(widths):
    """A layered DAG, layer ``k`` of ``widths[k]`` nodes: every node
    depends on one node of the layer before (round-robin), so the level
    widths are exactly ``widths``."""
    edges, first = [], 0
    for prev, width in zip(widths, widths[1:]):
        nxt = first + prev
        edges += [(first + j % prev, nxt + j) for j in range(width)]
        first = nxt
    return DependenceGraph(sum(widths), np.array(edges).reshape(-1, 2))


class TestLevelMethods:
    """Both bodies of the sweep agree with the per-node reference sweep in
    the wavefronts (``levels``, ``order``, ``level_ptr``), whatever the
    width profile."""

    @pytest.mark.parametrize("seed", range(8))
    def test_frontier_matches_sweep(self, seed):
        assert_matches_sweep(random_irregular_loop(100, seed=seed))

    def test_frontier_on_chain(self):
        s = assert_matches_sweep(chain_loop(50, 1))
        assert s.n_levels == 50 and s.max_width() == 1

    def test_frontier_empty(self):
        s = compute_levels(random_irregular_loop(0, seed=0))
        assert s.n_levels == 0

    def test_wide_and_mixed_loops(self):
        wide = assert_matches_sweep(make_test_loop(n=400, m=5, l=7))
        assert wide.n_levels == 1
        L, _ = ilu0(five_point(30, 30))
        tri = assert_matches_sweep(lower_solve_loop(L, np.ones(L.n_rows)))
        # Narrow tips, a wide middle.
        sizes = tri.level_sizes()
        assert sizes.min() == 1 and sizes.max() == 30
        assert_matches_sweep(random_irregular_loop(3000, seed=4))

    def test_duplicate_edges_count_once_per_edge(self):
        edges = np.array([[0, 2], [0, 2], [1, 2], [2, 3], [2, 3]])
        assert_matches_sweep(DependenceGraph(4, edges))
        # 40 sources, each twice into node 40.
        fan_in = np.stack([np.arange(40), np.full(40, 40)], axis=1)
        s = assert_matches_sweep(DependenceGraph(41, np.repeat(fan_in, 2, axis=0)))
        assert s.level_sizes().tolist() == [40, 1]

    def test_slices_iterates_levels(self):
        loop = chain_loop(20, 1)
        s = compute_levels(loop)
        slices = list(s.slices())
        assert len(slices) == s.n_levels
        assert slices[0][0] == 0 and slices[-1][1] == s.n


@st.composite
def multigraphs(draw):
    """Forward edges drawn with repeats: a graph whose edges were never
    deduplicated."""
    n = draw(st.integers(0, 40))
    if n < 2:
        return DependenceGraph(n, np.empty((0, 2), dtype=np.int64))
    node = st.integers(0, n - 1)
    edge = st.tuples(node, node).filter(lambda e: e[0] != e[1]).map(sorted)
    edges = draw(st.lists(edge, max_size=80))
    edges += edges[: draw(st.integers(0, len(edges)))]
    return DependenceGraph(n, np.array(edges, dtype=np.int64).reshape(-1, 2))


LEVEL_SOURCES = st.one_of(
    loop_params.map(lambda params: random_irregular_loop(**params)),
    affine_loops(),
    st.lists(st.integers(1, 48), min_size=1, max_size=8).map(
        hourglass_graph
    ),
    multigraphs(),
)
NO_EDGES = np.empty((0, 2), dtype=np.int64)


@settings(max_examples=80, deadline=None)
@given(source=LEVEL_SOURCES)
@example(source=random_irregular_loop(0, seed=0))
@example(source=random_irregular_loop(1, seed=0))
@example(source=DependenceGraph(0, NO_EDGES))
@example(source=DependenceGraph(1, NO_EDGES))
def test_both_bodies_equal_the_sweep(source):
    assert_matches_sweep(source)


#: The benchmark's four loops at their benchmark sizes, and their level
#: counts.
BENCHMARK_SHAPES = {
    "trisolve_5pt": (
        lambda: lower_solve_loop(ilu0(five_point(141, 141))[0], np.ones(19881)),
        281,
    ),
    "fig4_doall": (lambda: make_test_loop(n=50_000, m=5, l=7), 1),
    "fig4_chain": (lambda: make_test_loop(n=8_000, m=5, l=8), 8_000),
    "krylov_churn": (
        lambda: random_irregular_loop(2_000, max_terms=4, seed=1991), None
    ),
}


@pytest.mark.parametrize("name", BENCHMARK_SHAPES)
def test_benchmark_shaped_loops(name):
    build, n_levels = BENCHMARK_SHAPES[name]
    s = assert_matches_sweep(build())
    assert n_levels is None or s.n_levels == n_levels


class TestMutatedSubscripts:
    """An index array mutated after construction — out of range, or into a
    non-injective write — is a real input path, since the inspector
    cache's contract is "mutate and miss": both bodies of the sweep refuse
    it, so every planned backend does before any executor starts."""

    @staticmethod
    def mutated(where: str):
        loop = random_irregular_loop(200, seed=3)
        ptr = loop.reads.ptr
        i = next(i for i in range(100, loop.n) if ptr[i + 1] > ptr[i])
        if where == "read-negative":
            loop.reads.index[ptr[i]] = -1
        elif where == "read-too-large":
            loop.reads.index[ptr[i]] = loop.y_size
        elif where == "write-negative":
            loop.write[i] = -1
        elif where == "write-too-large":
            loop.write[i] = loop.y_size
        else:
            loop.write[10] = loop.write[i]
        return loop, i

    @pytest.mark.parametrize(
        "where",
        [
            "read-negative", "read-too-large", "write-negative",
            "write-too-large", "write-duplicate",
        ],
    )
    def test_both_bodies_raise(self, where):
        loop, i = self.mutated(where)
        for body in (contextlib.nullcontext, no_compiler):
            if where != "write-duplicate":
                with body(), pytest.raises(
                    InvalidLoopError, match=rf"position {i} reaches .* out of range"
                ):
                    compute_levels(loop)
                continue
            with body(), pytest.raises(OutputDependenceError) as info:
                compute_levels(loop)
            got = info.value
            assert (got.index, got.first_writer, got.second_writer) == (
                loop.write[i], 10, i,
            )

    def test_the_compiled_pass_checks_ptr_and_operands(self):
        loop = random_irregular_loop(200, seed=3)
        ptr, index = loop.reads.ptr, loop.reads.index
        for body in (contextlib.nullcontext, no_compiler):
            for i, bad in ((120, ptr[120] - 1), (150, len(index) + 1)):
                broken = ptr.copy()
                broken[i + 1] = bad  # decreasing, then past the end
                with body(), pytest.raises(
                    InvalidLoopError, match=rf"position {i} reaches"
                ):
                    native.max_plus(broken, index, loop.y_size, write=loop.write)
        for args, kwargs in (
            ((ptr[:0], index, 0), {}),
            ((ptr, index, loop.y_size), {"write": loop.write[:-1]}),
            ((ptr, index, loop.y_size), {}),  # no write: one element each
        ):
            with pytest.raises(InvalidLoopError, match="inconsistent operands"):
                native.max_plus(*args, **kwargs)
        # An operand that is no flat int64 array: the Python body's to take.
        graph = DependenceGraph.from_loop(loop)
        graph.pred = graph.pred.astype(np.int32)
        s = compute_levels(graph)
        assert s.body == "python (non-array-operand)"
        assert np.array_equal(s.levels, compute_levels(loop).levels)

    @pytest.mark.parametrize("body", ["compiled", "python"])
    def test_a_vectorized_run_raises_and_leaves_y_untouched(self, body):
        loop, _ = self.mutated("read-negative")
        y = loop.y0.copy()
        ctx = no_compiler() if body == "python" else contextlib.nullcontext()
        with ctx, pytest.raises(InvalidLoopError):
            make_runner("vectorized").run(loop)
        assert np.array_equal(loop.y0.view(np.uint64), y.view(np.uint64))

    @pytest.mark.parametrize("backend", ["vectorized", "threaded", "multiproc"])
    def test_a_duplicated_write_is_refused_before_any_executor(self, backend):
        loop = random_irregular_loop(200, seed=5)
        loop.write[10] = loop.write[150]
        y = loop.y0.copy()
        with pytest.raises(OutputDependenceError, match="iterations 10 and 150"):
            parallelize(loop, backend=backend, processors=2)
        assert np.array_equal(loop.y0.view(np.uint64), y.view(np.uint64))

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_a_direct_run_refuses_a_duplicated_write(self, backend):
        # No plan: the runner checks the write array it is handed, however
        # its subscript was built (make_test_loop's is affine).
        for n, m, l in ((40, 2, 8), (60, 5, 8), (200, 3, 4)):
            loop = make_test_loop(n, m, l)
            loop.write[5] = loop.write[4]
            y = loop.y0.copy()
            with pytest.raises(OutputDependenceError, match="iterations 4 and 5"):
                make_runner(backend, processors=2).run(loop)
            assert np.array_equal(loop.y0.view(np.uint64), y.view(np.uint64))

    @pytest.mark.parametrize(
        "where",
        ["read-negative", "read-too-large", "write-negative", "write-too-large"],
    )
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_a_direct_run_refuses_an_out_of_range_subscript(self, backend, where):
        # No plan: hashing the loop checks its subscripts (a simulated
        # runner without a cache checks them without hashing).
        loop, _ = self.mutated(where)
        y = loop.y0.copy()
        with pytest.raises(InvalidLoopError, match="out of range"):
            make_runner(backend, processors=2).run(loop)
        assert np.array_equal(loop.y0.view(np.uint64), y.view(np.uint64))

    @pytest.mark.parametrize("route", ["runner", "parallelize"])
    @pytest.mark.parametrize("analyze", [None, "symbolic", "symbolic+check"])
    def test_a_symbolic_vectorized_run_refuses_a_duplicated_write(
        self, analyze, route
    ):
        # The symbolic record is a closed form of the affine subscript; the
        # write array it never reads is checked all the same.
        loop = make_test_loop(60, 5, 8)
        loop.write[5] = loop.write[4]
        y = loop.y0.copy()
        spec = PlanSpec(backend="vectorized", analyze=analyze)
        with pytest.raises(OutputDependenceError, match="iterations 4 and 5"):
            if route == "runner":
                make_runner(spec=spec).run(loop)
            else:
                parallelize(loop, spec=spec)
        assert np.array_equal(loop.y0.view(np.uint64), y.view(np.uint64))

    @pytest.mark.parametrize("backend", ["threaded", "speculative"])
    def test_a_warm_direct_run_checks_nothing(self, backend, monkeypatch):
        # The check runs where the loop is hashed; a frozen loop's memo is
        # served without it.
        from repro.ir.loop import IrregularLoop

        loop = make_test_loop(60, 3, 8)
        runner = make_runner(backend, processors=2)
        runner.run(loop)
        calls = []
        real = IrregularLoop.check_write_injective
        monkeypatch.setattr(
            IrregularLoop, "check_write_injective",
            lambda self: calls.append(1) or real(self),
        )
        runner.run(loop)
        assert calls == []
