"""Tests for level scheduling, with networkx as an independent oracle.

``compute_levels`` has two bodies — the compiled recurrence and, where no
compiled object exists, the NumPy frontier — and every comparison below
runs both (``tests/conftest.py::on_frontier`` takes the compiler away).
"""

import contextlib

import networkx as nx
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import make_runner
from repro.backends import native
from repro.errors import InvalidLoopError
from repro.graph.depgraph import DependenceGraph
from repro.graph.levels import _SCALAR_BELOW, compute_levels
from repro.ir.analysis import dependence_pairs
from repro.sparse.ilu import ilu0
from repro.sparse.stencils import five_point
from repro.sparse.trisolve import lower_solve_loop
from repro.workloads.synthetic import chain_loop, random_irregular_loop
from repro.workloads.testloop import make_test_loop
from tests.conftest import on_frontier
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
    with on_frontier():
        frontier = compute_levels(source)
    why = native.unavailable()
    assert compiled.body == ("native" if why is None else f"frontier ({why})")
    assert frontier.body == "frontier (no-compiler)"
    for s in (compiled, frontier):
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
    """The compiled recurrence is one pass in iteration order; the frontier
    steps wave by wave — one NumPy step while the wave is wide, an
    edge-by-edge walk while it is narrow.  Both must agree with the
    per-node reference sweep whichever step the frontier takes."""

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
        # Tips narrower than the switch-over, a middle wider than it.
        sizes = tri.level_sizes()
        assert sizes.min() < _SCALAR_BELOW <= sizes.max()
        assert_matches_sweep(random_irregular_loop(3000, seed=4))

    @pytest.mark.parametrize("narrow", [1, 3, _SCALAR_BELOW - 1])
    def test_enters_and_leaves_the_narrow_walk_repeatedly(self, narrow):
        wide = 3 * _SCALAR_BELOW
        widths = [wide, narrow, narrow, wide, _SCALAR_BELOW, narrow, wide, 1]
        s = assert_matches_sweep(hourglass_graph(widths))
        assert s.level_sizes().tolist() == widths

    def test_duplicate_edges_count_once_per_edge(self):
        edges = np.array([[0, 2], [0, 2], [1, 2], [2, 3], [2, 3]])
        assert_matches_sweep(DependenceGraph(4, edges))
        # The same through the wide step: 40 sources, each twice into 40.
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
    st.lists(st.integers(1, 3 * _SCALAR_BELOW), min_size=1, max_size=8).map(
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
def test_compiled_body_equals_frontier_and_sweep(source):
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
    """An index array mutated out of range after construction — a real
    input path, since the inspector cache's contract is "mutate and miss"
    — is refused by both bodies before any executor starts."""

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
        else:
            loop.write[i] = loop.y_size
        return loop, i

    @pytest.mark.parametrize(
        "where",
        ["read-negative", "read-too-large", "write-negative", "write-too-large"],
    )
    def test_both_bodies_raise(self, where):
        loop, i = self.mutated(where)
        if native.unavailable() is None:
            with pytest.raises(InvalidLoopError, match=rf"iteration {i} reaches"):
                compute_levels(loop)
        with on_frontier(), pytest.raises(InvalidLoopError, match="out of range"):
            compute_levels(loop)

    @pytest.mark.skipif(
        native.find_compiler() is None, reason="no compiled level pass"
    )
    def test_the_compiled_pass_checks_ptr_and_operands(self):
        loop = random_irregular_loop(200, seed=3)
        ptr, index = loop.reads.ptr, loop.reads.index
        for i, bad in ((120, ptr[120] - 1), (150, len(index) + 1)):
            broken = ptr.copy()
            broken[i + 1] = bad  # decreasing, then past the end
            with pytest.raises(InvalidLoopError, match=rf"iteration {i} reaches"):
                native.wavefront_levels(broken, index, loop.write, loop.y_size)
        for args in ((ptr[:0], index), (ptr, index, loop.write[:-1], loop.y_size)):
            with pytest.raises(InvalidLoopError, match="inconsistent operands"):
                native.wavefront_levels(*args)
        # An operand that is no flat int64 array: the frontier's to take.
        assert native.wavefront_levels(ptr.astype(np.int32), index) == (
            "non-array-operand"
        )
        graph = DependenceGraph.from_loop(loop)
        graph.pred = graph.pred.astype(np.int32)
        assert compute_levels(graph).body == "frontier (non-array-operand)"

    @pytest.mark.parametrize("body", ["compiled", "frontier"])
    def test_a_vectorized_run_raises_and_leaves_y_untouched(self, body):
        loop, _ = self.mutated("read-negative")
        y = loop.y0.copy()
        ctx = on_frontier() if body == "frontier" else contextlib.nullcontext()
        with ctx, pytest.raises(InvalidLoopError):
            make_runner("vectorized").run(loop)
        assert np.array_equal(loop.y0.view(np.uint64), y.view(np.uint64))
