"""Tests for level scheduling, with networkx as an independent oracle."""

import networkx as nx
import numpy as np
import pytest

from repro.graph.depgraph import DependenceGraph
from repro.graph.levels import _SCALAR_BELOW, compute_levels
from repro.ir.analysis import dependence_pairs
from repro.sparse.ilu import ilu0
from repro.sparse.stencils import five_point
from repro.sparse.trisolve import lower_solve_loop
from repro.workloads.synthetic import chain_loop, random_irregular_loop
from repro.workloads.testloop import make_test_loop


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
    graph = (
        source
        if isinstance(source, DependenceGraph)
        else DependenceGraph.from_loop(source)
    )
    s = compute_levels(graph)
    np.testing.assert_array_equal(s.levels, sweep_levels(graph))
    np.testing.assert_array_equal(
        s.order, np.lexsort((np.arange(graph.n), s.levels))
    )
    np.testing.assert_array_equal(
        s.level_ptr[1:],
        np.cumsum(np.bincount(s.levels, minlength=s.n_levels)),
    )
    return s


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
    """The frontier propagation steps wave by wave — one NumPy step while
    the wave is wide, an edge-by-edge walk while it is narrow — and must
    agree with the per-node reference sweep whichever it takes."""

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
