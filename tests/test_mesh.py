"""Tests for the unstructured-mesh sweep workload."""

import numpy as np
import pytest

from repro.core.doacross import PreprocessedDoacross
from repro.errors import InvalidLoopError
from repro.graph.coloring import greedy_coloring, validate_coloring
from repro.graph.levels import compute_levels
from repro.workloads.mesh import (
    MeshAdjacency,
    mesh_orderings,
    random_mesh,
    sweep_loop,
)
from tests.conftest import assert_matches_oracle


@pytest.fixture(scope="module")
def mesh():
    return random_mesh(400, seed=11)


class TestRandomMesh:
    def test_symmetric(self, mesh):
        mesh.validate_symmetric()

    def test_deterministic(self):
        a = random_mesh(100, seed=3)
        b = random_mesh(100, seed=3)
        np.testing.assert_array_equal(a.ptr, b.ptr)
        np.testing.assert_array_equal(a.adj, b.adj)

    def test_connected_via_bfs(self, mesh):
        orders = mesh_orderings(mesh)
        assert sorted(orders["bfs"].tolist()) == list(range(mesh.n))

    def test_bounded_degree(self, mesh):
        # Geometric graphs with r ~ 1/sqrt(n) have O(1) expected degree.
        assert mesh.degrees().mean() < 20

    def test_single_vertex(self):
        m = random_mesh(1, seed=0)
        assert m.n == 1
        assert m.n_edges == 0

    def test_invalid_size(self):
        with pytest.raises(InvalidLoopError):
            random_mesh(0)


class TestSweepLoop:
    def test_natural_order_matches_oracle(self, mesh):
        loop = sweep_loop(mesh)
        result = PreprocessedDoacross(processors=8).run(loop)
        assert_matches_oracle(result.y, loop)

    @pytest.mark.parametrize("name", ["natural", "random", "bfs", "coloring"])
    def test_every_stock_ordering_matches_its_own_oracle(self, mesh, name):
        order = mesh_orderings(mesh)[name]
        loop = sweep_loop(mesh, order=order)
        result = PreprocessedDoacross(processors=8).run(loop)
        assert_matches_oracle(result.y, loop)

    def test_orders_are_different_computations(self, mesh):
        """Gauss-Seidel order changes the iterate (not a bug — each order
        is its own computation, verified against its own oracle)."""
        orders = mesh_orderings(mesh)
        y_nat = sweep_loop(mesh, orders["natural"]).run_sequential()
        y_col = sweep_loop(mesh, orders["coloring"]).run_sequential()
        assert not np.allclose(y_nat, y_col)

    def test_order_length_validated(self, mesh):
        with pytest.raises(InvalidLoopError):
            sweep_loop(mesh, order=np.arange(5))

    def test_custom_name(self, mesh):
        assert sweep_loop(mesh, name="x").name == "x"


class TestOrderingStructure:
    def test_coloring_is_valid(self, mesh):
        colors = greedy_coloring(mesh.ptr, mesh.adj)
        validate_coloring(mesh.ptr, mesh.adj, colors)

    def test_coloring_order_has_wavefronts_equal_to_colors(self, mesh):
        """Sweeping color by color: a vertex's swept neighbors all have
        smaller colors, so the dependence level of every vertex is at most
        its color index — wavefront count ≤ color count."""
        colors = greedy_coloring(mesh.ptr, mesh.adj)
        order = mesh_orderings(mesh)["coloring"]
        loop = sweep_loop(mesh, order=order)
        schedule = compute_levels(loop)
        assert schedule.n_levels <= int(colors.max()) + 1

    def test_coloring_order_much_flatter_than_bfs(self, mesh):
        """BFS numbering chains the sweep along the traversal tree (deep
        wavefronts); color order is the flat extreme."""
        orders = mesh_orderings(mesh)
        bfs_levels = compute_levels(
            sweep_loop(mesh, orders["bfs"])
        ).n_levels
        color_levels = compute_levels(
            sweep_loop(mesh, orders["coloring"])
        ).n_levels
        assert color_levels < bfs_levels / 3

    def test_coloring_never_deeper_than_natural(self, mesh):
        orders = mesh_orderings(mesh)
        natural_levels = compute_levels(sweep_loop(mesh)).n_levels
        color_levels = compute_levels(
            sweep_loop(mesh, orders["coloring"])
        ).n_levels
        assert color_levels <= natural_levels

    def test_colored_sweep_runs_faster_than_bfs_in_parallel(self, mesh):
        """The payoff: the color-ordered sweep's doacross beats the
        BFS-ordered sweep's doacross (different computations, same work
        volume)."""
        runner = PreprocessedDoacross(processors=16)
        orders = mesh_orderings(mesh)
        bfs = runner.run(sweep_loop(mesh, orders["bfs"]))
        colored = runner.run(sweep_loop(mesh, orders["coloring"]))
        assert colored.total_cycles < bfs.total_cycles

    def test_five_point_grid_colors_red_black(self):
        """The classic sanity check: the 5-point stencil's grid graph is
        bipartite, so greedy coloring finds exactly two colors — the
        red-black ordering of structured-grid Gauss-Seidel."""
        from repro.sparse.stencils import five_point

        grid = MeshAdjacency.from_csr_pattern(five_point(8, 8))
        grid.validate_symmetric()
        colors = greedy_coloring(grid.ptr, grid.adj)
        validate_coloring(grid.ptr, grid.adj, colors)
        assert int(colors.max()) == 1  # two colors: red and black

    def test_red_black_sweep_has_two_wavefronts(self):
        from repro.graph.coloring import color_order
        from repro.sparse.stencils import five_point

        grid = MeshAdjacency.from_csr_pattern(five_point(8, 8))
        colors = greedy_coloring(grid.ptr, grid.adj)
        loop = sweep_loop(grid, order=color_order(colors))
        assert compute_levels(loop).n_levels == 2

    def test_doconsider_on_colored_sweep_near_plateau(self, mesh):
        """Color order + doconsider: wavefronts are already flat, so
        doconsider adds little — their totals should be close."""
        runner = PreprocessedDoacross(processors=16)
        loop = sweep_loop(mesh, mesh_orderings(mesh)["coloring"])
        plain = runner.run(loop)
        reordered = runner.run(loop, reorder="doconsider")
        assert reordered.total_cycles <= plain.total_cycles
        assert reordered.total_cycles > 0.7 * plain.total_cycles
