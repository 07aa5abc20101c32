"""Irregular mesh sweep — runtime dependencies from unstructured data.

The paper's introduction motivates loops whose subscripts come from data
structures built at run time.  A classic instance: a Gauss-Seidel-flavored
sweep over an *unstructured mesh* whose vertex numbering (and therefore
dependence structure) is decided by the mesh generator, not the compiler::

    do v = 1, n_vertices
        x(perm(v)) = x(perm(v)) + ω * Σ_{u ∈ nbrs(v)} w(u,v) · x(u)
    end do

Neighbors numbered before ``perm(v)`` in the sweep contribute *updated*
values (true dependencies), later ones old values (antidependencies) —
decided element by element, at run time.

This example builds a random planar-ish mesh with ``networkx``, derives the
loop, and shows how the preprocessed doacross handles three different
vertex orderings with identical results but very different parallelism.

Run:  ``python examples/irregular_mesh_sweep.py``
"""

import networkx as nx
import numpy as np

import repro
from repro.graph.levels import compute_levels
from repro.ir.accesses import ReadTable
from repro.ir.loop import IrregularLoop
from repro.ir.subscript import IndirectSubscript


def build_mesh(n_vertices: int, seed: int) -> nx.Graph:
    """A connected random geometric mesh (vertices in the unit square,
    edges between nearby vertices)."""
    rng = np.random.default_rng(seed)
    positions = {i: tuple(rng.random(2)) for i in range(n_vertices)}
    radius = 1.8 / np.sqrt(n_vertices)
    mesh = nx.random_geometric_graph(n_vertices, radius, pos=positions, seed=int(seed))
    # Connect stragglers so every vertex participates.
    components = list(nx.connected_components(mesh))
    for comp in components[1:]:
        mesh.add_edge(next(iter(components[0])), next(iter(comp)))
    return mesh


def sweep_loop(mesh: nx.Graph, order: np.ndarray, omega: float = 0.2) -> IrregularLoop:
    """Encode one Gauss-Seidel-style sweep in the given vertex order."""
    n = mesh.number_of_nodes()
    per_iteration = []
    for v in order:
        nbrs = sorted(mesh.neighbors(int(v)))
        weight = omega / max(len(nbrs), 1)
        per_iteration.append([(u, weight) for u in nbrs])
    return IrregularLoop(
        n=n,
        y_size=n,
        write_subscript=IndirectSubscript(np.asarray(order, dtype=np.int64)),
        reads=ReadTable.from_lists(per_iteration),
        y0=np.ones(n),
        name=f"mesh-sweep(n={n})",
    )


def main() -> None:
    mesh = build_mesh(n_vertices=3000, seed=42)
    n = mesh.number_of_nodes()
    print(
        f"mesh: {n} vertices, {mesh.number_of_edges()} edges, "
        f"mean degree {2 * mesh.number_of_edges() / n:.1f}"
    )

    runner = repro.PreprocessedDoacross(processors=16)
    rng = np.random.default_rng(7)

    orderings = {
        "natural": np.arange(n),
        "random (mesh generator's numbering)": rng.permutation(n),
        "BFS from vertex 0": np.fromiter(
            (v for v in nx.bfs_tree(mesh, 0)), dtype=np.int64, count=n
        ),
    }

    reference = None
    for label, order in orderings.items():
        loop = sweep_loop(mesh, order)
        levels = compute_levels(loop)
        result = runner.run(loop)
        reordered = runner.run(loop, reorder="doconsider")
        print(f"\n--- vertex order: {label} ---")
        print(
            f"dependence wavefronts: {levels.n_levels} "
            f"(widest {levels.max_width()})"
        )
        print(
            f"doacross:   efficiency {result.efficiency:.3f}  "
            f"({result.total_cycles} cycles, busy-wait {result.wait_cycles})"
        )
        print(
            f"doconsider: efficiency {reordered.efficiency:.3f}  "
            f"({reordered.total_cycles} cycles)"
        )
        # Different sweep orders are *different computations* (Gauss-Seidel
        # depends on order), but each must match its own sequential oracle.
        assert np.allclose(result.y, loop.run_sequential(), rtol=1e-12)
        assert np.allclose(reordered.y, loop.run_sequential(), rtol=1e-12)
        if reference is None:
            reference = result.y
    print("\nall orderings verified against their sequential sweeps")


if __name__ == "__main__":
    main()
