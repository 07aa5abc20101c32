"""Iteration dependence analysis: the wavefronts and cycle bounds of the
loop's *true-dependence DAG* — a node per iteration, an edge ``w → r``
whenever iteration ``r`` reads a value written by earlier iteration ``w``.

The doconsider transformation (paper §3.2, reference [4]) and the
harness's ideal-speedup bounds both need it; neither builds it (every edge
points backwards, so one sweep of :func:`repro.backends.native.max_plus`
serves).

- :mod:`repro.graph.levels` — level (wavefront) scheduling.
- :mod:`repro.graph.critical_path` — weighted critical path and parallelism
  bounds.
- :mod:`repro.graph.depgraph` — :class:`DependenceGraph`, CSR adjacency;
  kept only for the benchmark's structure layer, which imports it.
"""

from repro.graph.coloring import color_order, greedy_coloring, validate_coloring
from repro.graph.critical_path import critical_path_cycles, ideal_speedup
from repro.graph.depgraph import DependenceGraph
from repro.graph.levels import LevelSchedule, compute_levels

__all__ = [
    "DependenceGraph",
    "compute_levels",
    "LevelSchedule",
    "critical_path_cycles",
    "ideal_speedup",
    "greedy_coloring",
    "color_order",
    "validate_coloring",
]
