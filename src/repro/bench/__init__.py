"""Benchmark harness: the paper's experiments and our ablations.

Every table and figure of the paper's evaluation section has a module here
that regenerates it, and one record in :data:`repro.bench.experiments.
EXPERIMENTS` — the table the commands, the shape tests, the golden cycle
counts and DESIGN.md §5 are all read from:

- :mod:`repro.bench.figure6` — Figure 6 (test-loop efficiencies vs ``L``);
  run with ``python -m repro figure6``.
- :mod:`repro.bench.table1` — Table 1 (sparse triangular solve times);
  run with ``python -m repro table1``.
- :mod:`repro.bench.ablations` — chunk size, schedule policy, strip-mine
  block, linear-subscript variant, bus contention, processor sweeps,
  coherence/locality, inspector amortization (A–H);
  ``python -m repro ablations``.
- :mod:`repro.bench.amortized_table` — "Table 2": per-solve cost over
  repeated solves (``python -m repro table2``).
- :mod:`repro.bench.krylov_fraction` — the §3.2 Krylov motivation
  (``python -m repro krylov``).
- :mod:`repro.bench.model` — closed-form performance model validated
  against the simulator (tier-1 only; no command).

``python -m repro <command>`` (:mod:`repro.__main__`) is the one way to run
them from the shell; each prints its report and ends with its shape check.
"""

from repro.bench.amortized_table import AmortizedTableResult, run_amortized_table
from repro.bench.figure6 import Figure6Result, run_figure6
from repro.bench.harness import ExperimentRow, check_monotone_nondecreasing
from repro.bench.krylov_fraction import KrylovFractionResult, run_krylov_fraction
from repro.bench.model import (
    predict_chain_loop,
    predict_dependence_free,
    predict_figure4,
)
from repro.bench.table1 import Table1Result, run_table1

__all__ = [
    "run_figure6",
    "Figure6Result",
    "run_table1",
    "Table1Result",
    "run_amortized_table",
    "AmortizedTableResult",
    "run_krylov_fraction",
    "KrylovFractionResult",
    "predict_figure4",
    "predict_chain_loop",
    "predict_dependence_free",
    "ExperimentRow",
    "check_monotone_nondecreasing",
]
