"""The paper's primary contribution: the preprocessed doacross runtime.

Public entry points:

- :class:`repro.core.doacross.PreprocessedDoacross` — the full
  inspector/executor/postprocessor pipeline (paper §2.1–§2.2), with the
  strip-mined (§2.3) and linear-subscript (§2.3) variants.
- :class:`repro.core.doconsider.Doconsider` — wavefront (level-schedule)
  iteration reordering before the doacross (paper §3.2, reference [4]).
- :func:`repro.core.doacross.parallelize` — strategy selection; with
  ``known_distance=d`` / ``assert_independent=True`` it runs the classic
  a-priori-distance doacross / the doall baseline
  (``PreprocessedDoacross.runner().run_classic`` / ``.run_doall`` when
  they must share a machine with other runs).
- :func:`repro.core.sequential.sequential_time` /
  :func:`repro.core.sequential.run_reference` — the sequential oracle.
- :class:`repro.core.results.RunResult` — what every runner returns.
"""

from repro.core.amortized import AmortizedDoacross
from repro.core.doacross import PreprocessedDoacross
from repro.core.doconsider import Doconsider, level_order
from repro.core.results import PhaseBreakdown, RunResult
from repro.core.sequential import run_reference, sequential_time
from repro.core.serialize import result_to_dict, result_to_json, results_to_csv
from repro.core.verify import VerificationReport, verify_loop
from repro.core.workspace import MAXINT, DoacrossWorkspace

__all__ = [
    "PreprocessedDoacross",
    "AmortizedDoacross",
    "Doconsider",
    "level_order",
    "RunResult",
    "PhaseBreakdown",
    "run_reference",
    "sequential_time",
    "DoacrossWorkspace",
    "MAXINT",
    "verify_loop",
    "VerificationReport",
    "result_to_dict",
    "result_to_json",
    "results_to_csv",
]
