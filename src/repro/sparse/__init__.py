"""Sparse-matrix substrate for the Table-1 experiments.

Self-contained (no SciPy dependency in the library proper; SciPy is used
only in tests as an independent oracle):

- :mod:`repro.sparse.coo` / :mod:`repro.sparse.csr` — matrix construction
  and the CSR workhorse.
- :mod:`repro.sparse.stencils` — 5-point (2-D), 7-point (3-D), and 9-point
  (2-D box scheme) difference operators.
- :mod:`repro.sparse.block` — block operators (``b×b`` blocks on a 3-D
  grid), the structure of the paper's reservoir problems.
- :mod:`repro.sparse.spe` — the paper's five test problems at their exact
  sizes (appendix of the paper).
- :mod:`repro.sparse.ilu` — ILU(0) incomplete factorization.
- :mod:`repro.sparse.trisolve` — sequential triangular solves and the
  Figure-7 loop encoding consumed by the doacross runtime.
"""

from repro.sparse.block import block_seven_point
from repro.sparse.coo import COOBuilder
from repro.sparse.csr import CSRMatrix
from repro.sparse.ilu import ilu0
from repro.sparse.krylov import (
    IluPreconditioner,
    JacobiPreconditioner,
    PCGReport,
    cg,
    gmres,
)
from repro.sparse.spe import paper_problems
from repro.sparse.stencils import five_point, nine_point, seven_point
from repro.sparse.trisolve import (
    lower_solve_loop,
    solve_lower_unit,
    solve_upper,
    upper_solve_loop,
)

__all__ = [
    "COOBuilder",
    "CSRMatrix",
    "five_point",
    "seven_point",
    "nine_point",
    "block_seven_point",
    "paper_problems",
    "ilu0",
    "cg",
    "gmres",
    "PCGReport",
    "IluPreconditioner",
    "JacobiPreconditioner",
    "solve_lower_unit",
    "solve_upper",
    "lower_solve_loop",
    "upper_solve_loop",
]
