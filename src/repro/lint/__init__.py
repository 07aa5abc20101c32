"""Static analysis over the IR, transform plans, and backend schedules.

Two halves:

- **lint rules** (:mod:`repro.lint.rules`) — pattern checks grounded in
  the paper (doall-able loops, affine writes, dead waits, serializing
  chunk choices, …), producing structured
  :class:`~repro.lint.diagnostics.Diagnostic` findings;
- **happens-before race checker** (:mod:`repro.lint.hb`) — one coverage
  rule over the placement a backend's ``schedule_model`` returns (lanes,
  strip size, barrier cuts): every true dependence edge from
  :func:`repro.ir.analysis.dependence_pairs` must be covered.

Entry points: :func:`run_lints` (the driver), ``python -m repro lint``
(the CLI), and ``validate="static"`` on :func:`repro.parallelize` /
:func:`repro.make_runner`.
"""

from repro.lint.context import LintContext
from repro.lint.diagnostics import (
    SEVERITIES,
    SEVERITY_ERROR,
    SEVERITY_INFO,
    SEVERITY_WARNING,
    Diagnostic,
    format_diagnostics,
)
from repro.lint.driver import RACE_RULE_ID, race_diagnostics, run_lints
from repro.lint.hb import (
    Race,
    RaceReport,
    check_backend_schedule,
    check_dependence_coverage,
)
from repro.lint.rules import LintRule, all_rules, get_rule, register, rule_ids

__all__ = [
    "SEVERITY_ERROR",
    "SEVERITY_WARNING",
    "SEVERITY_INFO",
    "SEVERITIES",
    "Diagnostic",
    "format_diagnostics",
    "LintContext",
    "LintRule",
    "register",
    "all_rules",
    "get_rule",
    "rule_ids",
    "RACE_RULE_ID",
    "race_diagnostics",
    "run_lints",
    "Race",
    "RaceReport",
    "check_dependence_coverage",
    "check_backend_schedule",
]
