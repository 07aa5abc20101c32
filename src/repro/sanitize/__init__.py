"""Execution sanitizer: witnessed happens-before checking of real runs.

The static layer (:mod:`repro.lint.hb`, the symbolic engine) verifies the
*planned* order of a doacross schedule; nothing there verifies that an
actual execution honored it.  This package closes that gap — the dynamic
dual of the happens-before race checker:

- :mod:`repro.sanitize.shadow` — shadow logs: backends append the memory
  accesses and synchronization events they actually perform, one
  append-only event list per lane (thread / worker / simulated processor
  / the vectorized walk).
- :mod:`repro.sanitize.vclock` — per-lane vector clocks, advanced at
  wait/post/barrier/chunk-handoff events during replay.
- :mod:`repro.sanitize.detector` — replays the logs, assigns each access
  a clock, and checks every true-dependence read-after-write pair
  against the happens-before relation the run *witnessed*; violations
  surface as a structured :class:`~repro.errors.SanitizerError`.
- :mod:`repro.sanitize.mutate` — the schedule-mutation harness proving
  detector power: mutations of the real kernel's codes / placement /
  event stream (dropped waits/posts, reversed chunk round-robin, skipped
  scrubs, ...); the kill rate is a CI gate.

Select it with ``PlanSpec(validate="sanitize")`` (the
:class:`~repro.backends.hooks.Sanitize` run hook), or from the CLI:
``python -m repro sanitize``.
"""

from repro.sanitize.detector import SanitizeReport, Violation, detect
from repro.sanitize.mutate import MUTANTS, MutationReport, run_mutation_suite
from repro.sanitize.shadow import ShadowCapture

__all__ = [
    "ShadowCapture",
    "SanitizeReport",
    "Violation",
    "detect",
    "MUTANTS",
    "MutationReport",
    "run_mutation_suite",
]
