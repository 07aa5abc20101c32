"""The perf doctor: structured findings from one run's telemetry.

:mod:`repro.perf.doctor` — ``python -m repro doctor`` (and
``PlanSpec(diagnose=True)``) reads one run's telemetry and emits
structured :class:`~repro.perf.findings.Finding`\\ s tied to the paper's
accounting argument, each with a machine-readable recommendation the
auto-tuner consumes as a prior.  Wall-clock measurement lives outside the
package, in ``benchmarks/e2e`` (``python3 benchmarks/e2e/run.py``).
"""

from repro.perf.doctor import diagnose, diagnose_result
from repro.perf.findings import (
    FINDING_KINDS,
    SEVERITIES,
    Finding,
)

__all__ = [
    "diagnose",
    "diagnose_result",
    "Finding",
    "FINDING_KINDS",
    "SEVERITIES",
]
