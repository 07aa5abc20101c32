"""The lint driver: run every registered rule (and, optionally, the
happens-before race checker) over one loop and collect diagnostics.

:func:`run_lints` is the entry point of the CLI.  The
``validate="static"`` run hook
(:class:`~repro.backends.hooks.StaticValidate`) builds the
:class:`~repro.lint.context.LintContext` itself and runs the same rules
over it (:func:`run_rules`), so its race check reuses the context's read
classification.
"""

from __future__ import annotations

from repro.ir.loop import IrregularLoop
from repro.ir.transform import TransformPlan
from repro.lint.context import LintContext
from repro.lint.diagnostics import SEVERITY_ERROR, Diagnostic
from repro.lint.hb import RaceReport, check_backend_schedule
from repro.lint.rules import all_rules

__all__ = ["RACE_RULE_ID", "race_diagnostics", "run_lints", "run_rules"]

#: Rule ID stamped on happens-before violations.  Not a registered
#: :class:`~repro.lint.rules.LintRule` — races come from the schedule
#: checker, not from a static pattern — but it renders and serializes
#: like any other rule's finding.
RACE_RULE_ID = "HB-RACE"


def race_diagnostics(report: RaceReport) -> list[Diagnostic]:
    """Convert a :class:`RaceReport`'s races into error diagnostics."""
    return [
        Diagnostic(
            rule=RACE_RULE_ID,
            severity=SEVERITY_ERROR,
            loop=report.loop_name,
            message=(
                f"{race.describe()} — the {report.schedule_label} schedule "
                f"provides no happens-before edge for this true dependence"
            ),
            suggestion=(
                "the schedule is corrupt or the validated order/iter data "
                "does not match the loop; rebuild it from compute_levels() "
                "or the inspector"
            ),
            location=f"iterations {race.writer}->{race.reader}",
            paper_ref="Figure 5 (check < 0)",
        )
        for race in report.races
    ]


def run_rules(ctx: LintContext, only: list[str] | None = None) -> list[Diagnostic]:
    """The findings of the registered rules (``only``: these rule IDs)
    over one context, in registry order."""
    return [d for rule in all_rules(only) for d in rule.check(ctx)]


def run_lints(
    loop: IrregularLoop,
    plan: TransformPlan | None = None,
    schedule: str | None = None,
    *,
    chunk: int = 1,
    processors: int = 16,
    strip_block: int | None = None,
    only: list[str] | None = None,
    backend: str | None = None,
) -> list[Diagnostic]:
    """Run lint rules (and optionally the race checker) over ``loop``.

    Parameters
    ----------
    loop:
        The loop to analyze.
    plan:
        Transform plan to lint against; computed by
        :func:`~repro.ir.transform.plan_transform` when omitted.
    schedule:
        Executor schedule kind (``block``/``cyclic``/``dynamic``/
        ``guided``); ``None`` skips schedule-shape rules.
    chunk, processors, strip_block:
        Schedule parameters; see :class:`~repro.lint.context.LintContext`.
    only:
        Restrict to these rule IDs (default: every registered rule).
    backend:
        When given (``"vectorized"``/``"threaded"``/``"simulated"``),
        additionally run the happens-before race checker for that
        backend's schedule and append any race as an ``HB-RACE`` error.

    Returns
    -------
    list[Diagnostic]
        All findings; empty when the loop is clean.
    """
    ctx = LintContext(
        loop,
        plan=plan,
        schedule_kind=schedule,
        chunk=chunk,
        processors=processors,
        strip_block=strip_block,
    )
    diagnostics = run_rules(ctx, only)
    if backend is not None:
        report = check_backend_schedule(
            loop,
            backend,
            processors=processors,
            schedule=schedule,
            chunk=chunk,
        )
        diagnostics.extend(race_diagnostics(report))
    return diagnostics
