"""Proof checking and runtime cross-validation.

Two independent layers of defense for shipped verdicts:

- :func:`check_proof` audits the proof object itself: every concrete side
  condition must re-evaluate true (:func:`~repro.analysis.proofs
  .evaluate_check`) and an independent re-derivation must reach the same
  verdict.
- :func:`cross_check` compares the verdict against the *runtime
  inspector's* value-level answer (:mod:`repro.ir.analysis`) on this loop
  instance: the declared slots must tile the read table and their
  subscripts give its indices, a DOALL-proven loop must show no true
  dependence, a constant-distance verdict must match every observed
  distance and a proven lower bound the smallest one, a write proven
  injective must be, and each slot's claimed classification must match
  the observed category of every one of its terms.  It is the only code
  that compares a verdict with its loop: the debug mode behind
  ``make_runner(..., analyze="symbolic+check")`` and the ``VERDICT-CHECK``
  lint rule, which ``python -m repro lint`` and ``validate="static"``
  both run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.analysis.engine import analyze_loop, slot_terms
from repro.analysis.verdicts import (
    SLOT_INTRA,
    SLOT_NO_TRUE,
    SLOT_NONE,
    SLOT_TRUE,
    SLOT_UNKNOWN,
    VERDICT_CONSTANT_DISTANCE,
    VERDICT_DOALL,
    DependenceVerdict,
    SlotDependence,
)
from repro.errors import OutputDependenceError, ProofError
from repro.ir.loop import IrregularLoop
from repro.ir.analysis import (
    CAT_ANTI,
    CAT_INTRA,
    CAT_NONE,
    CAT_TRUE,
    classify_reads,
    sorted_unique,
)

__all__ = ["check_proof", "cross_check", "CrossCheckReport"]

#: Verdict kinds that claim something about the observed distances.
_DISTANCE_KINDS = (VERDICT_DOALL, VERDICT_CONSTANT_DISTANCE)


def check_proof(
    loop: IrregularLoop, verdict: DependenceVerdict | None = None
) -> list[str]:
    """Audit a verdict's proof object; returns a list of problems."""
    if verdict is None:
        verdict = analyze_loop(loop)
    problems: list[str] = []
    for step, check in verdict.proof.failed_checks():
        problems.append(
            f"{step.target}: side condition {check.describe()} of rule "
            f"{step.rule!r} does not hold"
        )
    rederived = analyze_loop(loop, use_cache=False)
    if rederived.signature() != verdict.signature():
        problems.append(
            f"re-derivation reached {rederived.kind!r} "
            f"(d={rederived.distance}), shipped verdict is "
            f"{verdict.kind!r} (d={verdict.distance})"
        )
    return problems


@dataclass
class CrossCheckReport:
    """Outcome of validating a verdict against the runtime inspector."""

    loop_name: str
    verdict_kind: str
    checked_terms: int = 0
    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems

    def describe(self) -> str:
        status = "OK" if self.ok else "MISMATCH"
        head = (
            f"{self.loop_name}: {self.verdict_kind} cross-check {status} "
            f"({self.checked_terms} terms)"
        )
        return "\n".join([head] + ["  " + p for p in self.problems])


def _check_slots(
    loop: IrregularLoop,
    verdict: DependenceVerdict,
    writers: np.ndarray,
    categories: np.ndarray,
    problems: list[str],
) -> None:
    """The declared slots against the read table: their layout, each
    slot's subscript against the indices its terms read, and the
    verdict's claimed classification of the slot against the observed
    categories of its terms."""
    try:
        positions = slot_terms(loop)
    except ProofError as exc:
        problems.append(str(exc))
        return
    deps = {dep.slot: dep for dep in verdict.slots}
    for j, (slot, terms) in enumerate(zip(loop.read_slots, positions)):
        if not len(terms):
            continue
        lo, hi = slot.active_range(loop.n)
        expected = slot.subscript.materialize(hi)[lo:]
        actual = loop.reads.index[terms]
        if not np.array_equal(expected, actual):
            k = int(np.nonzero(expected != actual)[0][0])
            problems.append(
                f"slot {j}: declared subscript gives {int(expected[k])} "
                f"at iteration {lo + k}, read table has {int(actual[k])}"
            )
        elif j in deps:
            _check_slot_terms(
                deps[j],
                categories[terms],
                np.arange(lo, hi),
                writers[terms],
                problems,
            )


def _check_slot_terms(
    dep: SlotDependence,
    categories: np.ndarray,
    readers: np.ndarray,
    writers: np.ndarray,
    problems: list[str],
) -> None:
    """Validate one slot's claimed classification against the observed
    per-term categories (``categories`` etc. already filtered to the
    slot's terms)."""
    tag = f"slot {dep.slot}"
    if dep.kind == SLOT_UNKNOWN:
        return
    if dep.kind == SLOT_NONE:
        bad = categories != CAT_NONE
        if bad.any():
            k = int(np.nonzero(bad)[0][0])
            problems.append(
                f"{tag}: claimed no-reference but iteration "
                f"{int(readers[k])} observes category {int(categories[k])}"
            )
        return
    if dep.kind == SLOT_INTRA:
        bad = categories != CAT_INTRA
        if bad.any():
            k = int(np.nonzero(bad)[0][0])
            problems.append(
                f"{tag}: claimed intra but iteration {int(readers[k])} "
                f"observes category {int(categories[k])}"
            )
        return
    if dep.kind == SLOT_NO_TRUE:
        bad = (categories == CAT_TRUE) | (categories == CAT_INTRA)
        if bad.any():
            k = int(np.nonzero(bad)[0][0])
            problems.append(
                f"{tag}: claimed anti-or-none but iteration "
                f"{int(readers[k])} observes category {int(categories[k])}"
            )
        return
    # TRUE / ANTI: exact category and writer inside dep_range, NONE outside.
    a, b = dep.dep_range
    inside = (readers >= a) & (readers < b)
    want = CAT_TRUE if dep.kind == SLOT_TRUE else CAT_ANTI
    bad_in = inside & (categories != want)
    if bad_in.any():
        k = int(np.nonzero(bad_in)[0][0])
        problems.append(
            f"{tag}: claimed {dep.kind} on [{a}, {b}) but iteration "
            f"{int(readers[k])} observes category {int(categories[k])}"
        )
    wrong_writer = inside & (writers != readers - dep.distance)
    if wrong_writer.any():
        k = int(np.nonzero(wrong_writer)[0][0])
        problems.append(
            f"{tag}: claimed distance {dep.distance} but iteration "
            f"{int(readers[k])} depends on writer {int(writers[k])}"
        )
    bad_out = ~inside & (categories != CAT_NONE)
    if bad_out.any():
        k = int(np.nonzero(bad_out)[0][0])
        problems.append(
            f"{tag}: claimed no-reference outside [{a}, {b}) but "
            f"iteration {int(readers[k])} observes category "
            f"{int(categories[k])}"
        )


def cross_check(
    loop: IrregularLoop,
    verdict: DependenceVerdict | None = None,
    strict: bool = False,
    classified: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> CrossCheckReport:
    """Validate ``verdict`` against the runtime inspector on ``loop``.

    The one comparison of a verdict with its loop: the proof audit
    (:func:`check_proof`), the declared slots against the read table
    (their layout, subscripts and claimed classifications), the verdict's
    distances against the observed ones, and its write injectivity
    against the materialized write.  ``classified`` is the loop's
    :func:`~repro.ir.analysis.classify_reads` when the caller already
    holds it (the lint context), else it is computed here.

    With ``strict=True`` a mismatch raises :class:`ProofError` instead of
    being reported — the behavior of the debug elision mode.
    """
    if verdict is None:
        verdict = analyze_loop(loop)
    report = CrossCheckReport(
        loop_name=loop.name, verdict_kind=verdict.kind
    )
    problems = report.problems
    problems.extend(check_proof(loop, verdict))

    readers, writers, categories = (
        classify_reads(loop) if classified is None else classified
    )
    report.checked_terms = len(categories)

    if loop.read_slots is not None:
        _check_slots(loop, verdict, writers, categories, problems)

    if verdict.kind in _DISTANCE_KINDS or verdict.min_distance is not None:
        # The observed distances, one per true-dependent term.
        true = np.flatnonzero(categories == CAT_TRUE)
        distances = readers[true] - writers[true]
        if verdict.kind == VERDICT_DOALL and len(true):
            problems.append(
                f"DOALL-proven, but the inspector observes a true "
                f"dependence at iteration {int(readers[true[0]])} "
                f"(writer {int(writers[true[0]])})"
            )
        elif verdict.kind == VERDICT_CONSTANT_DISTANCE and (
            not len(distances) or np.any(distances != verdict.distance)
        ):
            problems.append(
                f"constant-distance d={verdict.distance} claimed, "
                f"inspector observes distances "
                f"{sorted_unique(distances).tolist() or 'none'}"
            )
        if verdict.min_distance is not None and len(distances):
            low = int(distances.min())
            if low < verdict.min_distance:
                problems.append(
                    f"verdict claims every true dependence has distance "
                    f">= {verdict.min_distance}, inspector observes "
                    f"distance {low}"
                )
    if verdict.write_injective:
        try:
            loop.check_write_injective()
        except OutputDependenceError:
            problems.append(
                "write claimed injective but materialized values collide"
            )

    if strict and not report.ok:
        raise ProofError(
            f"symbolic verdict failed runtime cross-check:\n"
            f"{report.describe()}"
        )
    return report
