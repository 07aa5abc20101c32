"""The lint rule framework and the built-in rules.

A :class:`LintRule` inspects a :class:`~repro.lint.context.LintContext`
and yields :class:`~repro.lint.diagnostics.Diagnostic` findings.  Rules
register themselves in a module-level registry (:func:`register`), so
downstream code — and tests — can add rules without touching the driver.
``python -m repro lint`` and the ``validate="static"`` run hook both run
every registered rule (:func:`~repro.lint.driver.run_lints`).

Every built-in rule is grounded in the paper:

=================  ====================================================
``DOALL-ABLE``     no cross-iteration true dependence at run time — the
                   doacross machinery (Figure 6's efficiency plateau) is
                   pure overhead; run as a doall.
``AFFINE-WRITE``   the write subscript is statically affine — §2.3's
                   linear-subscript variant removes the inspector and the
                   ``iter`` array.
``SELF-ANTI-ONLY`` only antidependences cross iterations — the ``ynew``
                   renaming alone restores independence; no executor wait
                   can ever fire.
``DEAD-WAIT``      a term slot whose reads are never true-dependent
                   (Figure 5's ``check < 0`` branch is dead for it) still
                   pays the dependence check.
``CHUNK-CYCLE``    the chunk/strip-mine choice serializes the wavefront:
                   contiguous runs longer than the minimum dependence
                   distance stall readers behind same-stream writers (the
                   block-schedule staircase), and strip blocks narrower
                   than the widest wavefront cap its parallelism (§2.3).
``UNREACHED-ELEMENT`` reads of never-written elements always take the
                   ``iter == MAXINT`` old-value path.
``SYNC-ELIDABLE``  the dependence-test battery proves every true
                   dependence has distance >= the synchronization
                   granularity: the per-element post/wait protocol can be
                   replaced by one barrier per group (proof-backed).
``COUPLED-SUBSCRIPT`` a declared read slot's subscript defeats the whole
                   test battery (non-affine / runtime-coupled): only the
                   runtime inspector can schedule the loop.
``VERDICT-CHECK``  the symbolic verdict fails its proof audit or the
                   cross-check against the runtime inspector — a slot
                   layout or subscript that disagrees with the read
                   table, a distance or bound the inspector contradicts
                   (error).
=================  ====================================================

``DOALL-ABLE`` and ``AFFINE-WRITE`` are *proof-backed*: when the
symbolic dependence engine (:mod:`repro.analysis`) proves the property
for every input, the finding says so and cites the verdict; otherwise
they fall back to the value-level observation on this instance and say
that instead.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

from repro.ir.analysis import CAT_TRUE, sorted_unique
from repro.ir.subscript import AffineSubscript
from repro.ir.transform import STRATEGY_DOALL, STRATEGY_LINEAR
from repro.lint.context import LintContext
from repro.lint.diagnostics import (
    SEVERITY_ERROR,
    SEVERITY_INFO,
    SEVERITY_WARNING,
    Diagnostic,
)

__all__ = [
    "LintRule",
    "register",
    "all_rules",
    "get_rule",
    "rule_ids",
    "DoallAbleRule",
    "AffineWriteRule",
    "SelfAntiOnlyRule",
    "DeadWaitRule",
    "ChunkCycleRule",
    "UnreachedElementRule",
    "SyncElidableRule",
    "CoupledSubscriptRule",
    "VerdictCheckRule",
]


class LintRule:
    """Base class: one named check over a :class:`LintContext`.

    Subclasses set :attr:`rule_id`, :attr:`default_severity`,
    :attr:`paper_ref`, and :attr:`description`, and implement
    :meth:`check`.
    """

    rule_id: str = ""
    default_severity: str = SEVERITY_WARNING
    paper_ref: str = ""
    description: str = ""

    def check(self, ctx: LintContext) -> Iterator[Diagnostic]:
        """Yield findings for ``ctx`` (empty when the rule is quiet)."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    def finding(
        self,
        ctx: LintContext,
        message: str,
        suggestion: str = "",
        location: str = "",
        severity: str | None = None,
    ) -> Diagnostic:
        """Build a :class:`Diagnostic` stamped with this rule's identity."""
        return Diagnostic(
            rule=self.rule_id,
            severity=self.default_severity if severity is None else severity,
            loop=ctx.loop.name,
            message=message,
            suggestion=suggestion,
            location=location,
            paper_ref=self.paper_ref,
        )


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
_REGISTRY: dict[str, type[LintRule]] = {}


def register(rule_cls: type[LintRule]) -> type[LintRule]:
    """Class decorator: add ``rule_cls`` to the registry (by rule ID)."""
    if not rule_cls.rule_id:
        raise ValueError(f"{rule_cls.__name__} has no rule_id")
    if rule_cls.rule_id in _REGISTRY:
        raise ValueError(f"duplicate rule ID {rule_cls.rule_id!r}")
    _REGISTRY[rule_cls.rule_id] = rule_cls
    return rule_cls


def rule_ids() -> list[str]:
    """Registered rule IDs, sorted."""
    return sorted(_REGISTRY)


def get_rule(rule_id: str) -> LintRule:
    """Instantiate the registered rule with ID ``rule_id``."""
    try:
        return _REGISTRY[rule_id]()
    except KeyError:
        raise KeyError(
            f"unknown lint rule {rule_id!r}; registered: "
            f"{', '.join(rule_ids())}"
        ) from None


def all_rules(only: Iterable[str] | None = None) -> list[LintRule]:
    """Instances of every registered rule (or the subset ``only``)."""
    ids = rule_ids() if only is None else list(only)
    return [get_rule(rule_id) for rule_id in ids]


# ----------------------------------------------------------------------
# Built-in rules
# ----------------------------------------------------------------------
@register
class DoallAbleRule(LintRule):
    rule_id = "DOALL-ABLE"
    default_severity = SEVERITY_WARNING
    paper_ref = "§1, Figure 6 (odd L)"
    description = (
        "no cross-iteration true dependence: the loop is a doall and the "
        "inspector/wait machinery is pure overhead"
    )

    def check(self, ctx: LintContext) -> Iterator[Diagnostic]:
        from repro.analysis import VERDICT_DOALL

        if ctx.loop.n == 0 or ctx.plan.strategy == STRATEGY_DOALL:
            return
        if ctx.verdict.kind == VERDICT_DOALL:
            # Proof-backed: independence holds for *every* input, not just
            # the one this instance materialized.
            yield self.finding(
                ctx,
                "proven independent for every input: no read slot can "
                "carry a cross-iteration true dependence (symbolic "
                "verdict doall-proven)",
                suggestion=(
                    "run with analyze=\"symbolic\" — parallelize(loop, "
                    "analyze=\"symbolic\") dispatches to a doall with the "
                    "inspector elided; no caller assertion needed"
                ),
            )
            return
        if ctx.summary.true_terms == 0:
            yield self.finding(
                ctx,
                "no read is true-dependent on an earlier iteration; every "
                "iteration is independent once writes are renamed "
                "(observed on this instance — not proven for every input)",
                suggestion=(
                    "run as a doall — parallelize(loop, "
                    "assert_independent=True) — or use the vectorized "
                    "backend, which collapses the loop to one wavefront"
                ),
            )


@register
class AffineWriteRule(LintRule):
    rule_id = "AFFINE-WRITE"
    default_severity = SEVERITY_WARNING
    paper_ref = "§2.3 (linear subscripts)"
    description = (
        "statically affine write subscript: the linear variant computes "
        "writers in closed form, eliminating the inspector and iter array"
    )

    def check(self, ctx: LintContext) -> Iterator[Diagnostic]:
        sub = ctx.loop.write_subscript
        if not isinstance(sub, AffineSubscript):
            return
        if ctx.loop.reads.total_terms == 0:
            return
        detail = (
            f"write subscript is affine (i ↦ {sub.c}·i + {sub.d}); the "
            f"writer of element off is (off − {sub.d})/{sub.c} in closed "
            f"form"
        )
        if ctx.verdict.write_injective:
            detail += " (injectivity proven by the symbolic engine)"
        if ctx.plan.needs_inspector:
            suggestion = (
                "use the linear variant "
                "(PreprocessedDoacross.run(loop, linear=True)): no "
                "inspector phase, no iter array storage"
            )
            if ctx.verdict.elidable:
                suggestion += (
                    "; or analyze=\"symbolic\" — the full verdict is "
                    "elidable, so the inspector record itself can be "
                    "built in closed form"
                )
            yield self.finding(
                ctx,
                detail + " — yet the plan schedules an inspector phase",
                suggestion=suggestion,
            )
        elif ctx.plan.strategy == STRATEGY_LINEAR:
            yield self.finding(
                ctx,
                detail + " — the plan already selects the linear variant",
                severity=SEVERITY_INFO,
            )


@register
class SelfAntiOnlyRule(LintRule):
    rule_id = "SELF-ANTI-ONLY"
    default_severity = SEVERITY_INFO
    paper_ref = "§2.1 (ynew renaming), Figure 5"
    description = (
        "only antidependences cross iterations: renaming writes into ynew "
        "removes them all, so no executor wait can ever block"
    )

    def check(self, ctx: LintContext) -> Iterator[Diagnostic]:
        s = ctx.summary
        if s.true_terms == 0 and s.anti_terms > 0:
            yield self.finding(
                ctx,
                f"all {s.anti_terms} cross-iteration reference(s) are "
                f"antidependences; the ynew renaming alone makes every "
                f"iteration independent — no wait will ever block",
                suggestion=(
                    "no synchronization is needed: any schedule is legal, "
                    "and wait instrumentation can be elided"
                ),
            )


@register
class DeadWaitRule(LintRule):
    rule_id = "DEAD-WAIT"
    default_severity = SEVERITY_WARNING
    paper_ref = "Figure 5 trichotomy, §3.1 (binding term)"
    description = (
        "a term slot that is never true-dependent still pays the planned "
        "dependence check; its wait branch is dead"
    )

    #: Cap on slots listed in the message (the count stays exact).
    max_listed = 8

    def check(self, ctx: LintContext) -> Iterator[Diagnostic]:
        if not ctx.plan.needs_inspector or ctx.summary.true_terms == 0:
            # Without an inspector there are no planned waits; without any
            # true dependence DOALL-ABLE already reports the whole loop.
            return
        loop = ctx.loop
        readers, _writers, categories = ctx.classified
        total = loop.reads.total_terms
        if total == 0:
            return
        slot = np.arange(total, dtype=np.int64) - loop.reads.ptr[readers]
        n_slots = int(slot.max()) + 1
        present = np.bincount(slot, minlength=n_slots)
        true_hits = np.bincount(
            slot[categories == CAT_TRUE], minlength=n_slots
        )
        dead = np.nonzero((present > 0) & (true_hits == 0))[0]
        if len(dead) == 0:
            return
        listed = ", ".join(str(int(j)) for j in dead[: self.max_listed])
        if len(dead) > self.max_listed:
            listed += ", …"
        dead_terms = int(present[dead].sum())
        yield self.finding(
            ctx,
            f"{len(dead)} term slot(s) [{listed}] are never "
            f"true-dependent in any iteration ({dead_terms} term(s) pay a "
            f"dependence check whose wait branch cannot fire)",
            suggestion=(
                "order terms so the binding (true-dependent) terms come "
                "first and skip the iter check for the dead slots"
            ),
            location=f"term slot(s) {listed}",
        )


@register
class ChunkCycleRule(LintRule):
    rule_id = "CHUNK-CYCLE"
    default_severity = SEVERITY_WARNING
    paper_ref = "§2.3 (strip-mining); scheduling ablation A"
    description = (
        "the chunk or strip-mine choice serializes the wavefront: "
        "contiguous runs longer than the minimum dependence distance, or "
        "strip blocks narrower than the widest wavefront"
    )

    def check(self, ctx: LintContext) -> Iterator[Diagnostic]:
        d_min = ctx.summary.min_distance
        if d_min is not None and ctx.schedule_kind is not None:
            run = self._contiguous_run(ctx)
            if run is not None and run > d_min:
                yield self.finding(
                    ctx,
                    f"schedule {ctx.schedule_kind!r} hands each processor "
                    f"contiguous runs of {run} iteration(s), but the "
                    f"minimum true-dependence distance is {d_min}: readers "
                    f"stall behind writers later in the previous run (the "
                    f"block-schedule staircase)",
                    suggestion=(
                        f"use a cyclic schedule with chunk <= {d_min} so "
                        f"dependent iterations land on different "
                        f"processors and pipeline"
                    ),
                    location=f"schedule={ctx.schedule_kind}, run={run}",
                )
        if ctx.strip_block is not None:
            width = ctx.level_schedule.max_width()
            if 0 < ctx.strip_block < width:
                yield self.finding(
                    ctx,
                    f"strip-mine block {ctx.strip_block} is narrower than "
                    f"the widest wavefront ({width} independent "
                    f"iterations): at most {ctx.strip_block} of them can "
                    f"run concurrently per block",
                    suggestion=(
                        f"raise the strip block to >= {width}, or accept "
                        f"the memory/parallelism trade (§2.3)"
                    ),
                    location=f"strip_block={ctx.strip_block}",
                )

    @staticmethod
    def _contiguous_run(ctx: LintContext) -> int | None:
        """Longest run of consecutive positions one processor executes
        back-to-back under the configured schedule."""
        n, p = ctx.loop.n, ctx.processors
        if ctx.schedule_kind == "block":
            return -(-n // p) if n else None
        if ctx.schedule_kind in ("cyclic", "dynamic"):
            return ctx.chunk
        if ctx.schedule_kind == "guided":
            return max(ctx.chunk, -(-n // (2 * p))) if n else None
        return None


@register
class UnreachedElementRule(LintRule):
    rule_id = "UNREACHED-ELEMENT"
    default_severity = SEVERITY_INFO
    paper_ref = "Figure 5 (iter = MAXINT)"
    description = (
        "reads of elements no iteration writes always take the MAXINT "
        "old-value path"
    )

    max_listed = 5

    def check(self, ctx: LintContext) -> Iterator[Diagnostic]:
        s = ctx.summary
        if s.unwritten_terms == 0:
            return
        _readers, writers, _categories = ctx.classified
        unwritten = sorted_unique(ctx.loop.reads.index[writers < 0])
        listed = ", ".join(str(int(e)) for e in unwritten[: self.max_listed])
        if len(unwritten) > self.max_listed:
            listed += ", …"
        yield self.finding(
            ctx,
            f"{s.unwritten_terms} read term(s) reference {len(unwritten)} "
            f"element(s) [{listed}] that no iteration writes; they always "
            f"read the old y value through the iter == MAXINT path",
            suggestion=(
                "nothing to fix — but if *all* reads are of this kind the "
                "loop is a doall (see DOALL-ABLE)"
            ),
            location=f"elements {listed}",
        )


@register
class SyncElidableRule(LintRule):
    rule_id = "SYNC-ELIDABLE"
    default_severity = SEVERITY_WARNING
    paper_ref = "§2.2 (synchronization distance); arXiv 1311.2927"
    description = (
        "the battery proves every cross-iteration true dependence has "
        "distance >= the synchronization granularity: per-element "
        "post/wait can be replaced by one barrier per iteration group"
    )

    def check(self, ctx: LintContext) -> Iterator[Diagnostic]:
        # A doall plan has no synchronization to elide; every other
        # strategy (inspector-based or linear) still runs the Figure-5
        # post/wait protocol the group barrier replaces.
        if ctx.loop.n == 0 or ctx.plan.strategy == STRATEGY_DOALL:
            return
        verdict = ctx.verdict
        m = verdict.min_distance
        if m is None or m < 2 or not verdict.write_injective:
            return
        if ctx.summary.true_terms == 0:
            # Nothing to synchronize at all — DOALL-ABLE owns that case.
            return
        group = int(m)
        suggestion = (
            f"run with analyze=\"symbolic\": the distance-elision pass "
            f"replaces every post/wait with one barrier per group of "
            f"{group} iterations (proof-carrying certificate recorded in "
            f"the plan)"
        )
        chunk = ctx.chunk
        if chunk and chunk > 1:
            if chunk > m:
                suggestion += (
                    f"; note chunk={chunk} exceeds the proven distance "
                    f"{m}, so the multiproc backend cannot group-align — "
                    f"lower the chunk to <= {m}"
                )
            elif m % chunk:
                aligned = chunk * (m // chunk)
                suggestion += (
                    f"; the multiproc group is chunk-aligned down to "
                    f"{aligned} — raise the chunk to a divisor of {m} "
                    f"(or to {m} itself) to keep the full group"
                )
        yield self.finding(
            ctx,
            f"every cross-iteration true dependence is proven to have "
            f"distance >= {m} (verdict {verdict.kind!r}, write "
            f"injectivity proven): the planned per-element post/wait "
            f"protocol is {m}x finer than the dependences require",
            suggestion=suggestion,
            location=f"min_distance={m}",
        )


@register
class CoupledSubscriptRule(LintRule):
    rule_id = "COUPLED-SUBSCRIPT"
    default_severity = SEVERITY_INFO
    paper_ref = "§2 (runtime inspection); GCD/Banerjee applicability"
    description = (
        "a declared read slot's subscript defeats the whole dependence-"
        "test battery; only the runtime inspector can schedule the loop"
    )

    max_listed = 8

    def check(self, ctx: LintContext) -> Iterator[Diagnostic]:
        loop = ctx.loop
        if loop.read_slots is not None:
            slots = ctx.verdict.slots
            total = len(slots)
            opaque = [s.slot for s in slots if not s.applicable]
        elif loop.reads.total_terms:
            # A raw read table is one opaque slot: nothing is declared.
            total, opaque = 1, [0]
        else:
            return
        if not opaque:
            return
        listed = ", ".join(str(j) for j in opaque[: self.max_listed])
        if len(opaque) > self.max_listed:
            listed += ", …"
        yield self.finding(
            ctx,
            f"{len(opaque)} of {total} declared read slot(s) "
            f"[{listed}] carry subscripts the test battery cannot model "
            f"(non-affine or runtime-coupled): no static direction or "
            f"distance is provable for them",
            suggestion=(
                "keep the runtime inspector for this loop — the paper's "
                "preprocessing is exactly the fallback for subscripts "
                "static tests cannot decide; declaring the slot with an "
                "affine/strided closed form (if one exists) would bring "
                "it into the battery's reach"
            ),
            location=f"slot(s) {listed}",
        )


@register
class VerdictCheckRule(LintRule):
    rule_id = "VERDICT-CHECK"
    default_severity = SEVERITY_ERROR
    paper_ref = "§2 (runtime inspection)"
    description = (
        "the symbolic verdict fails its proof audit (check_proof) or its "
        "cross-check against the runtime inspector (cross_check)"
    )

    def check(self, ctx: LintContext) -> Iterator[Diagnostic]:
        from repro.analysis import cross_check

        # cross_check's problems begin with check_proof's.
        report = cross_check(ctx.loop, ctx.verdict, classified=ctx.classified)
        for problem in report.problems:
            yield self.finding(
                ctx,
                problem,
                suggestion="keep the loop off analyze=\"symbolic\" until "
                "its ReadSlot declarations (or the engine rule) are fixed",
            )
