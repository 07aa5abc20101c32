"""The symbolic dependence engine.

:func:`analyze_loop` composes a loop's
:class:`~repro.analysis.verdicts.DependenceVerdict`, with its
machine-checkable proof, from three parts: write injectivity (abstract
interpretation of the write subscript), one
:func:`~repro.analysis.deptest.classify_slot` call per declared read
slot, and a composition step.  A proof therefore has one step per part:
``m + 2`` for an ``m``-slot loop.

Everything the engine concludes is value-independent: it holds for every
input array, unlike the runtime inspector's per-instance answer.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.deptest import classify_slot
from repro.analysis.domains import DomainFacts
from repro.analysis.eval import facts_for_subscript
from repro.analysis.proofs import (
    RULE_AFFINE_INJECTIVE,
    RULE_COMPOSE,
    RULE_MONOTONE_INJECTIVE,
    RULE_NO_READS,
    RULE_SINGLE_ITERATION,
    Check,
    Proof,
    ProofStep,
)
from repro.analysis.verdicts import (
    SLOT_TRUE,
    VERDICT_CONSTANT_DISTANCE,
    VERDICT_DOALL,
    VERDICT_INJECTIVE_WRITE,
    VERDICT_RUNTIME_ONLY,
    DependenceVerdict,
    SlotDependence,
    min_distance_kind,
)
from repro.errors import ProofError
from repro.ir.loop import IrregularLoop

__all__ = ["analyze_loop", "slot_terms"]


def _write_injectivity(
    loop: IrregularLoop, wf: DomainFacts | None
) -> tuple[bool, ProofStep | None]:
    """(proven, step) for the write subscript over ``0..n-1``."""
    n = loop.n
    if n <= 1:
        return True, ProofStep(
            rule=RULE_SINGLE_ITERATION,
            target="write",
            conclusion="at most one iteration: injective trivially",
            checks=(Check("le", (n, 1)),),
        )
    if wf is None:
        return False, None
    if not wf.affine.is_top and wf.affine.c != 0:
        return True, ProofStep(
            rule=RULE_AFFINE_INJECTIVE,
            target="write",
            conclusion=(
                f"affine {wf.affine.c}·i+{wf.affine.d} with nonzero "
                f"stride is injective"
            ),
            checks=(Check("ne", (wf.affine.c, 0)),),
            facts=(("write-affine", wf.affine.as_tuple()),),
        )
    if wf.monotonicity.is_strictly_monotone:
        return True, ProofStep(
            rule=RULE_MONOTONE_INJECTIVE,
            target="write",
            conclusion="strictly monotone in i: injective",
            facts=(("write-monotonicity", wf.monotonicity.as_tuple()),),
        )
    return False, None


def _min_distance(slots: tuple[SlotDependence, ...]) -> int | None:
    """Proven lower bound on every cross-iteration true-dependence
    distance, or ``None`` when nothing is provable (a runtime subscript,
    or no true dependence is possible at all)."""
    if not all(s.applicable for s in slots):
        return None
    # A slot that may carry a true dependence always has a bound (an
    # exact distance is its own bound); 1 is the trivial one.
    bounds = [s.min_distance or 1 for s in slots if s.may_carry_true]
    return min(bounds, default=None)


def analyze_loop(
    loop: IrregularLoop, use_cache: bool = True
) -> DependenceVerdict:
    """Produce the symbolic dependence verdict for ``loop``.

    The verdict is memoized on the loop object (the analysis is pure in
    the loop's structure, which is immutable after construction).
    """
    if use_cache:
        cached = loop.__dict__.get("_symbolic_verdict")
        if cached is not None:
            assert isinstance(cached, DependenceVerdict)
            return cached

    n = loop.n
    steps: list[ProofStep] = []
    wf = facts_for_subscript(loop.write_subscript, 0, n - 1)
    injective, inj_step = _write_injectivity(loop, wf)
    if inj_step is not None:
        steps.append(inj_step)

    slots: tuple[SlotDependence, ...] = ()
    reads_known: bool
    if loop.read_slots is not None:
        slots = tuple(
            classify_slot(loop, j, wf) for j in range(len(loop.read_slots))
        )
        for s in slots:
            steps.extend(s.steps)
        reads_known = all(s.classified for s in slots)
    elif loop.reads.total_terms == 0:
        reads_known = True
        steps.append(
            ProofStep(
                rule=RULE_NO_READS,
                target="reads",
                conclusion="the loop reads nothing: no dependence to "
                "carry",
                checks=(Check("eq", (loop.reads.total_terms, 0)),),
            )
        )
    else:
        # A raw read table is runtime data: nothing to classify.
        reads_known = False

    fully = bool(
        injective
        and loop.write_subscript.statically_known
        and reads_known
    )
    # The loop-level bound both upgrades otherwise-unclassifiable loops
    # to a ``min-distance-k`` verdict and legalizes group-synchronous
    # post/wait elision (repro.passes.distance.plan_distance_elision).
    min_distance = _min_distance(slots)
    true_slots = [s for s in slots if s.kind == SLOT_TRUE]
    distance = None
    compose_checks: tuple[Check, ...] = ()
    if fully:
        distances = {s.distance for s in true_slots}
        if not true_slots:
            kind = VERDICT_DOALL
            compose_checks = (Check("eq", (len(true_slots), 0)),)
            conclusion = (
                "write injective and no slot carries a true dependence: "
                "DOALL for every input"
            )
        elif len(distances) == 1:
            distance = true_slots[0].distance
            kind = VERDICT_CONSTANT_DISTANCE
            compose_checks = tuple(
                Check("eq", (s.distance, distance)) for s in true_slots
            )
            conclusion = (
                f"every true dependence has constant distance "
                f"{distance}: classic-doacross shape"
            )
        else:
            kind = VERDICT_INJECTIVE_WRITE
            compose_checks = (Check("gt", (len(distances), 1)),)
            conclusion = (
                "slots fully classified but true-dependence "
                "distances differ: injective write only"
            )
    elif injective and min_distance is not None and min_distance >= 2:
        kind = min_distance_kind(min_distance)
        compose_checks = (Check("ge", (min_distance, 2)),)
        conclusion = (
            f"read side not fully classifiable, but every true "
            f"dependence has proven distance >= {min_distance}"
        )
    elif injective:
        kind = VERDICT_INJECTIVE_WRITE
        conclusion = (
            "write proven injective; read side not fully classifiable"
        )
    else:
        kind = VERDICT_RUNTIME_ONLY
        conclusion = (
            "nothing provable statically: runtime inspection required"
        )
    steps.append(
        ProofStep(
            rule=RULE_COMPOSE,
            target="loop",
            conclusion=conclusion,
            checks=compose_checks,
        )
    )

    verdict = DependenceVerdict(
        kind=kind,
        loop_name=loop.name,
        n=n,
        write_injective=injective,
        fully_classified=fully,
        slots=slots,
        proof=Proof(tuple(steps)),
        distance=distance,
        min_distance=min_distance,
    )
    loop.__dict__["_symbolic_verdict"] = verdict
    return verdict


def slot_terms(loop: IrregularLoop) -> list[np.ndarray]:
    """Each declared read slot's flat term positions in ``loop.reads``,
    one per iteration of its active range, in iteration order.

    Iteration ``i``'s terms are its active slots in increasing slot
    order, so slot ``j``'s term at ``i`` is ``ptr[i]`` plus the number of
    slots before ``j`` active at ``i``.  Raises :class:`ProofError` when
    the declared slots do not tile the read table (wrong per-iteration
    counts).
    """
    if loop.read_slots is None:
        raise ProofError(f"{loop.name}: loop declares no read slots")
    n = loop.n
    ranges = [slot.active_range(n) for slot in loop.read_slots]
    counts = np.zeros(n, dtype=np.int64)
    for lo, hi in ranges:
        counts[lo:hi] += 1
    have = loop.reads.term_counts()
    if not np.array_equal(counts, have):
        bad = int(np.nonzero(counts != have)[0][0])
        raise ProofError(
            f"{loop.name}: declared slots give {int(counts[bad])} term(s) "
            f"at iteration {bad}, read table has {int(have[bad])}"
        )
    positions = []
    for j, (lo, hi) in enumerate(ranges):
        pos = loop.reads.ptr[lo:hi].copy()
        for a, b in ranges[:j]:
            a, b = max(a, lo), min(b, hi)
            if a < b:
                pos[a - lo:b - lo] += 1
        positions.append(pos)
    return positions
