"""The symbolic dependence engine.

:func:`analyze_loop` runs abstract interpretation over a loop's write
subscript and declared read slots and composes a
:class:`~repro.analysis.verdicts.DependenceVerdict` with an attached
machine-checkable proof.  The derivation rules, in the order tried per
slot:

1. **inactive-slot** — empty active range: no reference at all.
2. **identical-subscript** — read and write closed forms are structurally
   equal: every reference is intra-iteration (paper Figure 5's
   ``check == 0`` case).
3. **same-stride-distance** — both affine with equal stride ``c``: the
   §2.3 closed form.  ``c ∤ (d_w − d_r)`` means the read can never hit a
   written element; otherwise the dependence distance is the constant
   ``(d_w − d_r)/c`` — positive: true, zero: intra, negative: anti.
4. **congruence-disjoint** — write and read classes are incongruent
   modulo ``gcd`` of their moduli: no aliasing for any index value.
5. **interval-disjoint** — value ranges cannot overlap.
6. **monotone-no-true** — the write is strictly monotone and the read
   stays strictly on its "later" side pointwise, so any aliasing writer
   comes *after* the reader: anti or nothing, never a true dependence.

Everything the engine concludes is value-independent: it holds for every
input array, unlike the runtime inspector's per-instance answer.
"""

from __future__ import annotations

from math import gcd

import numpy as np

from repro.analysis.deptest.battery import run_battery
from repro.analysis.domains import DomainFacts
from repro.analysis.eval import facts_for_subscript
from repro.analysis.proofs import (
    RULE_AFFINE_INJECTIVE,
    RULE_COMPOSE,
    RULE_CONGRUENCE_DISJOINT,
    RULE_IDENTICAL_SUBSCRIPT,
    RULE_INACTIVE_SLOT,
    RULE_INTERVAL_DISJOINT,
    RULE_MONOTONE_INJECTIVE,
    RULE_MONOTONE_NO_TRUE,
    RULE_NO_READS,
    RULE_SAME_STRIDE,
    RULE_SINGLE_ITERATION,
    Check,
    Proof,
    ProofStep,
)
from repro.analysis.verdicts import (
    SLOT_ANTI,
    SLOT_INTRA,
    SLOT_NO_TRUE,
    SLOT_NONE,
    SLOT_TRUE,
    SLOT_UNKNOWN,
    VERDICT_CONSTANT_DISTANCE,
    VERDICT_DOALL,
    VERDICT_INJECTIVE_WRITE,
    VERDICT_RUNTIME_ONLY,
    DependenceVerdict,
    SlotDependence,
    min_distance_kind,
)
from repro.errors import ProofError
from repro.ir.accesses import ReadSlot
from repro.ir.loop import IrregularLoop
from repro.ir.subscript import Subscript

__all__ = ["analyze_loop", "slot_term_map"]


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


def _classify_slot(
    j: int,
    slot: ReadSlot,
    wf: DomainFacts | None,
    write_sub: Subscript,
    n: int,
) -> tuple[SlotDependence, ProofStep | None]:
    """(SlotDependence, ProofStep | None) for one declared read slot."""
    lo, hi = slot.active_range(n)
    target = f"slot[{j}]"
    if hi <= lo:
        dep = SlotDependence(j, SLOT_NONE, RULE_INACTIVE_SLOT, (lo, hi))
        return dep, ProofStep(
            rule=RULE_INACTIVE_SLOT,
            target=target,
            conclusion="never active",
            checks=(Check("empty-range", (lo, hi)),),
        )
    rf = facts_for_subscript(slot.subscript, lo, hi - 1)
    if rf is None or wf is None:
        return SlotDependence(j, SLOT_UNKNOWN, "", (lo, hi)), None

    wsig = write_sub.static_signature()
    rsig = slot.subscript.static_signature()
    if wsig is not None and wsig == rsig:
        dep = SlotDependence(
            j, SLOT_INTRA, RULE_IDENTICAL_SUBSCRIPT, (lo, hi),
            distance=0, dep_range=(lo, hi),
        )
        return dep, ProofStep(
            rule=RULE_IDENTICAL_SUBSCRIPT,
            target=target,
            conclusion="read subscript equals the write subscript: "
            "every reference is intra-iteration",
            facts=(("signature", ("equal",)),),
        )

    facts = (
        ("write-affine", wf.affine.as_tuple()),
        ("read-affine", rf.affine.as_tuple()),
        ("write-congruence", wf.congruence.as_tuple()),
        ("read-congruence", rf.congruence.as_tuple()),
        ("write-interval", wf.interval.as_tuple()),
        ("read-interval", rf.interval.as_tuple()),
    )

    both_affine = not wf.affine.is_top and not rf.affine.is_top
    if both_affine and wf.affine.c == rf.affine.c and wf.affine.c != 0:
        c = wf.affine.c
        diff = wf.affine.d - rf.affine.d
        if diff % c != 0:
            dep = SlotDependence(j, SLOT_NONE, RULE_SAME_STRIDE, (lo, hi))
            return dep, ProofStep(
                rule=RULE_SAME_STRIDE,
                target=target,
                conclusion=f"{c} does not divide {diff}: the read never "
                f"hits a written element",
                checks=(Check("not-divides", (c, diff)),),
                facts=facts,
            )
        delta = diff // c
        if delta == 0:
            dep = SlotDependence(
                j, SLOT_INTRA, RULE_SAME_STRIDE, (lo, hi),
                distance=0, dep_range=(lo, hi),
            )
            return dep, ProofStep(
                rule=RULE_SAME_STRIDE,
                target=target,
                conclusion="distance 0: intra-iteration reference",
                checks=(
                    Check("eq", (wf.affine.c, rf.affine.c)),
                    Check("divides", (c, diff)),
                    Check("eq", (delta, 0)),
                ),
                facts=facts,
            )
        if delta > 0:
            a, b = max(lo, delta), hi
            if b <= a:
                dep = SlotDependence(
                    j, SLOT_NONE, RULE_SAME_STRIDE, (lo, hi)
                )
                return dep, ProofStep(
                    rule=RULE_SAME_STRIDE,
                    target=target,
                    conclusion=f"distance {delta} binds no iteration in "
                    f"the active range",
                    checks=(
                        Check("divides", (c, diff)),
                        Check("empty-range", (a, b)),
                    ),
                    facts=facts,
                )
            dep = SlotDependence(
                j, SLOT_TRUE, RULE_SAME_STRIDE, (lo, hi),
                distance=delta, dep_range=(a, b),
            )
            return dep, ProofStep(
                rule=RULE_SAME_STRIDE,
                target=target,
                conclusion=f"true dependence of constant distance {delta} "
                f"for i in [{a}, {b})",
                checks=(
                    Check("eq", (wf.affine.c, rf.affine.c)),
                    Check("divides", (c, diff)),
                    Check("gt", (delta, 0)),
                ),
                facts=facts,
            )
        # delta < 0: the aliasing writer comes later (anti) while it
        # exists, i.e. while i − delta <= n − 1.
        a, b = lo, min(hi, n + delta)
        if b <= a:
            dep = SlotDependence(j, SLOT_NONE, RULE_SAME_STRIDE, (lo, hi))
            return dep, ProofStep(
                rule=RULE_SAME_STRIDE,
                target=target,
                conclusion=f"distance {delta}: the would-be writer lies "
                f"beyond the iteration range",
                checks=(
                    Check("divides", (c, diff)),
                    Check("empty-range", (a, b)),
                ),
                facts=facts,
            )
        dep = SlotDependence(
            j, SLOT_ANTI, RULE_SAME_STRIDE, (lo, hi),
            distance=delta, dep_range=(a, b),
        )
        return dep, ProofStep(
            rule=RULE_SAME_STRIDE,
            target=target,
            conclusion=f"antidependence of distance {-delta} for i in "
            f"[{a}, {b})",
            checks=(
                Check("eq", (wf.affine.c, rf.affine.c)),
                Check("divides", (c, diff)),
                Check("lt", (delta, 0)),
            ),
            facts=facts,
        )

    # Congruence disjointness (covers non-affine closed forms).
    mw, rw = wf.congruence.modulus, wf.congruence.residue
    mr, rr = rf.congruence.modulus, rf.congruence.residue
    g = gcd(mw, mr)
    if (g == 0 and rw != rr) or (g > 1 and (rw - rr) % g != 0):
        check = (
            Check("ne", (rw, rr))
            if g == 0
            else Check("incongruent", (rw, rr, g))
        )
        dep = SlotDependence(
            j, SLOT_NONE, RULE_CONGRUENCE_DISJOINT, (lo, hi)
        )
        return dep, ProofStep(
            rule=RULE_CONGRUENCE_DISJOINT,
            target=target,
            conclusion="write and read classes are incongruent: no "
            "aliasing for any i",
            checks=(check,),
            facts=facts,
        )

    # Interval disjointness.
    if wf.interval.disjoint_from(rf.interval):
        dep = SlotDependence(
            j, SLOT_NONE, RULE_INTERVAL_DISJOINT, (lo, hi)
        )
        return dep, ProofStep(
            rule=RULE_INTERVAL_DISJOINT,
            target=target,
            conclusion="write and read value ranges cannot overlap",
            checks=(
                Check(
                    "disjoint-intervals",
                    (
                        wf.interval.lo,
                        wf.interval.hi,
                        rf.interval.lo,
                        rf.interval.hi,
                    ),
                ),
            ),
            facts=facts,
        )

    # Monotone separation: write strictly monotone, read strictly on the
    # "later" side pointwise, so any aliasing writer follows the reader.
    if both_affine and wf.affine.c != 0:
        cw, dw = wf.affine.c, wf.affine.d
        cr, dr = rf.affine.c, rf.affine.d
        e_lo = (cr - cw) * lo + (dr - dw)
        e_hi = (cr - cw) * (hi - 1) + (dr - dw)
        if cw > 0 and min(e_lo, e_hi) > 0:
            dep = SlotDependence(
                j, SLOT_NO_TRUE, RULE_MONOTONE_NO_TRUE, (lo, hi)
            )
            return dep, ProofStep(
                rule=RULE_MONOTONE_NO_TRUE,
                target=target,
                conclusion="read stays strictly above the increasing "
                "write: any aliasing writer is a later iteration "
                "(anti or none, never true)",
                checks=(
                    Check("gt", (cw, 0)),
                    Check("gt", (min(e_lo, e_hi), 0)),
                ),
                facts=facts,
            )
        if cw < 0 and max(e_lo, e_hi) < 0:
            dep = SlotDependence(
                j, SLOT_NO_TRUE, RULE_MONOTONE_NO_TRUE, (lo, hi)
            )
            return dep, ProofStep(
                rule=RULE_MONOTONE_NO_TRUE,
                target=target,
                conclusion="read stays strictly below the decreasing "
                "write: any aliasing writer is a later iteration "
                "(anti or none, never true)",
                checks=(
                    Check("lt", (cw, 0)),
                    Check("lt", (max(e_lo, e_hi), 0)),
                ),
                facts=facts,
            )

    return SlotDependence(j, SLOT_UNKNOWN, "", (lo, hi)), None


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

    slots: list[SlotDependence] = []
    reads_known: bool
    if loop.read_slots is not None:
        for j, slot in enumerate(loop.read_slots):
            dep, step = _classify_slot(
                j, slot, wf, loop.write_subscript, n
            )
            slots.append(dep)
            if step is not None:
                steps.append(step)
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
        reads_known = False

    fully = bool(
        injective
        and loop.write_subscript.statically_known
        and reads_known
    )
    # The classical test battery runs alongside the exact classifier:
    # its per-slot direction/distance vectors ride on the verdict, and
    # its loop-level bound both upgrades otherwise-unclassifiable loops
    # to a ``min-distance-k`` verdict and legalizes group-synchronous
    # post/wait elision (repro.passes.distance.plan_distance_elision).
    battery = run_battery(loop)
    batt_min = battery.min_distance
    steps.extend(battery.proof_steps())
    true_slots = [s for s in slots if s.kind == SLOT_TRUE]
    distance = None
    if fully:
        if not true_slots:
            kind = VERDICT_DOALL
            compose_checks = (Check("eq", (len(true_slots), 0)),)
            conclusion = (
                "write injective and no slot carries a true dependence: "
                "DOALL for every input"
            )
        else:
            distances = {s.distance for s in true_slots}
            if len(distances) == 1:
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
                distance = None
                compose_checks = (Check("gt", (len(distances), 1)),)
                conclusion = (
                    "slots fully classified but true-dependence "
                    "distances differ: injective write only"
                )
    elif injective:
        if batt_min is not None and batt_min >= 2:
            kind = min_distance_kind(batt_min)
            compose_checks = (Check("ge", (batt_min, 2)),)
            conclusion = (
                f"read side not fully classifiable, but every true "
                f"dependence has proven distance >= {batt_min}"
            )
        else:
            kind = VERDICT_INJECTIVE_WRITE
            compose_checks = ()
            conclusion = (
                "write proven injective; read side not fully classifiable"
            )
    else:
        kind = VERDICT_RUNTIME_ONLY
        compose_checks = ()
        conclusion = "nothing provable statically: runtime inspection "
        conclusion += "required"
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
        slots=tuple(slots),
        proof=Proof(tuple(steps)),
        distance=distance,
        min_distance=batt_min,
        vectors=battery.vectors,
    )
    loop.__dict__["_symbolic_verdict"] = verdict
    return verdict


def slot_term_map(loop: IrregularLoop) -> np.ndarray:
    """Per-flat-term slot id under the slot contract.

    Iteration ``i``'s terms are its active slots in increasing slot
    order; this returns, for each flat term of ``loop.reads``, the slot
    it corresponds to.  Raises :class:`ProofError` when the declared
    slots do not tile the read table (wrong per-iteration counts).
    """
    if loop.read_slots is None:
        raise ProofError(f"{loop.name}: loop declares no read slots")
    n = loop.n
    ranges = [slot.active_range(n) for slot in loop.read_slots]
    counts = np.zeros(n, dtype=np.int64)
    for lo, hi in ranges:
        counts[lo:hi] += 1
    if not np.array_equal(counts, loop.reads.term_counts()):
        bad = int(np.nonzero(counts != loop.reads.term_counts())[0][0])
        raise ProofError(
            f"{loop.name}: declared slots give {int(counts[bad])} term(s) "
            f"at iteration {bad}, read table has "
            f"{int(loop.reads.term_count(bad))}"
        )
    if not ranges:
        return np.empty(0, dtype=np.int64)
    iters = np.concatenate(
        [np.arange(lo, hi, dtype=np.int64) for lo, hi in ranges]
    )
    sids = np.concatenate(
        [
            np.full(hi - lo, j, dtype=np.int64)
            for j, (lo, hi) in enumerate(ranges)
        ]
    )
    order = np.lexsort((sids, iters))
    return sids[order]
