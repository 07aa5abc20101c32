"""The per-slot dependence tests: one classifier for every read slot.

:func:`classify_slot` answers, for one declared read slot against the
loop's write subscript, which *(writer, reader)* iteration relations can
alias at all and — when a cross-iteration true dependence is possible —
**how far** it must reach.  An exact answer (one relation, one constant
distance: the paper's §2.3 closed form) is the special case of a bounded
one, so the same tests that bound a variable distance also produce the
exact per-iteration classification inspector elision needs.  Two tests
come first whatever the subscripts look like:

- **inactive** — empty active range: no reference at all.
- **identical** — read and write closed forms are structurally equal
  (affine or not): every reference is intra-iteration (paper Figure 5's
  ``check == 0`` case).

then an affine pair gets the classical single-index battery, GCD
refutation before the bounds:

- **ZIV** — both subscripts constant: alias everywhere or nowhere.
- **strong SIV** — equal strides ``c``: the §2.3 closed form.  The
  distance is the constant ``(d_w − d_r)/c`` — positive: true, zero:
  intra, negative: anti — over the readers whose writer is in range.
- **weak SIV** — one side constant (weak-zero) or opposed strides
  (weak-crossing): a single writer / crossing point.
- **GCD** — ``gcd(c_w, c_r) ∤ (d_r − d_w)``: the diophantine aliasing
  equation has no integer solution.
- **Banerjee bounds** — the distance function ``δ(i_r) = i_r − i_w(i_r)``
  is affine; its extrema over the (relaxed) feasible region refute whole
  direction classes (``">"`` alone: any aliasing writer comes after the
  reader — anti or nothing, never true) and yield a proven
  ``min_distance`` lower bound on every true dependence (the
  variable-distance case of arXiv 1311.2927).

and anything else closed-form the **MIV fallback**: non-affine subscripts
keep the congruence / interval refutations and otherwise decline to
``*``.  A runtime subscript on either side puts the slot out of the
tests' reach altogether (``applicable=False``).

Every conclusion is one :class:`~repro.analysis.proofs.ProofStep` with
side conditions over concrete integers, which ``check_proof`` /
``cross_check`` audit; everything concluded is value-independent — it
holds for every input array, unlike the runtime inspector's per-instance
answer.

Soundness note: aliasing pairs are a superset of the executor's true
dependences (which run against the *last* writer of an element), so a
``min_distance`` lower-bounds every observed distance even for
non-injective writes.
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil, floor, gcd
from typing import List, Optional, Tuple

from repro.analysis.domains import DomainFacts
from repro.analysis.eval import facts_for_subscript
from repro.analysis.proofs import Check, ProofStep
from repro.analysis.verdicts import (
    DIR_ANY,
    DIR_NONE,
    SlotDependence,
    direction_string,
)
from repro.ir.loop import IrregularLoop

__all__ = [
    "classify_slot",
    "RULE_INACTIVE",
    "RULE_IDENTICAL",
    "RULE_ZIV",
    "RULE_STRONG_SIV",
    "RULE_WEAK_SIV",
    "RULE_GCD",
    "RULE_BANERJEE",
    "RULE_CONGRUENCE",
    "RULE_INTERVAL",
    "RULE_MIV",
]

# Per-slot rule identifiers (cited by proof steps and lint messages).
RULE_INACTIVE = "deptest-inactive"
RULE_IDENTICAL = "deptest-identical"
RULE_ZIV = "deptest-ziv"
RULE_STRONG_SIV = "deptest-strong-siv"
RULE_WEAK_SIV = "deptest-weak-siv"
RULE_GCD = "deptest-gcd"
RULE_BANERJEE = "deptest-banerjee"
RULE_CONGRUENCE = "deptest-congruence"
RULE_INTERVAL = "deptest-interval"
RULE_MIV = "deptest-miv"

_Facts = Tuple[Tuple[str, tuple], ...]


def _step(
    rule: str,
    slot: int,
    conclusion: str,
    checks: Tuple[Check, ...] = (),
    facts: _Facts = (),
) -> ProofStep:
    return ProofStep(
        rule=rule,
        target=f"slot[{slot}]",
        conclusion=conclusion,
        checks=checks,
        facts=facts,
    )


def _none(
    slot: int, active: Tuple[int, int], step: ProofStep
) -> SlotDependence:
    """No aliasing pair exists, by ``step``."""
    return SlotDependence(slot, step.rule, active, DIR_NONE, steps=(step,))


def _ziv(
    slot: int,
    dw: int,
    dr: int,
    n: int,
    rlo: int,
    rhi: int,
    facts: _Facts,
) -> SlotDependence:
    """Both subscripts constant: alias everywhere or nowhere."""
    if dw != dr:
        return _none(
            slot,
            (rlo, rhi),
            _step(
                RULE_ZIV,
                slot,
                f"constant subscripts {dw} != {dr}: no aliasing",
                checks=(Check("ne", (dw, dr)),),
                facts=facts,
            ),
        )
    # Every iteration writes the element; every active iteration reads it.
    may_lt = max(rlo, 1) <= rhi - 1
    may_eq = rhi > rlo
    may_gt = rlo < n - 1
    return SlotDependence(
        slot,
        RULE_ZIV,
        (rlo, rhi),
        direction_string(may_lt, may_eq, may_gt),
        min_distance=1 if may_lt else None,
        steps=(
            _step(
                RULE_ZIV,
                slot,
                f"constant subscripts alias at every iteration pair "
                f"(element {dw})",
                checks=(Check("eq", (dw, dr)),),
                facts=facts,
            ),
        ),
    )


def _weak_zero_write(
    slot: int,
    dw: int,
    cr: int,
    dr: int,
    n: int,
    rlo: int,
    rhi: int,
    facts: _Facts,
) -> SlotDependence:
    """Constant write, strided read: one aliasing reader iteration."""
    diff = dw - dr
    if diff % cr != 0:
        return _none(
            slot,
            (rlo, rhi),
            _step(
                RULE_GCD,
                slot,
                f"{cr} does not divide {diff}: the read never hits the "
                f"written element",
                checks=(Check("not-divides", (cr, diff)),),
                facts=facts,
            ),
        )
    i_star = diff // cr
    if i_star < rlo or i_star > rhi - 1:
        check = (
            Check("lt", (i_star, rlo))
            if i_star < rlo
            else Check("ge", (i_star, rhi))
        )
        return _none(
            slot,
            (rlo, rhi),
            _step(
                RULE_WEAK_SIV,
                slot,
                f"the only aliasing reader i={i_star} lies outside the "
                f"active range [{rlo}, {rhi})",
                checks=(check,),
                facts=facts,
            ),
        )
    may_lt = i_star >= 1
    may_gt = i_star <= n - 2
    return SlotDependence(
        slot,
        RULE_WEAK_SIV,
        (rlo, rhi),
        direction_string(may_lt, True, may_gt),
        min_distance=1 if may_lt else None,
        steps=(
            _step(
                RULE_WEAK_SIV,
                slot,
                f"constant write element read only at i={i_star}; every "
                f"iteration writes it",
                checks=(Check("divides", (cr, diff)),),
                facts=facts,
            ),
        ),
    )


def _frac_interval_intersect(
    a: Tuple[Fraction, Fraction], b: Tuple[Fraction, Fraction]
) -> Tuple[Fraction, Fraction]:
    return max(a[0], b[0]), min(a[1], b[1])


def _solve_linear_range(
    coeff: int, const: Fraction, lo: Fraction, hi: Fraction
) -> Optional[Tuple[Fraction, Fraction]]:
    """The ``x`` interval where ``coeff·x + const ∈ [lo, hi]``, or
    ``None`` when ``coeff == 0`` and the constant misses the window
    (``coeff == 0`` with the constant inside yields an unbounded side
    encoded as very wide fractions by the caller)."""
    if coeff > 0:
        return (lo - const) / coeff, (hi - const) / coeff
    if coeff < 0:
        return (hi - const) / coeff, (lo - const) / coeff
    if lo <= const <= hi:
        return None  # unconstrained
    return Fraction(1), Fraction(0)  # empty


def _general_siv(
    slot: int,
    cw: int,
    dw: int,
    cr: int,
    dr: int,
    n: int,
    rlo: int,
    rhi: int,
    facts: _Facts,
) -> SlotDependence:
    """The general affine single-index pair (``c_w != 0``).

    Solves ``c_w·i_w + d_w = c_r·i_r + d_r`` for ``i_w`` as a function
    of ``i_r``, bounds the distance ``δ(i_r) = i_r − i_w(i_r)`` over the
    relaxed (real) feasible region, and reads directions and the
    ``min_distance`` bound off the extrema — GCD refutation first,
    Banerjee-style interval reasoning after.  Equal strides make ``δ``
    constant: the exact distance, binding exactly the feasible readers.
    """
    active = (rlo, rhi)
    label = RULE_BANERJEE
    if cr == cw:
        label = RULE_STRONG_SIV
    elif cr == 0 or cr == -cw:
        label = RULE_WEAK_SIV

    delta_const = dr - dw
    g = gcd(abs(cw), abs(cr)) if cr != 0 else abs(cw)
    if delta_const % g != 0:
        return _none(
            slot,
            active,
            _step(
                RULE_GCD,
                slot,
                f"gcd({cw}, {cr}) = {g} does not divide {delta_const}: "
                f"the aliasing equation has no integer solution",
                checks=(Check("not-divides", (g, delta_const)),),
                facts=facts,
            ),
        )
    gcd_check = Check("divides", (g, delta_const))

    # Feasible i_r interval: the slot's active range intersected with
    # the readers whose aliasing writer lands inside [0, n-1].
    region: Tuple[Fraction, Fraction] = (
        Fraction(rlo), Fraction(rhi - 1)
    )
    w_lo = min(0, cw * (n - 1))
    w_hi = max(0, cw * (n - 1))
    writer_side = _solve_linear_range(
        cr, Fraction(delta_const), Fraction(w_lo), Fraction(w_hi)
    )
    if writer_side is not None:
        region = _frac_interval_intersect(region, writer_side)
    feasible = (ceil(region[0]), floor(region[1]) + 1)
    if region[0] > region[1]:
        return _none(
            slot,
            active,
            _step(
                label,
                slot,
                "no reader iteration has an in-range aliasing writer",
                checks=(gcd_check, Check("empty-range", feasible)),
                facts=facts,
            ),
        )

    # δ(i_r) = i_r − (c_r·i_r + Δ)/c_w, affine in i_r.
    slope = Fraction(cw - cr, cw)
    intercept = Fraction(-delta_const, cw)

    def delta_at(x: Fraction) -> Fraction:
        return slope * x + intercept

    def sub_region(
        want_lo: Optional[Fraction], want_hi: Optional[Fraction]
    ) -> Optional[Tuple[Fraction, Fraction]]:
        """Feasible sub-interval where δ lies in [want_lo, want_hi]."""
        lo, hi = region
        if slope == 0:
            d = intercept
            ok = (want_lo is None or d >= want_lo) and (
                want_hi is None or d <= want_hi
            )
            return (lo, hi) if ok else None
        bounds = []
        if want_lo is not None:
            x = (want_lo - intercept) / slope
            bounds.append((x, None) if slope > 0 else (None, x))
        if want_hi is not None:
            x = (want_hi - intercept) / slope
            bounds.append((None, x) if slope > 0 else (x, None))
        for b_lo, b_hi in bounds:
            if b_lo is not None:
                lo = max(lo, b_lo)
            if b_hi is not None:
                hi = min(hi, b_hi)
        return (lo, hi) if lo <= hi else None

    true_region = sub_region(Fraction(1), None)
    eq_region = sub_region(Fraction(0), Fraction(0))
    anti_region = sub_region(None, Fraction(-1))

    may_lt = true_region is not None
    may_eq = eq_region is not None
    may_gt = anti_region is not None
    if not (may_lt or may_eq or may_gt):
        # The relaxed δ range contains no integer at all.
        return _none(
            slot,
            active,
            _step(
                label,
                slot,
                "the distance function admits no integer value over the "
                "feasible region: no aliasing pair exists",
                checks=(gcd_check,),
                facts=facts,
            ),
        )

    distance: Optional[int] = None
    min_distance: Optional[int] = None
    checks: List[Check] = [gcd_check]
    if slope == 0 and intercept.denominator == 1:
        distance = int(intercept)
    if may_lt:
        assert true_region is not None
        d_min = min(delta_at(true_region[0]), delta_at(true_region[1]))
        min_distance = max(1, ceil(d_min))
        checks.append(Check("ge", (min_distance, 1)))
        conclusion = (
            f"true dependences reach back at least {min_distance} "
            f"iteration(s)"
        )
    elif may_gt and not may_eq:
        conclusion = (
            "any aliasing writer is a later iteration (anti or none, "
            "never true)"
        )
    else:
        conclusion = (
            "the distance bounds refute any cross-iteration true "
            "dependence"
        )
    if distance is not None:
        conclusion = (
            f"every dependence has exact constant distance {distance}"
        )

    return SlotDependence(
        slot,
        label,
        active,
        direction_string(may_lt, may_eq, may_gt),
        distance=distance,
        min_distance=min_distance,
        dep_range=feasible if distance is not None else None,
        steps=(
            _step(label, slot, conclusion, tuple(checks), facts),
        ),
    )


def _nonaffine(
    slot: int,
    active: Tuple[int, int],
    wf: DomainFacts,
    rf: DomainFacts,
) -> SlotDependence:
    """Closed-form but not affine: congruence / interval refutation,
    otherwise the conservative MIV-style decline."""
    facts = (
        ("write-congruence", wf.congruence.as_tuple()),
        ("read-congruence", rf.congruence.as_tuple()),
        ("write-interval", wf.interval.as_tuple()),
        ("read-interval", rf.interval.as_tuple()),
    )
    mw, rw = wf.congruence.modulus, wf.congruence.residue
    mr, rr = rf.congruence.modulus, rf.congruence.residue
    g = gcd(mw, mr)
    if (g == 0 and rw != rr) or (g > 1 and (rw - rr) % g != 0):
        check = (
            Check("ne", (rw, rr))
            if g == 0
            else Check("incongruent", (rw, rr, g))
        )
        return _none(
            slot,
            active,
            _step(
                RULE_CONGRUENCE,
                slot,
                "write and read congruence classes never coincide",
                checks=(check,),
                facts=facts,
            ),
        )
    if wf.interval.disjoint_from(rf.interval):
        return _none(
            slot,
            active,
            _step(
                RULE_INTERVAL,
                slot,
                "write and read value ranges cannot overlap",
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
            ),
        )
    return SlotDependence(
        slot,
        RULE_MIV,
        active,
        DIR_ANY,
        min_distance=1,
        steps=(
            _step(
                RULE_MIV,
                slot,
                "non-affine closed forms: conservative fallback (any "
                "direction, distance >= 1)",
                facts=facts,
            ),
        ),
    )


def classify_slot(
    loop: IrregularLoop, j: int, wf: Optional[DomainFacts]
) -> SlotDependence:
    """Classify declared read slot ``j`` of ``loop`` against its write
    subscript, whose abstract facts over ``0..n-1`` are ``wf`` (``None``
    for a runtime write; computed once per loop by the caller)."""
    assert loop.read_slots is not None
    slot = loop.read_slots[j]
    n = loop.n
    active = slot.active_range(n)
    rlo, rhi = active
    if rhi <= rlo:
        return _none(
            j,
            active,
            _step(
                RULE_INACTIVE,
                j,
                "slot never active",
                checks=(Check("empty-range", active),),
            ),
        )
    rf = facts_for_subscript(slot.subscript, rlo, rhi - 1)
    if wf is None or rf is None:
        side = "write" if wf is None else "read"
        return SlotDependence(
            j,
            RULE_MIV,
            active,
            DIR_ANY,
            applicable=False,
            steps=(
                _step(
                    RULE_MIV,
                    j,
                    f"tests inapplicable: runtime {side} subscript "
                    f"(inspector required)",
                ),
            ),
        )
    wsig = loop.write_subscript.static_signature()
    if wsig is not None and wsig == slot.subscript.static_signature():
        return SlotDependence(
            j,
            RULE_IDENTICAL,
            active,
            "=",
            distance=0,
            dep_range=active,
            steps=(
                _step(
                    RULE_IDENTICAL,
                    j,
                    "read subscript equals the write subscript: every "
                    "reference is intra-iteration",
                    facts=(("signature", ("equal",)),),
                ),
            ),
        )
    if wf.affine.is_top or rf.affine.is_top:
        return _nonaffine(j, active, wf, rf)
    cw, dw = wf.affine.c, wf.affine.d
    cr, dr = rf.affine.c, rf.affine.d
    facts = (
        ("write-affine", wf.affine.as_tuple()),
        ("read-affine", rf.affine.as_tuple()),
    )
    if cw == 0 and cr == 0:
        return _ziv(j, dw, dr, n, rlo, rhi, facts)
    if cw == 0:
        return _weak_zero_write(j, dw, cr, dr, n, rlo, rhi, facts)
    return _general_siv(j, cw, dw, cr, dr, n, rlo, rhi, facts)
