"""Structured dependence verdicts.

The engine's output is a :class:`DependenceVerdict` — one of four kinds:

- :data:`VERDICT_DOALL` — no true cross-iteration dependence exists for
  *any* input data; every iteration may run concurrently.
- :data:`VERDICT_CONSTANT_DISTANCE` — every true dependence has the same
  constant distance ``d`` (the classic-doacross eligibility envelope).
- :data:`VERDICT_INJECTIVE_WRITE` — the write subscript is proven
  injective, but the read side is not (fully) summarizable as one of the
  two stronger kinds.
- :data:`VERDICT_RUNTIME_ONLY` — nothing useful is provable; the runtime
  inspector is required.

plus the parametric **min-distance-k** family (:func:`min_distance_kind`):
the read side resisted exact classification, but the dependence tests
(:mod:`repro.analysis.deptest`) proved every cross-iteration true
dependence reaches back at least ``k >= 2`` iterations — enough for
group-synchronous post/wait elision even without an exact distance.

Orthogonally, ``fully_classified`` records whether *every* read slot got
an exact per-iteration classification — the precondition for eliding the
runtime inspector (a mixed-distance loop can be fully classified yet not
be a constant-distance doacross) — and ``min_distance`` carries the
loop-level distance bound regardless of kind (a constant-distance loop
has ``min_distance == distance``).

Each declared read slot gets one :class:`SlotDependence`: the direction
set and exact-or-bounded distance the tests proved, from which the slot
*kind* follows.  The ``direction`` string names every relation an
aliasing (writer, reader) iteration pair may take — ``"<"``
writer-earlier (a true dependence), ``"="`` intra-iteration, ``">"``
writer-later (an antidependence) — so ``"<="`` reads "true or intra,
never anti".  :data:`DIR_NONE` means no aliasing is possible for any
input; :data:`DIR_ANY` means the tests could not narrow the set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.analysis.proofs import Proof, ProofStep

__all__ = [
    "DependenceVerdict",
    "SlotDependence",
    "VERDICT_DOALL",
    "VERDICT_CONSTANT_DISTANCE",
    "VERDICT_INJECTIVE_WRITE",
    "VERDICT_RUNTIME_ONLY",
    "VERDICT_MIN_DISTANCE_PREFIX",
    "min_distance_kind",
    "is_min_distance_kind",
    "direction_string",
    "DIR_ANY",
    "DIR_NONE",
    "SLOT_TRUE",
    "SLOT_INTRA",
    "SLOT_ANTI",
    "SLOT_NONE",
    "SLOT_NO_TRUE",
    "SLOT_UNKNOWN",
]

VERDICT_DOALL = "doall-proven"
VERDICT_CONSTANT_DISTANCE = "constant-distance"
VERDICT_INJECTIVE_WRITE = "injective-write"
VERDICT_RUNTIME_ONLY = "runtime-only"
#: Prefix of the parametric ``min-distance-k`` verdict kinds.
VERDICT_MIN_DISTANCE_PREFIX = "min-distance-"


def min_distance_kind(k: int) -> str:
    """The verdict kind for a proven loop-level distance bound ``k``."""
    return f"{VERDICT_MIN_DISTANCE_PREFIX}{k}"


def is_min_distance_kind(kind: str) -> bool:
    """Whether ``kind`` belongs to the ``min-distance-k`` family."""
    return kind.startswith(VERDICT_MIN_DISTANCE_PREFIX)

#: No aliasing pair exists for any input.
DIR_NONE = "-"
#: The tests could not constrain the direction set.
DIR_ANY = "*"


def direction_string(may_lt: bool, may_eq: bool, may_gt: bool) -> str:
    """Canonical direction string for a set of possible relations."""
    out = ("<" if may_lt else "") + ("=" if may_eq else "")
    out += ">" if may_gt else ""
    return out or DIR_NONE


#: Slot kinds.  ``no-true`` means "provably anti or no dependence, never
#: true and never intra" — exact enough for elision (the executor treats
#: anti and none identically), weaker than naming which of the two.
SLOT_TRUE = "true"
SLOT_INTRA = "intra"
SLOT_ANTI = "anti"
SLOT_NONE = "none"
SLOT_NO_TRUE = "no-true"
SLOT_UNKNOWN = "unknown"


@dataclass(frozen=True)
class SlotDependence:
    """One read slot against the loop's write subscript.

    ``active`` is the slot's iteration range ``[lo, hi)``.  ``distance``
    is the exact dependence distance when every dependent pair shares
    one, and ``dep_range`` the subrange of ``active`` where that
    dependence applies (a true dependence of distance ``d`` only binds
    iterations ``i >= d``) — outside it the slot reads an element no
    iteration writes.  ``min_distance`` is a proven lower bound on the
    distance of *every* cross-iteration true dependence the slot can
    carry, valid for every input (``None`` when no true dependence is
    possible).  ``applicable`` is false when a runtime subscript put the
    slot out of the tests' reach; ``steps`` is the slot's share of the
    verdict's proof.
    """

    slot: int
    rule: str
    active: Tuple[int, int]
    direction: str
    distance: Optional[int] = None
    min_distance: Optional[int] = None
    dep_range: Optional[Tuple[int, int]] = None
    applicable: bool = True
    steps: Tuple[ProofStep, ...] = ()

    @property
    def kind(self) -> str:
        """The per-iteration classification ``direction`` and
        ``distance`` amount to.  Exact kinds need one relation and, for
        a cross-iteration one, one distance; everything else — several
        relations, or a variable distance — is ``unknown``."""
        exact = self.distance is not None
        if self.direction == DIR_NONE:
            return SLOT_NONE
        if self.direction == "<" and exact:
            return SLOT_TRUE
        if self.direction == ">":
            return SLOT_ANTI if exact else SLOT_NO_TRUE
        if self.direction == "=" and self.distance == 0:
            return SLOT_INTRA
        return SLOT_UNKNOWN

    @property
    def classified(self) -> bool:
        """Whether ``kind`` is an exact per-iteration classification."""
        return self.kind != SLOT_UNKNOWN

    @property
    def may_carry_true(self) -> bool:
        """Whether a cross-iteration true dependence may exist."""
        if not self.applicable:
            return True
        return self.direction == DIR_ANY or "<" in self.direction

    def signature(self) -> tuple:
        """Hashable summary (folded into verdict signatures)."""
        return (
            self.slot,
            self.rule,
            self.applicable,
            self.active,
            self.direction,
            self.distance,
            self.min_distance,
            self.dep_range,
        )

    def as_dict(self) -> dict:
        return {
            "slot": self.slot,
            "kind": self.kind,
            "rule": self.rule,
            "applicable": self.applicable,
            "active": list(self.active),
            "direction": self.direction,
            "distance": self.distance,
            "min_distance": self.min_distance,
            "dep_range": list(self.dep_range) if self.dep_range else None,
        }

    def describe(self) -> str:
        if not self.applicable:
            return (
                f"slot {self.slot}: tests inapplicable (runtime subscript)"
            )
        body = self.kind
        if self.kind == SLOT_TRUE:
            body = f"true distance={self.distance}"
        elif self.kind == SLOT_UNKNOWN:
            body += f" direction {self.direction!r}"
            if self.min_distance is not None:
                body += f", distance>={self.min_distance}"
        if self.dep_range and self.kind in (SLOT_TRUE, SLOT_ANTI):
            body += f" over [{self.dep_range[0]}, {self.dep_range[1]})"
        return f"slot {self.slot}: {body} ({self.rule})"


@dataclass(frozen=True)
class DependenceVerdict:
    """The engine's structured conclusion for one loop."""

    kind: str
    loop_name: str
    n: int
    write_injective: bool
    fully_classified: bool
    slots: Tuple[SlotDependence, ...]
    proof: Proof
    distance: Optional[int] = None
    #: Proven lower bound on every cross-iteration true dependence
    #: distance (``None``: unbounded or no true dependence).
    min_distance: Optional[int] = None

    @property
    def elidable(self) -> bool:
        """Whether the runtime inspector can be skipped: the write is
        proven injective and every read slot is exactly classified."""
        return self.write_injective and self.fully_classified

    def true_slots(self) -> tuple[SlotDependence, ...]:
        return tuple(s for s in self.slots if s.kind == SLOT_TRUE)

    def has_anti(self) -> bool:
        """Whether any slot may carry an antidependence."""
        return any(s.kind in (SLOT_ANTI, SLOT_NO_TRUE) for s in self.slots)

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "loop": self.loop_name,
            "n": self.n,
            "distance": self.distance,
            "min_distance": self.min_distance,
            "write_injective": self.write_injective,
            "fully_classified": self.fully_classified,
            "elidable": self.elidable,
            "slots": [s.as_dict() for s in self.slots],
            "proof": self.proof.as_dict(),
        }

    def describe(self) -> str:
        head = f"{self.loop_name}: {self.kind}"
        if self.kind == VERDICT_CONSTANT_DISTANCE:
            head += f" (d={self.distance})"
        elif self.min_distance is not None:
            head += f" (d>={self.min_distance})"
        flags = []
        if self.write_injective:
            flags.append("write-injective")
        if self.elidable:
            flags.append("inspector-elidable")
        if flags:
            head += "  [" + ", ".join(flags) + "]"
        lines = [head]
        lines += ["  " + s.describe() for s in self.slots]
        return "\n".join(lines)

    def signature(self) -> tuple:
        """Hashable summary for structural signatures / cache keys."""
        return (
            self.kind,
            self.distance,
            self.min_distance,
            self.write_injective,
            self.fully_classified,
            tuple(s.signature() for s in self.slots),
        )
