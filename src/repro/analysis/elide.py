"""Inspector elision: the §2.3 payoff, generalized.

When a loop's verdict is fully classified (write proven injective, every
read slot's dependence known in closed form), the runtime inspector has
nothing left to discover: :func:`build_symbolic_record` constructs the
exact :class:`~repro.backends.cache.InspectorRecord` the inspector would
have produced — ``iter`` array from the write's closed form, per-term
true/intra flags from the slot proofs, wavefront levels from the proven
distances — without classifying a single read term against memory.  The
record feeds the same executor, so results are bitwise identical to the
full-inspector path (asserted by the debug mode and the test suite).

A fully proven loop is also content-free for caching purposes: its record
is determined by structure alone, so :func:`symbolic_fingerprint` keys the
InspectorCache without hashing the index arrays — loops with identical
proofs share one entry.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.analysis.engine import analyze_loop, slot_term_map
from repro.analysis.verdicts import (
    SLOT_ANTI,
    SLOT_INTRA,
    SLOT_NO_TRUE,
    SLOT_TRUE,
    DependenceVerdict,
)
from repro.backends import native
from repro.backends.cache import (
    InspectorRecord,
    assemble_record,
    build_inspector_record,
)
from repro.core.workspace import MAXINT
from repro.errors import ProofError
from repro.graph.levels import LevelSchedule
from repro.ir.loop import IrregularLoop
from repro.ir.transform import plan_transform, structural_signature

__all__ = [
    "build_symbolic_record",
    "build_distance_record",
    "symbolic_fingerprint",
    "distance_fingerprint",
    "records_equal",
    "record_mismatches",
]


def symbolic_fingerprint(loop: IrregularLoop) -> str:
    """Structure-only cache key for a fully proven loop.

    Unlike :func:`repro.backends.cache.loop_fingerprint` this hashes no
    array contents — for an elidable loop the structural signature (which
    embeds the slot closed forms and the verdict) already determines the
    whole inspector record.
    """
    h = hashlib.sha256()
    h.update(b"symbolic|")
    h.update(repr(structural_signature(loop)).encode())
    return h.hexdigest()


def _chain_levels(has_pred: np.ndarray, delta: int) -> np.ndarray:
    """Wavefront levels for a single constant distance ``delta``:
    ``level[i] = level[i − delta] + 1`` where a predecessor exists, else 0.

    Along each residue chain ``r, r+δ, r+2δ, …`` the level is the run
    length of consecutive predecessors, computed by one
    ``maximum.accumulate`` over a ``(rows, δ)`` reshape.
    """
    n = len(has_pred)
    rows = -(-n // delta)
    padded = np.zeros(rows * delta, dtype=bool)
    padded[:n] = has_pred
    grid = padded.reshape(rows, delta)
    row_idx = np.arange(rows, dtype=np.int64)[:, None]
    # Latest row at or before q with no predecessor; row 0 never has one
    # (i < δ cannot reach back), so the accumulate is always grounded.
    last_clear = np.maximum.accumulate(
        np.where(~grid, row_idx, -1), axis=0
    )
    levels = (row_idx - last_clear).reshape(-1)[:n]
    return levels.astype(np.int64)


def build_symbolic_record(
    loop: IrregularLoop,
    verdict: DependenceVerdict | None = None,
) -> InspectorRecord:
    """Construct the inspector's output from the symbolic verdict alone.

    Raises :class:`ProofError` when the verdict is not elidable or the
    declared slots do not tile the loop's read table.  The produced
    record is array-for-array identical to
    :func:`repro.backends.cache.build_inspector_record` — the claim the
    ``analyze="symbolic+check"`` debug mode re-verifies on every run.
    """
    if verdict is None:
        verdict = analyze_loop(loop)
    if not verdict.elidable:
        raise ProofError(
            f"{loop.name}: verdict {verdict.kind!r} is not elidable "
            f"(write_injective={verdict.write_injective}, "
            f"fully_classified={verdict.fully_classified})"
        )
    n, y_size = loop.n, loop.y_size

    # The paper's iter array, from the write's closed form — no inspection.
    iter_array = np.full(y_size, MAXINT, dtype=np.int64)
    iter_array[loop.write] = np.arange(n, dtype=np.int64)

    # Per-term classification from the slot proofs.
    total = loop.reads.total_terms
    true_flat = np.zeros(total, dtype=bool)
    intra_flat = np.zeros(total, dtype=bool)
    true_slots = []
    renames = False
    if loop.read_slots is not None and len(loop.read_slots):
        iters, sids = slot_term_map(loop)
        for dep in verdict.slots:
            mask = sids == dep.slot
            if dep.kind == SLOT_INTRA:
                intra_flat[mask] = True
            elif dep.kind == SLOT_TRUE:
                a, b = dep.dep_range
                true_flat[mask & (iters >= a) & (iters < b)] = True
                true_slots.append(dep)
            elif dep.kind in (SLOT_ANTI, SLOT_NO_TRUE) and not renames:
                # Only these slots may read an element a later iteration
                # writes; whether one does is the iter array's answer at
                # their terms (the one look at memory the record takes,
                # and only for loops with such a slot).
                read = loop.reads.index[mask]
                renames = bool((iter_array[read] != MAXINT).any())
    elif total:
        raise ProofError(
            f"{loop.name}: read terms exist but no slots are declared"
        )

    # Wavefront levels from the proven distances.
    if not true_slots:
        levels = np.zeros(n, dtype=np.int64)
        schedule = LevelSchedule.from_levels(levels)
    else:
        distances = {dep.distance for dep in true_slots}
        has_pred = np.zeros(n, dtype=bool)
        for dep in true_slots:
            a, b = dep.dep_range
            has_pred[a:b] = True
        if len(distances) == 1:
            levels = _chain_levels(has_pred, true_slots[0].distance)
            schedule = LevelSchedule.from_levels(levels)
        else:
            # Mixed constant distances: every reader's proven writers in
            # closed form (still no memory inspection), grouped by reader
            # into a predecessor CSR for the level sweep; a writer named
            # twice is harmless to a max.
            spans = [np.arange(*dep.dep_range, dtype=np.int64) for dep in true_slots]
            readers = np.concatenate(spans)
            writers = np.concatenate(
                [span - dep.distance for span, dep in zip(spans, true_slots)]
            )
            pred_ptr = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(np.bincount(readers, minlength=n), out=pred_ptr[1:])
            times, _, body = native.max_plus(
                pred_ptr, writers[np.argsort(readers, kind="stable")], n, step=1
            )
            schedule = LevelSchedule.from_levels(times - 1, body)

    return assemble_record(
        loop,
        iter_array=iter_array,
        schedule=schedule,
        true_flat=true_flat,
        intra_flat=intra_flat,
        renames=renames,
        plan=plan_transform(loop, verdict=verdict),
        fingerprint=symbolic_fingerprint(loop),
    )


def distance_fingerprint(loop: IrregularLoop, group: int) -> str:
    """Cache key for a group-synchronous record.

    Unlike :func:`symbolic_fingerprint` this is *content*-addressed (via
    :func:`~repro.backends.cache.loop_fingerprint`): the record's per-term
    flags come from materialized subscripts, so loops that share a proof
    but not index contents must not share an entry.
    """
    from repro.backends.cache import loop_fingerprint

    h = hashlib.sha256()
    h.update(f"distance|{int(group)}|".encode())
    h.update(loop_fingerprint(loop).encode())
    return h.hexdigest()


def build_distance_record(
    loop: IrregularLoop,
    group: int,
    verdict: DependenceVerdict | None = None,
) -> InspectorRecord:
    """Inspector record whose wavefronts are distance groups ``i // group``.

    The dependence-test battery's bound ``min_distance >= group`` proves
    every cross-iteration true dependence reaches back into a strictly
    earlier group, so the groups are legal wavefront levels — usually far
    wider (and far fewer) than the exact DAG levels.  Unlike
    :func:`build_symbolic_record` this does **not** elide the inspector:
    it is the runtime inspector's record
    (:func:`~repro.backends.cache.build_inspector_record`) over the group
    schedule (the verdict need not be fully classified — a
    ``min-distance-k`` bound on an unclassifiable read side is enough),
    planned with the verdict.  Raises
    :class:`~repro.errors.ProofError` when the bound does not hold
    statically, or when the inspector's observed distances contradict it
    (the runtime rendering of the lint rule ``DISTANCE-MISMATCH``).
    """
    if group < 1:
        raise ProofError(f"{loop.name}: group size must be >= 1, got {group}")
    if verdict is None:
        verdict = analyze_loop(loop)
    m = verdict.min_distance
    if m is None or m < group:
        raise ProofError(
            f"{loop.name}: no proven dependence-distance bound >= {group} "
            f"(battery bound: {m})"
        )
    groups = np.arange(loop.n, dtype=np.int64) // int(group)
    record = build_inspector_record(
        loop,
        LevelSchedule.from_levels(groups),
        distance_fingerprint(loop, group),
    )
    readers = loop.reads.iteration_of_term()
    writers = record.iter_array[loop.reads.index]  # MAXINT where unwritten
    observed = (readers - writers)[writers < readers]
    if len(observed) and int(observed.min()) < group:
        raise ProofError(
            f"{loop.name}: inspector observes a true dependence of "
            f"distance {int(observed.min())}, contradicting the proven "
            f"bound >= {group} (distance mismatch)"
        )
    record.plan = plan_transform(loop, verdict=verdict)
    return record


_RECORD_ARRAYS = ("iter_array", "codes")


def record_mismatches(
    symbolic: InspectorRecord, runtime: InspectorRecord
) -> list[str]:
    """Field-by-field comparison of two records (ignoring fingerprints
    and plans, which legitimately differ between the paths): what the
    walk runs — codes, order, gathered layout, whether it renames —
    included."""
    problems = []
    for name in _RECORD_ARRAYS:
        a, b = getattr(symbolic, name), getattr(runtime, name)
        if not np.array_equal(a, b):
            problems.append(f"record field {name!r} differs")
    for name in ("levels", "order", "level_ptr"):
        a = getattr(symbolic.schedule, name)
        b = getattr(runtime.schedule, name)
        if not np.array_equal(a, b):
            problems.append(f"schedule field {name!r} differs")
    a, b = symbolic.layout, runtime.layout
    if (a is None) != (b is None):
        problems.append("record field 'layout' differs")
    elif a is not None:
        for name in ("write", "ptr", "index", "start"):
            if not np.array_equal(getattr(a, name), getattr(b, name)):
                problems.append(f"layout field {name!r} differs")
    if symbolic.renames != runtime.renames:
        problems.append("record field 'renames' differs")
    return problems


def records_equal(
    symbolic: InspectorRecord, runtime: InspectorRecord
) -> bool:
    return not record_mismatches(symbolic, runtime)
