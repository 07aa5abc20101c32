"""Content-addressed inspector cache: the paper's amortization, concrete.

The paper's central economic argument (§2.3, Figure 3) is that the
inspector's output is *reusable*: preprocessing cost is paid once per
dependence structure and amortized over every execution that shares it —
the triangular solve inside a Krylov iteration being the canonical case
(tens of solves per factorization, identical subscripts every time).

:class:`InspectorCache` makes that claim operational.  A loop's dependence
structure is fingerprinted by *content* — SHA-256 over the ``write`` index
array, the read table's ``ptr``/``index`` arrays, and the static signature
(:func:`repro.ir.transform.structural_signature`) — so:

- two distinct loop objects with equal index arrays share one cache entry
  (amortization across instances, Figure 3);
- mutating any index array in place changes the digest and *misses*
  (there is no way to consume a stale inspector result);
- coefficients and values are deliberately excluded: they do not affect
  who-writes-what, so a solver that rescales its matrix still hits.

A cache entry (:class:`InspectorRecord`) holds everything the vectorized
backend's preprocessing produces: the paper's ``iter`` array, the
wavefront :class:`~repro.graph.levels.LevelSchedule`, the
:class:`~repro.ir.transform.TransformPlan`, and the Figure-5 compare done
once: one term code per read (old ``y``, renamed ``ynew``, or the
iteration's own accumulator) in the schedule's level-major order, which
is what the executor's one walk reads.  Everything in the record is
structure-only; per-run values (coefficients, initial values) are read
at execution time.

The wavefront schedule alone is what every *other* backend's plan needs,
so the cache also serves it by itself (:meth:`InspectorCache.levels_for`)
under the same content key: planning, not only the inspector record, is
paid once per dependence structure.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.backends.kernel import ACC, OLD, WAIT, term_positions
from repro.core.workspace import MAXINT
from repro.errors import InvalidLoopError
from repro.graph.levels import LevelSchedule, compute_levels
from repro.ir.loop import IrregularLoop
from repro.ir.transform import TransformPlan, plan_transform, structural_signature

__all__ = [
    "loop_fingerprint",
    "InspectorRecord",
    "InspectorCache",
    "build_inspector_record",
    "assemble_record",
]


def loop_fingerprint(loop: IrregularLoop) -> str:
    """SHA-256 digest of the loop's dependence structure.

    Covers the static signature plus the raw bytes of ``write``,
    ``reads.ptr``, and ``reads.index``.  Excludes coefficients, ``y0``,
    and ``init_values`` — they affect arithmetic, not dependence.
    """
    h = hashlib.sha256()
    h.update(repr(structural_signature(loop)).encode())
    for arr in (loop.write, loop.reads.ptr, loop.reads.index):
        h.update(b"|")
        h.update(np.ascontiguousarray(arr))  # the buffer itself, no copy
    return h.hexdigest()


@dataclass
class InspectorRecord:
    """One cached preprocessing result (structure-only; see module doc).

    Attributes
    ----------
    fingerprint:
        Content digest this record was built from.
    iter_array:
        The paper's ``iter``: writer iteration per ``y`` element,
        ``MAXINT`` where unwritten.
    schedule:
        Wavefront decomposition of the true-dependence DAG; its level-major
        ``order`` is the order the executor walks.
    plan:
        The compiler's strategy decision for the loop's static structure.
    codes:
        The term codes of :mod:`~repro.backends.kernel` (``int8``), every
        term of ``order[0]``, then of ``order[1]``, ...: ``ACC`` for a read
        of the iteration's own element, ``WAIT`` for a renamed (true
        dependence) read, ``OLD`` otherwise.  Nothing is ``LOCAL``: level
        order, not strip order, is what discharges the waits.
    """

    fingerprint: str
    iter_array: np.ndarray
    schedule: LevelSchedule
    plan: TransformPlan
    codes: np.ndarray

    @property
    def nbytes(self) -> int:
        """Approximate memory footprint of the cached arrays."""
        arrays = (
            self.iter_array,
            self.schedule.levels,
            self.schedule.order,
            self.schedule.level_ptr,
            self.codes,
        )
        return int(sum(a.nbytes for a in arrays))


def build_inspector_record(
    loop: IrregularLoop,
    schedule: LevelSchedule | None = None,
    fingerprint: str | None = None,
) -> InspectorRecord:
    """Run the (vectorized) inspector and wavefront preprocessing for
    ``loop`` and package the result for caching.

    This is the whole run-time preprocessing pipeline of the paper —
    Figure 3's ``iter`` construction plus the §3.2 wavefront computation —
    executed as NumPy array operations rather than simulated phases.
    ``schedule`` is the loop's wavefront decomposition and ``fingerprint``
    its :func:`loop_fingerprint` when the caller already holds them
    (``plan_loop``, the cache); they are computed here otherwise — the
    levels first, so an out-of-range subscript is refused before any
    array is indexed with it.
    """
    if schedule is None:
        schedule = compute_levels(loop)
    n, y_size = loop.n, loop.y_size

    # Inspector: iter(a(i)) = i, everything else MAXINT (Figure 3, left).
    iter_array = np.full(y_size, MAXINT, dtype=np.int64)
    iter_array[loop.write] = np.arange(n, dtype=np.int64)

    # Classify every flat term against iter (the executor's check).
    readers = loop.reads.iteration_of_term()
    writers = iter_array[loop.reads.index]  # MAXINT where unwritten
    intra_flat = writers == readers
    true_flat = writers < readers  # MAXINT compares greater: never true dep

    return assemble_record(
        loop,
        iter_array=iter_array,
        schedule=schedule,
        true_flat=true_flat,
        intra_flat=intra_flat,
        plan=plan_transform(loop),
        fingerprint=fingerprint or loop_fingerprint(loop),
    )


def assemble_record(
    loop: IrregularLoop,
    *,
    iter_array: np.ndarray,
    schedule: LevelSchedule,
    true_flat: np.ndarray,
    intra_flat: np.ndarray,
    plan: TransformPlan,
    fingerprint: str,
) -> InspectorRecord:
    """Package classified terms as an :class:`InspectorRecord`: the
    ``true_flat`` / ``intra_flat`` masks (flat term order) become term
    codes in the schedule's order.

    Shared by the runtime inspector (:func:`build_inspector_record`) and
    the symbolic and distance-group paths (:mod:`repro.analysis.elide`)
    — both feed the same deterministic layout, so records are bitwise
    comparable regardless of which side produced the classification.
    """
    codes = np.full(len(true_flat), OLD, dtype=np.int8)
    codes[true_flat] = WAIT
    codes[intra_flat] = ACC
    return InspectorRecord(
        fingerprint=fingerprint,
        iter_array=iter_array,
        schedule=schedule,
        plan=plan,
        codes=codes[term_positions(loop.reads.ptr, schedule.order)[0]],
    )


class InspectorCache:
    """LRU cache of :class:`InspectorRecord` keyed by loop content.

    Parameters
    ----------
    capacity:
        Maximum number of dependence structures retained; least recently
        used entries are evicted first.  The bound applies to the records
        and, separately, to the level-schedule memo.

    Attributes
    ----------
    hits, misses:
        Record lookup counters — the measurable form of the paper's
        Figure-3 amortization claim (asserted in tests and reported by
        ``benchmarks/e2e`` as ``cache.hits`` / ``cache.misses``).
    levels_hits, levels_misses:
        The same for :meth:`levels_for`, the planner's lookups.
    evictions:
        Records and level schedules dropped by the capacity bound.

    Beyond inspector records, the cache carries the auto-tuner's state
    (:meth:`tuner_state`): per-fingerprint wall-time measurements,
    telemetry features, and the current backend decision.  Keying both
    under the same content address is deliberate — "same dependence
    structure" is one notion shared by preprocessing amortization and by
    tuning (:mod:`repro.passes.autotune`).
    """

    def __init__(self, capacity: int = 64):
        if capacity < 1:
            raise InvalidLoopError(
                f"cache capacity must be >= 1, got {capacity}"
            )
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self.levels_hits = 0
        self.levels_misses = 0
        self.evictions = 0
        self._entries: OrderedDict[str, InspectorRecord] = OrderedDict()
        self._levels: OrderedDict[str, LevelSchedule] = OrderedDict()
        self._tuner: dict[str, dict] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, loop: IrregularLoop) -> bool:
        return loop_fingerprint(loop) in self._entries

    def _store(self, table: OrderedDict, fingerprint: str, value) -> None:
        """Insert as most recently used, evicting down to ``capacity``."""
        table[fingerprint] = value
        table.move_to_end(fingerprint)
        while len(table) > self.capacity:
            table.popitem(last=False)
            self.evictions += 1

    def levels_for(
        self, loop: IrregularLoop, fingerprint: str | None = None
    ) -> tuple[LevelSchedule, bool]:
        """Return ``(schedule, hit)``: the wavefront decomposition of
        ``loop``, computed once per dependence structure.

        Served from the memo, else from the ``schedule`` of the record
        stored under the same key, else computed
        (:func:`~repro.graph.levels.compute_levels`) and remembered.
        ``fingerprint`` must be the loop's *current*
        :func:`loop_fingerprint` (callers that already hashed the loop
        pass it to avoid a second hash); it is never cached on the loop,
        so an index array mutated in place misses.
        """
        fp = fingerprint if fingerprint is not None else loop_fingerprint(loop)
        schedule = self._levels.get(fp)
        if schedule is None:
            record = self._entries.get(fp)
            if record is not None:
                schedule = record.schedule
        hit = schedule is not None
        if hit:
            self.levels_hits += 1
        else:
            self.levels_misses += 1
            schedule = compute_levels(loop)
        self._store(self._levels, fp, schedule)
        return schedule, hit

    def get_or_build(
        self,
        loop: IrregularLoop,
        builder=None,
        fingerprint: str | None = None,
    ) -> tuple[InspectorRecord, bool]:
        """Return ``(record, hit)`` for ``loop``, building on a miss.

        ``builder`` (default :func:`build_inspector_record`, handed the
        memoized level schedule when :meth:`levels_for` already computed
        it) produces the record; the symbolic elision path injects
        :func:`repro.analysis.build_symbolic_record` here.  ``fingerprint``
        overrides the content digest — a fully proven loop is keyed by its
        structure-only :func:`repro.analysis.symbolic_fingerprint`, which
        lets loops with identical proofs share one entry without hashing
        their index arrays.
        """
        fp = fingerprint if fingerprint is not None else loop_fingerprint(loop)
        record = self._entries.get(fp)
        if record is not None:
            self.hits += 1
            self._entries.move_to_end(fp)
            return record, True
        self.misses += 1
        if builder is None:
            record = build_inspector_record(loop, self._levels.get(fp), fp)
        else:
            record = builder(loop)
        self._store(self._entries, fp, record)
        return record, False

    def seed(
        self, record: InspectorRecord, fingerprint: str | None = None
    ) -> None:
        """Insert a pre-built record without touching the hit/miss
        counters — how :func:`repro.passes.execute.execute_plan` hands a
        cache-less plan's record to the runner's private cache without
        skewing the amortization accounting."""
        fp = fingerprint if fingerprint is not None else record.fingerprint
        self._store(self._entries, fp, record)

    def tuner_state(self, fingerprint: str) -> dict:
        """The auto-tuner's mutable slot for one dependence structure.

        Layout: ``{"measurements": {backend: [wall_seconds, ...]},
        "features": {backend: {...}}, "decision": dict | None}``.  Slots
        are created on demand, are not subject to the LRU bound (tuning
        history is cheap; inspector records are the memory hogs), and are
        dropped only by :meth:`clear`.
        """
        return self._tuner.setdefault(
            fingerprint,
            {"measurements": {}, "features": {}, "decision": None},
        )

    def clear(self) -> None:
        """Drop all records, the level-schedule memo and the tuner state
        (counters are kept)."""
        self._entries.clear()
        self._levels.clear()
        self._tuner.clear()

    def stats(self) -> dict:
        """Counters plus footprint, JSON-safe.  ``hits``/``misses``/
        ``bytes`` describe the records; the memo's arrays are shared with
        the record of the same structure when there is one."""
        return {
            "entries": len(self._entries),
            "capacity": self.capacity,
            "hits": self.hits,
            "misses": self.misses,
            "bytes": int(
                sum(r.nbytes for r in self._entries.values())
            ),
            "tuner_entries": len(self._tuner),
            "levels_entries": len(self._levels),
            "levels_hits": self.levels_hits,
            "levels_misses": self.levels_misses,
            "evictions": self.evictions,
        }
