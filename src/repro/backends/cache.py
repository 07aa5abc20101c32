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
:class:`~repro.ir.transform.TransformPlan`, and the executor-ready term
layout (terms permuted into wavefront order, read sources resolved to
old-``y``/``ynew``, intra-iteration terms marked).  Everything in the
record is structure-only; per-run values (coefficients, initial values)
are gathered at execution time.

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

from repro.backends.kernel import ACC, OLD, WAIT
from repro.core.workspace import MAXINT
from repro.errors import InvalidLoopError
from repro.graph.levels import LevelSchedule, compute_levels
from repro.ir.analysis import sorted_unique
from repro.ir.loop import IrregularLoop
from repro.ir.transform import TransformPlan, plan_transform, structural_signature

__all__ = [
    "loop_fingerprint",
    "InspectorRecord",
    "InspectorCache",
    "build_inspector_record",
    "assemble_record",
]


#: Wavefronts narrower than this are executed by the scalar kernel, a run
#: of them as one ``run_span`` call; wider ones as NumPy batches (~5 us
#: per term slot whatever the width, against ~0.25 us per term walked).
#: Warm ``runner.run`` in ms, pinned, best of 12, at 1 (never fuse) / 4 /
#: 8 / 16 / 32 / 64 / 128: ``trisolve_5pt`` 4.21 / 3.90 / 3.92 / 3.98 /
#: 4.19 / 5.63 / 12.6, ``krylov_churn`` 10.6 / 10.1 / 9.9 / 9.9 / 9.9 /
#: 10.5 / 11.8, ``fig4_chain`` 175 / 10.3 / 10.4 / 10.5 / 10.3 / 10.4 /
#: 10.4 — flat from 2 to 32, +40 % at 64 on the trisolve.  Measured
#: against the *Python* walk; deliberately not re-measured against the
#: compiled one (``kernel._NATIVE_FROM``), which would move it — it
#: changes the record's segments and the captures pinned on them.
_FUSE_BELOW = 8


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
        h.update(np.ascontiguousarray(arr).tobytes())
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
        Wavefront decomposition of the true-dependence DAG.
    plan:
        The compiler's strategy decision for the loop's static structure.
    exec_order:
        Iterations permuted for batched execution: wavefront level major,
        then per-iteration term count *descending* (so each term slot's
        active set is a prefix — no masks in the executor's inner step).
    exec_counts, exec_ptr:
        Term counts / CSR boundaries per execution position.
    exec_write:
        Write index per execution position.
    term_source:
        Flat original-term positions in execution order; per-run data
        (coefficients) is gathered through this permutation.
    env_index:
        Per execution-ordered term: the gather index into the doubled
        value environment ``[y_old | y_new]`` — ``index`` for
        antidependent/unwritten reads (old value), ``index + y_size`` for
        true-dependence reads (renamed new value).
    intra:
        Per execution-ordered term: reads the live accumulator of its own
        iteration (the paper's ``check == 0`` case).
    codes:
        The same classification as :mod:`~repro.backends.kernel` term
        codes (``int8``, execution order): ``ACC`` where ``intra``,
        ``WAIT`` where the read is renamed, ``OLD`` otherwise — what the
        scalar kernel walks on fused runs.  Nothing is ``LOCAL``: level
        order, not strip order, is what discharges the waits.
    seg_ptr, seg_fused:
        The executor's segments: segment ``s`` covers levels
        ``seg_ptr[s]:seg_ptr[s+1]``.  A *fused* segment is a maximal run
        of consecutive levels narrower than ``_FUSE_BELOW``, executed as
        one scalar span; the others are maximal runs of bulk levels, each
        level one NumPy batch.
    slot_active, slot_ptr:
        For bulk level ``k`` and term slot ``j``:
        ``slot_active[slot_ptr[k]+j]`` iterations (a prefix of the level)
        still have a ``j``-th term.  Fused levels have no slots.
    """

    fingerprint: str
    iter_array: np.ndarray
    schedule: LevelSchedule
    plan: TransformPlan
    exec_order: np.ndarray
    exec_counts: np.ndarray
    exec_ptr: np.ndarray
    exec_write: np.ndarray
    term_source: np.ndarray
    env_index: np.ndarray
    intra: np.ndarray
    codes: np.ndarray
    seg_ptr: np.ndarray
    seg_fused: np.ndarray
    slot_active: np.ndarray
    slot_ptr: np.ndarray

    @property
    def n_levels(self) -> int:
        return self.schedule.n_levels

    @property
    def fused_runs(self) -> int:
        """Scalar spans one execution makes."""
        return int(np.count_nonzero(self.seg_fused))

    @property
    def fused_levels(self) -> int:
        """Levels those spans cover (the rest are bulk batches)."""
        return int(np.diff(self.seg_ptr)[self.seg_fused].sum())

    @property
    def nbytes(self) -> int:
        """Approximate memory footprint of the cached arrays."""
        arrays = (
            self.iter_array,
            self.schedule.levels,
            self.schedule.order,
            self.schedule.level_ptr,
            self.exec_order,
            self.exec_counts,
            self.exec_ptr,
            self.exec_write,
            self.term_source,
            self.env_index,
            self.intra,
            self.codes,
            self.seg_ptr,
            self.seg_fused,
            self.slot_active,
            self.slot_ptr,
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
    """Lay out an :class:`InspectorRecord` from classified terms.

    Shared by the runtime inspector (:func:`build_inspector_record`) and
    the symbolic elision path (:func:`repro.analysis.build_symbolic_record`)
    — both feed the same deterministic layout, so records are bitwise
    comparable regardless of which side produced the classification.
    """
    n, y_size = loop.n, loop.y_size
    write = loop.write
    ptr, index = loop.reads.ptr, loop.reads.index

    # Execution order: level-major, term count descending inside a level
    # so slot j's active iterations are always a leading prefix.
    counts = np.diff(ptr)
    exec_order = np.lexsort(
        (np.arange(n, dtype=np.int64), -counts, schedule.levels)
    ).astype(np.int64)

    exec_counts = counts[exec_order]
    exec_ptr = np.zeros(n + 1, dtype=np.int64)
    exec_ptr[1:] = np.cumsum(exec_counts)
    total = int(ptr[-1])

    # Flat original-term position feeding each execution-ordered term.
    term_source = (
        np.repeat(ptr[exec_order] - exec_ptr[:-1], exec_counts)
        + np.arange(total, dtype=np.int64)
    )

    renamed = true_flat[term_source]
    env_index = index[term_source] + y_size * renamed
    intra = intra_flat[term_source]
    codes = np.full(total, OLD, dtype=np.int8)
    codes[renamed] = WAIT
    codes[intra] = ACC

    # Segments: cut the levels wherever "narrow" flips (deduplicated: an
    # empty loop has the single boundary 0).
    level_ptr = schedule.level_ptr
    n_levels = schedule.n_levels
    narrow = np.diff(level_ptr) < _FUSE_BELOW
    flips = np.flatnonzero(narrow[1:] != narrow[:-1]) + 1
    seg_ptr = sorted_unique(np.concatenate(([0], flips, [n_levels])))
    seg_fused = narrow[seg_ptr[:-1]]

    # Per-slot active prefix lengths, for the bulk levels only: a fused
    # level never reads them, and a chain has thousands of levels.
    slot_counts = np.zeros(n_levels, dtype=np.int64)
    actives: list[np.ndarray] = []
    for k in np.flatnonzero(~narrow).tolist():
        lo, hi = int(level_ptr[k]), int(level_ptr[k + 1])
        cnt = exec_counts[lo:hi]  # non-increasing by construction
        maxc = int(cnt[0])
        slot_counts[k] = maxc
        if maxc:
            # active[j] = #iterations in the level with count > j.
            ascending = cnt[::-1]
            active = (hi - lo) - np.searchsorted(
                ascending, np.arange(maxc, dtype=np.int64), side="right"
            )
            actives.append(active.astype(np.int64))
    slot_ptr = np.zeros(n_levels + 1, dtype=np.int64)
    slot_ptr[1:] = np.cumsum(slot_counts)
    slot_active = (
        np.concatenate(actives) if actives else np.empty(0, dtype=np.int64)
    )

    return InspectorRecord(
        fingerprint=fingerprint,
        iter_array=iter_array,
        schedule=schedule,
        plan=plan,
        exec_order=exec_order,
        exec_counts=exec_counts,
        exec_ptr=exec_ptr,
        exec_write=write[exec_order],
        term_source=term_source,
        env_index=env_index,
        intra=intra,
        codes=codes,
        seg_ptr=seg_ptr,
        seg_fused=seg_fused,
        slot_active=slot_active,
        slot_ptr=slot_ptr,
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
