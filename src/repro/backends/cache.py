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
- coefficients and values are deliberately excluded: they do not affect
  who-writes-what, so a solver that rescales its matrix still hits.

The key is paid once per loop object, not once per call.  The first
:func:`loop_fingerprint` of a loop marks ``write``, ``reads.ptr``,
``reads.index`` and every ndarray in their ``.base`` chains read-only,
hashes them and memoizes the digest on the loop.  Later
calls return the memo while the same three array objects are bound and
every array in their chains is still read-only; anything else (a rebound
``loop.reads`` or ``loop.write``, a ``deepcopy``, a pickle round-trip, a
root whose write flag was turned back on) hashes and freezes again.  The
contract is therefore **mutate before first use, or the write raises
``ValueError``**: an index array changed in place before the loop is
first fingerprinted is simply what gets hashed; after that, a write
through any frozen array is refused by NumPy, and a stale inspector
result stays unreachable.  Outside the contract: re-enabling writes on a
frozen root, mutating it and disabling writes again; writing through a
view of a frozen array that existed before the freeze (its own flag was
never cleared); and rebinding the loop's static attributes (``n``,
``y_size``, ``init_kind``, the subscripts), which are set at
construction.  A chain rooted in a writeable foreign buffer
(``bytearray``, ``mmap``, shared memory) cannot be frozen: such a loop is
hashed on every call and keeps the old "mutate and miss" contract.
``Plan.describe()["fingerprint_body"]`` names which case ran:
``"memo"``, ``"hashed"`` or ``"hashed (foreign-buffer)"``.

A loop's first fingerprint is taken by its first plan or its first run
on any backend but one: a simulated run hashes (and freezes) only when
its runner was given an :class:`InspectorCache`, whatever the machine,
and without one — the classic ``PreprocessedDoacross`` API — leaves the
arrays writeable.  Hashing is also where the subscripts are checked to
lie inside ``y`` and ``write`` to be injective, so a loop mutated before
first use is refused (:class:`~repro.errors.InvalidLoopError`,
:class:`~repro.errors.OutputDependenceError`) before anything runs, and
a frozen loop is never checked again.

A cache entry (:class:`InspectorRecord`) holds everything the vectorized
backend's preprocessing produces: the paper's ``iter`` array, the
wavefront :class:`~repro.graph.levels.LevelSchedule`, the
:class:`~repro.ir.transform.TransformPlan`, and the Figure-5 compare done
once: one term code per read (old ``y``, renamed ``ynew``, or the
iteration's own accumulator) in the schedule's level-major order, which
is what the executor's one walk reads.  Two more things make that walk
stream and skip work: the loop's ``write`` / ``ptr`` / ``index``
gathered into the same order (:class:`WalkLayout`; nothing is copied
when the order is the identity), and whether any term reads an element
a later iteration writes (``renames``: without such an antidependence
the walk needs no ``ynew``).  Everything in the record is
structure-only; per-run values (coefficients, initial values) are read
from the loop at execution time, so one record serves every loop of its
structure.  The runtime record is one compiled inspector call
(:func:`repro.backends.native.inspect`), which also yields the levels; its
NumPy array operations are only the body that runs without the compiled
object, and build the same record bit for bit.

The wavefront schedule alone is what every *other* backend's plan needs,
so the cache also serves it by itself (:meth:`InspectorCache.levels_for`)
under the same content key: planning, not only the inspector record, is
paid once per dependence structure.  A vectorized plan asks for both
(:meth:`InspectorCache.levels_and_record`): a structure neither has seen
is inspected once, and its record's schedule becomes the memo's.

A warm planned call also finds its runner here
(:meth:`InspectorCache.runner_for`): the hook-free runner of a resolved
spec and cost model, built once and kept, so the call pays its walk and
not a runner build.

The simulated backend keeps its executor operands here too
(:meth:`InspectorCache.sim_operands`): per strip-mine block, the term
codes in execution order, the schedule's lanes, the operands of the
max-plus sweep and the per-processor cycle sums.  They depend on the
machine as well as the structure, so their key extends the fingerprint
with the strategy, order, blocks, processors, schedule kind, chunk,
cost model and effective work profile; the cycles themselves are not
cached — the sweep runs on every call.  A simulated runner without a
cache builds them on every call.
"""

from __future__ import annotations

import hashlib
import weakref
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from repro.backends import native
from repro.backends.kernel import ACC, OLD, WAIT, term_positions
from repro.core.workspace import MAXINT
from repro.errors import InvalidLoopError
from repro.graph.levels import LevelSchedule, compute_levels, sweep_levels
from repro.ir.loop import IrregularLoop
from repro.ir.transform import TransformPlan, plan_transform, structural_signature

__all__ = [
    "loop_fingerprint",
    "fingerprint_with_body",
    "InspectorRecord",
    "WalkLayout",
    "InspectorCache",
    "build_inspector_record",
    "assemble_record",
]


def _frozen_chain(arrays) -> list[np.ndarray] | None:
    """Every ndarray in the ``.base`` chains of ``arrays``, or ``None``
    when a chain ends in a buffer that stays writeable whatever the
    arrays' flags say (``bytearray``, ``mmap``, a writeable
    ``memoryview``, or anything without the buffer protocol)."""
    chain = []
    for arr in arrays:
        while isinstance(arr, np.ndarray):
            chain.append(arr)
            arr = arr.base
        if arr is not None:
            try:
                with memoryview(arr) as view:
                    if not view.readonly:
                        return None
            except TypeError:
                return None
    return chain


def _memo_digest(loop: IrregularLoop) -> str | None:
    """The loop's memoized fingerprint while it still holds — the same
    three array objects bound, every array of their chains read-only —
    else ``None``: the memo half of :func:`fingerprint_with_body`, which
    every warm planned call runs twice (plan and run envelope), written
    without generators to keep it under a microsecond."""
    memo = loop._fingerprint_memo
    if memo is None:
        return None
    (write, ptr, index), chain, digest = memo
    reads = loop.reads
    if loop.write is not write or reads.ptr is not ptr or reads.index is not index:
        return None
    for arr in chain:
        if arr.flags.writeable:
            return None
    return digest


def fingerprint_with_body(loop: IrregularLoop) -> tuple[str, str]:
    """Return ``(digest, body)``: the loop's :func:`loop_fingerprint` and
    how it was obtained — ``"memo"``, ``"hashed"`` (and frozen) or
    ``"hashed (foreign-buffer)"`` (see the module doc for the
    freeze-and-memoize contract)."""
    digest = _memo_digest(loop)
    if digest is not None:
        return digest, "memo"
    arrays = (loop.write, loop.reads.ptr, loop.reads.index)
    # The last moment the index arrays can change: checked here, a frozen
    # loop's are never checked again.
    loop.check_subscripts()
    loop.check_write_injective()
    chain = _frozen_chain(arrays)
    if chain is not None:
        # Frozen before hashing: the digest is of content that can no
        # longer change.
        for arr in chain:
            arr.flags.writeable = False
    h = hashlib.sha256()
    h.update(repr(structural_signature(loop)).encode())
    for arr in arrays:
        h.update(b"|")
        h.update(np.ascontiguousarray(arr))  # the buffer itself, no copy
    digest = h.hexdigest()
    loop.arg_block = None  # it may hold the arrays this memo replaces
    if chain is None:
        loop._fingerprint_memo = None
        return digest, "hashed (foreign-buffer)"
    loop._fingerprint_memo = (arrays, tuple(chain), digest)
    return digest, "hashed"


def loop_fingerprint(loop: IrregularLoop) -> str:
    """SHA-256 digest of the loop's dependence structure.

    Covers the static signature plus the raw bytes of ``write``,
    ``reads.ptr``, and ``reads.index``.  Excludes coefficients, ``y0``,
    and ``init_values`` — they affect arithmetic, not dependence.  Hashed
    once per loop object: the first call freezes the three arrays and
    later calls return the memoized digest (module doc).
    """
    return fingerprint_with_body(loop)[0]


@dataclass(frozen=True)
class WalkLayout:
    """A loop's structure gathered into a schedule's ``order`` once, so
    the walk reads it by position, front to back
    (:func:`~repro.backends.kernel.run_span`'s ``start`` layout).

    Attributes
    ----------
    write:
        ``write[order[t]]``: position ``t``'s written element.
    ptr:
        Local term boundaries: position ``t``'s terms are
        ``index[ptr[t]:ptr[t + 1]]`` (and ``codes``' same range).
    index:
        The loop's ``reads.index``, every term of ``order[0]``, then of
        ``order[1]``, ...
    start:
        ``reads.ptr[order[t]]``: where position ``t``'s coefficients begin
        in the loop's own ``reads.coeff``.  Coefficients and initial values
        are per-call values, so they are never gathered.
    """

    write: np.ndarray
    ptr: np.ndarray
    index: np.ndarray
    start: np.ndarray

    @property
    def nbytes(self) -> int:
        return int(sum(a.nbytes for a in vars(self).values()))


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
    layout:
        The structure in ``order`` (:class:`WalkLayout`), or ``None`` when
        ``order`` is the identity and the loop's own arrays already are.
    renames:
        Whether some ``OLD`` term reads an element an iteration writes —
        an antidependence, which level order may run after its writer.
        Only then does the walk read the caller's values apart from the
        ones it writes (``ynew``); otherwise it writes ``y`` in place.
    arg_block:
        The compiled walk's argument block of this record's fixed
        operands (:class:`~repro.backends.native.ArgBlock`), built by its
        first compiled walk and rebuilt if one of them is rebound; not
        part of the record's value.  Kept only with a ``layout``: the
        identity order walks the loop's own arrays, which the record does
        not own (every loop of its structure shares it), so that block is
        kept by the loop (``IrregularLoop.arg_block``) instead.
    """

    fingerprint: str
    iter_array: np.ndarray
    schedule: LevelSchedule
    plan: TransformPlan
    codes: np.ndarray
    layout: WalkLayout | None
    renames: bool
    arg_block: object = field(default=None, init=False, repr=False, compare=False)

    def __getstate__(self) -> dict:
        # A copy or an unpickled record converts its own arrays: the
        # block's addresses are this record's arrays', in this process.
        state = self.__dict__.copy()
        state.pop("arg_block", None)
        return state

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
        layout = 0 if self.layout is None else self.layout.nbytes
        return int(sum(a.nbytes for a in arrays)) + layout


def build_inspector_record(
    loop: IrregularLoop,
    schedule: LevelSchedule | None = None,
    fingerprint: str | None = None,
) -> InspectorRecord:
    """Run the inspector and wavefront preprocessing for ``loop`` and
    package the result for caching.

    This is the whole run-time preprocessing pipeline of the paper —
    Figure 3's ``iter`` construction plus the §3.2 wavefront computation —
    as one compiled call (:func:`repro.backends.native.inspect`: ``iter``,
    the levels, their order, the term codes and the gathered layout,
    written straight into the record's arrays).  Without the compiled
    object it runs as NumPy array operations on
    :func:`~repro.graph.levels.sweep_levels`' schedule; both bodies build
    the same record, bit for bit.  ``schedule`` is the loop's wavefront
    decomposition and ``fingerprint`` its :func:`loop_fingerprint` when
    the caller already holds them (the cache's level memo, a distance
    group schedule); they are computed here otherwise — the levels
    first, so an out-of-range subscript is refused before any array is
    indexed with it.
    """
    got = native.inspect(loop, order=None if schedule is None else schedule.order)
    if isinstance(got, str):
        return _numpy_record(loop, schedule, fingerprint)
    if schedule is None:
        schedule = LevelSchedule(got.levels, got.order, got.level_ptr, "native")
    return InspectorRecord(
        fingerprint=fingerprint or loop_fingerprint(loop),
        iter_array=got.iter_array,
        schedule=schedule,
        plan=plan_transform(loop),
        codes=got.codes,
        layout=None if got.layout is None else WalkLayout(*got.layout),
        renames=got.renames,
    )


def _numpy_record(
    loop: IrregularLoop,
    schedule: LevelSchedule | None,
    fingerprint: str | None,
) -> InspectorRecord:
    """:func:`build_inspector_record`'s body without the compiled object."""
    if schedule is None:
        schedule = sweep_levels(loop)
    n, y_size = loop.n, loop.y_size

    # Inspector: iter(a(i)) = i, everything else MAXINT (Figure 3, left).
    iter_array = np.full(y_size, MAXINT, dtype=np.int64)
    iter_array[loop.write] = np.arange(n, dtype=np.int64)

    # Classify every flat term against iter (the executor's check).
    readers = loop.reads.iteration_of_term()
    writers = iter_array[loop.reads.index]  # MAXINT where unwritten
    intra_flat = writers == readers
    true_flat = writers < readers  # MAXINT compares greater: never true dep
    # A read of a written element is true, intra or anti: counting beats
    # a third mask.
    anti = np.count_nonzero(writers != MAXINT) - np.count_nonzero(
        true_flat
    ) - np.count_nonzero(intra_flat)

    return assemble_record(
        loop,
        iter_array=iter_array,
        schedule=schedule,
        true_flat=true_flat,
        intra_flat=intra_flat,
        renames=anti > 0,
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
    renames: bool,
    plan: TransformPlan,
    fingerprint: str,
) -> InspectorRecord:
    """Package classified terms as an :class:`InspectorRecord`: the
    ``true_flat`` / ``intra_flat`` masks (flat term order) become term
    codes in the schedule's order, and the structure is gathered into
    that order beside them (:class:`WalkLayout`, from the same term
    positions; none when the order is the identity).  ``renames`` is the
    caller's: whether an ``OLD`` term reads a written element.

    Shared by the runtime inspector (:func:`build_inspector_record`) and
    the symbolic and distance-group paths (:mod:`repro.analysis.elide`)
    — both feed the same deterministic layout, so records are bitwise
    comparable regardless of which side produced the classification.
    """
    codes = np.full(len(true_flat), OLD, dtype=np.int8)
    codes[true_flat] = WAIT
    codes[intra_flat] = ACC
    order, reads = schedule.order, loop.reads
    terms, counts = term_positions(reads.ptr, order)
    layout = None
    if len(order) and not isinstance(terms, slice):
        ptr = np.zeros(len(order) + 1, dtype=np.int64)
        np.cumsum(counts, out=ptr[1:])
        layout = WalkLayout(
            write=loop.write[order],
            ptr=ptr,
            index=reads.index[terms],
            start=reads.ptr[order],
        )
    return InspectorRecord(
        fingerprint=fingerprint,
        iter_array=iter_array,
        schedule=schedule,
        plan=plan,
        codes=codes[terms],
        layout=layout,
        renames=bool(renames),
    )


class InspectorCache:
    """LRU cache of :class:`InspectorRecord` keyed by loop content.

    Parameters
    ----------
    capacity:
        Maximum number of dependence structures retained; least recently
        used entries are evicted first.  The bound applies to the records
        and, separately, to the level-schedule memo and to the simulated
        backend's operands.

    Attributes
    ----------
    hits, misses:
        Record lookup counters — the measurable form of the paper's
        Figure-3 amortization claim (asserted in tests and reported by
        ``benchmarks/e2e`` as ``cache.hits`` / ``cache.misses``).
    levels_hits, levels_misses:
        The same for :meth:`levels_for`, the planner's lookups.
    sim_hits, sim_misses:
        The same for :meth:`sim_operands`, the simulated backend's lookups.
    evictions:
        Records, level schedules, simulated operands and memoized runners
        dropped by the capacity bound.

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
        self.sim_hits = 0
        self.sim_misses = 0
        self.evictions = 0
        self._entries: OrderedDict[str, InspectorRecord] = OrderedDict()
        self._levels: OrderedDict[str, LevelSchedule] = OrderedDict()
        self._sim: OrderedDict[tuple, object] = OrderedDict()
        self._tuner: dict[str, dict] = {}
        self._runners: OrderedDict[tuple, object] = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, loop: IrregularLoop) -> bool:
        return loop_fingerprint(loop) in self._entries

    def _store(self, table: OrderedDict, key, value) -> None:
        """Insert as most recently used, evicting down to ``capacity``."""
        table[key] = value
        table.move_to_end(key)
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
        pass it rather than calling it again).
        """
        fp = fingerprint if fingerprint is not None else loop_fingerprint(loop)
        schedule = self._levels.get(fp)
        if schedule is not None:
            self.levels_hits += 1
            self._levels.move_to_end(fp)
            return schedule, True
        record = self._entries.get(fp)
        if record is not None:
            schedule = record.schedule
            self.levels_hits += 1
        else:
            self.levels_misses += 1
            schedule = compute_levels(loop)
        self._store(self._levels, fp, schedule)
        return schedule, record is not None

    def levels_and_record(
        self, loop: IrregularLoop, fingerprint: str
    ) -> tuple[LevelSchedule, bool, InspectorRecord, bool]:
        """:meth:`levels_for` then :meth:`get_or_build`, counted as those
        two lookups — ``(schedule, levels hit, record, record hit)`` — but
        a structure neither has seen is inspected once: its record is
        built with its levels (:func:`build_inspector_record`), and its
        schedule is the memo's.  The vectorized plan's lookup."""
        if fingerprint in self._levels or fingerprint in self._entries:
            schedule, levels_hit = self.levels_for(loop, fingerprint)
            record, hit = self.get_or_build(loop, fingerprint=fingerprint)
            return schedule, levels_hit, record, hit
        self.levels_misses += 1
        record, hit = self.get_or_build(loop, fingerprint=fingerprint)
        self._store(self._levels, fingerprint, record.schedule)
        return record.schedule, False, record, hit

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

    def sim_operands(self, key: tuple, build) -> tuple[object, bool]:
        """Return ``(operands, hit)``: the simulated backend's executor
        operands under ``key``, ``build()`` on a miss.

        ``key`` starts with the loop's :func:`loop_fingerprint` and names
        everything else the operands depend on (module doc); the value
        reports its footprint as ``nbytes``.  A ``build`` that raises
        stores nothing.
        """
        operands = self._sim.get(key)
        if operands is not None:
            self.sim_hits += 1
            self._sim.move_to_end(key)
            return operands, True
        self.sim_misses += 1
        operands = build()
        self._store(self._sim, key, operands)
        return operands, False

    def runner_for(self, key, build):
        """The hook-free runner memoized under ``key`` (a resolved spec
        and cost model), else ``build(cache)``, kept under the capacity
        bound like a record.  ``build`` is handed a weak proxy of this
        cache, so a kept runner holds no reference back to it: dropping
        the cache frees its records at once, cycle collector or not.  A
        runner kept here is never given a hook
        (:func:`~repro.passes.execute.execute_plan` builds a fresh one
        for observed, sanitized or validated runs)."""
        runner = self._runners.get(key)
        if runner is None:
            runner = build(weakref.proxy(self))
            self._store(self._runners, key, runner)
        else:
            self._runners.move_to_end(key)
        return runner

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
        """Drop all records, the level-schedule memo, the simulated
        operands, the tuner state and the memoized runners (counters are
        kept)."""
        self._entries.clear()
        self._runners.clear()
        self._levels.clear()
        self._sim.clear()
        self._tuner.clear()

    def stats(self) -> dict:
        """Counters plus footprint, JSON-safe.  ``hits``/``misses``
        describe the records, ``bytes`` the records plus the simulated
        operands; the memo's arrays are shared with the record of the same
        structure when there is one."""
        return {
            "entries": len(self._entries),
            "capacity": self.capacity,
            "hits": self.hits,
            "misses": self.misses,
            "bytes": int(
                sum(r.nbytes for r in self._entries.values())
                + sum(o.nbytes for o in self._sim.values())
            ),
            "tuner_entries": len(self._tuner),
            "levels_entries": len(self._levels),
            "levels_hits": self.levels_hits,
            "levels_misses": self.levels_misses,
            "sim_entries": len(self._sim),
            "sim_hits": self.sim_hits,
            "sim_misses": self.sim_misses,
            "evictions": self.evictions,
        }
