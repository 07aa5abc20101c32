"""The simulated backend: the preprocessed doacross as one loop nest on
the simulated multiprocessor.

This module is where the paper's Figure 3 (pre/postprocessing) and Figure 5
(transformed executor) become executable.  Each run produces *both* the
correct values and the simulated timing, and the two are computed apart:
the code array of :func:`repro.backends.kernel.classify_terms` fixes which
value every term reads whatever the interleaving, so an executor phase's
values are one :func:`repro.backends.kernel.run_span` call over its
positions in execution order — the walk every backend shares — and its
cycles are a separate question that involves no arithmetic on ``y``.

Every §2 variant is the same pipeline, :meth:`SimulatedRunner._doacross`,
with a barrier after each phase (the construct must complete before code
after the loop runs)::

    for each block of iterations:            # §2.3 strip-mining: many blocks
        inspector     | barrier              # iter(a(i)) = i; none if linear
        codes = kernel.classify_terms(iter)  # Figure 5's compare, per term
        iter restored
        for each instance:                   # amortized inspector: many
            executor      | barrier          # run_span(codes); cycles below
            postprocessor | barrier          # reduced before the last one

The plain doacross is one block × one instance, the §2.3 ``linear``
variant the same with the closed-form writer in place of the inspector
phase and the ``iter`` array; ``barriers`` is always the number of phases
run.  The executor never compares ``iter`` with ``i`` itself: it charges
``dep_check`` per term and branches on the codes derived from the ``iter``
array just filled.  A read whose writer sits in an earlier strip-mine
block finds ``iter`` already reset, classifies ``OLD`` and takes the
no-wait path to the *updated* ``y`` — §2.3's "no synchronisation across
blocks" is the shared rule, not a second one.

What depends on structure and machine alone — the codes, the schedule's
lanes, the sweep's operands and the per-processor cycle sums — is built
once per key and kept in the :class:`~repro.backends.cache.InspectorCache`
the runner was given (the paper's Figure-3 amortization, for the
simulator's own preprocessing): a warm call classifies nothing and runs
only ``run_span`` and one sweep per block.  A runner without a cache
builds them every call.  ``result.extras["sim_executor"]["operands"]``
says ``"cached"`` or ``"built"``.

A phase's cycles are one per-position :class:`_Timing` record — the flags
a position waits on, the cycles before each wait and from the last one
through its flag set, the flag it sets — built for Figure 5's executor
(:meth:`SimulatedRunner._executor_timing`), the §1 classic doacross and
doall (:meth:`SimulatedRunner._baseline`) and a ``parallel do`` on a bus.
Two evaluators read it, chosen from the machine and the schedule class
(:meth:`SimulatedRunner._why_engine`; never an option) and named in
``result.extras["sim_executor"]``:

- On the machine of both paper experiments — a built-in static schedule,
  no bus, no coherence, no timeline to record — processors share nothing
  but the flag set-times and each walks its positions in increasing
  order, so one max-plus sweep in position order gives the finish times
  (:meth:`SimulatedRunner._recurrence`); a bus-free ``parallel do`` is
  its closed form, ``count × cost`` per processor.  A sanitized run logs
  each processor's accesses in position order, its program order.
- Every other configuration — bus, coherence, dynamic / guided
  self-scheduling, ``trace=True`` (hence ``observe=True``), a caller's own
  ``IterationSchedule`` subclass — walks the record as generator tasks on
  the discrete-event engine (:meth:`SimulatedRunner._phase`), which also
  detects a schedule that deadlocks; its operands are built every call.
  ``tests/test_simulated_executor.py`` holds the two equal field by field.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.backends import native
from repro.backends.base import (
    Runner,
    check_repeated,
    execution_positions,
    note_kernel,
    validate_execution_order,
)
from repro.backends.kernel import (
    ACC,
    WAIT,
    Placement,
    classify_terms,
    run_span,
    take_tally,
)
# A module, not names: ``cache`` is still initialising when the package
# import reaches this one (cache → core.workspace → core → simulated).
from repro.backends import cache as inspector_cache
from repro.core.results import PhaseBreakdown, RunResult
from repro.core.sequential import sequential_time
from repro.core.workspace import MAXINT, DoacrossWorkspace
from repro.errors import InvalidLoopError, ScheduleError
from repro.ir.analysis import (
    CAT_ANTI,
    CAT_TRUE,
    classify_reads,
    uniform_distance,
)
from repro.ir.loop import IrregularLoop
from repro.ir.subscript import AffineSubscript
from repro.ir.transform import (
    STRATEGY_CLASSIC_DOACROSS,
    STRATEGY_DOALL,
    STRATEGY_LINEAR,
    TransformPlan,
)
from repro.machine.engine import RES_BUS, RES_DISPATCH, Machine
from repro.machine.flags import FlagStore
from repro.machine.ops import Compute, SetFlag, UseResource, WaitFlag
from repro.machine.scheduler import (
    IterationSchedule,
    StaticBlockSchedule,
    StaticCyclicSchedule,
    make_schedule,
)
from repro.machine.stats import PhaseStats, ProcessorStats
from repro.machine.trace import Tracer

__all__ = ["SimulatedRunner"]

#: The schedules whose executor phases the recurrence may time: their
#: placement is a closed form (``lanes()``) and every processor walks its
#: positions in increasing order.  Exact classes — a subclass may deal
#: differently, and is a caller's schedule like any other.
_RECURRENCE_SCHEDULES = (StaticBlockSchedule, StaticCyclicSchedule)


@dataclass
class _Timing:
    """One phase's cycles, per position ``p``: the one description both
    evaluators read.

    Position ``p`` waits on the flags ``sources[wait_ptr[p]:wait_ptr[p +
    1]]``, each after its ``ahead`` cycles (the previous wait's flag check
    included), then spends ``tail[p]`` cycles from its last wait (or its
    start) through setting flag ``write[p]`` (``write`` ``None``: the
    phase sets no flag; there are ``size`` flags).  Its own cycles are
    ``tail[p]`` plus the ``ahead`` of each of its waits.  Optional:
    ``weight`` (iterations per position, else one), ``hold`` (bus cycles
    per position) and ``lane`` (each position's processor, set by
    :meth:`deal` for the recurrence)."""

    wait_ptr: np.ndarray
    sources: np.ndarray
    ahead: np.ndarray
    tail: np.ndarray
    write: np.ndarray | None
    size: int
    weight: np.ndarray | None = None
    hold: np.ndarray | None = None
    lane: np.ndarray | None = None

    @property
    def nbytes(self) -> int:
        return sum(a.nbytes for a in vars(self).values() if isinstance(a, np.ndarray))

    def deal(self, lanes: np.ndarray, processors: int) -> tuple:
        """Place position ``p`` on processor ``lanes[p]`` and return each
        processor's own cycles, flag checks, flag sets and iterations —
        everything of its :class:`PhaseStats` but the ``max``."""
        self.lane = np.ascontiguousarray(lanes, dtype=np.int64)
        before = np.zeros(len(self.ahead) + 1, dtype=np.int64)
        np.cumsum(self.ahead, out=before[1:])
        own = self.tail + before[self.wait_ptr[1:]] - before[self.wait_ptr[:-1]]

        def per_lane(weights) -> list[int]:
            # Exact: cycle sums stay far below 2**53.
            return (
                np.bincount(self.lane, weights=weights, minlength=processors)
                .astype(np.int64)
                .tolist()
            )

        return (
            per_lane(own),
            per_lane(np.diff(self.wait_ptr)),
            [0] * processors if self.write is None else per_lane(None),
            per_lane(self.weight),
        )


@dataclass
class _Block:
    """One strip-mine block's executor operands: its positions ``its`` in
    execution order, their term ``codes``, the ``schedule`` dealing them
    and their :class:`_Timing` — for the recurrence dealt to the
    processors, with each one's ``sums`` (:meth:`_Timing.deal`), and kept
    only where a position waits: nothing else needs a sweep."""

    lo: int
    hi: int
    its: np.ndarray
    codes: np.ndarray
    schedule: IterationSchedule
    timing: _Timing | None = None
    sums: tuple | None = None

    @property
    def nbytes(self) -> int:
        timing = 0 if self.timing is None else self.timing.nbytes
        return self.its.nbytes + self.codes.nbytes + timing


@dataclass
class _Operands:
    """What :meth:`SimulatedRunner._doacross` derives from structure and
    machine alone, one :class:`_Block` per strip-mine block; what the
    :class:`~repro.backends.cache.InspectorCache` holds for the simulated
    backend."""

    blocks: list[_Block]

    @property
    def nbytes(self) -> int:
        return sum(block.nbytes for block in self.blocks)


class SimulatedRunner(Runner):
    """Runs transformed loops on a :class:`~repro.machine.engine.Machine`.

    Parameters
    ----------
    machine:
        The simulated multiprocessor.
    workspace:
        Optional shared :class:`DoacrossWorkspace`; passing one across runs
        exercises the paper's scratch-array reuse (postprocessing must leave
        it pristine — tested).
    cache:
        Optional :class:`InspectorCache` holding the executor operands
        (module doc), shared to amortize across runners.  Given one, every
        run hashes the loop first, freezing its index arrays; without one,
        nothing is hashed or frozen and the operands are built every call.
    """

    name = "simulated"

    def __init__(
        self,
        machine: Machine,
        workspace: DoacrossWorkspace | None = None,
        cache: inspector_cache.InspectorCache | None = None,
    ):
        self.machine = machine
        self.workspace = workspace if workspace is not None else DoacrossWorkspace()
        self.cache = cache

    # ------------------------------------------------------------------
    # The uniform Runner entry point
    # ------------------------------------------------------------------
    def run(
        self,
        loop: IrregularLoop,
        *,
        order: np.ndarray | None = None,
        schedule=None,
        chunk: int | None = None,
        trace: bool = False,
        linear: bool = False,
        order_label: str = "natural",
        transform: TransformPlan | None = None,
    ) -> RunResult:
        """The :class:`~repro.backends.base.Runner` interface: the full
        preprocessed pipeline (or the §2.3 ``linear`` variant) on the
        simulated machine, with backend-default schedule/chunk where
        ``None``.

        With a ``transform`` plan (:func:`~repro.ir.transform.plan_transform`)
        the run is the strategy the plan names — doall, classic doacross,
        linear or preprocessed — so ``result.strategy`` is always the
        plan's.  Doall and classic synchronise on iteration numbers known
        a priori, which only hold in natural order, and have no executor
        timeline: ``order`` (a single wavefront for a real doall anyway)
        and ``trace`` do not apply to them.
        """
        chunk = 1 if chunk is None else chunk
        if transform is not None:
            if transform.strategy == STRATEGY_DOALL:
                return self.run_doall(loop, schedule=schedule, chunk=chunk)
            if transform.strategy == STRATEGY_CLASSIC_DOACROSS:
                return self.run_classic(
                    loop,
                    transform.uniform_distance,
                    schedule=schedule,
                    chunk=chunk,
                )
            linear = transform.strategy == STRATEGY_LINEAR
        return self.run_preprocessed(
            loop,
            schedule=schedule,
            chunk=chunk,
            order=order,
            linear=linear,
            order_label=order_label,
            trace=trace,
        )

    def schedule_model(
        self, loop, *, order=None, schedule=None, chunk=None, **_options
    ) -> Placement:
        """The executor's placement: the schedule ``run`` resolves, each
        position on its processor, and every term coded at chunk 1 as
        :meth:`_build_operands` codes it.  A dynamic schedule's processor
        is timing-dependent, so each claim is its own lane: chunk-internal
        order is kept, and cross-claim order must come from waits."""
        n = loop.n
        sched = self._resolve_schedule(schedule, n, 1 if chunk is None else chunk)
        kind = type(sched).__name__
        if sched.is_dynamic:
            lanes = np.full(n, -1, dtype=np.int64)
            sched.reset()
            for k, (lo, hi) in enumerate(iter(sched.claim, None)):
                lanes[lo:hi] = k
            sched.reset()
            label = f"simulated/{kind}(dynamic)"
        else:
            lanes = sched.lanes()
            label = f"simulated/{kind}({self.machine.processors}p)"
        pos = execution_positions(n, order)
        return Placement.flagged(pos, lanes[pos], 1, label)

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _checkout_workspace(self, loop: IrregularLoop) -> DoacrossWorkspace:
        """Size the shared workspace for ``loop`` and verify it is clean.

        The executor trusts ``iter[off] == MAXINT`` to mean "never
        written"; a stale entry from a run whose postprocessing was skipped
        would silently misclassify reads.  Failing loudly here turns that
        corruption into a diagnosable error.
        """
        ws = self.workspace
        ws.ensure_size(loop.y_size)
        if not ws.is_clean():
            dirty = ws.dirty_indices()
            raise InvalidLoopError(
                f"workspace is dirty at {len(dirty)} element(s) (first: "
                f"{int(dirty[0])}); a previous doacross was not "
                f"postprocessed — scratch reuse requires the Figure-3 "
                f"reset discipline"
            )
        ws.invocations += 1
        return ws

    def _resolve_schedule(
        self, spec, n: int, chunk: int = 1
    ) -> IterationSchedule:
        """The schedule of a phase of ``n`` positions: ``spec`` itself if
        it is one — a static one checked to deal every position exactly
        once over this machine's processors — or a fresh one of kind
        ``spec`` (``None``: cyclic)."""
        processors = self.machine.processors
        if isinstance(spec, IterationSchedule):
            if spec.n != n:
                raise InvalidLoopError(
                    f"schedule covers {spec.n} iterations, loop has {n}"
                )
            if not spec.is_dynamic:
                if spec.processors != processors:
                    raise ScheduleError(
                        f"schedule deals to {spec.processors} processors, "
                        f"the machine has {processors}"
                    )
                # A position dealt never or twice would run a part of the
                # loop, or set a flag a second time.
                spec.lanes()
            return spec
        kind = "cyclic" if spec is None else spec
        return make_schedule(kind, n, processors, chunk=chunk)

    def _phase(
        self,
        name: str,
        schedule: IterationSchedule,
        timing: _Timing,
        coherence: bool = False,
        log=None,
        tracer=None,
    ) -> PhaseStats:
        """Run one phase on the event engine: deal ``schedule``'s
        positions to the processors — a static schedule's chunk lists, or
        claims on the shared dispatch counter (``cost_model.dispatch`` per
        grab, serialised) — and walk each piece through ``timing``: per
        position its bus hold; per wait the cycles ahead of it, less the
        flag check the engine charged for the previous one, and the wait;
        the rest of the tail, less the flag set the engine charges, and
        the set.  Zero cycles are not yielded (the engine would queue a
        processor with nothing to run).  ``coherence`` is the executor's
        write-invalidate model, ownership empty every phase; ``log(proc,
        lo, hi)`` shadow-logs each piece as it is dealt."""
        machine = self.machine
        cm = machine.cost_model
        dispatch_cost = cm.dispatch
        flag_check, coherence_miss = cm.flag_check, cm.coherence_miss
        wait_ptr, sources, ahead, tail = (
            memoryview(a)
            for a in (timing.wait_ptr, timing.sources, timing.ahead, timing.tail)
        )
        write, weight, hold = (
            None if a is None else memoryview(a)
            for a in (timing.write, timing.weight, timing.hold)
        )
        flag_set = 0 if write is None else cm.flag_set
        # Write-invalidate ownership: which processor's cache holds each
        # element (-1 = none yet).
        owner = [-1] * timing.size if coherence else None
        schedule.reset()  # a reused dynamic schedule deals from the start

        def body(st, lo: int, hi: int):
            """Walk positions ``lo..hi`` (generator; yields engine ops)."""
            if log is not None:
                log(st.proc, lo, hi)
            for p in range(lo, hi):
                if hold is not None and hold[p]:
                    yield UseResource(RES_BUS, hold[p])
                checked = miss = 0
                for j in range(wait_ptr[p], wait_ptr[p + 1]):
                    cycles = ahead[j] - checked + miss
                    if cycles:
                        yield Compute(cycles)
                    source = sources[j]
                    yield WaitFlag(source)
                    checked, miss = flag_check, 0
                    if owner is not None and owner[source] != st.proc:
                        # Invalidation miss: the line is dirty in the
                        # writer's cache; pay the transfer.
                        miss = coherence_miss
                        st.coherence_misses += 1
                        owner[source] = st.proc
                if owner is not None:
                    owner[write[p]] = st.proc
                cycles = tail[p] - checked + miss - flag_set
                if cycles:
                    yield Compute(cycles)
                if write is not None:
                    yield SetFlag(write[p])
                st.iterations += 1 if weight is None else weight[p]

        def factory_for(proc: int):
            if schedule.is_dynamic:

                def task(st):
                    while True:
                        yield UseResource(RES_DISPATCH, dispatch_cost)
                        st.dispatches += 1
                        claim = schedule.claim()
                        if claim is None:
                            return
                        yield from body(st, *claim)

            else:
                chunks = schedule.chunks_for(proc)

                def task(st):
                    for lo, hi in chunks:
                        yield from body(st, lo, hi)

            return task

        flags = None if write is None else FlagStore(timing.size)
        engine = machine.new_engine(flags=flags, tracer=tracer)
        return engine.run(
            name, [factory_for(p) for p in range(machine.processors)]
        )

    def _parallel_do(
        self, name: str, n: int, cost: int, accesses: int
    ) -> PhaseStats:
        """Simulate a regular ``parallel do`` (Figure 3's pre/post loops)
        of ``n`` iterations, each ``cost`` cycles and ``accesses`` shared
        accesses: a static block partition, one position per processor
        weighing its block's ``count`` iterations.  Without a bus the
        processors share nothing, and the recurrence is ``count × cost``
        in closed form; the bus is a serial resource the engine queues
        for."""
        machine = self.machine
        processors = machine.processors
        base, extra = divmod(n, processors)
        counts = [base + 1] * extra + [base] * (processors - extra)
        if not machine.bus and StaticBlockSchedule in _RECURRENCE_SCHEDULES:
            none = [0] * processors
            return self._recurrence(
                name, ([count * cost for count in counts], none, none, counts)
            )
        counts = np.array(counts, dtype=np.int64)
        hold = counts * accesses * machine.cost_model.bus_per_access
        timing = _Timing(
            np.zeros(processors + 1, dtype=np.int64), counts[:0], counts[:0],
            counts * cost, None, 0, weight=counts,
            hold=hold if machine.bus else None,
        )
        return self._phase(name, StaticBlockSchedule(processors, processors), timing)

    def _result(
        self,
        loop: IrregularLoop,
        strategy: str,
        y: np.ndarray,
        ran: list[PhaseStats],
        schedule: IterationSchedule,
        why_engine: str | None,
        instances: int = 1,
        order_label: str = "natural",
        cached: bool = False,
    ) -> RunResult:
        """The :class:`RunResult` of a run whose phases were ``ran``, in
        that order: a barrier follows each, and same-named phases (strip-
        mine blocks, instances) are reported merged.  ``extras`` says which
        evaluator timed the executor, why, and whether its operands were
        ``cached``."""
        cm = self.machine.cost_model
        phases: dict[str, PhaseStats] = {}
        for phase in ran:
            _merge_phase(phases, phase)

        def span(name: str) -> int:
            return sum(phase.span for phase in ran if phase.name == name)

        breakdown = PhaseBreakdown(
            inspector=span("inspector"),
            executor=span("executor"),
            postprocessor=span("postprocessor"),
            barriers=len(ran) * cm.barrier(self.machine.processors),
        )
        result = RunResult(
            loop_name=loop.name,
            strategy=strategy,
            processors=self.machine.processors,
            y=y,
            total_cycles=breakdown.total,
            sequential_cycles=instances * sequential_time(loop, cm),
            cost_model=cm,
            phases=list(phases.values()),
            breakdown=breakdown,
            wait_cycles=sum(phase.total_wait for phase in ran),
            schedule=_describe_schedule(schedule),
            order_label=order_label,
        )
        result.extras["sim_executor"] = {
            "body": "recurrence" if why_engine is None else "engine",
            "reason": why_engine,
            "operands": "cached" if cached else "built",
        }
        return result

    # ------------------------------------------------------------------
    # Executor timing (Figure 5's cycles; its values are run_span's)
    # ------------------------------------------------------------------
    def _why_engine(self, schedule: IterationSchedule, tracer) -> str | None:
        """Why a phase dealt by ``schedule`` needs the event engine
        (:meth:`_phase`), or ``None`` when :meth:`_recurrence` times it.

        The recurrence holds when processors share nothing but the flag
        set-times and each walks its positions in increasing order.  The
        disqualifiers, in the order they are named: a serial resource
        (``bus``), state that depends on the interleaving (``coherence``
        ownership, the ``dynamic-schedule`` dispatch counter), a timeline
        to record (``trace``), a placement only the schedule's
        ``chunks_for`` knows (``custom-schedule``).  A shadow log is no
        reason: on a static schedule it is a function of the positions and
        their codes (:meth:`_shadow_log`).
        """
        machine = self.machine
        if machine.bus:
            return "bus"
        if machine.coherence:
            return "coherence"
        if schedule.is_dynamic:
            return "dynamic-schedule"
        if tracer is not None:
            return "trace"
        if type(schedule) not in _RECURRENCE_SCHEDULES:
            return "custom-schedule"
        return None

    def _executor_timing(
        self, loop: IrregularLoop, its: np.ndarray, codes: np.ndarray
    ) -> _Timing:
        """Figure 5's loop body as a :class:`_Timing` record: position
        ``p`` runs iteration ``its[p]``, its terms coded by ``codes`` in
        execution order.  Per term a dependence check (offset, ``iter``
        load, compare) and the term; a ``WAIT`` term busy-waits for its
        writer between the two."""
        machine = self.machine
        cm = machine.cost_model
        work = cm.effective_work(loop.work)
        iter_overhead = cm.exec_iter_overhead + work.overhead
        dep_check_setup = cm.dep_check + work.term_setup
        term_consume = work.term_consume
        flag_check = cm.flag_check
        ptr = loop.reads.ptr
        counts = ptr[its + 1] - ptr[its]
        first = np.cumsum(counts) - counts

        # Per WAIT term, in execution order: its position, the cycles
        # pending when the wait is issued.
        wait = np.flatnonzero(codes == WAIT)
        at = np.searchsorted(first, wait, side="right") - 1
        local = wait - first[at]
        pending = iter_overhead + (local + 1) * dep_check_setup + local * term_consume
        # An iteration's cycles from its start through its flag set.
        whole = (
            iter_overhead + counts * (dep_check_setup + term_consume) + cm.flag_set
        )
        again = at[1:] == at[:-1]
        ahead = pending.copy()
        ahead[1:][again] -= pending[:-1][again] - flag_check
        last = np.ones(len(wait), dtype=bool)
        last[:-1] = ~again
        tail = whole.copy()
        tail[at[last]] -= pending[last] - flag_check
        wait_ptr = np.zeros(len(its) + 1, dtype=np.int64)
        np.cumsum(np.bincount(at, minlength=len(its)), out=wait_ptr[1:])
        return _Timing(
            wait_ptr=wait_ptr,
            sources=loop.reads.index[ptr[its[at]] + local],
            ahead=ahead,
            tail=tail,
            write=loop.write[its],
            size=loop.y_size,
            hold=(2 + counts) * cm.bus_per_access if machine.bus else None,
        )

    def _recurrence(
        self, name: str, sums: tuple, sweep: _Timing | None = None
    ) -> PhaseStats:
        """The :class:`PhaseStats` :meth:`_phase` gives a record when
        :meth:`_why_engine` finds no reason for the engine, without the
        engine: each processor's ``sums`` (:meth:`_Timing.deal`) and, where
        a position waits, one sweep of the max-plus recurrence over
        ``sweep`` (:func:`repro.backends.native.max_plus`) in position
        order.  Every writer sits at an earlier position, so the sweep
        meets every set-time after it is known::

            t = free[lane]
            per wait:  t += ahead;  t = max(t, set_time[source])
            set_time[write] = free[lane] = t + tail

        A processor's ``wait_cycles`` are what its finish time exceeds its
        own cycles by; a flag set twice is refused by the sweep
        (:class:`~repro.errors.OutputDependenceError`)."""
        free = sums[0]
        if sweep is not None and len(sweep.sources):
            _, free, _ = native.max_plus(
                sweep.wait_ptr, sweep.sources, sweep.size,
                write=sweep.write, ahead=sweep.ahead, tail=sweep.tail,
                lane=sweep.lane, lanes=self.machine.processors,
            )
            free = free.tolist()
        # Positional, in field order (proc, compute, wait, resource wait,
        # flag checks, flag sets, dispatches, coherence misses, iterations,
        # finish): the warm path builds these every call.  A processor
        # only computes or spins until it is done.
        return PhaseStats(
            name=name,
            processors=[
                ProcessorStats(proc, own, end - own, 0, checks, sets, 0, 0, done, end)
                for proc, (own, checks, sets, done, end) in enumerate(
                    zip(*sums, free)
                )
            ],
        )

    def _shadow_log(self, loop: IrregularLoop, block: _Block):
        """``log(proc, lo, hi)``: append the accesses of ``block``'s
        positions ``lo..hi`` to processor ``proc``'s shadow log, in
        program order.  Per term, ``("a", idx)`` then ``("r", i, idx, 1)``
        for a wait, ``("r", i, idx, 0)`` for an old value (the live
        accumulator is not logged); then the write ``("w", i, w)`` and its
        post ``("p", w)``.  The codes fix every read and wait a position
        makes, so the log is a function of positions and codes, not of
        engine timing."""
        capture = self._san_capture
        ptr = loop.reads.ptr
        counts = ptr[block.its + 1] - ptr[block.its]
        its, codes, first = (
            memoryview(a) for a in (block.its, block.codes, np.cumsum(counts) - counts)
        )
        write, ptr, r_idx = (
            memoryview(a) for a in (loop.write, ptr, loop.reads.index)
        )

        def log(proc: int, lo: int, hi: int) -> None:
            events = capture.lane(proc)
            for p in range(lo, hi):
                i, c = its[p], first[p]
                for k in range(ptr[i], ptr[i + 1]):
                    code, idx = codes[c], r_idx[k]
                    c += 1
                    if code == WAIT:
                        events += (("a", idx), ("r", i, idx, 1))
                    elif code != ACC:
                        events.append(("r", i, idx, 0))
                w = write[i]
                events += (("w", i, w), ("p", w))

        return log

    # ------------------------------------------------------------------
    # The pipeline (paper §2.1–§2.3)
    # ------------------------------------------------------------------
    def _build_operands(
        self,
        loop: IrregularLoop,
        blocks: list[tuple[int, int]],
        order: np.ndarray | None,
        linear: bool,
        schedule,
        chunk: int,
        described: IterationSchedule,
        recurrence: bool,
    ) -> _Operands:
        """Inspect and classify every block (the loop nest's first two
        lines, ``iter`` restored after each block also when one raised),
        and describe its executor's cycles — dealt to the processors when
        the ``recurrence`` times it."""
        if order is not None:
            order = order.copy()  # kept by the cache; the caller's may change
            validate_execution_order(loop, order)
        n = loop.n
        write, ptr, r_idx = loop.write, loop.reads.ptr, loop.reads.index
        iter_arr = self.workspace.iter_arr
        # §2.3's inlined ``(off − d) mod c`` test: the writer of every
        # element in closed form (-1: never written), so neither the
        # inspector phase nor the ``iter`` array is needed.
        writer_of = (
            loop.write_subscript.writer_of_many(np.arange(loop.y_size), n)
            if linear
            else iter_arr
        )
        parts = []
        for lo, hi in blocks:
            block_its = np.arange(lo, hi, dtype=np.int64)
            its = block_its if order is None else order
            try:
                if not linear:
                    # The inspector: iter(a(i)) = i (Figure 3).
                    iter_arr[write[lo:hi]] = block_its
                codes = classify_terms(ptr, r_idx, writer_of, its, 1)
            finally:
                iter_arr[write[lo:hi]] = MAXINT
            exec_schedule = (
                described
                if hi - lo == n
                else self._resolve_schedule(schedule, hi - lo, chunk)
            )
            timing = self._executor_timing(loop, its, codes)
            if not recurrence:
                parts.append(_Block(lo, hi, its, codes, exec_schedule, timing))
                continue
            sums = timing.deal(exec_schedule.lanes(), self.machine.processors)
            if not len(timing.sources):
                timing = None  # nothing to sweep: the sums are the phase
            parts.append(_Block(lo, hi, its, codes, exec_schedule, timing, sums))
        return _Operands(parts)

    def _doacross(
        self,
        loop: IrregularLoop,
        strategy: str,
        schedule,
        chunk: int,
        blocks: list[tuple[int, int]],
        instances: int = 1,
        rhs_sequence=None,
        order: np.ndarray | None = None,
        linear: bool = False,
        order_label: str = "natural",
        trace: bool = False,
    ) -> RunResult:
        """The loop nest of the module docstring; every public doacross
        entry point is a set of arguments to it.

        ``blocks`` cuts the natural order into ``(lo, hi)`` iteration
        ranges, run one after the other, each dealt by its own schedule of
        the ``schedule`` kind.  ``order`` and ``linear`` belong to the
        one-block forms: blocks cut the natural order, and the closed-form
        writer knows no block boundary.  Each instance reads the previous
        one's ``y``; ``rhs_sequence[k]``, when given, replaces the loop's
        ``init_values`` for instance ``k``.

        Given a cache, the operands (:meth:`_build_operands`) of a
        recurrence-timed run with a schedule *kind* are looked up in
        ``self.cache`` under everything they depend on: the loop's
        fingerprint, ``linear``, ``order``, ``blocks``, the processors, the
        kind and chunk, the cost model and the effective work profile
        (``loop.work`` is not in the fingerprint).  Engine runs, schedule
        instances and a runner without a cache build them every call.
        """
        machine = self.machine
        cm = machine.cost_model
        n = loop.n
        if order is not None:
            order = np.ascontiguousarray(order, dtype=np.int64)
        if linear and not isinstance(loop.write_subscript, AffineSubscript):
            raise InvalidLoopError(
                "linear variant requires a statically affine write "
                f"subscript, got {type(loop.write_subscript).__name__}"
            )

        # Resolved for the whole loop before anything is touched: a bad
        # kind, chunk, instance size or partition never reaches a phase.
        described = self._resolve_schedule(schedule, n, chunk)
        tracer = Tracer() if trace else None
        why_engine = self._why_engine(described, tracer)
        ws = self._checkout_workspace(loop)
        # Given a cache, every run hashes the loop, whatever the machine;
        # hashing checks the subscripts are in range and ``write`` is
        # injective.  Without one nothing is hashed or frozen, and the
        # checks run here.
        if self.cache is None:
            loop.check_subscripts()
            loop.check_write_injective()
            fingerprint = None
        else:
            fingerprint = inspector_cache.loop_fingerprint(loop)

        def build() -> _Operands:
            return self._build_operands(
                loop, blocks, order, linear, schedule, chunk, described,
                why_engine is None,
            )

        cached = False
        if (
            fingerprint is not None
            and why_engine is None
            and not isinstance(schedule, IterationSchedule)
        ):
            key = (
                fingerprint,
                linear,
                None if order is None else order.tobytes(),
                tuple(blocks),
                machine.processors,
                "cyclic" if schedule is None else schedule,
                chunk,
                cm,
                cm.effective_work(loop.work),
            )
            operands, cached = self.cache.sim_operands(key, build)
        else:
            operands = build()

        y = loop.y0.copy()
        ynew = ws.ynew[: loop.y_size]
        write = loop.write
        ptr, r_idx, r_coeff = loop.reads.ptr, loop.reads.index, loop.reads.coeff
        take_tally()
        ran: list[PhaseStats] = []
        for block in operands.blocks:
            count = block.hi - block.lo
            block_write = write[block.lo : block.hi]
            if not linear:
                # --- inspector: parallel do i: iter(a(i)) = i (Figure 3) ---
                ran.append(self._parallel_do("inspector", count, cm.pre_iter, 1))
            log = None if self._san_capture is None else self._shadow_log(loop, block)
            # The cycles of a phase the recurrence times do not depend on
            # the values: one sweep serves every instance.
            if why_engine is None:
                cycles = self._recurrence("executor", block.sums, block.timing)
            for k in range(instances):
                # --- executor (Figure 5): the values, then the cycles ---
                run_span(
                    block.its,
                    block.codes,
                    write,
                    ptr,
                    r_idx,
                    r_coeff,
                    loop.init_values if rhs_sequence is None else rhs_sequence[k],
                    y,
                    ynew,
                    ynew,
                )
                if why_engine is not None:
                    cycles = self._phase(
                        "executor",
                        block.schedule,
                        block.timing,
                        coherence=machine.coherence,
                        log=log,
                        tracer=tracer,
                    )
                elif log is not None:
                    # Each processor's positions in increasing order: its
                    # program order.
                    for proc in range(machine.processors):
                        for lo, hi in block.schedule.chunks_for(proc):
                            log(proc, lo, hi)
                ran.append(cycles)
                # --- postprocessor: reset ready, copy ynew back and,
                # after the last instance, reset iter (Figure 3; one
                # shared store fewer while iter stays valid) ---
                last = k == instances - 1
                ran.append(
                    self._parallel_do(
                        "postprocessor",
                        count,
                        cm.post_iter if last else cm.post_iter_amortized,
                        3 if last else 2,
                    )
                )
                y[block_write] = ynew[block_write]

        result = self._result(
            loop, strategy, y, ran, described, why_engine, instances,
            order_label, cached,
        )
        metrics = self._obs_metrics
        if metrics is not None:
            executors = sum(phase.name == "executor" for phase in ran)
            engine = executors if why_engine else 0
            metrics.count("sim_phases_engine", engine)
            metrics.count("sim_phases_recurrence", executors - engine)
            metrics.count("sim_operand_hits", int(cached))
            metrics.count("sim_operand_misses", int(not cached))
        note_kernel(result, metrics, [take_tally()])
        if tracer is not None:
            result.extras["trace"] = tracer
        return result

    def run_preprocessed(
        self,
        loop: IrregularLoop,
        schedule=None,
        chunk: int = 1,
        order: np.ndarray | None = None,
        linear: bool = False,
        order_label: str = "natural",
        trace: bool = False,
    ) -> RunResult:
        """Inspector + executor + postprocessor on the simulated machine.

        Parameters
        ----------
        schedule:
            Executor schedule: an :class:`IterationSchedule`, a kind string
            (``"block"``/``"cyclic"``/``"dynamic"``/``"guided"``), or
            ``None`` for the default cyclic chunk-1 schedule.
        order:
            Optional execution order (doconsider); validated against the
            loop's true dependencies.
        linear:
            Use the §2.3 linear-subscript variant: requires an affine write
            subscript; skips the inspector phase and the ``iter`` array
            (ablation C, DESIGN.md §5, measures the saving).
        trace:
            Record a per-processor timeline of the *executor* phase; the
            :class:`~repro.machine.trace.Tracer` lands in
            ``result.extras["trace"]`` (render with ``.gantt()``).
        """
        return self._doacross(
            loop,
            "linear-doacross" if linear else "preprocessed-doacross",
            schedule,
            chunk,
            [(0, loop.n)],
            order=order,
            linear=linear,
            order_label=order_label,
            trace=trace,
        )

    def run_amortized(
        self,
        loop: IrregularLoop,
        instances: int,
        schedule=None,
        chunk: int = 1,
        order: np.ndarray | None = None,
        order_label: str = "natural",
        rhs_sequence=None,
    ) -> RunResult:
        """Run ``instances`` successive executions of ``loop`` with the
        inspector amortized across all of them.

        The classic inspector/executor optimization for the paper's own
        workload: a triangular solve re-executes every Krylov iteration
        with *unchanged subscripts*, so ``iter`` stays valid — only the
        executor and a reduced postprocessor (reset ``ready``, copy
        ``ynew → y``; one store fewer than Figure 3's) run per instance.
        The final instance runs the full postprocessor so the workspace is
        returned pristine.

        Each instance reads the previous instance's output in ``y`` —
        semantically a sequential composition of ``instances`` runs of the
        loop (tested against iterating the oracle).

        Parameters
        ----------
        rhs_sequence:
            For external-init loops, an optional sequence of per-instance
            ``init_values`` arrays (length ``instances``); ``None`` reuses
            the loop's own values every time.
        """
        rhs_sequence = check_repeated(loop, instances, rhs_sequence)
        result = self._doacross(
            loop,
            "amortized-doacross",
            schedule,
            chunk,
            [(0, loop.n)],
            instances=instances,
            rhs_sequence=rhs_sequence,
            order=order,
            order_label=order_label,
        )
        result.extras.update(instances=instances, inspector_runs=1)
        return result

    def run_stripmined(
        self,
        loop: IrregularLoop,
        block: int,
        schedule_kind: str = "cyclic",
        chunk: int = 1,
    ) -> RunResult:
        """Sequential outer loop over blocks of ``block`` iterations, each
        block a preprocessed doacross; scratch arrays reused per block.

        Reads whose writer lies in an earlier block find ``iter`` already
        reset (the earlier block's postprocessor copied its results into
        ``y``), so they take the no-wait old-value path and still see the
        *updated* value — the §2.3 design makes cross-block dependencies
        free of synchronization by construction.  The modeled scratch
        footprint (``extras``) shrinks from the whole index set to the
        widest block's write range, at the price of extra barriers and less
        cross-block overlap; ablation B (DESIGN.md §5) sweeps ``block``.
        """
        if block < 1:
            raise InvalidLoopError(f"strip-mine block must be >= 1, got {block}")
        blocks = [
            (lo, min(lo + block, loop.n)) for lo in range(0, loop.n, block)
        ]
        result = self._doacross(
            loop, "stripmined-doacross", schedule_kind, chunk, blocks
        )
        write_spans = [int(np.ptp(loop.write[lo:hi])) + 1 for lo, hi in blocks]
        result.extras.update(
            block=block,
            blocks=len(blocks),
            modeled_scratch_elements=max(write_spans, default=0),
            full_scratch_elements=loop.y_size,
        )
        return result

    # ------------------------------------------------------------------
    # The §1 baselines: classic doacross and doall
    # ------------------------------------------------------------------
    def _baseline(
        self, loop: IrregularLoop, strategy: str, schedule, chunk: int,
        distance: int = 0,
    ) -> RunResult:
        """A §1 baseline, which writes in place with no inspector, no
        ``iter`` check and no renaming: a classic doacross (``distance``
        ``d`` ≥ 1), whose iteration ``i ≥ d`` waits on iteration
        ``i − d``'s flag and sets its own, or a doall (``distance`` 0),
        which neither waits nor sets.  The subscripts and the write's
        injectivity are checked first, then the distance or the
        independence, so in-place execution is sequentially equivalent and
        the oracle's values are exact."""
        loop.check_subscripts()
        loop.check_write_injective()
        if distance and (actual := uniform_distance(loop)) != distance:
            raise InvalidLoopError(
                f"classic doacross with distance {distance} is unsound: the "
                f"loop's actual uniform distance is {actual}"
            )
        _, _, categories = classify_reads(loop)
        if distance and np.any(categories == CAT_ANTI):
            raise InvalidLoopError(
                "classic doacross cannot run a loop with antidependencies "
                "(no write renaming); use the preprocessed doacross"
            )
        if not distance and np.any((categories == CAT_TRUE) | (categories == CAT_ANTI)):
            raise InvalidLoopError(
                "doall on a loop with cross-iteration dependencies: "
                "asserted independence does not hold"
            )
        n = loop.n
        cm = self.machine.cost_model
        work = cm.effective_work(loop.work)
        its, ptr = np.arange(n, dtype=np.int64), loop.reads.ptr
        # An iteration computes its overhead and its terms.
        cost = cm.exec_iter_overhead + work.overhead + work.term * np.diff(ptr)
        sets = distance > 0  # a doall neither waits nor sets
        waits = sets & (its >= distance)
        timing = _Timing(
            wait_ptr=np.concatenate(([0], np.cumsum(waits))),
            sources=its[: np.count_nonzero(waits)],  # i − d for each i ≥ d
            ahead=np.zeros(np.count_nonzero(waits), dtype=np.int64),
            tail=cost + sets * cm.flag_set + cm.flag_check * waits,
            write=its if sets else None,
            size=n,
        )
        sched = self._resolve_schedule(schedule, n, chunk)
        why_engine = self._why_engine(sched, None)
        if why_engine is None:
            sums = timing.deal(sched.lanes(), self.machine.processors)
            phase = self._recurrence("executor", sums, timing)
        else:
            phase = self._phase("executor", sched, timing)
        return self._result(
            loop, strategy, loop.run_sequential(), [phase], sched, why_engine
        )

    def run_classic(
        self,
        loop: IrregularLoop,
        distance: int,
        schedule=None,
        chunk: int = 1,
    ) -> RunResult:
        """Classic doacross: iteration ``i`` waits for iteration ``i − d``.

        The construct the paper contrasts against (§1, citing Cytron [2]):
        with a compile-time distance there is no inspector, no ``iter``
        check and no renaming, so an iteration is cheaper than the
        preprocessed one by exactly its ``dep_check`` terms — comparing the
        two isolates what run-time generality costs.

        Eligibility is verified: every true dependence must have distance
        exactly ``d`` and there must be no antidependencies (the classic
        form writes in place, with no renaming to protect old values).
        """
        if distance < 1:
            raise InvalidLoopError(f"distance must be >= 1, got {distance}")
        result = self._baseline(loop, "classic-doacross", schedule, chunk, distance)
        result.extras["distance"] = distance
        return result

    def run_doall(
        self,
        loop: IrregularLoop,
        schedule=None,
        chunk: int = 1,
    ) -> RunResult:
        """Doall: no synchronization, writes in place.

        The other classic construct of §1.  For runtime subscripts the
        compiler can never prove independence, so this models a *user
        assertion* (a directive); on dependence-free inputs the gap to the
        preprocessed doacross is the whole inspector/executor/postprocessor
        overhead — the odd-``L`` points of Figure 6.  The assertion is
        re-checked at run time — the check the paper's compiler *cannot*
        do statically — and a loop with cross-iteration true or anti
        dependencies is refused.
        """
        return self._baseline(loop, "doall", schedule, chunk)


# ----------------------------------------------------------------------
def _describe_schedule(schedule: IterationSchedule) -> str:
    name = type(schedule).__name__
    chunk = getattr(schedule, "chunk", getattr(schedule, "min_chunk", None))
    return f"{name}(chunk={chunk})" if chunk is not None else name


def _merge_phase(acc: dict[str, PhaseStats], phase: PhaseStats) -> None:
    """Accumulate same-named phases across strip-mine blocks."""
    if phase.name not in acc:
        acc[phase.name] = phase
        return
    existing = acc[phase.name]
    merged = [
        a.merge(b) for a, b in zip(existing.processors, phase.processors)
    ]
    acc[phase.name] = PhaseStats(name=phase.name, processors=merged)
