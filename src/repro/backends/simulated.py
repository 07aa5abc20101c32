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
        for each instance:                   # amortized inspector: many
            executor      | barrier          # run_span(codes); cycles below
            postprocessor | barrier          # reduced before the last one
        iter restored                        # also when a phase raised

The plain doacross is one block × one instance, the §2.3 ``linear``
variant the same with the closed-form writer in place of the inspector
phase and the ``iter`` array; ``barriers`` is always the number of phases
run.  The executor never compares ``iter`` with ``i`` itself: it charges
``dep_check`` per term and branches on the codes derived from the ``iter``
array just filled, so what ``validate="static"`` checks
(:func:`repro.lint.hb.waits_from_iter`) is what executes here.  A read
whose writer sits in an earlier strip-mine block finds ``iter`` already
reset, classifies ``OLD`` and takes the no-wait path to the *updated*
``y`` — §2.3's "no synchronisation across blocks" is the shared rule, not
a second one.

The cycles of an executor phase have two bodies, chosen from the machine
and the schedule class (:meth:`SimulatedRunner._why_engine`; never an
option) and named in ``result.extras["sim_executor"]``:

- On the machine of both paper experiments — a built-in static schedule,
  no bus, no coherence, nothing recording a timeline — processors share
  nothing but the flag set-times, each walks its positions in increasing
  order and every true dependence points backwards in execution order, so
  the finish times obey a max-plus recurrence that one sweep in position
  order evaluates (:meth:`SimulatedRunner._executor_recurrence`): no
  generators, no ready queue.
- Every other configuration — bus, coherence, dynamic / guided
  self-scheduling, ``trace=True`` (hence ``observe=True``),
  ``validate="sanitize"``, a caller's own ``IterationSchedule`` subclass —
  has a serial resource, order-dependent state or a log to fill, and runs
  :meth:`SimulatedRunner._executor_body` as generator tasks on the
  discrete-event engine (:mod:`repro.machine.engine`), which is also what
  detects a schedule that deadlocks.  ``tests/test_simulated_executor.py``
  holds the recurrence to the engine field by field.
"""

from __future__ import annotations

import numpy as np

from repro.backends import native
from repro.backends.base import (
    Runner,
    check_repeated,
    note_kernel,
    validate_execution_order,
)
from repro.backends.kernel import (
    ACC,
    WAIT,
    classify_terms,
    run_span,
    take_tally,
)
from repro.core.results import PhaseBreakdown, RunResult
from repro.core.sequential import sequential_time
from repro.core.workspace import MAXINT, DoacrossWorkspace
from repro.errors import InvalidLoopError, OutputDependenceError, ScheduleError
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
    """

    name = "simulated"

    def __init__(
        self, machine: Machine, workspace: DoacrossWorkspace | None = None
    ):
        self.machine = machine
        self.workspace = workspace if workspace is not None else DoacrossWorkspace()

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
    ) -> dict:
        """The schedule ``run(loop, **options)`` would execute, for
        ``validate="static"``: the options as given (``None`` resolves to
        this backend's cyclic chunk-1 default in the checker too)."""
        return {
            "backend": self.name,
            "processors": self.machine.processors,
            "schedule": schedule,
            "chunk": chunk,
            "order": order,
        }

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
        body,
        flags: FlagStore | None = None,
        tracer=None,
    ) -> PhaseStats:
        """Run one parallel phase on the event engine: deal ``schedule``'s
        positions to the processors — a static schedule's chunk lists, or
        claims on the shared dispatch counter (``cost_model.dispatch`` per
        grab, serialised) — and run the generator ``body(st, lo, hi)`` over
        each piece."""
        machine = self.machine
        dispatch_cost = machine.cost_model.dispatch
        schedule.reset()  # a reused dynamic schedule deals from the start

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

        engine = machine.new_engine(flags=flags, tracer=tracer)
        return engine.run(
            name, [factory_for(p) for p in range(machine.processors)]
        )

    def _parallel_do(
        self, name: str, n: int, cost: int, accesses: int
    ) -> PhaseStats:
        """Simulate a regular ``parallel do`` (Figure 3's pre/post loops)
        of ``n`` iterations, each ``cost`` cycles and ``accesses`` shared
        accesses: static block partition, charged per chunk."""
        machine = self.machine
        bus = machine.bus
        bus_per_access = machine.cost_model.bus_per_access

        def body(st, lo: int, hi: int):
            count = hi - lo
            st.iterations += count
            if bus:
                yield UseResource(RES_BUS, count * accesses * bus_per_access)
            yield Compute(count * cost)

        return self._phase(
            name, StaticBlockSchedule(n, machine.processors), body
        )

    def _result(
        self,
        loop: IrregularLoop,
        strategy: str,
        y: np.ndarray,
        ran: list[PhaseStats],
        schedule: IterationSchedule,
        instances: int = 1,
        order_label: str = "natural",
    ) -> RunResult:
        """The :class:`RunResult` of a run whose phases were ``ran``, in
        that order: a barrier follows each, and same-named phases (strip-
        mine blocks, instances) are reported merged."""
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
        return RunResult(
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

    # ------------------------------------------------------------------
    # Executor timing (Figure 5's cycles; its values are run_span's)
    # ------------------------------------------------------------------
    def _why_engine(self, schedule: IterationSchedule, tracer) -> str | None:
        """Why an executor phase dealt by ``schedule`` needs the event
        engine, or ``None`` when :meth:`_executor_recurrence` times it.

        The recurrence holds when processors share nothing but the flag
        set-times and each walks its positions in increasing order.  The
        disqualifiers, in the order they are named: a serial resource
        (``bus``), state that depends on the interleaving (``coherence``
        ownership, the ``dynamic-schedule`` dispatch counter), a timeline
        or shadow log to record (``trace``, ``sanitize``), a placement
        only the schedule's ``chunks_for`` knows (``custom-schedule``).
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
        if self._san_capture is not None:
            return "sanitize"
        if type(schedule) not in _RECURRENCE_SCHEDULES:
            return "custom-schedule"
        return None

    def _executor_body(
        self,
        loop: IrregularLoop,
        its: np.ndarray,
        codes: np.ndarray,
        first: np.ndarray,
    ):
        """The cycles of Figure 5's loop body for one executor phase, as a
        :meth:`_phase` body over execution positions: position ``p`` runs
        iteration ``its[p]``, whose terms are coded ``codes[first[p]:]``
        (:mod:`~repro.backends.kernel` codes).  It charges and
        synchronises; the values are :func:`~repro.backends.kernel.run_span`'s.
        Ownership for the coherence model starts empty every phase.
        """
        machine = self.machine
        cm = machine.cost_model
        its, code, first = memoryview(its), memoryview(codes), memoryview(first)
        write, ptr, r_idx = (
            memoryview(a) for a in (loop.write, loop.reads.ptr, loop.reads.index)
        )

        work = cm.effective_work(loop.work)
        iter_overhead = cm.exec_iter_overhead + work.overhead
        dep_check_setup = cm.dep_check + work.term_setup
        term_consume = work.term_consume
        bus = machine.bus
        bus_per_access = cm.bus_per_access
        coherence = machine.coherence
        coherence_miss = cm.coherence_miss
        # Write-invalidate ownership: which processor's cache holds each
        # renamed element (-1 = none yet).
        owner = [-1] * loop.y_size if coherence else None
        san = self._san_capture

        def run_body(st, lo: int, hi: int):
            """Execute positions ``lo..hi`` (generator; yields engine ops)."""
            events = None if san is None else san.lane(st.proc)
            pending = 0
            for p in range(lo, hi):
                i = its[p]
                w = write[i]
                pending += iter_overhead
                if bus:
                    n_terms = ptr[i + 1] - ptr[i]
                    yield UseResource(RES_BUS, (2 + n_terms) * bus_per_access)
                c = first[p]
                for k in range(ptr[i], ptr[i + 1]):
                    # Offset computation, iter load, compare — all done
                    # before (or while) any wait.
                    pending += dep_check_setup
                    if code[c] == WAIT:
                        # True dependence: busy-wait for the writer, then
                        # read the renamed (new) value.
                        idx = r_idx[k]
                        if pending:
                            yield Compute(pending)
                            pending = 0
                        yield WaitFlag(idx)
                        if events is not None:
                            events.append(("a", idx))
                            events.append(("r", i, idx, 1))
                        if coherence and owner[idx] != st.proc:
                            # Invalidation miss: the line is dirty in the
                            # writer's cache; pay the transfer.
                            pending += coherence_miss
                            st.coherence_misses += 1
                            owner[idx] = st.proc
                    elif events is not None and code[c] != ACC:
                        # Antidependence or never written: old value, no
                        # wait (the live accumulator is not logged).
                        events.append(("r", i, r_idx[k], 0))
                    c += 1
                    pending += term_consume
                if coherence:
                    owner[w] = st.proc
                if pending:
                    yield Compute(pending)
                    pending = 0
                if events is not None:
                    events.append(("w", i, w))
                    events.append(("p", w))
                yield SetFlag(w)
                st.iterations += 1

        return run_body

    def _executor_recurrence(
        self,
        loop: IrregularLoop,
        its: np.ndarray,
        codes: np.ndarray,
        counts: np.ndarray,
        first: np.ndarray,
        lanes: np.ndarray,
    ) -> PhaseStats:
        """The :class:`PhaseStats` the engine gives :meth:`_executor_body`
        when :meth:`_why_engine` finds no reason for it, without the engine.

        Position ``p`` runs on processor ``lanes[p]`` after that
        processor's previous position; a ``WAIT`` term resumes no earlier
        than its flag's set-time, and every writer sits at an earlier
        position, so one sweep of the max-plus recurrence
        (:func:`repro.backends.native.max_plus`) in position order meets
        every set-time after it is known::

            t = free[lane]
            per WAIT term:  t += ahead;  t = max(t, set_time[idx])
            set_time[w] = free[lane] = t + tail

        ``ahead`` is the cycles from the previous wait of the iteration
        (its flag check included), or from the iteration's start, to this
        one; ``tail`` from the last wait to the flag set.  Everything but
        the ``max`` is sums, taken here per processor in NumPy — a
        processor's ``wait_cycles`` are what its finish time exceeds its
        own cycles by — and a phase with no ``WAIT`` term has no sweep at
        all.  A flag set twice is refused by the sweep, or by a count where
        there is none.
        """
        machine = self.machine
        cm = machine.cost_model
        processors = machine.processors
        work = cm.effective_work(loop.work)
        iter_overhead = cm.exec_iter_overhead + work.overhead
        dep_check_setup = cm.dep_check + work.term_setup
        term_consume = work.term_consume
        flag_check = cm.flag_check

        # Per WAIT term, in execution order: its position, the cycles
        # pending when the wait is issued.
        wait = np.flatnonzero(codes == WAIT)
        at = np.searchsorted(first, wait, side="right") - 1
        local = wait - first[at]
        pending = iter_overhead + (local + 1) * dep_check_setup + local * term_consume
        n_waits = np.bincount(at, minlength=len(its))
        # An iteration's own cycles: what it computes, and its flag set.
        whole = (
            iter_overhead + counts * (dep_check_setup + term_consume) + cm.flag_set
        )
        written = loop.write[its]

        def per_lane(weights) -> list[int]:
            # Exact: cycle sums stay far below 2**53.
            return (
                np.bincount(lanes, weights=weights, minlength=processors)
                .astype(np.int64)
                .tolist()
            )

        def set_twice(index: int) -> ValueError:
            return ValueError(
                f"flag {index} set twice; write subscript not injective?"
            )

        compute = per_lane(whole + flag_check * n_waits)
        free = compute
        if not len(wait):
            # Nothing awaited: no sweep, a processor finishes when its own
            # cycles are done; only a flag set twice is left to refuse.
            sets = np.bincount(written, minlength=1)
            if sets.max() > 1:
                raise set_twice(int(sets.argmax()))
        else:
            again = at[1:] == at[:-1]
            ahead = pending.copy()
            ahead[1:][again] -= pending[:-1][again] - flag_check
            last = np.ones(len(wait), dtype=bool)
            last[:-1] = ~again
            tail = whole.copy()
            tail[at[last]] -= pending[last] - flag_check
            wait_ptr = np.zeros(len(its) + 1, dtype=np.int64)
            np.cumsum(n_waits, out=wait_ptr[1:])
            try:
                _, free, _ = native.max_plus(
                    wait_ptr, loop.reads.index[loop.reads.ptr[its[at]] + local],
                    loop.y_size, write=written, ahead=ahead, tail=tail,
                    lane=lanes, lanes=processors,
                )
            except OutputDependenceError as exc:
                raise set_twice(exc.index) from None
            free = free.tolist()

        return PhaseStats(
            name="executor",
            processors=[
                ProcessorStats(
                    proc=proc,
                    compute_cycles=compute[proc],
                    # A processor only computes or spins until it is done.
                    wait_cycles=free[proc] - compute[proc],
                    flag_checks=checks,
                    flag_sets=done,
                    iterations=done,
                    finish_time=free[proc],
                )
                for proc, (checks, done) in enumerate(
                    zip(per_lane(n_waits), per_lane(None))
                )
            ],
        )

    # ------------------------------------------------------------------
    # The pipeline (paper §2.1–§2.3)
    # ------------------------------------------------------------------
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
        """
        machine = self.machine
        cm = machine.cost_model
        n = loop.n
        if order is not None:
            order = np.ascontiguousarray(order, dtype=np.int64)
            validate_execution_order(loop, order)
        sub = loop.write_subscript
        if linear and not isinstance(sub, AffineSubscript):
            raise InvalidLoopError(
                "linear variant requires a statically affine write "
                f"subscript, got {type(sub).__name__}"
            )

        # Resolved for the whole loop before anything is touched: a bad
        # kind, chunk, instance size or partition never reaches a phase.
        described = self._resolve_schedule(schedule, n, chunk)
        ws = self._checkout_workspace(loop)
        iter_arr = ws.iter_arr
        ynew = ws.ynew[: loop.y_size]
        y = loop.y0.copy()
        # §2.3's inlined ``(off − d) mod c`` test: the writer of every
        # element in closed form (-1: never written), so neither the
        # inspector phase nor the ``iter`` array is needed.
        writer_of = (
            sub.writer_of_many(np.arange(loop.y_size), n)
            if linear
            else iter_arr
        )
        write = loop.write
        ptr, r_idx, r_coeff = loop.reads.ptr, loop.reads.index, loop.reads.coeff
        tracer = Tracer() if trace else None
        why_engine = self._why_engine(described, tracer)
        take_tally()
        ran: list[PhaseStats] = []

        for lo, hi in blocks:
            count = hi - lo
            block_its = np.arange(lo, hi, dtype=np.int64)
            block_write = write[lo:hi]
            its = block_its if order is None else order
            exec_schedule = (
                described
                if count == n
                else self._resolve_schedule(schedule, count, chunk)
            )
            try:
                # --- inspector: parallel do i: iter(a(i)) = i (Figure 3) ---
                if not linear:
                    ran.append(
                        self._parallel_do("inspector", count, cm.pre_iter, 1)
                    )
                    iter_arr[block_write] = block_its
                codes = classify_terms(ptr, r_idx, writer_of, its, 1)
                counts = ptr[its + 1] - ptr[its]
                first = np.cumsum(counts) - counts
                # The cycles of a phase the recurrence times do not depend
                # on the values: one sweep serves every instance.
                cycles = (
                    self._executor_recurrence(
                        loop, its, codes, counts, first, exec_schedule.lanes()
                    )
                    if why_engine is None
                    else None
                )
                for k in range(instances):
                    # --- executor (Figure 5): the values, then the cycles ---
                    run_span(
                        its,
                        codes,
                        write,
                        ptr,
                        r_idx,
                        r_coeff,
                        loop.init_values
                        if rhs_sequence is None
                        else rhs_sequence[k],
                        y,
                        ynew,
                        ynew,
                    )
                    ran.append(
                        cycles
                        if cycles is not None
                        else self._phase(
                            "executor",
                            exec_schedule,
                            self._executor_body(loop, its, codes, first),
                            flags=FlagStore(loop.y_size),
                            tracer=tracer,
                        )
                    )
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
            finally:
                # The last postprocessor's reset — also when a phase raised
                # (an executor deadlock), so one failed run does not leave
                # the workspace dirty for every later one.
                iter_arr[block_write] = MAXINT

        result = self._result(
            loop, strategy, y, ran, described, instances, order_label
        )
        result.extras["sim_executor"] = {
            "body": "recurrence" if why_engine is None else "engine",
            "reason": why_engine,
        }
        metrics = self._obs_metrics
        if metrics is not None:
            executors = sum(phase.name == "executor" for phase in ran)
            engine = executors if why_engine else 0
            metrics.count("sim_phases_engine", engine)
            metrics.count("sim_phases_recurrence", executors - engine)
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
    # Classic doacross baseline (a-priori uniform distance)
    # ------------------------------------------------------------------
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
        actual = uniform_distance(loop)
        if actual != distance:
            raise InvalidLoopError(
                f"classic doacross with distance {distance} is unsound: the "
                f"loop's actual uniform distance is {actual}"
            )
        _, _, categories = classify_reads(loop)
        if np.any(categories == CAT_ANTI):
            raise InvalidLoopError(
                "classic doacross cannot run a loop with antidependencies "
                "(no write renaming); use the preprocessed doacross"
            )

        cm = self.machine.cost_model
        work = cm.effective_work(loop.work)
        term_counts = loop.reads.term_counts()
        sched = self._resolve_schedule(schedule, loop.n, chunk=chunk)
        iter_cost_base = cm.exec_iter_overhead + work.overhead
        term_cost = work.term

        def run_body(st, lo: int, hi: int):
            for i in range(lo, hi):
                if i >= distance:
                    yield WaitFlag(i - distance)
                yield Compute(
                    iter_cost_base + int(term_counts[i]) * term_cost
                )
                yield SetFlag(i)
                st.iterations += 1

        # One flag per *iteration* here.
        phase = self._phase(
            "executor", sched, run_body, flags=FlagStore(loop.n)
        )
        # In-place execution with a verified uniform distance is
        # sequentially equivalent, so the oracle's values are exact.
        result = self._result(
            loop, "classic-doacross", loop.run_sequential(), [phase], sched
        )
        result.extras["distance"] = distance
        return result

    # ------------------------------------------------------------------
    # Doall baseline (asserted independence)
    # ------------------------------------------------------------------
    def run_doall(
        self,
        loop: IrregularLoop,
        schedule=None,
        chunk: int = 1,
        validate: bool = True,
    ) -> RunResult:
        """Doall: no synchronization, writes in place.

        The other classic construct of §1.  For runtime subscripts the
        compiler can never prove independence, so this models a *user
        assertion* (a directive); on dependence-free inputs the gap to the
        preprocessed doacross is the whole inspector/executor/postprocessor
        overhead — the odd-``L`` points of Figure 6.

        ``validate=True`` re-checks at run time that the loop really has no
        cross-iteration true or anti dependencies — the check the paper's
        compiler *cannot* do statically, offered here as a debug net.
        """
        if validate:
            _, _, categories = classify_reads(loop)
            if np.any(categories == CAT_TRUE) or np.any(categories == CAT_ANTI):
                raise InvalidLoopError(
                    "doall on a loop with cross-iteration dependencies: "
                    "asserted independence does not hold"
                )

        cm = self.machine.cost_model
        write = loop.write
        ptr, r_idx, r_coeff = loop.reads.ptr, loop.reads.index, loop.reads.coeff
        init = loop.init_values
        y = loop.y0.copy()
        work = cm.effective_work(loop.work)
        sched = self._resolve_schedule(schedule, loop.n, chunk=chunk)
        iter_cost_base = cm.exec_iter_overhead + work.overhead
        term_cost = work.term

        def run_body(st, lo: int, hi: int):
            for i in range(lo, hi):
                w = write[i]
                acc = y[w] if init is None else init[i]
                cost = iter_cost_base
                for k in range(ptr[i], ptr[i + 1]):
                    idx = r_idx[k]
                    value = acc if idx == w else y[idx]
                    acc += r_coeff[k] * value
                    cost += term_cost
                y[w] = acc
                yield Compute(cost)
                st.iterations += 1

        phase = self._phase("executor", sched, run_body)
        return self._result(loop, "doall", y, [phase], sched)


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
