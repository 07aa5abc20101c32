"""The simulated backend: phases of the preprocessed doacross on the
discrete-event machine.

This module is where the paper's Figure 3 (pre/postprocessing) and Figure 5
(transformed executor) become executable.  Each run produces *both* the
correct values (the executor really reads ``iter``, really resolves each
term against the old/new arrays) and the simulated timing (every action is
charged to the issuing processor's clock; busy-waits park the processor).

Phase structure of a full preprocessed doacross (barriers between phases and
after the last one, since the construct must complete before code after the
loop runs)::

    inspector  | barrier | executor | barrier | postprocessor | barrier

The strip-mined variant (§2.3) repeats that pipeline per block; the linear
variant (§2.3) drops the inspector phase entirely.
"""

from __future__ import annotations

import numpy as np

from repro.backends.base import Runner, validate_execution_order
from repro.core.results import PhaseBreakdown, RunResult
from repro.core.sequential import sequential_time
from repro.core.workspace import MAXINT, DoacrossWorkspace
from repro.errors import InvalidLoopError
from repro.ir.analysis import (
    CAT_ANTI,
    CAT_TRUE,
    classify_reads,
    uniform_distance,
)
from repro.ir.loop import INIT_EXTERNAL, IrregularLoop
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
    make_schedule,
)
from repro.machine.stats import PhaseStats

__all__ = ["SimulatedRunner"]


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
        if isinstance(spec, IterationSchedule):
            if spec.n != n:
                raise InvalidLoopError(
                    f"schedule covers {spec.n} iterations, loop has {n}"
                )
            spec.reset()
            return spec
        kind = "cyclic" if spec is None else spec
        return make_schedule(kind, n, self.machine.processors, chunk=chunk)

    def _uniform_phase(
        self, name: str, n: int, per_iter_cost: int, accesses_per_iter: int
    ) -> PhaseStats:
        """Simulate a regular ``parallel do`` (Figure 3's pre/post loops):
        static block partition, cost charged per chunk."""
        machine = self.machine
        schedule = StaticBlockSchedule(n, machine.processors)
        bus = machine.bus
        bus_per_access = machine.cost_model.bus_per_access

        def factory_for(proc: int):
            chunks = schedule.chunks_for(proc)

            def task(st):
                for lo, hi in chunks:
                    count = hi - lo
                    st.iterations += count
                    if bus:
                        yield UseResource(
                            RES_BUS, count * accesses_per_iter * bus_per_access
                        )
                    yield Compute(count * per_iter_cost)

            return task

        engine = machine.new_engine()
        return engine.run(name, [factory_for(p) for p in range(machine.processors)])

    def _weighted_phase(
        self, name: str, costs: np.ndarray, accesses: np.ndarray | None = None
    ) -> PhaseStats:
        """Simulate a ``parallel do`` whose iterations have *varying* costs
        (static block partition; per-chunk aggregation)."""
        machine = self.machine
        n = len(costs)
        schedule = StaticBlockSchedule(n, machine.processors)
        bus = machine.bus
        bus_per_access = machine.cost_model.bus_per_access

        def factory_for(proc: int):
            chunks = schedule.chunks_for(proc)

            def task(st):
                for lo, hi in chunks:
                    st.iterations += hi - lo
                    if bus and accesses is not None:
                        yield UseResource(
                            RES_BUS,
                            int(accesses[lo:hi].sum()) * bus_per_access,
                        )
                    yield Compute(int(costs[lo:hi].sum()))

            return task

        engine = machine.new_engine()
        return engine.run(name, [factory_for(p) for p in range(machine.processors)])

    def run_wavefront_preprocessing(
        self, loop: IrregularLoop, graph, level_schedule
    ) -> tuple[int, list[PhaseStats]]:
        """Simulate the doconsider wavefront computation as machine phases.

        The parallel frontier-peeling algorithm (reference [4]): an
        in-degree initialization pass (touch every iteration and its
        incoming edges), then one round per level — each round's processors
        emit the current frontier and decrement its out-edges, with a
        barrier per round.  Load *imbalance within rounds* is captured
        (unlike the closed-form estimate in
        :func:`repro.core.doconsider.modeled_reorder_cycles`, which
        divides work evenly).

        Returns ``(total_cycles, phases)``; total includes per-round
        barriers.
        """
        cm = self.machine.cost_model
        phases: list[PhaseStats] = []
        barrier = cm.barrier(self.machine.processors)

        in_deg = graph.in_degrees()
        init_costs = cm.pre_iter * (1 + in_deg)
        init = self._weighted_phase("wf-init", init_costs, 1 + in_deg)
        phases.append(init)
        total = init.span + barrier

        out_deg = graph.out_degrees()
        for k in range(level_schedule.n_levels):
            members = level_schedule.order[
                level_schedule.level_ptr[k] : level_schedule.level_ptr[k + 1]
            ]
            costs = cm.pre_iter * (1 + out_deg[members])
            round_phase = self._weighted_phase(
                f"wf-round-{k}", costs, 1 + out_deg[members]
            )
            phases.append(round_phase)
            total += round_phase.span + barrier
        return total, phases

    # ------------------------------------------------------------------
    # Executor phase
    # ------------------------------------------------------------------
    def _executor_phase(
        self,
        loop: IrregularLoop,
        schedule: IterationSchedule,
        order: np.ndarray | None,
        writers_flat: np.ndarray | None,
        y: np.ndarray,
        ynew: np.ndarray,
        iter_arr: np.ndarray,
        flags: FlagStore,
        positions: tuple[int, int] | None = None,
        tracer=None,
    ) -> PhaseStats:
        """Run the Figure-5 executor.

        ``writers_flat`` (linear variant): precomputed closed-form writer per
        flat read term, with :data:`MAXINT` for "never written" — the inlined
        ``(off − d) mod c`` test of §2.3.  When ``None``, the executor reads
        the ``iter`` array the inspector filled (the general mechanism).

        ``positions`` restricts execution to a slice of positions (used by
        the strip-mined variant); the schedule must already cover exactly
        that many positions.
        """
        machine = self.machine
        cm = machine.cost_model
        write = loop.write
        ptr, r_idx, r_coeff = loop.reads.ptr, loop.reads.index, loop.reads.coeff
        external = loop.init_kind == INIT_EXTERNAL
        init_values = loop.init_values
        base = 0 if positions is None else positions[0]

        work = cm.effective_work(loop.work)
        iter_overhead = cm.exec_iter_overhead + work.overhead
        dep_check_setup = cm.dep_check + work.term_setup
        term_consume = work.term_consume
        dispatch_cost = cm.dispatch
        bus = machine.bus
        bus_per_access = cm.bus_per_access
        dynamic = schedule.is_dynamic
        use_linear = writers_flat is not None
        coherence = machine.coherence
        coherence_miss = cm.coherence_miss
        # Write-invalidate ownership: which processor's cache holds each
        # renamed element (-1 = none yet).
        owner = (
            np.full(loop.y_size, -1, dtype=np.int32) if coherence else None
        )

        san = self._san_capture

        def run_body(st, lo: int, hi: int):
            """Execute positions ``lo..hi`` (generator; yields engine ops)."""
            events = None if san is None else san.lane(st.proc)
            pending = 0
            for p in range(lo, hi):
                i = p if order is None else order[p]
                w = write[i]
                pending += iter_overhead
                acc = init_values[i] if external else y[w]
                if bus:
                    n_terms = ptr[i + 1] - ptr[i]
                    yield UseResource(
                        RES_BUS, int(2 + n_terms) * bus_per_access
                    )
                for k in range(ptr[i], ptr[i + 1]):
                    idx = r_idx[k]
                    # Offset computation, iter load, compare — all done
                    # before (or while) any wait.
                    pending += dep_check_setup
                    writer = writers_flat[k] if use_linear else iter_arr[idx]
                    if writer == i:
                        value = acc  # intra-iteration: the live accumulator
                    elif writer < i:
                        # True dependence: busy-wait for the writer, then
                        # read the renamed (new) value.
                        if pending:
                            yield Compute(pending)
                            pending = 0
                        yield WaitFlag(int(idx))
                        if events is not None:
                            events.append(("a", int(idx)))
                            events.append(("r", int(i), int(idx), 1))
                        value = ynew[idx]
                        if coherence and owner[idx] != st.proc:
                            # Invalidation miss: the line is dirty in the
                            # writer's cache; pay the transfer.
                            pending += coherence_miss
                            st.coherence_misses += 1
                            owner[idx] = st.proc
                    else:
                        # Antidependence or never written: old value, no wait.
                        if events is not None:
                            events.append(("r", int(i), int(idx), 0))
                        value = y[idx]
                    acc += r_coeff[k] * value
                    pending += term_consume
                ynew[w] = acc
                if coherence:
                    owner[w] = st.proc
                if pending:
                    yield Compute(pending)
                    pending = 0
                if events is not None:
                    events.append(("w", int(i), int(w)))
                    events.append(("p", int(w)))
                yield SetFlag(int(w))
                st.iterations += 1

        def factory_for(proc: int):
            if dynamic:

                def task(st):
                    while True:
                        yield UseResource(RES_DISPATCH, dispatch_cost)
                        st.dispatches += 1
                        claim = schedule.claim()
                        if claim is None:
                            return
                        yield from run_body(st, base + claim[0], base + claim[1])

            else:
                chunks = schedule.chunks_for(proc)

                def task(st):
                    for lo, hi in chunks:
                        yield from run_body(st, base + lo, base + hi)

            return task

        engine = machine.new_engine(flags=flags, tracer=tracer)
        return engine.run(
            "executor", [factory_for(p) for p in range(machine.processors)]
        )

    # ------------------------------------------------------------------
    # Full preprocessed doacross (paper §2.1–§2.2, plus §2.3 linear variant)
    # ------------------------------------------------------------------
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
            subscript; skips the inspector phase and the ``iter`` array.
        trace:
            Record a per-processor timeline of the *executor* phase; the
            :class:`~repro.machine.trace.Tracer` lands in
            ``result.extras["trace"]`` (render with ``.gantt()``).
        """
        machine = self.machine
        cm = machine.cost_model
        n = loop.n

        if order is not None:
            order = np.asarray(order, dtype=np.int64)
            validate_execution_order(loop, order)

        writers_flat = None
        if linear:
            sub = loop.write_subscript
            if not isinstance(sub, AffineSubscript):
                raise InvalidLoopError(
                    "linear variant requires a statically affine write "
                    f"subscript, got {type(sub).__name__}"
                )
            writers = sub.writer_of_many(loop.reads.index, n)
            writers_flat = np.where(writers < 0, MAXINT, writers)

        ws = self._checkout_workspace(loop)
        iter_arr = ws.iter_arr
        ynew = ws.ynew
        y = loop.y0.copy()
        flags = FlagStore(loop.y_size)
        exec_schedule = self._resolve_schedule(schedule, n, chunk=chunk)

        phases: list[PhaseStats] = []
        breakdown = PhaseBreakdown()

        # --- inspector: parallel do i: iter(a(i)) = i (Figure 3, left) ---
        if not linear:
            pre = self._uniform_phase("inspector", n, cm.pre_iter, 1)
            iter_arr[loop.write] = np.arange(n, dtype=np.int64)
            phases.append(pre)
            breakdown.inspector = pre.span

        # --- executor (Figure 5) ---
        tracer = None
        if trace:
            from repro.machine.trace import Tracer

            tracer = Tracer()
        exec_phase = self._executor_phase(
            loop,
            exec_schedule,
            order,
            writers_flat,
            y,
            ynew,
            iter_arr,
            flags,
            tracer=tracer,
        )
        phases.append(exec_phase)
        breakdown.executor = exec_phase.span

        # --- postprocessor: reset iter/ready, copy ynew back (Figure 3) ---
        post = self._uniform_phase("postprocessor", n, cm.post_iter, 3)
        iter_arr[loop.write] = MAXINT
        y[loop.write] = ynew[loop.write]
        phases.append(post)
        breakdown.postprocessor = post.span

        barrier = cm.barrier(machine.processors)
        breakdown.barriers = barrier * len(phases)

        result = RunResult(
            loop_name=loop.name,
            strategy="linear-doacross" if linear else "preprocessed-doacross",
            processors=machine.processors,
            y=y,
            total_cycles=breakdown.total,
            sequential_cycles=sequential_time(loop, cm),
            cost_model=cm,
            phases=phases,
            breakdown=breakdown,
            wait_cycles=exec_phase.total_wait,
            schedule=_describe_schedule(exec_schedule),
            order_label=order_label,
        )
        if tracer is not None:
            result.extras["trace"] = tracer
        return result

    # ------------------------------------------------------------------
    # Amortized-inspector variant (repeated loop instances)
    # ------------------------------------------------------------------
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
        if instances < 1:
            raise InvalidLoopError(
                f"need at least one instance, got {instances}"
            )
        if rhs_sequence is not None:
            if loop.init_kind != INIT_EXTERNAL:
                raise InvalidLoopError(
                    "rhs_sequence requires an external-init loop"
                )
            rhs_sequence = [
                np.ascontiguousarray(r, dtype=np.float64)
                for r in rhs_sequence
            ]
            if len(rhs_sequence) != instances:
                raise InvalidLoopError(
                    f"rhs_sequence has {len(rhs_sequence)} entries for "
                    f"{instances} instances"
                )
            for k, r in enumerate(rhs_sequence):
                if r.shape != (loop.n,):
                    raise InvalidLoopError(
                        f"rhs_sequence[{k}] has shape {r.shape}, expected "
                        f"({loop.n},)"
                    )

        machine = self.machine
        cm = machine.cost_model
        n = loop.n
        if order is not None:
            order = np.asarray(order, dtype=np.int64)
            validate_execution_order(loop, order)

        ws = self._checkout_workspace(loop)
        iter_arr = ws.iter_arr
        ynew = ws.ynew
        y = loop.y0.copy()
        exec_schedule = self._resolve_schedule(schedule, n, chunk=chunk)

        phases_acc: dict[str, PhaseStats] = {}
        breakdown = PhaseBreakdown()
        total_wait = 0

        # Inspector: once for all instances.
        pre = self._uniform_phase("inspector", n, cm.pre_iter, 1)
        iter_arr[loop.write] = np.arange(n, dtype=np.int64)
        breakdown.inspector = pre.span
        _merge_phase(phases_acc, pre)
        barriers = 1

        working = loop
        for k in range(instances):
            if rhs_sequence is not None:
                working = loop.with_name(loop.name)
                working.init_values = rhs_sequence[k]
            exec_schedule.reset()
            flags = FlagStore(loop.y_size)
            exec_phase = self._executor_phase(
                working,
                exec_schedule,
                order,
                None,
                y,
                ynew,
                iter_arr,
                flags,
            )
            breakdown.executor += exec_phase.span
            total_wait += exec_phase.total_wait
            _merge_phase(phases_acc, exec_phase)
            barriers += 1

            last = k == instances - 1
            post_cost = cm.post_iter if last else cm.post_iter_amortized
            post = self._uniform_phase(
                "postprocessor", n, post_cost, 3 if last else 2
            )
            y[loop.write] = ynew[loop.write]
            if last:
                iter_arr[loop.write] = MAXINT
            breakdown.postprocessor += post.span
            _merge_phase(phases_acc, post)
            barriers += 1

        breakdown.barriers = barriers * cm.barrier(machine.processors)

        return RunResult(
            loop_name=loop.name,
            strategy="amortized-doacross",
            processors=machine.processors,
            y=y,
            total_cycles=breakdown.total,
            sequential_cycles=instances * sequential_time(loop, cm),
            cost_model=cm,
            phases=list(phases_acc.values()),
            breakdown=breakdown,
            wait_cycles=total_wait,
            schedule=_describe_schedule(exec_schedule),
            order_label=order_label,
            extras={
                "instances": instances,
                "inspector_runs": 1,
            },
        )

    # ------------------------------------------------------------------
    # Strip-mined variant (paper §2.3)
    # ------------------------------------------------------------------
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
        free of synchronization by construction.
        """
        if block < 1:
            raise InvalidLoopError(f"strip-mine block must be >= 1, got {block}")
        machine = self.machine
        cm = machine.cost_model
        n = loop.n

        ws = self._checkout_workspace(loop)
        iter_arr = ws.iter_arr
        ynew = ws.ynew
        y = loop.y0.copy()

        phases_acc: dict[str, PhaseStats] = {}
        breakdown = PhaseBreakdown()
        total_wait = 0
        n_blocks = 0
        max_write_span = 0

        for lo in range(0, n, block):
            hi = min(lo + block, n)
            count = hi - lo
            n_blocks += 1
            block_write = loop.write[lo:hi]
            if count:
                span = int(block_write.max()) - int(block_write.min()) + 1
                max_write_span = max(max_write_span, span)

            # Inspector over the block only.
            pre = self._uniform_phase("inspector", count, cm.pre_iter, 1)
            iter_arr[block_write] = np.arange(lo, hi, dtype=np.int64)
            breakdown.inspector += pre.span
            _merge_phase(phases_acc, pre)

            # Executor over the block's positions.
            flags = FlagStore(loop.y_size)
            sched = make_schedule(
                schedule_kind, count, machine.processors, chunk=chunk
            )
            exec_phase = self._executor_phase(
                loop,
                sched,
                None,
                None,
                y,
                ynew,
                iter_arr,
                flags,
                positions=(lo, hi),
            )
            breakdown.executor += exec_phase.span
            total_wait += exec_phase.total_wait
            _merge_phase(phases_acc, exec_phase)

            # Postprocessor over the block: reset + copy back.
            post = self._uniform_phase("postprocessor", count, cm.post_iter, 3)
            iter_arr[block_write] = MAXINT
            y[block_write] = ynew[block_write]
            breakdown.postprocessor += post.span
            _merge_phase(phases_acc, post)

            breakdown.barriers += 3 * cm.barrier(machine.processors)

        return RunResult(
            loop_name=loop.name,
            strategy="stripmined-doacross",
            processors=machine.processors,
            y=y,
            total_cycles=breakdown.total,
            sequential_cycles=sequential_time(loop, cm),
            cost_model=cm,
            phases=list(phases_acc.values()),
            breakdown=breakdown,
            wait_cycles=total_wait,
            schedule=f"{schedule_kind}(chunk={chunk})",
            extras={
                "block": block,
                "blocks": n_blocks,
                "modeled_scratch_elements": max_write_span,
                "full_scratch_elements": loop.y_size,
            },
        )

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

        machine = self.machine
        cm = machine.cost_model
        n = loop.n
        work = cm.effective_work(loop.work)
        term_counts = loop.reads.term_counts()
        flags = FlagStore(n)  # one flag per *iteration* here
        sched = self._resolve_schedule(schedule, n, chunk=chunk)
        dispatch_cost = cm.dispatch
        iter_cost_base = cm.exec_iter_overhead + work.overhead
        term_cost = work.term
        dynamic = sched.is_dynamic

        def run_body(st, lo: int, hi: int):
            for i in range(lo, hi):
                if i >= distance:
                    yield WaitFlag(i - distance)
                yield Compute(
                    iter_cost_base + int(term_counts[i]) * term_cost
                )
                yield SetFlag(i)
                st.iterations += 1

        def factory_for(proc: int):
            if dynamic:

                def task(st):
                    while True:
                        yield UseResource(RES_DISPATCH, dispatch_cost)
                        st.dispatches += 1
                        claim = sched.claim()
                        if claim is None:
                            return
                        yield from run_body(st, claim[0], claim[1])

            else:
                chunks = sched.chunks_for(proc)

                def task(st):
                    for lo, hi in chunks:
                        yield from run_body(st, lo, hi)

            return task

        engine = machine.new_engine(flags=flags)
        exec_phase = engine.run(
            "executor", [factory_for(p) for p in range(machine.processors)]
        )
        breakdown = PhaseBreakdown(
            executor=exec_phase.span, barriers=cm.barrier(machine.processors)
        )
        return RunResult(
            loop_name=loop.name,
            strategy="classic-doacross",
            processors=machine.processors,
            # In-place execution with a verified uniform distance is
            # sequentially equivalent, so the oracle's values are exact.
            y=loop.run_sequential(),
            total_cycles=breakdown.total,
            sequential_cycles=sequential_time(loop, cm),
            cost_model=cm,
            phases=[exec_phase],
            breakdown=breakdown,
            wait_cycles=exec_phase.total_wait,
            schedule=_describe_schedule(sched),
            extras={"distance": distance},
        )

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

        machine = self.machine
        cm = machine.cost_model
        n = loop.n
        write = loop.write
        ptr, r_idx, r_coeff = loop.reads.ptr, loop.reads.index, loop.reads.coeff
        external = loop.init_kind == INIT_EXTERNAL
        init_values = loop.init_values
        y = loop.y0.copy()
        work = cm.effective_work(loop.work)
        sched = self._resolve_schedule(schedule, n, chunk=chunk)
        dispatch_cost = cm.dispatch
        iter_cost_base = cm.exec_iter_overhead + work.overhead
        term_cost = work.term
        dynamic = sched.is_dynamic

        def run_body(st, lo: int, hi: int):
            for i in range(lo, hi):
                w = write[i]
                acc = init_values[i] if external else y[w]
                cost = iter_cost_base
                for k in range(ptr[i], ptr[i + 1]):
                    idx = r_idx[k]
                    value = acc if idx == w else y[idx]
                    acc += r_coeff[k] * value
                    cost += term_cost
                y[w] = acc
                yield Compute(cost)
                st.iterations += 1

        def factory_for(proc: int):
            if dynamic:

                def task(st):
                    while True:
                        yield UseResource(RES_DISPATCH, dispatch_cost)
                        st.dispatches += 1
                        claim = sched.claim()
                        if claim is None:
                            return
                        yield from run_body(st, claim[0], claim[1])

            else:
                chunks = sched.chunks_for(proc)

                def task(st):
                    for lo, hi in chunks:
                        yield from run_body(st, lo, hi)

            return task

        engine = machine.new_engine()
        exec_phase = engine.run(
            "executor", [factory_for(p) for p in range(machine.processors)]
        )
        breakdown = PhaseBreakdown(
            executor=exec_phase.span, barriers=cm.barrier(machine.processors)
        )
        return RunResult(
            loop_name=loop.name,
            strategy="doall",
            processors=machine.processors,
            y=y,
            total_cycles=breakdown.total,
            sequential_cycles=sequential_time(loop, cm),
            cost_model=cm,
            phases=[exec_phase],
            breakdown=breakdown,
            wait_cycles=0,
            schedule=_describe_schedule(sched),
        )


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
