"""The discrete-event engine: cooperative execution of processor tasks.

A *phase* (inspector, executor, or postprocessor) is run by handing the
engine one task factory per processor.  Each factory receives its
:class:`~repro.machine.stats.ProcessorStats` record and returns a generator
that yields :mod:`~repro.machine.ops` operations.  The engine advances
processors in strict global-time order (earliest local clock first), which
guarantees that all shared interactions — flag sets, busy-wait wake-ups,
serial-resource grants, dynamic chunk claims — happen in causal order and
that every simulation is deterministic.

Busy-wait semantics (the heart of the paper's executor): a processor that
waits on an unset flag is *parked*; when the flag is set at time ``T`` the
waiter resumes at ``max(park_time, T)`` and the gap is charged as
``wait_cycles`` — the processor was occupied spinning, exactly as on the
Encore Multimax.  If the queue drains while processors are still parked, the
wait can never be satisfied and :class:`SimulationDeadlockError` is raised
with the full waiter map.
"""

from __future__ import annotations

from typing import Callable, Generator, Iterable

from repro.errors import SimulationDeadlockError
from repro.machine.costs import DEFAULT_COST_MODEL, CostModel
from repro.machine.event_queue import ReadyQueue
from repro.machine.flags import UNSET, FlagStore
from repro.machine.ops import (
    OP_COMPUTE,
    OP_SET_FLAG,
    OP_USE_RESOURCE,
    OP_WAIT_FLAG,
)
from repro.machine.resource import SerialResource
from repro.machine.stats import PhaseStats, ProcessorStats

__all__ = ["Engine", "Machine", "TaskFactory", "RES_DISPATCH", "RES_BUS"]

#: Conventional resource ids used by the backends.
RES_DISPATCH = 0
RES_BUS = 1

TaskFactory = Callable[[ProcessorStats], Generator]


class Engine:
    """Runs one phase of simulated parallel execution.

    Parameters
    ----------
    cost_model:
        Cycle costs for flag checks/sets charged by the engine itself (all
        other costs are charged explicitly by the tasks via ``Compute`` /
        ``UseResource`` ops).
    flags:
        Optional :class:`FlagStore` for ``WaitFlag``/``SetFlag`` ops.  Phases
        that use no flags (inspector, postprocessor) may omit it.
    resources:
        Mapping of resource id to :class:`SerialResource` for
        ``UseResource`` ops.
    tracer:
        Optional :class:`~repro.machine.trace.Tracer`; when present, every
        compute/wait/queue interval is recorded (small constant overhead).
    """

    def __init__(
        self,
        cost_model: CostModel,
        flags: FlagStore | None = None,
        resources: dict[int, SerialResource] | None = None,
        tracer=None,
    ):
        self.cost_model = cost_model
        self.flags = flags
        self.resources = resources if resources is not None else {}
        self.tracer = tracer

    def run(self, name: str, task_factories: Iterable[TaskFactory]) -> PhaseStats:
        """Execute one phase; returns its :class:`PhaseStats`.

        All processors start at local time 0.  The phase's makespan is the
        maximum finish time; the caller adds barrier costs between phases.
        """
        factories = list(task_factories)
        n = len(factories)
        stats = [ProcessorStats(proc=i) for i in range(n)]
        gens = [factories[i](stats[i]) for i in range(n)]
        times = [0] * n
        # Simulated park time of processors blocked on flags.
        parked_at: dict[int, int] = {}
        finished = [False] * n

        queue = ReadyQueue()
        for i in range(n):
            queue.push(0, i)

        cm = self.cost_model
        flags = self.flags
        flag_check = cm.flag_check
        flag_set_cost = cm.flag_set
        tracer = self.tracer

        while queue:
            now, pid = queue.pop()
            gen = gens[pid]
            st = stats[pid]
            # Run this processor until it finishes, parks, or falls behind
            # another runnable processor.
            while True:
                try:
                    op = next(gen)
                except StopIteration:
                    st.finish_time = now
                    times[pid] = now
                    finished[pid] = True
                    break

                kind = op.kind
                if kind == OP_COMPUTE:
                    if tracer is not None:
                        tracer.record(pid, now, now + op.cycles, "compute")
                    now += op.cycles
                    st.compute_cycles += op.cycles
                elif kind == OP_WAIT_FLAG:
                    if flags is None:
                        raise RuntimeError(
                            f"phase {name!r} issued WaitFlag with no flag store"
                        )
                    set_t = flags.set_time[op.flag]
                    if set_t != UNSET:
                        if set_t > now:
                            st.wait_cycles += set_t - now
                            if tracer is not None:
                                tracer.record(pid, now, set_t, "wait")
                            now = set_t
                        if tracer is not None:
                            tracer.record(pid, now, now + flag_check, "compute")
                        now += flag_check
                        st.compute_cycles += flag_check
                        st.flag_checks += 1
                    else:
                        flags.park(op.flag, pid)
                        parked_at[pid] = now
                        times[pid] = now
                        break
                elif kind == OP_SET_FLAG:
                    if flags is None:
                        raise RuntimeError(
                            f"phase {name!r} issued SetFlag with no flag store"
                        )
                    if tracer is not None:
                        tracer.record(pid, now, now + flag_set_cost, "compute")
                    now += flag_set_cost
                    st.compute_cycles += flag_set_cost
                    st.flag_sets += 1
                    for waiter in flags.set(op.flag, now):
                        wstat = stats[waiter]
                        park_t = parked_at.pop(waiter)
                        resume = now if now > park_t else park_t
                        wstat.wait_cycles += resume - park_t
                        if tracer is not None:
                            tracer.record(waiter, park_t, resume, "wait")
                            tracer.record(
                                waiter, resume, resume + flag_check, "compute"
                            )
                        resume += flag_check
                        wstat.compute_cycles += flag_check
                        wstat.flag_checks += 1
                        times[waiter] = resume
                        queue.push(resume, waiter)
                elif kind == OP_USE_RESOURCE:
                    res = self.resources[op.resource]
                    release, queued = res.acquire(now, op.hold)
                    st.resource_wait_cycles += queued
                    st.compute_cycles += op.hold
                    if tracer is not None:
                        if queued:
                            tracer.record(pid, now, now + queued, "queue")
                        tracer.record(pid, now + queued, release, "compute")
                    now = release
                else:  # pragma: no cover - vocabulary is closed
                    raise RuntimeError(f"unknown op kind {kind}")

                # Keep running only while still globally earliest; this
                # preserves causal order of shared interactions.
                if queue and now > queue.peek_time():
                    times[pid] = now
                    queue.push(now, pid)
                    break

        if not all(finished):
            waiters = (
                flags.parked_processors() if flags is not None else {}
            )
            latest = max(times) if times else 0
            raise SimulationDeadlockError(waiters, latest)

        return PhaseStats(name=name, processors=stats)


class Machine:
    """Configuration bundle for a simulated shared-memory multiprocessor.

    Parameters
    ----------
    processors:
        Number of processors ``P`` (the paper uses 16).
    cost_model:
        Cycle cost constants; defaults to the calibrated model.
    bus:
        Enable the shared-bus contention model: every shared access emitted
        by the backends additionally occupies a serial bus resource for
        ``cost_model.bus_per_access`` cycles.
    coherence:
        Enable the write-invalidate coherence model: reading a renamed
        value last written by another processor costs an extra
        ``cost_model.coherence_miss`` cycles (see
        :class:`~repro.machine.costs.CostModel`).
    """

    def __init__(
        self,
        processors: int,
        cost_model: CostModel | None = None,
        bus: bool = False,
        coherence: bool = False,
    ):
        if processors < 1:
            raise ValueError(f"need at least one processor, got {processors}")
        self.processors = processors
        self.cost_model = cost_model if cost_model is not None else DEFAULT_COST_MODEL
        self.bus = bus
        self.coherence = coherence
        if bus and self.cost_model.bus_per_access <= 0:
            raise ValueError(
                "bus modeling enabled but cost_model.bus_per_access is 0; "
                "set it to a positive cycle count"
            )
        if coherence and self.cost_model.coherence_miss <= 0:
            raise ValueError(
                "coherence modeling enabled but cost_model.coherence_miss "
                "is 0; set it to a positive cycle count"
            )

    def new_resources(self) -> dict[int, SerialResource]:
        """Fresh serial resources for one phase."""
        resources = {RES_DISPATCH: SerialResource("dispatch-counter")}
        if self.bus:
            resources[RES_BUS] = SerialResource("memory-bus")
        return resources

    def new_engine(
        self, flags: FlagStore | None = None, tracer=None
    ) -> Engine:
        """Fresh engine (with fresh resources) for one phase."""
        return Engine(
            self.cost_model,
            flags=flags,
            resources=self.new_resources(),
            tracer=tracer,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Machine(processors={self.processors}, bus={self.bus})"
