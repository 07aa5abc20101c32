"""Execution backends for the transformed loops.

All backends implement the :class:`repro.backends.base.Runner` protocol —
``run(loop, *, order=None, schedule=None, chunk=None, trace=False, ...)``
returning a :class:`~repro.core.results.RunResult` — so strategy code and
benchmarks select them interchangeably (``PlanSpec(backend=...)``).  The
four wall-clock backends share one ``run``
(:class:`~repro.backends.base.WallClockRunner`) and differ only in their
execution.  One table (:data:`~repro.passes.spec.OPTION_REASONS`) says
why a backend does not honor an option: planning rejects a
:class:`~repro.passes.spec.PlanSpec` option with it, and a direct
``run`` notes an option as ignored with it.

- :mod:`repro.backends.simulated` — the paper-experiment backend: the
  inspector/executor/postprocessor phases of the simulated machine
  (:mod:`repro.machine`), producing both correct values (one ``run_span``
  per executor phase) and simulated cycles — a max-plus sweep and closed
  forms on the paper's machine, the discrete-event engine where a bus,
  coherence, a dynamic schedule or a timeline needs it.  All paper
  experiments use this backend.
- :mod:`repro.backends.threaded` — real ``threading`` execution of the
  lane protocol over plain arrays; demonstrates the protocol is
  functionally correct on actual concurrent hardware (no timing claims —
  the GIL forbids them; see DESIGN.md §3).
- :mod:`repro.backends.vectorized` — wavefront-ordered execution: one
  compiled walk (``run_span``) over the schedule's level-major order, which
  discharges every wait; preprocessing is served by a content-addressed
  :class:`InspectorCache`.
- :mod:`repro.backends.multiproc` — the doacross protocol across real OS
  processes: a persistent worker pool busy-waits on
  ``multiprocessing.shared_memory`` arrays (``iter``/``ready``/``ynew``)
  with §2.3 strip-mined chunking, every wait bounded by a
  :class:`~repro.backends.waitladder.WaitLadder`.
- :mod:`repro.backends.lanes` — the lane protocol both of those are:
  the inspector / executor / postprocess phase tasks over flat
  ``iter``/``ready``/``ynew``/``y`` arrays, the merge of their payloads
  into telemetry and shadow logs, and the one
  :class:`~repro.backends.lanes.LaneRunner` (strip and group rules,
  schedule model, run sequence) whose two transports they are.
- :mod:`repro.backends.speculative` — the optimistic dual of the
  inspector: chunks execute in parallel with no inspection at all,
  conflicts are detected from per-chunk access logs after the fact, and
  losers are rolled back and re-executed (bounded retry budget, then
  sequential fallback).
- :mod:`repro.backends.kernel` — the Figure-5 term rule, once: lane
  placement, vectorized term classification and the scalar evaluator the
  threaded, multiproc and speculative backends are scheduling and
  synchronisation around (and whose codes the static race checker reads
  and the simulated executor branches on).
- :mod:`repro.backends.cache` — the inspector cache (Figure-3 amortization
  with hit/miss counters): inspector records, level schedules and the
  simulated executor's operands.
- :mod:`repro.backends.hooks` — the optional steps around a run
  (static validation, sanitizing, telemetry) as one ordered hook list
  behind a single :class:`HookedRunner` wrapper.
- :mod:`repro.backends.base` — the :class:`Runner` protocol (``run``,
  plus ``schedule_model``: the schedule a run is about to execute, for
  ``validate="static"``), the wall-clock run envelope
  (:class:`~repro.backends.base.WallClockRunner`: checks, verdict, one
  timed window, one result and its notes) and shared helpers (order
  validation).
"""

from repro.backends.base import Runner, validate_execution_order
from repro.backends.cache import InspectorCache, InspectorRecord, loop_fingerprint
from repro.backends.hooks import HookedRunner, hooks_for
from repro.backends.multiproc import MultiprocRunner
from repro.backends.simulated import SimulatedRunner
from repro.backends.speculative import SpeculativeRunner
from repro.backends.threaded import ThreadedRunner
from repro.backends.vectorized import VectorizedRunner
from repro.backends.waitladder import WaitLadder
from repro.passes.spec import (
    AUTO_BACKEND,
    BACKENDS,
    PlanSpec,
    check_options,
    resolve_shorthand,
)

__all__ = [
    "Runner",
    "SimulatedRunner",
    "ThreadedRunner",
    "VectorizedRunner",
    "MultiprocRunner",
    "SpeculativeRunner",
    "HookedRunner",
    "InspectorCache",
    "InspectorRecord",
    "WaitLadder",
    "loop_fingerprint",
    "make_runner",
    "BACKENDS",
    "validate_execution_order",
]


def make_runner(
    backend: str | None = None,
    *,
    spec: PlanSpec | None = None,
    processors: int | None = None,
    cost_model=None,
    cache: InspectorCache | None = None,
    bus: bool = False,
    coherence: bool = False,
) -> Runner:
    """Build the :class:`Runner` a :class:`~repro.passes.spec.PlanSpec`
    describes.

    ``spec`` carries backend/processors/analyze/validate/observe/
    wait_timeout and is checked against the backend option-support matrix
    before anything is built.  ``backend`` and ``processors`` are
    shorthand for ``spec=PlanSpec(backend, processors)`` and cannot be
    combined with ``spec``; ``cost_model``/``cache``/``bus``/``coherence``
    are resources and machine configuration, not plan options.

    ``processors`` means simulated processors for the simulated backend,
    thread count for the threaded backend, and worker-process count for
    the multiproc and speculative backends; the vectorized backend has no
    processor knob (its parallelism is the wavefront width).  ``cache``
    serves the vectorized backend's inspector records, the simulated
    backend's executor operands (term codes, lanes, the max-plus sweep's
    inputs and per-processor sums, keyed by structure and machine) with
    the cycle account they give, so a warm simulated call runs no sweep,
    and, on the multiproc backend, prefills the shared ``iter`` array so
    workers skip their inspector phase.  Without one, the vectorized
    runner keeps a private cache and the simulated runner builds its
    operands and cycles on every call (and leaves the loop's index arrays
    writeable).

    ``analyze="symbolic"`` enables the symbolic dependence engine on the
    wall-clock backends: when a loop's verdict is proven, the runtime
    inspector is elided (closed-form ``iter`` array / inspector record;
    see :mod:`repro.analysis`).  ``analyze="symbolic+check"`` additionally
    cross-checks every proof against the real inspector output.  The
    simulated backend models the inspector as a costed phase, so
    ``analyze`` is rejected here — :func:`~repro.core.doacross.parallelize`
    does verdict-driven strategy dispatch on the simulator.

    ``validate`` and ``observe`` put run hooks around the backend
    (:mod:`repro.backends.hooks`, in the fixed order static-validate →
    sanitize → observe): the result is then one
    :class:`~repro.backends.hooks.HookedRunner` whose ``.inner`` is the
    backend itself; with neither set it is the bare backend.
    """
    spec = resolve_shorthand("make_runner", spec, backend, processors)
    if spec.backend == AUTO_BACKEND:
        raise ValueError(
            "backend='auto' is a per-loop decision, not a runner: use "
            "parallelize(loop, spec=...) or repro.passes.plan_loop so "
            "the tuner can see the loop's structure"
        )
    check_options(spec)
    workers, analyze, timeout = spec.processors, spec.analyze, spec.wait_timeout
    if spec.backend == "simulated":
        from repro.machine.engine import Machine

        if analyze is not None:
            raise ValueError(
                "analyze is not supported on a simulated runner (its "
                "inspector is a costed phase, not elidable work); use "
                "parallelize(loop, spec=...) for verdict-driven strategy "
                "dispatch"
            )
        runner: Runner = SimulatedRunner(
            Machine(workers, cost_model=cost_model, bus=bus, coherence=coherence),
            cache=cache,
        )
    elif spec.backend == "threaded":
        kwargs = {} if timeout is None else {"wait_timeout": timeout}
        runner = ThreadedRunner(threads=workers, analyze=analyze, **kwargs)
    elif spec.backend == "vectorized":
        runner = VectorizedRunner(
            cache=cache, cost_model=cost_model, analyze=analyze
        )
    elif spec.backend == "multiproc":
        ladder = None if timeout is None else WaitLadder(timeout=timeout)
        runner = MultiprocRunner(
            workers=workers, cache=cache, analyze=analyze, ladder=ladder
        )
    else:
        # Speculation never busy-waits (the plan-time check rejects
        # wait_timeout); its liveness bound is the retry budget.
        runner = SpeculativeRunner(workers=workers, analyze=analyze)
    hooks = hooks_for(spec)
    return HookedRunner(runner, hooks) if hooks else runner
