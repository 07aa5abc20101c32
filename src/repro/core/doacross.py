"""The public preprocessed-doacross API.

:class:`PreprocessedDoacross` bundles a simulated machine, a reusable
workspace, and a default schedule behind the interface the examples and
benchmarks use::

    from repro import PreprocessedDoacross
    runner = PreprocessedDoacross(processors=16)
    result = runner.run(loop)
    print(result.summary())

:func:`parallelize` is the fully automatic entry point: it asks the
"compiler" (:func:`repro.ir.transform.plan_transform`) which strategy is
sound for the loop's static structure, plans the run for the
:class:`~repro.passes.spec.PlanSpec`'s backend and executes it.

Both entry points take their options keyword-only.
"""

from __future__ import annotations

import functools
from typing import TYPE_CHECKING

import numpy as np

from repro.backends.simulated import SimulatedRunner
from repro.core.results import RunResult
from repro.core.workspace import DoacrossWorkspace
from repro.errors import ScheduleError
from repro.ir.loop import IrregularLoop
from repro.ir.transform import TransformPlan, plan_transform
from repro.machine.costs import CostModel
from repro.machine.engine import Machine
from repro.machine.scheduler import SCHEDULE_KINDS, IterationSchedule

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.passes.spec import PlanSpec

__all__ = ["PreprocessedDoacross", "parallelize"]


def _validate_schedule_options(schedule, chunk) -> None:
    """Fail fast on malformed schedule options (satisfying the contract
    that bad configuration raises :class:`ScheduleError` at construction,
    not deep inside the scheduler mid-run)."""
    if chunk is not None and chunk < 1:
        raise ScheduleError(f"chunk must be >= 1, got {chunk}")
    if (
        schedule is not None
        and not isinstance(schedule, IterationSchedule)
        and schedule not in SCHEDULE_KINDS
    ):
        raise ScheduleError(
            f"unknown schedule kind {schedule!r}; expected one of "
            f"{'/'.join(SCHEDULE_KINDS)} or an IterationSchedule"
        )


class PreprocessedDoacross:
    """Inspector/executor/postprocessor runner with sensible defaults.

    Parameters
    ----------
    processors:
        Simulated processor count (paper experiments use 16).  Ignored when
        an explicit ``machine`` is supplied.
    cost_model:
        Cycle costs; defaults to the calibrated model (DESIGN.md §7).
    machine:
        A pre-built :class:`~repro.machine.engine.Machine` (overrides
        ``processors``/``cost_model``/``bus``).
    workspace:
        Scratch arrays shared across runs (created on demand).  Reuse across
        many loop instances is the paper's Figure-3 design point.
    schedule, chunk:
        Default executor schedule (kind string or
        :class:`~repro.machine.scheduler.IterationSchedule`) and chunk size.
        Validated here — an unknown kind or ``chunk < 1`` raises
        :class:`~repro.errors.ScheduleError` immediately.
    bus:
        Enable the shared-bus contention model.
    coherence:
        Enable the write-invalidate coherence model (requires a cost model
        with ``coherence_miss > 0``).
    """

    def __init__(
        self,
        processors: int = 16,
        cost_model: CostModel | None = None,
        machine: Machine | None = None,
        workspace: DoacrossWorkspace | None = None,
        schedule="cyclic",
        chunk: int = 1,
        bus: bool = False,
        coherence: bool = False,
    ):
        _validate_schedule_options(schedule, chunk)
        if machine is None:
            machine = Machine(
                processors, cost_model=cost_model, bus=bus, coherence=coherence
            )
        self.machine = machine
        self.workspace = workspace if workspace is not None else DoacrossWorkspace()
        self.schedule = schedule
        self.chunk = chunk
        self._runner = SimulatedRunner(self.machine, self.workspace)

    # ------------------------------------------------------------------
    def run(
        self,
        loop: IrregularLoop,
        *,
        order: np.ndarray | None = None,
        order_label: str = "natural",
        linear: bool = False,
        schedule=None,
        chunk: int | None = None,
        trace: bool = False,
    ) -> RunResult:
        """Run the full preprocessed doacross (or the §2.3 linear variant
        with ``linear=True``); optionally in a caller-supplied execution
        ``order`` (see :class:`~repro.core.doconsider.Doconsider`).  With
        ``trace=True`` the executor-phase timeline lands in
        ``result.extras["trace"]``.  ``schedule``/``chunk`` default to the
        ones given at construction.
        """
        _validate_schedule_options(schedule, chunk)
        return self._runner.run(
            loop,
            schedule=self.schedule if schedule is None else schedule,
            chunk=self.chunk if chunk is None else chunk,
            order=order,
            order_label=order_label,
            linear=linear,
            trace=trace,
        )

    def run_stripmined(
        self, loop: IrregularLoop, block: int, chunk: int | None = None
    ) -> RunResult:
        """Run the §2.3 strip-mined variant with ``block`` iterations per
        inner doacross."""
        kind = self.schedule if isinstance(self.schedule, str) else "cyclic"
        return self._runner.run_stripmined(
            loop,
            block,
            schedule_kind=kind,
            chunk=self.chunk if chunk is None else chunk,
        )

    def runner(self) -> SimulatedRunner:
        """The underlying backend (for baselines sharing the machine)."""
        return self._runner


@functools.cache
def _passes():
    """:mod:`repro.passes`, which builds on :mod:`repro.core`: imported by
    the first :func:`parallelize`, not with this module, and looked up
    once rather than by an import statement per call (a microsecond or
    two each)."""
    import repro.passes.spec

    return repro.passes


def parallelize(
    loop: IrregularLoop,
    *,
    spec: PlanSpec | None = None,
    backend: str | None = None,
    processors: int | None = None,
    cost_model: CostModel | None = None,
    cache=None,
    assert_independent: bool = False,
    known_distance: int | None = None,
) -> tuple[RunResult, TransformPlan]:
    """Automatically select and run the cheapest sound strategy.

    Mirrors the paper's compiler flow: the *static* structure of the loop
    (plus optional user assertions) picks among doall, classic doacross,
    linear-subscript doacross, and the full preprocessed doacross
    (:func:`~repro.ir.transform.plan_transform`);
    :func:`~repro.passes.plan.plan_loop` plans the run and
    :func:`~repro.passes.execute.execute_plan` runs it.  Returns the run
    result together with the transform plan that justified it; the
    schedule plan is attached as ``result.extras["schedule_plan"]``.

    Parameters
    ----------
    spec:
        A :class:`~repro.passes.spec.PlanSpec` — every per-run option
        (backend, processors, schedule, chunk, reorder, analyze, validate,
        observe, wait_timeout).  An option the backend cannot
        honor raises a structured
        :class:`~repro.passes.spec.UnsupportedPlanOption` at plan time.
    backend, processors:
        Shorthand for ``spec=PlanSpec(backend, processors)``; cannot be
        combined with ``spec``.  The simulated backend (default) runs the
        selected strategy in simulated cycles; the wall-clock backends
        execute every strategy through the same generalized protocol (the
        plan still records what a specializing compiler would have done);
        ``"auto"`` lets the tuner pick the backend with the lowest median
        wall time per dependence structure (:mod:`repro.passes.autotune`);
        its runs are observed only when ``spec.observe`` asks.
    cost_model:
        Cycle costs for the simulated machine (and the vectorized
        backend's sequential-cycle estimate).
    cache:
        Optional :class:`~repro.backends.cache.InspectorCache` shared
        across calls (inspector records, tuner decisions).
    assert_independent, known_distance:
        Caller assertions for strategy selection — a doall directive, or
        the a-priori uniform distance of a classic doacross.

    With ``spec.analyze`` set, the symbolic dependence engine
    (:func:`repro.analysis.analyze_loop`) feeds its proven verdict into
    strategy selection — a DOALL-proven loop dispatches to the doall
    specialization and a constant-distance one to the classic doacross
    *without any caller assertion* — and on the wall-clock backends an
    elidable verdict skips the runtime inspector entirely.
    """
    passes = _passes()
    spec = passes.spec.resolve_shorthand("parallelize", spec, backend, processors)
    plan = passes.plan_loop(loop, spec, cache=cache)
    if (
        plan.record is not None
        and not assert_independent
        and known_distance is None
        and plan.verdict is None
    ):
        # The record's plan is plan_transform(loop) of this structure.
        transform = plan.record.plan
    else:
        transform = plan_transform(
            loop,
            assert_independent=assert_independent,
            known_distance=known_distance,
            verdict=plan.verdict,
        )
    result = passes.execute_plan(
        loop,
        plan,
        cache=cache,
        transform=transform,
        cost_model=cost_model,
    )
    if "plan" not in result.extras:
        result.extras["plan"] = transform.describe()
    return result, transform
