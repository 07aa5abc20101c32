"""The public preprocessed-doacross API.

:class:`PreprocessedDoacross` bundles a simulated machine, a reusable
workspace, and a default schedule and iteration order behind the
interface the examples and benchmarks use::

    from repro import PreprocessedDoacross
    runner = PreprocessedDoacross(processors=16)
    result = runner.run(loop)
    print(result.summary())
    print(runner.run(loop, reorder="doconsider").summary())

:func:`parallelize` is the fully automatic entry point: it asks the
"compiler" (:func:`repro.ir.transform.plan_transform`) which strategy is
sound for the loop's static structure, plans the run for the
:class:`~repro.passes.spec.PlanSpec`'s backend and executes it.

Both entry points take their options keyword-only.
"""

from __future__ import annotations

import functools
from typing import TYPE_CHECKING

from repro.backends.simulated import SimulatedRunner
from repro.core.doconsider import modeled_reorder_cycles
from repro.core.results import RunResult
from repro.core.workspace import DoacrossWorkspace
from repro.errors import ScheduleError
from repro.graph.levels import compute_levels
from repro.ir.loop import IrregularLoop
from repro.ir.transform import TransformPlan, plan_transform
from repro.machine.costs import CostModel
from repro.machine.engine import Machine
from repro.machine.scheduler import SCHEDULE_KINDS, IterationSchedule

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.passes.spec import PlanSpec

__all__ = ["PreprocessedDoacross", "parallelize"]


def _validate_options(schedule, chunk, reorder) -> None:
    """Fail fast on malformed schedule or reorder options (satisfying the
    contract that bad configuration raises :class:`ScheduleError` at
    construction, not deep inside the scheduler mid-run)."""
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
    kinds = _passes().spec.REORDER_KINDS
    if reorder is not None and reorder not in kinds:
        raise ScheduleError(
            f"unknown reorder kind {reorder!r}; expected one of "
            f"{'/'.join(kinds)}"
        )


class PreprocessedDoacross:
    """Inspector/executor/postprocessor runner with sensible defaults.

    Parameters
    ----------
    processors:
        Simulated processor count (paper experiments use 16).
    cost_model:
        Cycle costs; defaults to the calibrated model (DESIGN.md §7).
    workspace:
        Scratch arrays shared across runs (created on demand).  Reuse across
        many loop instances is the paper's Figure-3 design point.
    schedule, chunk:
        Default executor schedule (kind string or
        :class:`~repro.machine.scheduler.IterationSchedule`) and chunk size.
    reorder:
        Default iteration order, one of
        :data:`~repro.passes.spec.REORDER_KINDS` (``PlanSpec.reorder``'s
        spelling): ``"natural"``, or ``"doconsider"`` — the wavefront
        order of paper §3.2 (reference [4]).
    bus:
        Enable the shared-bus contention model.
    coherence:
        Enable the write-invalidate coherence model (requires a cost model
        with ``coherence_miss > 0``).

    ``schedule``, ``chunk`` and ``reorder`` are validated here: an unknown
    kind or ``chunk < 1`` raises :class:`~repro.errors.ScheduleError`
    immediately.
    """

    def __init__(
        self,
        processors: int = 16,
        cost_model: CostModel | None = None,
        workspace: DoacrossWorkspace | None = None,
        schedule="cyclic",
        chunk: int = 1,
        reorder: str = "natural",
        bus: bool = False,
        coherence: bool = False,
    ):
        _validate_options(schedule, chunk, reorder)
        self.machine = Machine(
            processors, cost_model=cost_model, bus=bus, coherence=coherence
        )
        self.workspace = workspace if workspace is not None else DoacrossWorkspace()
        self.schedule = schedule
        self.chunk = chunk
        self.reorder = reorder
        self._runner = SimulatedRunner(self.machine, self.workspace)

    def _order(self, loop: IrregularLoop, reorder: str | None):
        """``(order, order_label, levels)`` for ``reorder`` (default: the
        constructor's): ``levels`` is the wavefront decomposition behind a
        doconsider order, ``None`` in natural order."""
        if (self.reorder if reorder is None else reorder) == "natural":
            return None, "natural", None
        levels = compute_levels(loop)
        return levels.order, f"doconsider(levels={levels.n_levels})", levels

    # ------------------------------------------------------------------
    def run(
        self,
        loop: IrregularLoop,
        *,
        reorder: str | None = None,
        linear: bool = False,
        schedule=None,
        chunk: int | None = None,
        trace: bool = False,
    ) -> RunResult:
        """Run the full preprocessed doacross (or the §2.3 linear variant
        with ``linear=True``).  With ``trace=True`` the executor-phase
        timeline lands in ``result.extras["trace"]``.  ``reorder``,
        ``schedule`` and ``chunk`` default to the ones given at
        construction.

        In doconsider order the level count, the widest wavefront and
        :func:`~repro.core.doconsider.modeled_reorder_cycles` land in
        ``result.extras`` (``n_levels``, ``max_wavefront``,
        ``reorder_cycles_modeled``); the reorder cost is reported, never
        added to ``total_cycles``.  A caller's own order goes through
        ``runner().run(loop, order=...)``.
        """
        _validate_options(schedule, chunk, reorder)
        order, order_label, levels = self._order(loop, reorder)
        result = self._runner.run(
            loop,
            schedule=self.schedule if schedule is None else schedule,
            chunk=self.chunk if chunk is None else chunk,
            order=order,
            order_label=order_label,
            linear=linear,
            trace=trace,
        )
        if levels is not None:
            result.extras["reorder_cycles_modeled"] = modeled_reorder_cycles(
                loop, self.machine.processors, schedule=levels
            )
            result.extras["n_levels"] = levels.n_levels
            result.extras["max_wavefront"] = levels.max_width()
        return result

    def run_amortized(
        self,
        loop: IrregularLoop,
        instances: int,
        *,
        reorder: str | None = None,
        rhs_sequence=None,
    ) -> RunResult:
        """Run ``instances`` back-to-back executions of ``loop`` sharing
        one inspector pass (paper Figure 3's scratch reuse; ablation G).

        Instance 1 runs inspector + executor + a reduced postprocessor
        (``ready`` reset and ``ynew → y``, ``iter`` kept), instances
        ``2..k`` executor + reduced postprocessor, and the last one the
        full postprocessor, returning the workspace pristine.  Instance
        ``k`` consumes instance ``k−1``'s output: a sequential composition
        of the loop with itself, or, for an external-init loop, with the
        per-instance ``init_values`` of ``rhs_sequence``.

        ``result.extras["instances"]`` and ``["inspector_runs"] == 1``
        record the amortization, and ``result.efficiency`` uses
        ``instances × T_seq`` as the baseline.  ``reorder`` (default: the
        constructor's) only orders the executor here: no doconsider
        extras are added.  The wall-clock form of the same composition is
        :meth:`repro.backends.vectorized.VectorizedRunner.run_repeated`.
        """
        _validate_options(None, None, reorder)
        order, order_label, _ = self._order(loop, reorder)
        return self._runner.run_amortized(
            loop,
            instances,
            schedule=self.schedule,
            chunk=self.chunk,
            order=order,
            order_label=order_label,
            rhs_sequence=rhs_sequence,
        )

    def run_stripmined(
        self, loop: IrregularLoop, block: int, chunk: int | None = None
    ) -> RunResult:
        """Run the §2.3 strip-mined variant with ``block`` iterations per
        inner doacross.  Blocks cut the natural order, so this runs in
        natural order whatever the default ``reorder``."""
        kind = self.schedule if isinstance(self.schedule, str) else "cyclic"
        return self._runner.run_stripmined(
            loop,
            block,
            schedule_kind=kind,
            chunk=self.chunk if chunk is None else chunk,
        )

    def runner(self) -> SimulatedRunner:
        """The underlying backend (for baselines sharing the machine, and
        runs in a caller's own ``order``)."""
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
