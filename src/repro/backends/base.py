"""Shared backend infrastructure: the :class:`Runner` protocol, the run
envelope of the wall-clock backends, and order validation helpers.

Every execution backend (:data:`~repro.passes.spec.BACKENDS`) implements
the same small surface::

    runner.run(loop, *, order=None, schedule=None, chunk=None, trace=False,
               **backend_options) -> RunResult

so strategy-level code (:func:`~repro.passes.execute.execute_plan`, the
benchmarks) can swap backends without caring whether time is simulated
cycles or measured wall clock.  The four wall-clock backends (threaded,
multiproc, vectorized, speculative) share one ``run``:
:class:`WallClockRunner`, the envelope around Figure 3's three phases —
argument checks, verdict, one timed window around the backend's
``_execute``, one :class:`~repro.core.results.RunResult` and its notes —
so a backend is only its execution.  Planned runs never hand a backend
an option it cannot honor (:data:`~repro.passes.spec.OPTION_SUPPORT`
rejects it at plan time); handed one directly (e.g. ``schedule`` on the
vectorized backend, which has no per-processor schedules), a backend
notes it as ignored, with the reason the plan-time rejection gives
(:data:`~repro.passes.spec.OPTION_REASONS`), rather than rejecting it,
so callers can sweep hand-built runners with one option set.
"""

from __future__ import annotations

import abc
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.backends.kernel import Placement, default_chunk
from repro.errors import InvalidLoopError, ProofError, ScheduleError
from repro.ir.analysis import CAT_TRUE, classify_reads
from repro.ir.loop import INIT_EXTERNAL, IrregularLoop

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.analysis.verdicts import DependenceVerdict
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.spans import SpanRecorder
    from repro.sanitize.shadow import ShadowCapture

__all__ = [
    "NON_NATURAL_GROUP",
    "Execution",
    "Runner",
    "WallClockRunner",
    "check_group_sync",
    "check_repeated",
    "execution_positions",
    "level_placement",
    "resolve_verdict",
    "note_verdict",
    "note_kernel",
    "validate_execution_order",
    "inverse_permutation",
    "note_ignored_options",
]


class Runner(abc.ABC):
    """Uniform execution interface over all backends.

    Subclasses execute an :class:`~repro.ir.loop.IrregularLoop` with exact
    sequential semantics (the library's central contract) and return a
    :class:`~repro.core.results.RunResult`.  All options are keyword-only:

    - ``order`` — optional doconsider execution order; must be validated
      against the loop's true dependencies (illegal orders raise
      :class:`~repro.errors.ScheduleError` before anything runs).
    - ``schedule`` / ``chunk`` — executor iteration schedule, where the
      backend has one (``None`` means the backend default).
    - ``trace`` — request an execution timeline where supported.

    Backend-specific options carry plan decisions from
    :func:`~repro.passes.execute.execute_plan`: the simulated backend
    takes ``transform`` (the :class:`~repro.ir.transform.TransformPlan`
    whose strategy it dispatches on); the wall-clock backends
    (:class:`WallClockRunner`) take ``group_sync`` (the synchronization
    group size :func:`~repro.passes.distance.plan_distance_elision`
    proved sound; checked by all four, honored by threaded, multiproc
    and vectorized), and the vectorized backend ``planned`` (the plan's
    inspector record).
    """

    #: Short identifier used by the ``backend=`` selector and in reports.
    name: str = "runner"

    #: Hook slots.  A :class:`~repro.backends.hooks.HookedRunner` fills
    #: them for the duration of one ``run`` and clears them afterwards;
    #: ``None`` means unobserved / unsanitized, and the hot paths stay
    #: hook-free.  With a span recorder and a metrics registry attached
    #: (:class:`~repro.backends.hooks.Observe`) a backend emits
    #: phase/level/wait spans and unified metrics; with a
    #: :class:`~repro.sanitize.shadow.ShadowCapture` attached
    #: (:class:`~repro.backends.hooks.Sanitize`) it appends shadow-access
    #: and synchronization events to per-lane logs.
    _obs_recorder: "SpanRecorder | None" = None
    _obs_metrics: "MetricsRegistry | None" = None
    _san_capture: "ShadowCapture | None" = None

    @abc.abstractmethod
    def run(
        self,
        loop: IrregularLoop,
        *,
        order: np.ndarray | None = None,
        schedule=None,
        chunk: int | None = None,
        trace: bool = False,
    ) -> RunResult:
        """Execute ``loop`` and return its :class:`RunResult`."""
        raise NotImplementedError

    def schedule_model(self, loop: IrregularLoop, **options) -> Placement:
        """The :class:`~repro.backends.kernel.Placement` ``run(loop,
        **options)`` is about to execute — lanes, strip size and barriers
        resolved by the backend's own rules (default chunk, group
        alignment), so ``validate="static"`` checks what runs.  It never
        consults the runner's cache.  Default: the wavefront levels, the
        weakest order every wavefront-respecting backend refines."""
        return level_placement(loop)


@dataclass
class Execution:
    """What a wall-clock backend's ``_execute`` hands back to the run
    envelope (:class:`WallClockRunner`): the final values, and what only
    the backend knows about how it computed them."""

    y: np.ndarray
    schedule: str
    #: Each lane's :func:`~repro.backends.kernel.take_tally` triple.
    tallies: list = field(default_factory=list)
    #: Whether the inspector was skipped; ``None`` where there is no
    #: inspector to skip, or no verdict to skip it by.
    elided: bool | None = None
    #: Backend extras, merged into ``RunResult.extras``.
    extras: dict = field(default_factory=dict)
    order_label: str = "natural"
    #: Called with the built result after the timed window: extras and
    #: counters the backend gathers outside it.
    finish: Callable[[RunResult], None] | None = None


class WallClockRunner(Runner):
    """The run envelope of the wall-clock backends: one :meth:`run`
    around the backend's :meth:`_execute`.

    A backend supplies :meth:`_execute` (and, when it has run arguments of
    its own, :meth:`_resolve`); the envelope does the rest, in one order
    on every backend — the checks, the verdict, one timed window, one
    :class:`~repro.core.results.RunResult` and its notes and counters.
    """

    #: ``RunResult.strategy``.
    strategy: str
    #: Prices ``RunResult.sequential_cycles`` (default :class:`CostModel`).
    cost_model: CostModel | None = None

    def __init__(
        self,
        workers: int = 1,
        chunk: int | None = None,
        analyze: str | None = None,
    ):
        """``workers``: lanes (``RunResult.processors``); ``chunk``: the
        default strip size; ``analyze``: an ``ANALYZE_MODES`` entry."""
        if workers < 1:
            raise ValueError(f"need at least one worker, got {workers}")
        if chunk is not None and chunk < 1:
            raise ValueError(f"chunk must be >= 1, got {chunk}")
        if analyze not in ANALYZE_MODES:
            raise ValueError(
                f"unknown analyze mode {analyze!r}; expected one of "
                f"{ANALYZE_MODES}"
            )
        self.workers, self.chunk, self.analyze = workers, chunk, analyze

    def run(
        self,
        loop: IrregularLoop,
        *,
        order: np.ndarray | None = None,
        schedule=None,
        chunk: int | None = None,
        trace: bool = False,
        group_sync: int | None = None,
        **options,
    ) -> RunResult:
        """Execute ``loop``; measured wall clock, no cycle model
        (``total_cycles`` 0, DESIGN.md §3).  Checked first, in this order:
        the loop's subscripts and write injectivity (``loop_fingerprint``,
        free once the loop is frozen), ``group_sync``, ``order``, the
        backend's own arguments (:meth:`_resolve`).  ``wall_seconds``
        times the verdict, the preprocessing and the execution.  An option
        the backend does not honor (its ``OPTION_REASONS`` row), or a
        ``group_sync`` it refuses (counted as ``sync_elision_fallbacks``),
        is noted in ``extras["ignored_options"]``."""
        key = loop_fingerprint(loop)
        check_group_sync(loop, group_sync)
        if order is not None:
            order = np.asarray(order, dtype=np.int64)
            validate_execution_order(loop, order)
        strip, group, refused = self._resolve(loop.n, order, chunk, group_sync)
        t0 = time.perf_counter()
        verdict = resolve_verdict(loop, self.analyze)
        done = self._execute(loop, key, order, verdict, strip, group, **options)
        result = self._result(loop, done, verdict, time.perf_counter() - t0)
        if group is not None:
            result.extras["distance_group"] = int(group)
        if refused and self._obs_metrics is not None:
            self._obs_metrics.count("sync_elision_fallbacks", 1)
        note_ignored_options(
            result,
            self.name,
            {
                "order": None if order is None else "<array>",
                "schedule": schedule,
                "chunk": chunk,
                "trace": True if trace else None,
                "group_sync": group_sync,
            },
            group_sync=refused,
        )
        return result

    def _strip(self, n: int, chunk: int | None) -> int:
        """A run's strip (chunk) size: the per-run ``chunk``, else the
        runner's, else four strips per worker
        (:func:`~repro.backends.kernel.default_chunk`)."""
        if chunk is not None and chunk < 1:
            raise ValueError(f"chunk must be >= 1, got {chunk}")
        size = chunk if chunk is not None else self.chunk
        return int(size if size is not None else default_chunk(n, self.workers))

    def _resolve(
        self, n: int, order, chunk: int | None, group_sync: int | None
    ) -> tuple[int, int | None, str]:
        """``(strip, group, refused)``: the strip size, the group that runs
        (``None``: none) and why a requested one does not (``""``).
        Default: no strips, and the group as given."""
        return 1, group_sync, ""

    @abc.abstractmethod
    def _execute(
        self, loop: IrregularLoop, key: str, order, verdict, strip: int,
        group: int | None, **options,
    ) -> Execution:
        """Preprocess and execute the loop (``key``: its fingerprint),
        inside the timed window."""
        raise NotImplementedError

    def _result(
        self, loop: IrregularLoop, done: Execution, verdict, wall: float
    ) -> RunResult:
        """The run's :class:`RunResult`, its notes and counters."""
        cm = self.cost_model if self.cost_model is not None else DEFAULT_COST_MODEL
        result = RunResult(
            loop_name=loop.name,
            strategy=self.strategy,
            processors=self.workers,
            y=done.y,
            total_cycles=0,
            sequential_cycles=sequential_time(loop, cm),
            cost_model=cm,
            schedule=done.schedule,
            order_label=done.order_label,
            wall_seconds=wall,
        )
        result.extras.update(done.extras)
        met = self._obs_metrics
        note_verdict(result, self.analyze, verdict, done.elided)
        note_kernel(result, met, done.tallies)
        if met is not None and done.elided is not None:
            met.count("inspector_elisions", 1 if done.elided else 0)
        if done.finish is not None:
            done.finish(result)
        return result


def level_placement(loop: IrregularLoop) -> Placement:
    """The wavefront levels as barrier cuts, read off the level-major
    ``order`` and ``level_ptr`` the level walk executes."""
    from repro.graph.levels import compute_levels

    schedule = compute_levels(loop)
    cut = np.empty(schedule.n, dtype=np.int64)
    cut[schedule.order] = np.repeat(
        np.arange(schedule.n_levels, dtype=np.int64), schedule.level_sizes()
    )
    return Placement.barriers(cut, f"vectorized/levels({schedule.n_levels})")


def execution_positions(n: int, order: np.ndarray | None) -> np.ndarray:
    """``pos[i]``, iteration ``i``'s place in ``order`` (``None``:
    natural order)."""
    if order is None:
        return np.arange(n, dtype=np.int64)
    return inverse_permutation(order)


#: Why ``group_sync`` is refused under a doconsider ``order``.
NON_NATURAL_GROUP = (
    "group-synchronous elision only applies in natural order (the proven "
    "distance bound is on iteration numbers); ran the flag protocol"
)


def check_group_sync(loop: IrregularLoop, group_sync: int | None) -> None:
    """Refuse a ``group_sync`` the loop's verdict does not prove sound —
    called by :meth:`WallClockRunner.run` right after the loop check,
    before the order is validated or a thread, worker or shared-memory
    session is touched.  A group below 1 is no schedule at
    all (:class:`~repro.errors.ScheduleError`); one larger than the
    proven ``min_distance`` (or with no bound proven) would leave true
    dependences inside a group unordered
    (:class:`~repro.errors.ProofError`).  Planned runs never get here
    with such a group: :func:`~repro.passes.distance.plan_distance_elision`
    derives it from the same bound."""
    if group_sync is None:
        return
    if group_sync < 1:
        raise ScheduleError(f"group_sync must be >= 1, got {group_sync}")
    from repro.analysis import analyze_loop

    bound = analyze_loop(loop).min_distance
    if bound is None or bound < group_sync:
        raise ProofError(
            f"{loop.name}: no proven dependence-distance bound >= "
            f"{group_sync} (proven bound: {bound})"
        )


def check_repeated(
    loop: IrregularLoop, instances: int, rhs_sequence
) -> list[np.ndarray] | None:
    """The arguments of a repeated run (``run_repeated`` /
    ``run_amortized``), checked before anything runs: at least one
    instance and, when given, one right-hand side per instance, each of
    shape ``(n,)``, on an external-init loop.  Returns the right-hand
    sides as contiguous float64 arrays (``None`` stays ``None``)."""
    if instances < 1:
        raise InvalidLoopError(f"need at least one instance, got {instances}")
    if rhs_sequence is None:
        return None
    if loop.init_kind != INIT_EXTERNAL:
        raise InvalidLoopError("rhs_sequence requires an external-init loop")
    rhs_sequence = [
        np.ascontiguousarray(r, dtype=np.float64) for r in rhs_sequence
    ]
    if len(rhs_sequence) != instances:
        raise InvalidLoopError(
            f"rhs_sequence has {len(rhs_sequence)} entries for "
            f"{instances} instances"
        )
    for k, r in enumerate(rhs_sequence):
        if r.shape != (loop.n,):
            raise InvalidLoopError(
                f"rhs_sequence[{k}] has shape {r.shape}, expected ({loop.n},)"
            )
    return rhs_sequence


def resolve_verdict(
    loop: IrregularLoop, analyze: str | None
) -> DependenceVerdict | None:
    """The symbolic verdict a run under ``analyze`` consults: ``None``
    without analysis; under ``"symbolic+check"`` validated against the
    runtime inspector first (:class:`~repro.errors.ProofError` on
    divergence)."""
    if analyze is None:
        return None
    from repro.analysis import analyze_loop, cross_check

    verdict = analyze_loop(loop)
    if analyze == "symbolic+check":
        cross_check(loop, verdict, strict=True)
    return verdict


def note_verdict(
    result: RunResult,
    analyze: str | None,
    verdict: DependenceVerdict | None,
    elided: bool | None = None,
) -> None:
    """Record what the analysis concluded in ``result.extras``
    (``elided``: whether the inspector was skipped, on backends that
    have one to skip)."""
    if verdict is None:
        return
    result.extras["analyze"] = analyze
    if elided is not None:
        result.extras["inspector_elided"] = elided
    result.extras["verdict"] = verdict.kind
    if verdict.distance is not None:
        result.extras["verdict_distance"] = int(verdict.distance)


def note_kernel(result: RunResult, metrics, tallies: list[tuple]) -> None:
    """Record which body of :func:`~repro.backends.kernel.run_span` the
    run's spans executed on, from the per-thread (or per-worker)
    :func:`~repro.backends.kernel.take_tally` triples: counters
    ``kernel_spans_native`` / ``kernel_spans_python``, and — when any span
    ran at all — ``result.extras["kernel"]``: ``body`` is ``"native"`` if
    any span ran compiled, ``reason`` is why the Python-body spans (if
    any) did not."""
    native = python = 0
    reason = None
    for spans_native, spans_python, why in tallies:
        native += spans_native
        python += spans_python
        reason = reason or why
    if metrics is not None:
        metrics.count("kernel_spans_native", native)
        metrics.count("kernel_spans_python", python)
    if native or python:
        result.extras["kernel"] = {
            "body": "native" if native else "python",
            "reason": reason,
        }


def note_ignored_options(
    result: RunResult, backend: str, given: dict, **refused: str
) -> None:
    """Record run options a backend received but did not honor.

    The module contract (see the module docstring) is that unsupported
    options are *documented as ignored* rather than rejected, so callers
    can sweep one option set across backends.  That must not mean the drop
    is invisible: each option in ``given`` that is set (not ``None``) and
    that this run refused (``refused``: option -> why) or ``backend``
    never honors (its :data:`~repro.passes.spec.OPTION_REASONS` row)
    lands as a structured note in ``result.extras["ignored_options"]``,
    which :func:`~repro.core.serialize.result_to_dict` surfaces in
    ``--json`` output — the caller can always find out what was silently
    discarded.
    """
    for option, value in given.items():
        if value is None:
            continue
        reason = refused.get(option) or OPTION_REASONS.get((backend, option))
        if reason is None:
            continue
        safe = (
            value
            if isinstance(value, (bool, int, float, str))
            else repr(value)
        )
        result.extras.setdefault("ignored_options", []).append(
            {
                "backend": backend,
                "option": option,
                "value": safe,
                "reason": reason,
            }
        )


def inverse_permutation(order: np.ndarray) -> np.ndarray:
    """Positions: ``pos[order[p]] = p``.  Validates that ``order`` is a
    permutation of ``0..n-1``."""
    order = np.asarray(order, dtype=np.int64)
    n = len(order)
    pos = np.full(n, -1, dtype=np.int64)
    in_range = (order >= 0) & (order < n)
    if not in_range.all():
        raise ScheduleError("execution order contains out-of-range entries")
    pos[order] = np.arange(n, dtype=np.int64)
    if np.any(pos < 0):
        raise ScheduleError("execution order is not a permutation")
    return pos


def validate_execution_order(
    loop: IrregularLoop, order: np.ndarray
) -> np.ndarray:
    """Check that ``order`` is a legal doacross execution order for ``loop``.

    Legality (DESIGN.md §6): every *true* dependence edge must point backward
    in execution order — the writer's position precedes the reader's.
    Antidependencies impose no constraint (the ``ynew`` renaming removed
    them), which is precisely why doconsider reordering is allowed to ignore
    them.

    Returns the inverse permutation (position of each original iteration).
    Raises :class:`~repro.errors.ScheduleError` on violation — running such
    an order would deadlock the busy-wait executor.  Checked per true
    term, not per deduplicated edge: a repeated edge is simply checked
    again, which costs less than deduplicating it.
    """
    pos = inverse_permutation(order)
    readers, writers, categories = classify_reads(loop)
    true = categories == CAT_TRUE
    writers, readers = writers[true], readers[true]
    bad = np.flatnonzero(pos[writers] >= pos[readers])
    if len(bad):
        w, r = int(writers[bad[0]]), int(readers[bad[0]])
        raise ScheduleError(
            f"execution order violates true dependence {w} → {r}: "
            f"writer at position {int(pos[w])}, reader at position "
            f"{int(pos[r])}; the busy-wait executor would deadlock"
        )
    return pos


# Bound last, once this module's names exist: importing ``cache``,
# ``core`` or ``passes`` reaches the backends that subclass
# WallClockRunner.  Imported inside the methods instead, they would cost
# microseconds on every run.
from repro.backends.cache import loop_fingerprint  # noqa: E402
from repro.core.results import RunResult  # noqa: E402
from repro.core.sequential import sequential_time  # noqa: E402
from repro.machine.costs import DEFAULT_COST_MODEL, CostModel  # noqa: E402
from repro.passes.spec import ANALYZE_MODES, OPTION_REASONS  # noqa: E402
