"""Shared backend infrastructure: the :class:`Runner` protocol and order
validation helpers.

Every execution backend (:data:`~repro.passes.spec.BACKENDS`) implements
the same small surface::

    runner.run(loop, *, order=None, schedule=None, chunk=None, trace=False)
        -> RunResult

so strategy-level code (:func:`~repro.passes.execute.execute_plan`, the
benchmarks) can swap backends without caring whether time is simulated
cycles or measured wall clock.  Planned runs never hand a backend an option
it cannot honor (:data:`~repro.passes.spec.OPTION_SUPPORT` rejects it at
plan time); handed one directly (e.g. ``schedule`` on the vectorized
backend, which has no per-processor schedules), a backend notes it as
ignored rather than rejecting it, so callers can sweep hand-built runners
with one option set.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import InvalidLoopError, ProofError, ScheduleError
from repro.ir.analysis import CAT_TRUE, classify_reads
from repro.ir.loop import INIT_EXTERNAL, IrregularLoop

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.analysis.verdicts import DependenceVerdict
    from repro.core.results import RunResult
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.spans import SpanRecorder
    from repro.sanitize.shadow import ShadowCapture

__all__ = [
    "NON_NATURAL_GROUP",
    "Runner",
    "check_analyze_mode",
    "check_group_sync",
    "check_repeated",
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

    Two backend-specific options carry plan decisions from
    :func:`~repro.passes.execute.execute_plan`: the simulated backend
    takes ``transform`` (the :class:`~repro.ir.transform.TransformPlan`
    whose strategy it dispatches on), and the threaded, multiproc and
    vectorized backends take ``group_sync`` (the synchronization group
    size :func:`~repro.passes.distance.plan_distance_elision` proved
    sound).
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

    def schedule_model(self, loop: IrregularLoop, **options) -> dict:
        """Keyword arguments for
        :func:`~repro.lint.hb.check_backend_schedule` describing the
        schedule ``run(loop, **options)`` is about to execute — resolved
        by the backend's own rules (default chunk, group alignment), so
        ``validate="static"`` checks what runs.  Default: the wavefront
        level model, the weakest order every wavefront-respecting backend
        refines."""
        return {"backend": "vectorized"}


#: Why ``group_sync`` is refused under a doconsider ``order``.
NON_NATURAL_GROUP = (
    "group-synchronous elision only applies in natural order (the proven "
    "distance bound is on iteration numbers); ran the flag protocol"
)


def check_group_sync(loop: IrregularLoop, group_sync: int | None) -> None:
    """Refuse a ``group_sync`` the loop's verdict does not prove sound —
    called first thing in ``run``, before a thread, worker or
    shared-memory session is touched.  A group below 1 is no schedule at
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


def check_analyze_mode(analyze: str | None) -> str | None:
    """``analyze`` if it is a known mode (a runner-constructor check)."""
    from repro.passes.spec import ANALYZE_MODES

    if analyze not in ANALYZE_MODES:
        raise ValueError(
            f"unknown analyze mode {analyze!r}; expected one of "
            f"{ANALYZE_MODES}"
        )
    return analyze


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
    native = sum(t[0] for t in tallies)
    python = sum(t[1] for t in tallies)
    if metrics is not None:
        metrics.count("kernel_spans_native", native)
        metrics.count("kernel_spans_python", python)
    if native or python:
        result.extras["kernel"] = {
            "body": "native" if native else "python",
            "reason": next((t[2] for t in tallies if t[2]), None),
        }


def note_ignored_options(
    result: RunResult, backend: str, **ignored: tuple
) -> None:
    """Record run options a backend received but cannot honor.

    The module contract (see the module docstring) is that unsupported
    options are *documented as ignored* rather than rejected, so callers
    can sweep one option set across backends.  That must not mean the drop
    is invisible: each ``option=(value, reason)`` pair lands as a
    structured note in ``result.extras["ignored_options"]``, which
    :func:`~repro.core.serialize.result_to_dict` surfaces in ``--json``
    output — the caller can always find out what was silently discarded.

    Callers pass only options that were actually set to a non-default
    value; this helper never second-guesses defaults.
    """
    if not ignored:
        return
    notes = result.extras.setdefault("ignored_options", [])
    for option, (value, reason) in ignored.items():
        safe = (
            value
            if value is None or isinstance(value, (bool, int, float, str))
            else repr(value)
        )
        notes.append(
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
