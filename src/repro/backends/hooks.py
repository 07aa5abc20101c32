"""Run hooks: the optional steps around a backend run, as an ordered list.

``validate="static"``, ``validate="sanitize"`` and ``observe=True`` each
add one :class:`RunHook` to a run.  A hook is constructed just before the
backend runs (its *before* step), gets :meth:`~RunHook.after` with the
finished result, or :meth:`~RunHook.timed_out` if the run died in a
busy-wait.  :func:`hooks_for` fixes the order — static-validate →
sanitize → observe, for the before steps and the after steps alike — so
the static check can refuse a run before anything is attached to the
backend, and the sanitizer's counters are in the metrics registry by the
time the observer freezes it into ``result.telemetry``.

:class:`HookedRunner` is the one wrapper that runs them: ``.inner`` *is*
the executing backend, however many hooks are on the list.
"""

from __future__ import annotations

import time

from repro.backends.base import Runner
from repro.errors import RaceConditionError, SanitizerError, WaitTimeout
from repro.ir.loop import IrregularLoop

__all__ = [
    "RunHook",
    "StaticValidate",
    "Sanitize",
    "Observe",
    "HookedRunner",
    "hooks_for",
]


class RunHook:
    """One optional step around a single ``backend.run(loop, **options)``.

    ``options`` is the keyword dict the backend is about to receive; a
    hook may edit it (the observer asks the simulator for a trace).
    """

    def __init__(self, backend: Runner, loop: IrregularLoop, options: dict):
        self.backend = backend
        self.loop = loop

    def after(self, result) -> None:
        """The run finished; annotate (or reject) ``result``."""

    def timed_out(self, exc: WaitTimeout) -> None:
        """The run died in a busy-wait; ``exc`` propagates afterwards."""


class StaticValidate(RunHook):
    """``validate="static"``: lint the loop with every registered rule,
    as ``python -m repro lint`` does, and race-check the backend's
    schedule *before* it runs.  A true dependence the schedule does not
    order aborts with :class:`~repro.errors.RaceConditionError`; otherwise
    the findings ride along in ``extras["lint"]`` / ``extras["race_check"]``.
    """

    def __init__(self, backend, loop, options):
        super().__init__(backend, loop, options)
        from repro.lint.context import LintContext
        from repro.lint.driver import run_rules
        from repro.lint.hb import check_dependence_coverage

        # The backend resolves its own defaults (chunk, group alignment),
        # so the check sees the placement that is about to run.
        placement = backend.schedule_model(loop, **options)
        schedule = options.get("schedule")
        lanes = placement.lane
        ctx = LintContext(
            loop,
            plan=options.get("transform"),
            schedule_kind=schedule if isinstance(schedule, str) else None,
            chunk=options.get("chunk") or placement.chunk,
            processors=16 if lanes is None else int(lanes.max(initial=0)) + 1,
        )
        self.diagnostics = run_rules(ctx)
        # One read classification serves the rules and the race check.
        self.report = check_dependence_coverage(
            loop, placement, classified=ctx.classified
        )
        if not self.report.passed:
            raise RaceConditionError(self.report)

    def after(self, result) -> None:
        result.extras["lint"] = [d.as_dict() for d in self.diagnostics]
        result.extras["race_check"] = self.report.as_dict()


class Sanitize(RunHook):
    """``validate="sanitize"``: the backend shadow-logs the accesses and
    synchronization events it actually performs into a
    :class:`~repro.sanitize.shadow.ShadowCapture`; afterwards
    :func:`~repro.sanitize.detector.detect` replays the logs.  A witnessed
    violation raises :class:`~repro.errors.SanitizerError`; a clean report
    rides in ``extras["sanitize"]``.
    """

    def __init__(self, backend, loop, options):
        super().__init__(backend, loop, options)
        from repro.sanitize.shadow import ShadowCapture

        self.capture = backend._san_capture = ShadowCapture()
        self.capture.meta["backend"] = backend.name

    def _detect(self, partial: bool = False):
        from repro.sanitize.detector import detect

        report = detect(self.capture, self.loop, partial=partial)
        metrics = self.backend._obs_metrics
        if metrics is not None:
            metrics.count("sanitize_events", report.events)
            metrics.count("sanitize_lanes", report.lanes)
            metrics.count("sanitize_pairs_checked", report.pairs_checked)
            metrics.count("sanitize_violations", report.total_violations)
        return report

    def after(self, result) -> None:
        report = self._detect()
        result.extras["sanitize"] = report.as_dict()
        if not report.ok:
            raise SanitizerError(report)

    def timed_out(self, exc: WaitTimeout) -> None:
        # Check whatever was logged before the stall.  A violation
        # explains the hang far better than the raw timeout does; if the
        # partial logs are clean (e.g. the stall is in an uninstrumented
        # region) the timeout itself is still the best report.
        report = self._detect(partial=True)
        if not report.ok:
            raise SanitizerError(report) from exc


class Observe(RunHook):
    """``observe=True``: ``result.telemetry`` on every run.

    Every backend gets a :class:`~repro.obs.metrics.MetricsRegistry`
    attached for its own counters; wall-clock backends also get a
    :class:`~repro.obs.spans.SpanRecorder` and emit spans at their
    phase/level boundaries.  The simulated machine already accounts
    every cycle, so there the spans and cycle counters are synthesized
    from the result into the same registry
    (:func:`~repro.obs.instrument.telemetry_from_result`); an executor
    trace is always collected — observation *is* the request for a
    timeline — but ``extras["trace"]`` is only left behind when the caller
    asked for ``trace=True`` themselves.
    """

    def __init__(self, backend, loop, options):
        super().__init__(backend, loop, options)
        from repro.obs.metrics import MetricsRegistry
        from repro.obs.spans import SpanRecorder

        self.metrics = backend._obs_metrics = MetricsRegistry()
        self.simulated = backend.name == "simulated"
        if self.simulated:
            self.keep_trace = options.get("trace", False)
            options["trace"] = True
            return
        self.recorder = backend._obs_recorder = SpanRecorder()
        self.t0 = time.perf_counter()

    def after(self, result) -> None:
        from repro.obs.instrument import telemetry_from_result
        from repro.obs.spans import CAT_RUN, WHOLE_RUN_LANE
        from repro.obs.telemetry import CLOCK_WALL, Telemetry

        if self.simulated:
            result.telemetry = telemetry_from_result(result, self.metrics)
            if not self.keep_trace:
                result.extras.pop("trace", None)
            return
        name = self.backend.name
        self.recorder.record(
            "run",
            CAT_RUN,
            self.t0,
            time.perf_counter(),
            lane=WHOLE_RUN_LANE,
            backend=name,
        )
        self.metrics.gauge("processors", result.processors)
        self.metrics.count("runs", 1)
        result.telemetry = Telemetry(
            backend=name,
            clock=CLOCK_WALL,
            spans=self.recorder.normalized(),
            metrics=self.metrics,
        )


def hooks_for(spec) -> tuple[type[RunHook], ...]:
    """The hook list a :class:`~repro.passes.spec.PlanSpec` asks for, in
    the one fixed order."""
    wanted = (
        (spec.validate == "static", StaticValidate),
        (spec.validate == "sanitize", Sanitize),
        (spec.observe, Observe),
    )
    return tuple(hook for on, hook in wanted if on)


class HookedRunner(Runner):
    """Run ``inner`` with ``hooks`` around every :meth:`run`.

    The hook slots on the backend (``_san_capture``, ``_obs_recorder``,
    ``_obs_metrics``) are cleared however the run ends, so a failed run
    leaves the backend bare.
    """

    def __init__(self, inner: Runner, hooks):
        self.inner = inner
        self.hooks = tuple(hooks)
        self.name = inner.name

    def run(self, loop: IrregularLoop, **options):
        backend = self.inner
        try:
            active = [hook(backend, loop, options) for hook in self.hooks]
            try:
                result = backend.run(loop, **options)
            except WaitTimeout as exc:
                for hook in active:
                    hook.timed_out(exc)
                raise
            for hook in active:
                hook.after(result)
        finally:
            backend._san_capture = None
            backend._obs_recorder = backend._obs_metrics = None
        return result
