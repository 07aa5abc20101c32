"""The unified :class:`PlanSpec`: one frozen value object for every
execution option.

The execution configuration of a run — ``backend``, ``processors``,
``analyze``, ``validate``, ``observe``, ``schedule``, ``chunk``,
``wait_timeout`` — is one immutable, hashable dataclass that
:func:`repro.core.doacross.parallelize`,
:func:`repro.backends.make_runner` and
:func:`~repro.passes.plan.plan_loop` all plan against.

An option a backend cannot honor is **rejected at plan time** with a
structured :class:`UnsupportedPlanOption` (a
:class:`~repro.errors.ScheduleError`).  The support matrix lives here
(:data:`OPTION_SUPPORT`) so "which backend honors what" is one table,
not five code paths, and so does the reason for every gap
(:data:`OPTION_REASONS`).  Options handed straight to ``Runner.run`` on
a hand-built runner bypass planning; there a wall-clock backend notes
what it ignores in ``extras["ignored_options"]`` with the same reason
the plan-time rejection gives.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from repro.errors import ScheduleError

__all__ = [
    "PlanSpec",
    "UnsupportedPlanOption",
    "OPTION_SUPPORT",
    "OPTION_REASONS",
    "BACKENDS",
    "SPEC_BACKENDS",
    "AUTO_BACKEND",
    "REORDER_KINDS",
    "ANALYZE_MODES",
    "check_options",
    "resolve_shorthand",
]

#: The concrete executors — the one list of backend names
#: (:data:`repro.backends.BACKENDS` re-exports it).
BACKENDS = ("simulated", "threaded", "vectorized", "multiproc", "speculative")

#: The tuner pseudo-backend: planning resolves it to a concrete backend
#: (:mod:`repro.passes.autotune`) before execution.
AUTO_BACKEND = "auto"

#: Backend names a :class:`PlanSpec` accepts (the concrete executors plus
#: the auto-tuned selector).
SPEC_BACKENDS = BACKENDS + (AUTO_BACKEND,)

#: Iteration-order choices for the doconsider stage.
REORDER_KINDS = ("natural", "doconsider")

#: Which tunable option each backend honors.  ``backend``, ``processors``,
#: ``analyze``, ``validate``, ``observe``, and ``reorder`` are universal
#: (every backend accepts them, though ``analyze`` is planning-level on
#: the simulated backend, and the speculative backend, which commits in
#: natural chunk order, runs ``reorder="doconsider"`` in natural order
#: and notes ``order`` in ``extras["ignored_options"]``); this matrix
#: covers the executor options whose
#: support genuinely differs.  An option set on a :class:`PlanSpec` but
#: absent from its backend's row raises :class:`UnsupportedPlanOption` at
#: plan time.
OPTION_SUPPORT: dict[str, frozenset[str]] = {
    "simulated": frozenset({"schedule", "chunk", "sanitize"}),
    "threaded": frozenset({"wait_timeout", "sanitize"}),
    "vectorized": frozenset({"sanitize"}),
    "multiproc": frozenset({"chunk", "wait_timeout", "sanitize"}),
    "speculative": frozenset({"chunk", "sanitize"}),
    # The tuner picks among the real backends; options it cannot
    # guarantee on every candidate are rejected up front.
    "auto": frozenset({"chunk", "wait_timeout"}),
}

_CYCLIC = (
    "the threaded backend always distributes iterations cyclically "
    "(deadlock-freedom precondition, DESIGN.md §6)"
)
_WAVEFRONT = (
    "the vectorized backend has no per-processor schedules; its "
    "execution order is the wavefront decomposition itself"
)
_NO_TIMELINE = (
    "a wall-clock backend records no simulated timeline; use observe=True "
    "for wall-clock spans"
)


#: Why a backend does not honor an option, for both failure modes:
#: :func:`check_options` rejects a :class:`PlanSpec` option with it, and
#: a wall-clock backend notes a run option it ignores with it
#: (``order``, ``trace`` and ``group_sync`` are run options only).
OPTION_REASONS: dict[tuple[str, str], str] = {
    ("simulated", "wait_timeout"): (
        "simulated busy-waits are bounded by the event engine's deadlock "
        "detector, not a wall-clock timeout"
    ),
    ("threaded", "schedule"): _CYCLIC,
    ("threaded", "chunk"): _CYCLIC,
    ("threaded", "trace"): _NO_TIMELINE,
    ("vectorized", "schedule"): _WAVEFRONT,
    ("vectorized", "chunk"): _WAVEFRONT,
    ("vectorized", "trace"): _NO_TIMELINE,
    ("vectorized", "wait_timeout"): "the level walk never busy-waits",
    ("multiproc", "schedule"): (
        "the multiproc backend always assigns contiguous chunks "
        "round-robin (deadlock-freedom precondition); use chunk= to size "
        "the strips"
    ),
    ("multiproc", "trace"): _NO_TIMELINE,
    ("speculative", "schedule"): (
        "the speculative backend always executes contiguous chunks and "
        "commits them in natural chunk order; use chunk= to size them"
    ),
    ("speculative", "order"): (
        "speculative commits happen in natural chunk order; any valid "
        "execution order yields the identical result"
    ),
    ("speculative", "group_sync"): (
        "speculative chunks are ordered by their commits, not by group "
        "barriers; the group size was checked and not used"
    ),
    ("speculative", "trace"): _NO_TIMELINE,
    ("speculative", "wait_timeout"): (
        "speculative execution never busy-waits: conflicts are detected "
        "after the fact and bounded by the retry budget, not a timeout"
    ),
    ("auto", "schedule"): (
        "the auto-tuner selects among backends that pick their own "
        "iteration schedules"
    ),
    ("auto", "sanitize"): (
        "the sanitizer's shadow logging inflates the wall time the tuner "
        "trains on; sanitize against a concrete backend instead"
    ),
}

#: Accepted values for the ``analyze`` option (here and on every runner
#: constructor).
ANALYZE_MODES = (None, "symbolic", "symbolic+check")
_VALIDATE_MODES = (None, "static", "sanitize")


class UnsupportedPlanOption(ScheduleError):
    """A :class:`PlanSpec` option its backend cannot honor.

    Raised at plan time — before any execution.  Structured so tooling
    can react without parsing the message.

    Attributes
    ----------
    backend:
        The backend the option was checked against.
    option:
        The :class:`PlanSpec` field name.
    value:
        The offending value.
    reason:
        Why the backend cannot honor it.
    """

    def __init__(self, backend: str, option: str, value, reason: str):
        self.backend = backend
        self.option = option
        self.value = value
        self.reason = reason
        super().__init__(
            f"backend {backend!r} does not support {option}={value!r}: "
            f"{reason}"
        )

    def as_dict(self) -> dict:
        """JSON-safe structured form (same layout as an
        ``extras["ignored_options"]`` note)."""
        value = self.value
        if not isinstance(value, (bool, int, float, str, type(None))):
            value = repr(value)
        return {
            "backend": self.backend,
            "option": self.option,
            "value": value,
            "reason": self.reason,
        }


@dataclass(frozen=True)
class PlanSpec:
    """Immutable description of *how* a loop should be executed.

    The one carrier of run options for ``parallelize()`` /
    ``make_runner()``; being frozen and hashable it can key caches and be
    attached to results verbatim.

    Parameters
    ----------
    backend:
        One of :data:`SPEC_BACKENDS` — a concrete executor or ``"auto"``
        (the wall-time tuner picks one per structural fingerprint).
    processors:
        Simulated processors / thread count / worker count (backend
        dependent; the vectorized backend's parallelism is the wavefront
        width and ignores it by long-standing contract).
    schedule:
        Executor iteration schedule kind (simulated backend only).
    chunk:
        Iteration chunk size (simulated schedules and multiproc §2.3
        strips).
    reorder:
        ``"natural"`` (default) or ``"doconsider"`` — run in the §3.2
        wavefront order the plan's level schedule gives.
    analyze:
        ``None`` / ``"symbolic"`` / ``"symbolic+check"`` — the symbolic
        dependence engine (see :mod:`repro.analysis`).
    validate:
        ``None`` / ``"static"`` / ``"sanitize"``.  ``"static"`` lint +
        happens-before race checks the backend's schedule *before*
        execution; ``"sanitize"`` shadow-logs the actual memory accesses
        and synchronization events *during* execution and replays them
        against the loop's true dependences with vector clocks
        (:mod:`repro.sanitize`), raising
        :class:`~repro.errors.SanitizerError` on any read not covered by
        a witnessed happens-before edge.
    observe:
        Attach a :class:`~repro.obs.telemetry.Telemetry` blob to the
        result (the perf doctor, :func:`repro.obs.doctor.diagnose_result`,
        reads it).  An ``"auto"`` run is observed only when asked: the
        tuner trains on wall time alone.
    wait_timeout:
        Ceiling in seconds on any single blocking busy-wait: the timeout
        rung of the :class:`~repro.backends.waitladder.WaitLadder` the
        threaded and multiproc lanes wait with.

    Malformed values raise :class:`~repro.errors.ScheduleError` at
    construction; *well-formed but unsupported-for-the-backend* values
    raise :class:`UnsupportedPlanOption` at plan time
    (:func:`check_options`), so a spec for backend A can be rebased onto
    backend B with :func:`dataclasses.replace` and re-checked.
    """

    backend: str = "simulated"
    processors: int = 16
    schedule: str | None = None
    chunk: int | None = None
    reorder: str = "natural"
    analyze: str | None = None
    validate: str | None = None
    observe: bool = False
    wait_timeout: float | None = None

    def __post_init__(self) -> None:
        if self.backend not in SPEC_BACKENDS:
            raise ScheduleError(
                f"unknown backend {self.backend!r}; expected one of "
                f"{', '.join(SPEC_BACKENDS)}"
            )
        if self.processors < 1:
            raise ScheduleError(
                f"processors must be >= 1, got {self.processors}"
            )
        if self.chunk is not None and self.chunk < 1:
            raise ScheduleError(f"chunk must be >= 1, got {self.chunk}")
        if self.schedule is not None:
            from repro.machine.scheduler import SCHEDULE_KINDS

            if self.schedule not in SCHEDULE_KINDS:
                raise ScheduleError(
                    f"unknown schedule kind {self.schedule!r}; expected one "
                    f"of {'/'.join(SCHEDULE_KINDS)}"
                )
        if self.reorder not in REORDER_KINDS:
            raise ScheduleError(
                f"unknown reorder kind {self.reorder!r}; expected one of "
                f"{'/'.join(REORDER_KINDS)}"
            )
        if self.analyze not in ANALYZE_MODES:
            raise ScheduleError(
                f"unknown analyze mode {self.analyze!r}; expected one of "
                f"{ANALYZE_MODES}"
            )
        if self.validate not in _VALIDATE_MODES:
            raise ScheduleError(
                f"unknown validate mode {self.validate!r}; expected "
                f"'static', 'sanitize', or None"
            )
        if self.wait_timeout is not None and self.wait_timeout <= 0:
            raise ScheduleError(
                f"wait_timeout must be > 0, got {self.wait_timeout}"
            )

    # ------------------------------------------------------------------
    def tunable_options(self) -> dict[str, object]:
        """The executor options that are actually *set* (non-default) and
        therefore subject to the backend support matrix."""
        out: dict[str, object] = {}
        if self.schedule is not None:
            out["schedule"] = self.schedule
        if self.chunk is not None:
            out["chunk"] = self.chunk
        if self.wait_timeout is not None:
            out["wait_timeout"] = self.wait_timeout
        if self.validate == "sanitize":
            # Dynamic sanitizing needs backend cooperation (shadow-log
            # instrumentation), so unlike the static modes it goes
            # through the support matrix.
            out["sanitize"] = True
        return out

    def as_dict(self) -> dict:
        """JSON-safe flat form (attached to results)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


def resolve_shorthand(
    what: str,
    spec: PlanSpec | None,
    backend: str | None,
    processors: int | None,
) -> PlanSpec:
    """The spec an entry point (``what``) runs under: ``spec`` itself, or
    ``PlanSpec(backend, processors)`` spelled with the two shorthand
    keywords — never a mix of both."""
    if spec is None:
        return PlanSpec(
            backend="simulated" if backend is None else backend,
            processors=16 if processors is None else processors,
        )
    if backend is not None or processors is not None:
        raise TypeError(
            f"{what}(spec=...) cannot be combined with the backend/"
            f"processors shorthand; set them on the PlanSpec"
        )
    return spec


def check_options(spec: PlanSpec, backend: str | None = None) -> None:
    """Raise :class:`UnsupportedPlanOption` for the first option ``spec``
    sets that ``backend`` (default: ``spec.backend``) cannot honor.

    The plan-time counterpart of
    :func:`repro.backends.base.note_ignored_options` (what a hand-built
    runner does with an option handed straight to ``run``): the same
    :data:`OPTION_REASONS` row, opposite failure mode — loud and early
    instead of noted and late.
    """
    target = spec.backend if backend is None else backend
    supported = OPTION_SUPPORT.get(target)
    if supported is None:
        raise ScheduleError(
            f"unknown backend {target!r}; expected one of "
            f"{', '.join(SPEC_BACKENDS)}"
        )
    for option, value in spec.tunable_options().items():
        if option not in supported:
            reason = OPTION_REASONS.get(
                (target, option),
                f"the {target} backend has no {option} knob",
            )
            raise UnsupportedPlanOption(target, option, value, reason)
