"""Exception hierarchy for the repro package.

Every error raised by this package derives from :class:`ReproError`, so
callers can catch the package's failures with a single ``except`` clause
while still distinguishing the individual failure modes.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "SimulationDeadlockError",
    "InvalidLoopError",
    "OutputDependenceError",
    "ScheduleError",
    "RaceConditionError",
    "SanitizerError",
    "MatrixFormatError",
    "SingularMatrixError",
    "CalibrationError",
    "TelemetryError",
    "ProofError",
    "WaitTimeout",
]


class ReproError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class SimulationDeadlockError(ReproError):
    """The discrete-event engine found processors waiting on flags that no
    remaining task will ever set.

    Attributes
    ----------
    waiters:
        Mapping of processor id to the flag index it is blocked on.
    time:
        Simulated time (cycles) at which the deadlock was detected.
    """

    def __init__(self, waiters: dict[int, int], time: int):
        self.waiters = dict(waiters)
        self.time = time
        detail = ", ".join(f"p{p}→flag {f}" for p, f in sorted(waiters.items()))
        super().__init__(
            f"simulation deadlock at t={time}: {len(waiters)} processor(s) "
            f"blocked on flags that will never be set ({detail})"
        )


class InvalidLoopError(ReproError):
    """A loop description is malformed (bad sizes, out-of-range subscripts)."""


class OutputDependenceError(InvalidLoopError):
    """The loop's write subscript is not injective.

    The preprocessed doacross (paper §2.1) assumes no output dependencies
    between left-hand-side references: no two iterations may write the same
    element.  This error reports the first colliding pair found.
    """

    def __init__(self, index: int, first_writer: int, second_writer: int):
        self.index = int(index)
        self.first_writer = int(first_writer)
        self.second_writer = int(second_writer)
        super().__init__(
            f"output dependence: iterations {first_writer} and {second_writer} "
            f"both write element {index}; the preprocessed doacross requires an "
            f"injective write subscript"
        )


class ScheduleError(ReproError):
    """An iteration schedule is inconsistent (bad chunking, empty claim)."""


class RaceConditionError(ScheduleError):
    """Static validation found a true dependence the schedule fails to
    order (``validate="static"`` on :func:`~repro.core.doacross.parallelize`
    or :func:`~repro.backends.make_runner`).

    Attributes
    ----------
    report:
        The :class:`~repro.lint.hb.RaceReport` listing uncovered edges.
    """

    def __init__(self, report):
        self.report = report
        super().__init__(report.summary())


class SanitizerError(ScheduleError):
    """The execution sanitizer (``validate="sanitize"``) witnessed a run
    whose shadow-access log violates the §2.2 post/wait protocol.

    Where :class:`RaceConditionError` reports a *planned* order the static
    happens-before checker cannot cover, this error reports an *actual*
    execution in which a read of a renamed value was not ordered after its
    write by any witnessed post/wait (or barrier) edge — or in which a
    wait was acquired that no post ever satisfied.

    Attributes
    ----------
    report:
        The :class:`~repro.sanitize.detector.SanitizeReport` whose
        violations name the iterations, the element, the lanes involved,
        and the missing synchronization edge.
    """

    def __init__(self, report):
        self.report = report
        super().__init__(report.summary())


class MatrixFormatError(ReproError):
    """A sparse matrix is structurally invalid for the requested operation."""


class SingularMatrixError(MatrixFormatError):
    """A triangular factor has a zero (or missing) diagonal entry."""

    def __init__(self, row: int):
        self.row = int(row)
        super().__init__(f"zero or missing diagonal entry in row {row}")


class CalibrationError(ReproError):
    """A cost model's constants are inconsistent (negative costs, etc.)."""


class TelemetryError(ReproError):
    """A telemetry blob violates the serialized schema
    (:func:`repro.obs.telemetry.validate_telemetry`)."""


class WaitTimeout(ReproError):
    """A busy-wait on a ``ready`` flag exhausted its spin/sleep/timeout
    ladder (:class:`repro.backends.waitladder.WaitLadder`).

    The Figure-5 executor busy-waits on flags that a *correct* schedule
    always sets; an exhausted ladder therefore means the schedule (or the
    ``iter`` array behind it) is corrupted — a cyclic order, a stale
    inspector entry, a dead worker.  Raising instead of spinning forever is
    the real-concurrency analogue of
    :class:`SimulationDeadlockError`.

    Constructed with a plain message (kept picklable: the multiprocessing
    backend ships this exception across a process boundary).
    """

    def __init__(self, message: str, element: int | None = None,
                 waited_seconds: float | None = None):
        self.element = element
        self.waited_seconds = waited_seconds
        super().__init__(message)

    def __reduce__(self):
        return (
            type(self),
            (self.args[0], self.element, self.waited_seconds),
        )


class ProofError(ReproError):
    """A symbolic dependence proof failed verification: a side condition
    no longer evaluates true, declared read slots do not match the loop's
    materialized read table, or the debug cross-check found the runtime
    inspector disagreeing with the verdict
    (:mod:`repro.analysis.checker`)."""
