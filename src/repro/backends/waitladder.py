"""Bounded busy-waiting: the spin/sleep/timeout ladder.

The paper's executor (Figure 5) busy-waits on per-element ``ready`` flags.
On the simulated machine a wait that can never be satisfied is detected by
the event engine (:class:`~repro.errors.SimulationDeadlockError`); on real
concurrency an unbounded spin would simply hang the process.  The
:class:`WaitLadder` is the real-concurrency analogue of that detector: a
three-rung waiting strategy that keeps the common case cheap and turns the
impossible case into a diagnosable :class:`~repro.errors.WaitTimeout`.

The rungs, in order:

1. **spin** — ``spin`` polls with no clock reads and no syscalls.  Flags
   set by a producer that is only an iteration or two ahead are almost
   always caught here, at nanosecond cost.
2. **sleep** — exponentially escalating ``time.sleep`` from
   ``sleep_initial`` up to ``sleep_max``.  This is what makes the ladder
   viable on *oversubscribed* machines (more workers than cores): a
   spinning reader would burn the very timeslice its writer needs, so the
   ladder yields the CPU instead, with a bounded worst-case latency of
   ``sleep_max`` per poll.
3. **timeout** — after ``timeout`` seconds of sleeping the wait is
   declared dead and :class:`~repro.errors.WaitTimeout` is raised.  A
   correct schedule sets every flag the executor waits on (deadlock
   freedom, DESIGN.md §6), so reaching this rung means the schedule or the
   ``iter`` array behind it is corrupted — the ladder converts a silent
   hang into an exception naming the element.

The ladder is a frozen value object: construct once, share freely across
threads and ship it to worker processes (it is trivially picklable).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

from repro.errors import WaitTimeout

__all__ = ["WaitLadder", "DEFAULT_LADDER"]


@dataclass(frozen=True)
class WaitLadder:
    """Spin/sleep/timeout parameters for one bounded busy-wait.

    Parameters
    ----------
    spin:
        Number of syscall-free polls before the first sleep (rung 1).
    sleep_initial:
        First sleep duration in seconds; doubled per poll (rung 2).
    sleep_max:
        Ceiling on the escalating sleep.
    timeout:
        Total time budget in seconds for the sleep rung; exceeding it
        raises :class:`~repro.errors.WaitTimeout` (rung 3).

    The defaults serve both lane transports.  A polling thread holds the
    GIL its writer needs, so a long spin only delays the post it waits
    for: ten polls catch a flag set at the last GIL hand-off.  The sleep
    exists to hand the GIL (or, for a worker process, the core) over, and
    any ``time.sleep`` took about 60 us where this was measured, so 1 us
    means "the shortest the timer allows".  On two vCPUs, against 100
    polls and 50 us, these took the threaded ``fig4_chain`` and
    ``trisolve_5pt`` call sequences from 585 to 297 and from 1,344 to
    724 ms; on two worker processes the two ladders were within noise of
    each other on both (medians 38.5 / 39.3 and 53.7 / 53.5 ms, 40
    alternating pairs; EXPERIMENTS.md).
    """

    spin: int = 10
    sleep_initial: float = 1e-6
    sleep_max: float = 1e-3
    timeout: float = 30.0

    def __post_init__(self) -> None:
        if self.spin < 0:
            raise ValueError(f"spin must be >= 0, got {self.spin}")
        if self.sleep_initial <= 0:
            raise ValueError(
                f"sleep_initial must be > 0, got {self.sleep_initial}"
            )
        if self.sleep_max < self.sleep_initial:
            raise ValueError(
                f"sleep_max ({self.sleep_max}) must be >= sleep_initial "
                f"({self.sleep_initial})"
            )
        if self.timeout <= 0:
            raise ValueError(f"timeout must be > 0, got {self.timeout}")

    def wait(
        self,
        is_ready: Callable[[], bool],
        element: int | None = None,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
    ) -> float:
        """Wait until ``is_ready()`` is truthy; return seconds spent asleep.

        ``clock`` and ``sleep`` are injectable for deterministic unit
        tests.  The spin rung performs no clock reads, so an immediately
        satisfied wait costs one predicate call and nothing else.
        Raises :class:`~repro.errors.WaitTimeout` (with ``element`` and the
        waited duration attached) when the timeout rung is reached.
        """
        for _ in range(self.spin + 1):
            if is_ready():
                return 0.0
        start = clock()
        deadline = start + self.timeout
        delay = self.sleep_initial
        while True:
            sleep(delay)
            if is_ready():
                return clock() - start
            now = clock()
            if now >= deadline:
                waited = now - start
                where = "" if element is None else f" on element {element}"
                raise WaitTimeout(
                    f"busy-wait{where} exceeded {self.timeout:g}s; the "
                    f"schedule (or its iter array) is corrupted — a correct "
                    f"doacross schedule sets every awaited ready flag",
                    element=element,
                    waited_seconds=waited,
                )
            delay = min(delay * 2, self.sleep_max)


#: Shared default instance (the ladder is immutable).
DEFAULT_LADDER = WaitLadder()
