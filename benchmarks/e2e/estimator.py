"""The bracketed, oracle-relative estimator.

Raw seconds on a small shared box drift by tens of percent between
back-to-back runs, so a gated value is never seconds: each timed cell is
bracketed ``ref, cell, ref, cell, ref ...`` by the reference interpreter
on the same inputs, a sample is ``cell / mean(ref_before, ref_after)``,
and it is kept only when the two brackets agree within
:data:`BRACKET_TOLERANCE`.  The reported value is the median of the kept
samples; the raw median seconds travel beside it so every ratio has its
base.
"""

from __future__ import annotations

import gc
import os
import statistics
import time
from dataclasses import dataclass, field

from benchmarks.e2e.reference import Tally, reference_run

#: Largest disagreement of the two brackets, as a share of their mean,
#: for which a sample is kept.
BRACKET_TOLERANCE = 0.10

#: Reference passes are repeated within one bracket until this much time
#: is spent on them.
BRACKET_SECONDS = 0.03

#: A pinned process changes core when a bracket is this much slower than
#: the fastest one of the run.
HOP_FACTOR = 1.15


def timed(fn):
    """``(seconds, result)`` of one call, with the collector run before
    and switched off inside."""
    gc.collect()
    gc.disable()
    try:
        t0 = time.perf_counter()
        result = fn()
        return time.perf_counter() - t0, result
    finally:
        gc.enable()


@dataclass
class Samples:
    ratios: list[float] = field(default_factory=list)  # kept, x ref
    loose: list[float] = field(default_factory=list)  # bracket rejected, x ref
    seconds: list[float] = field(default_factory=list)  # every correct sample

    def value(self) -> float:
        """Median kept ratio.  Falls back on the rejected samples when the
        box was too noisy to keep any (``bench.bracket_reject_share`` says
        so), and is 0.0 when the cell never produced a correct sample (the
        run is then reported incorrect anyway)."""
        ratios = self.ratios or self.loose
        return statistics.median(ratios) if ratios else 0.0

    def median_seconds(self) -> float:
        return statistics.median(self.seconds) if self.seconds else 0.0

    def quartiles(self) -> tuple[float, float]:
        if len(self.ratios) < 2:
            v = self.value()
            return v, v
        q = statistics.quantiles(self.ratios, n=4)
        return q[0], q[2]


class Estimator:
    """Times cells against the reference on one call sequence.

    The box's cores are slowed independently of each other, for seconds
    at a time, and the scheduler moves a free process between them.  So
    single-threaded cells are measured *pinned*: the process sits on one
    core for bracket, cell and bracket, and hops to the next core when a
    bracket says the current one has become slow.  Cells that start
    workers are measured unpinned, as a user would run them.
    """

    def __init__(self, built, tally: Tally):
        self._calls = built.calls
        self._expected = built.expected
        self.tally = tally
        self.cells: dict[str, Samples] = {}
        self.ref_seconds: list[float] = []
        self.brackets = 0
        self.rejected = 0
        self._last_ref: float | None = None
        affinity = getattr(os, "sched_getaffinity", None)
        self._cpus = sorted(affinity(0)) if affinity else []
        self._core: int | None = None  # index into _cpus while pinned

    def pin(self, on: bool) -> None:
        """Pin the process to one core (``on``) or give it back all the
        cores it started with.  A bracket taken under the other setting
        does not carry over."""
        if len(self._cpus) < 2 or on == (self._core is not None):
            return
        self._core = 0 if on else None
        os.sched_setaffinity(0, {self._cpus[0]} if on else self._cpus)
        self._last_ref = None

    def _fresh_bracket(self) -> float:
        """A bracket to start a sample with.  Pinned, and slower than
        :data:`HOP_FACTOR` times the fastest bracket so far: this core has
        been slowed, so hop to the next and take the bracket again."""
        before = self._last_ref if self._last_ref is not None else self._ref()
        if self._core is not None and before > HOP_FACTOR * min(self.ref_seconds):
            self._core = (self._core + 1) % len(self._cpus)
            os.sched_setaffinity(0, {self._cpus[self._core]})
            before = self._ref()
        return before

    def _ref(self) -> float:
        """One bracket: the fastest of as many reference passes as fit in
        :data:`BRACKET_SECONDS` (always at least one), so that a short
        reference is not at the mercy of a single preemption."""
        def passes():
            best, spent = float("inf"), 0.0
            while spent < BRACKET_SECONDS:
                t0 = time.perf_counter()
                for loop in self._calls:
                    reference_run(loop)
                seconds = time.perf_counter() - t0
                best = min(best, seconds)
                spent += seconds
            return best

        _, best = timed(passes)
        self.ref_seconds.append(best)
        return best

    def sample(self, name: str, fn, accept=None) -> object:
        """Time ``fn`` between two reference timings, check what it
        returned, and file the sample under ``name``.

        By default ``fn`` returns ``(outputs, extra)`` — one ``y`` per call
        of the sequence, plus anything the caller wants back — and the
        outputs must be bitwise the reference's; ``accept(result)`` replaces
        that check for cells that are not loop executions.  Returns
        ``extra`` (or the accepted result), ``None`` if the operation
        failed."""
        before = self._fresh_bracket()
        try:
            seconds, result = timed(fn)
        except Exception as exc:  # boundary: a failed operation is a count
            self.tally.raised(name, exc)
            self._last_ref = None
            return None
        after = self._last_ref = self._ref()
        if accept is not None:
            if not self.tally.count(name, accept(result), "result not accepted"):
                return None
        else:
            outputs, result = result
            if not self.tally.check(name, outputs, self._expected):
                return None
        cell = self.cells.setdefault(name, Samples())
        cell.seconds.append(seconds)
        base = (before + after) / 2
        self.brackets += 1
        if abs(before - after) <= BRACKET_TOLERANCE * base:
            cell.ratios.append(seconds / base)
        else:
            cell.loose.append(seconds / base)
            self.rejected += 1
        return result

    @property
    def reject_share(self) -> float:
        return self.rejected / self.brackets if self.brackets else 0.0

    def ref_median(self) -> float:
        return statistics.median(self.ref_seconds) if self.ref_seconds else 0.0
