"""Statistics collected by the simulated machine.

A run of a parallel loop decomposes into *phases* (inspector, executor,
postprocessor) separated by barriers.  The engine produces one
:class:`PhaseStats` per phase, built from per-processor
:class:`ProcessorStats`; :class:`repro.core.results.RunResult` aggregates
phases into the quantities the paper reports (total time, parallel
efficiency).

Both records are frozen: the simulated backend hands one cycle account to
every warm call of a cached structure, so no result may change another's
(:meth:`ProcessorStats.merge` returns a new record).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ProcessorStats", "PhaseStats"]


@dataclass(frozen=True, slots=True)
class ProcessorStats:
    """Cycle accounting for one processor within one phase."""

    proc: int
    compute_cycles: int = 0
    #: Cycles spent spinning on unset ``ready`` flags.
    wait_cycles: int = 0
    #: Cycles spent queued for serial resources (dispatch counter, bus).
    resource_wait_cycles: int = 0
    #: Number of flag checks issued (both immediate and after a spin).
    flag_checks: int = 0
    #: Number of flags set.
    flag_sets: int = 0
    #: Number of chunk grabs from the dispatch counter.
    dispatches: int = 0
    #: Coherence-model invalidation misses (reads of another processor's
    #: freshly written values); zero unless the machine enables coherence.
    coherence_misses: int = 0
    #: Number of loop iterations this processor executed.
    iterations: int = 0
    #: Local clock when the processor's task finished.
    finish_time: int = 0

    @property
    def total_cycles(self) -> int:
        """All cycles attributable to this processor in the phase."""
        return self.compute_cycles + self.wait_cycles + self.resource_wait_cycles

    def as_metrics(self) -> dict[str, int]:
        """Counter name → value pairs under the unified telemetry metric
        names (:mod:`repro.obs.metrics`), ready to fold into a registry."""
        return {
            "compute_cycles": self.compute_cycles,
            "wait_cycles": self.wait_cycles,
            "resource_wait_cycles": self.resource_wait_cycles,
            "flag_checks": self.flag_checks,
            "flag_sets": self.flag_sets,
            "dispatches": self.dispatches,
            "coherence_misses": self.coherence_misses,
            "iterations": self.iterations,
        }

    def merge(self, other: "ProcessorStats") -> "ProcessorStats":
        """Combine accounting from another phase on the same processor."""
        if other.proc != self.proc:
            raise ValueError(
                f"cannot merge stats of processor {other.proc} into {self.proc}"
            )
        return ProcessorStats(
            proc=self.proc,
            compute_cycles=self.compute_cycles + other.compute_cycles,
            wait_cycles=self.wait_cycles + other.wait_cycles,
            resource_wait_cycles=self.resource_wait_cycles
            + other.resource_wait_cycles,
            flag_checks=self.flag_checks + other.flag_checks,
            flag_sets=self.flag_sets + other.flag_sets,
            dispatches=self.dispatches + other.dispatches,
            coherence_misses=self.coherence_misses + other.coherence_misses,
            iterations=self.iterations + other.iterations,
            finish_time=max(self.finish_time, other.finish_time),
        )


@dataclass(frozen=True, slots=True)
class PhaseStats:
    """Aggregate statistics for one phase of a parallel loop run;
    ``processors`` is kept as a tuple."""

    name: str
    processors: tuple[ProcessorStats, ...] = ()

    def __post_init__(self) -> None:
        if type(self.processors) is not tuple:
            object.__setattr__(self, "processors", tuple(self.processors))

    @property
    def span(self) -> int:
        """Phase makespan: the latest processor finish time."""
        if not self.processors:
            return 0
        return max(p.finish_time for p in self.processors)

    @property
    def total_compute(self) -> int:
        return sum(p.compute_cycles for p in self.processors)

    @property
    def total_wait(self) -> int:
        return sum(p.wait_cycles for p in self.processors)

    @property
    def total_resource_wait(self) -> int:
        return sum(p.resource_wait_cycles for p in self.processors)

    @property
    def total_iterations(self) -> int:
        return sum(p.iterations for p in self.processors)

    def utilization(self) -> float:
        """Mean fraction of the makespan processors spent computing.

        Busy-wait cycles count as *wasted* (the processor is occupied but
        doing no useful work), matching the paper's efficiency definition.
        """
        span = self.span
        if span == 0 or not self.processors:
            return 0.0
        return self.total_compute / (span * len(self.processors))
