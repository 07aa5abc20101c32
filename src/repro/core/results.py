"""Run records: what every parallel-loop runner returns.

The paper reports two quantities — wall time and *parallel efficiency*
``T_seq / (p · T_par)`` (§3, first paragraph).  :class:`RunResult` carries
those plus the full per-phase breakdown the analysis sections discuss
(preprocessing cost, executor busy-wait cost, postprocessing cost).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.machine.costs import CostModel
from repro.machine.stats import PhaseStats

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.obs.telemetry import Telemetry

__all__ = ["PhaseBreakdown", "RunResult"]


@dataclass
class PhaseBreakdown:
    """Cycle totals for the three pipeline phases plus barriers."""

    inspector: int = 0
    executor: int = 0
    postprocessor: int = 0
    barriers: int = 0

    @property
    def total(self) -> int:
        return self.inspector + self.executor + self.postprocessor + self.barriers

    def as_dict(self) -> dict[str, int]:
        return {
            "inspector": self.inspector,
            "executor": self.executor,
            "postprocessor": self.postprocessor,
            "barriers": self.barriers,
        }


@dataclass
class RunResult:
    """Outcome of one parallel (or sequential) loop execution.

    Attributes
    ----------
    loop_name, strategy, processors:
        Identification of what ran where.
    y:
        The final shared-array values (semantically equal to the sequential
        oracle's output — tested, not assumed).
    total_cycles:
        Simulated makespan of the whole construct, barriers included.
    sequential_cycles:
        Simulated time of the optimized sequential loop on one processor
        (the paper's ``T_seq``).
    phases:
        Per-phase engine statistics (empty for sequential runs).
    breakdown:
        Phase cycle totals.
    wait_cycles:
        Total busy-wait cycles across all processors (overhead the paper's
        §3.1 discussion attributes to "execution time dependency checks").
    schedule:
        Human-readable schedule description.
    order_label:
        ``"natural"`` or a description of the doconsider reordering.
    wall_seconds:
        Measured wall-clock duration for backends that execute for real
        (threaded, vectorized); ``None`` for simulated/sequential runs,
        whose time axis is cycles.
    telemetry:
        The run's :class:`~repro.obs.telemetry.Telemetry` blob (phase
        spans + unified metrics, same schema on every backend) when the
        run was observed (``PlanSpec(observe=True)``); ``None``
        otherwise.
    extras:
        Free-form strategy-specific details (block size, level count, ...).
    """

    loop_name: str
    strategy: str
    processors: int
    y: np.ndarray
    total_cycles: int
    sequential_cycles: int
    cost_model: CostModel
    phases: list[PhaseStats] = field(default_factory=list)
    breakdown: PhaseBreakdown = field(default_factory=PhaseBreakdown)
    wait_cycles: int = 0
    schedule: str = ""
    order_label: str = "natural"
    wall_seconds: float | None = None
    telemetry: Telemetry | None = None
    extras: dict = field(default_factory=dict)

    @property
    def speedup(self) -> float:
        """``T_seq / T_par``."""
        if self.total_cycles == 0:
            return float("inf") if self.sequential_cycles > 0 else 1.0
        return self.sequential_cycles / self.total_cycles

    @property
    def efficiency(self) -> float:
        """The paper's parallel efficiency ``T_seq / (p · T_par)``."""
        return self.speedup / self.processors

    @property
    def total_ms(self) -> float:
        """Makespan rendered as milliseconds (Table-1 style)."""
        return self.cost_model.cycles_to_ms(self.total_cycles)

    @property
    def sequential_ms(self) -> float:
        return self.cost_model.cycles_to_ms(self.sequential_cycles)

    def summary(self) -> str:
        """Multi-line human-readable report."""
        lines = [
            f"loop={self.loop_name} strategy={self.strategy} "
            f"P={self.processors} schedule={self.schedule} "
            f"order={self.order_label}",
        ]
        if self.wall_seconds is not None:
            lines.append(f"  wall={self.wall_seconds * 1e3:.3f} ms (measured)")
        if self.total_cycles:
            lines.append(
                f"  T_par={self.total_cycles} cycles ({self.total_ms:.3f} ms)"
                f"  T_seq={self.sequential_cycles} cycles "
                f"({self.sequential_ms:.3f} ms)"
            )
            lines.append(
                f"  speedup={self.speedup:.2f}  "
                f"efficiency={self.efficiency:.3f}  "
                f"busy-wait={self.wait_cycles} cycles"
            )
        if self.breakdown.total:
            b = self.breakdown
            lines.append(
                f"  phases: inspector={b.inspector} executor={b.executor} "
                f"postprocessor={b.postprocessor} barriers={b.barriers}"
            )
        if self.telemetry is not None:
            lines.append(f"  telemetry: {self.telemetry.one_line()}")
        for note in self.extras.get("ignored_options", []):
            lines.append(
                f"  ignored {note['option']}={note['value']!r}: "
                f"{note['reason']}"
            )
        for key, value in self.extras.items():
            if isinstance(value, (int, float, str, bool)):
                lines.append(f"  {key}={value}")
        return "\n".join(lines)
