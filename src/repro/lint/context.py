"""The shared input every lint rule sees.

A :class:`LintContext` bundles the three layers the ISSUE of this
subsystem names: the IR (the loop itself and its value-level dependence
analysis), the transform plan (what the "compiler" decided), and the
backend schedule parameters (kind, chunk, processors, strip block).  The
expensive analyses — read classification, the dependence summary, the
wavefront decomposition — are computed once, lazily, and shared by every
rule.
"""

from __future__ import annotations

import numpy as np

from repro.graph.levels import LevelSchedule, compute_levels
from repro.ir.analysis import (
    DependenceSummary,
    classify_reads,
    summarize_dependences,
)
from repro.ir.loop import IrregularLoop
from repro.ir.transform import TransformPlan, plan_transform

__all__ = ["LintContext"]


class LintContext:
    """Everything a rule may inspect, computed lazily and cached.

    Parameters
    ----------
    loop:
        The loop under analysis.
    plan:
        The transform plan; defaults to what
        :func:`~repro.ir.transform.plan_transform` picks for the loop's
        static structure.
    schedule_kind:
        Executor schedule kind (``block``/``cyclic``/``dynamic``/
        ``guided``) when a backend schedule is being linted; ``None``
        disables schedule-shape rules.
    chunk:
        Chunk size of the cyclic/dynamic schedule (guided: minimum chunk).
    processors:
        Processor/thread count the schedule distributes over.
    strip_block:
        Strip-mine block size when the §2.3 strip-mined variant is being
        linted; ``None`` otherwise.
    """

    def __init__(
        self,
        loop: IrregularLoop,
        plan: TransformPlan | None = None,
        schedule_kind: str | None = None,
        chunk: int = 1,
        processors: int = 16,
        strip_block: int | None = None,
    ):
        self.loop = loop
        self.plan = plan if plan is not None else plan_transform(loop)
        self.schedule_kind = schedule_kind
        self.chunk = chunk
        self.processors = processors
        self.strip_block = strip_block
        self._classified: tuple[np.ndarray, np.ndarray, np.ndarray] | None = (
            None
        )
        self._summary: DependenceSummary | None = None
        self._levels: LevelSchedule | None = None
        self._verdict = None
        self._verdict_computed = False

    # ------------------------------------------------------------------
    @property
    def verdict(self):
        """The symbolic :class:`~repro.analysis.verdicts.DependenceVerdict`
        for the loop (computed once, shared by every proof-backed rule).
        Always available — a loop without statically-known structure gets
        a ``runtime-only`` verdict."""
        if not self._verdict_computed:
            from repro.analysis import analyze_loop

            self._verdict = analyze_loop(self.loop)
            self._verdict_computed = True
        return self._verdict

    @property
    def classified(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(readers, writers, categories)`` per flat read term."""
        if self._classified is None:
            self._classified = classify_reads(self.loop)
        return self._classified

    @property
    def summary(self) -> DependenceSummary:
        if self._summary is None:
            self._summary = summarize_dependences(self.loop, self.classified)
        return self._summary

    @property
    def level_schedule(self) -> LevelSchedule:
        if self._levels is None:
            self._levels = compute_levels(self.loop)
        return self._levels
