"""The :class:`Plan`: what one pipeline invocation decided.

A :class:`Plan` is the single hand-off object between planning
(:class:`~repro.passes.base.PassPipeline`) and execution
(:func:`~repro.passes.execute.execute_plan`).  It records the resolved
backend (``"auto"`` is resolved by the tuner pass before a plan exists),
the schedule artifacts the passes computed, and the audit trail — which
passes ran, and if the auto-tuner chose the backend, why — in a
JSON-safe form the CLI surfaces verbatim (``python -m repro profile
--json``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.passes.spec import PlanSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

    from repro.graph.levels import LevelSchedule
    from repro.passes.autotune import TunerDecision

__all__ = ["Plan"]


@dataclass
class Plan:
    """Schedule artifacts + decisions from one pipeline run over one loop.

    Attributes
    ----------
    spec:
        The :class:`~repro.passes.spec.PlanSpec` the plan was built from
        (``spec.backend`` may be ``"auto"``; ``backend`` never is).
    backend:
        The concrete backend that will execute the plan.
    fingerprint:
        Content digest of the loop's dependence structure
        (:func:`~repro.backends.cache.loop_fingerprint`) — the key the
        tuner's decisions persist under.
    passes:
        Names of the pipeline's passes, in the order they ran.
    levels:
        The wavefront decomposition
        (:class:`~repro.graph.levels.LevelSchedule`), when a level pass
        ran — shared with every other plan of the same structure made on
        the same cache (``describe()["levels_cached"]``).
    order:
        Explicit doconsider execution order to run in, or ``None`` for
        the loop's natural order.
    chunk:
        Strip-mine chunk size to execute with, or ``None`` for the
        backend default.
    tuner:
        The :class:`~repro.passes.autotune.TunerDecision` when the
        backend was auto-selected, else ``None``.
    artifacts:
        Every artifact the passes published (seed values included) — the
        escape hatch for passes beyond the built-in vocabulary.
    """

    spec: PlanSpec
    backend: str
    fingerprint: str | None = None
    passes: tuple[str, ...] = ()
    levels: "LevelSchedule | None" = None
    order: "np.ndarray | None" = None
    chunk: int | None = None
    tuner: "TunerDecision | None" = None
    artifacts: dict = field(default_factory=dict)

    # ------------------------------------------------------------------
    def describe(self) -> dict:
        """JSON-safe audit form: the pass list, the resolved backend, the
        schedule shape, and the tuner's reasoning.  This is what
        ``profile --json`` embeds under ``"plan"``."""
        out: dict = {
            "backend": self.backend,
            "requested_backend": self.spec.backend,
            "passes": list(self.passes),
            "spec": self.spec.as_dict(),
        }
        if self.fingerprint is not None:
            out["fingerprint"] = self.fingerprint
        if self.levels is not None:
            out["n_levels"] = int(self.levels.n_levels)
            out["max_wavefront"] = int(self.levels.max_width())
            out["levels_cached"] = self.artifacts.get("levels_cached", False)
        out["reorder"] = self.spec.reorder
        if self.chunk is not None:
            out["chunk"] = int(self.chunk)
        if self.tuner is not None:
            out["tuner"] = self.tuner.as_dict()
        elision = self.artifacts.get("distance_elision")
        if elision is not None:
            out["distance_elision"] = {
                k: v for k, v in elision.items() if k != "certificate"
            }
        return out

    def summary(self) -> str:
        """One line for humans (mirrors ``RunResult.summary`` style)."""
        bits = [f"backend={self.backend}"]
        if self.spec.backend != self.backend:
            bits.append(f"(requested {self.spec.backend})")
        if self.levels is not None:
            bits.append(f"levels={self.levels.n_levels}")
        if self.chunk is not None:
            bits.append(f"chunk={self.chunk}")
        if self.tuner is not None:
            bits.append(f"tuner={self.tuner.source}")
        return "plan: " + " ".join(bits)
