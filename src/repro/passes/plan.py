"""Planning: :func:`plan_loop` decides, the :class:`Plan` records.

A :class:`Plan` is the single hand-off object between planning
(:func:`plan_loop`) and execution
(:func:`~repro.passes.execute.execute_plan`).  It records the resolved
backend (``"auto"`` is resolved by the tuner before a plan exists), the
schedule decisions as typed fields, and the audit trail — which stages
ran, and if the auto-tuner chose the backend, why — in a JSON-safe form
the CLI surfaces verbatim (``python -m repro explain --json``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.backends.cache import (
    InspectorCache,
    InspectorRecord,
    build_inspector_record,
    fingerprint_with_body,
)
from repro.backends.kernel import default_chunk
from repro.graph.levels import LevelSchedule, compute_levels
from repro.ir.analysis import dependence_triples
from repro.ir.loop import IrregularLoop
from repro.passes.autotune import (
    TunerDecision,
    choose_backend,
    default_tuner_store,
)
from repro.passes.distance import plan_distance_elision
from repro.passes.spec import (
    AUTO_BACKEND,
    OPTION_SUPPORT,
    PlanSpec,
    check_options,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.verdicts import DependenceVerdict

__all__ = ["Plan", "plan_loop"]


@dataclass
class Plan:
    """What :func:`plan_loop` decided for one loop under one spec.  A new
    planning decision is a new typed field here.

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
    fingerprint_body:
        How that digest was obtained: ``"memo"`` (the loop's frozen
        arrays were hashed by an earlier call), ``"hashed"`` (hashed now,
        and frozen) or ``"hashed (foreign-buffer)"`` (hashed now; a
        writeable foreign buffer cannot be frozen, so every call hashes).
    passes:
        Names of the planning stages, in the order they ran.
    levels:
        The wavefront decomposition
        (:class:`~repro.graph.levels.LevelSchedule`) — shared with every
        other plan of the same structure made on the same cache.
    levels_cached:
        Whether ``levels`` was served from the cache's memo.  When it was
        not, ``describe()["levels_body"]`` says which body computed it
        (``"native"`` or ``"python (<reason>)"``).
    order:
        Explicit doconsider execution order to run in, or ``None`` for
        the loop's natural order.
    chunk:
        Strip-mine chunk size the resolved backend executes with, or
        ``None`` when it has no chunk (the requested value stays visible
        under ``describe()["spec"]``).
    tuner:
        The :class:`~repro.passes.autotune.TunerDecision` when the
        backend was auto-selected, else ``None``.
    verdict:
        The symbolic dependence verdict
        (:func:`repro.analysis.analyze_loop`) when ``spec.analyze`` is
        set, else ``None``.
    distance_elision:
        The group-synchronous elision decision + certificate
        (:func:`~repro.passes.distance.plan_distance_elision`), or
        ``None`` when the standard post/wait protocol runs.
    sanitize_pairs:
        Under ``validate="sanitize"``, how many true read-after-write
        pairs the sanitizer will have to see covered; else ``None``.
    record:
        The vectorized backend's inspector record when it was prebuilt
        at plan time, else ``None``.
    record_cached:
        Whether ``record`` was served by the cache rather than built —
        the lookup outcome the runner reports, since it does not look the
        record up again.
    """

    spec: PlanSpec
    backend: str
    fingerprint: str
    fingerprint_body: str
    passes: tuple[str, ...]
    levels: LevelSchedule
    levels_cached: bool
    order: np.ndarray | None
    chunk: int | None
    tuner: TunerDecision | None = None
    verdict: DependenceVerdict | None = None
    distance_elision: dict | None = None
    sanitize_pairs: int | None = None
    record: InspectorRecord | None = None
    record_cached: bool = False

    # ------------------------------------------------------------------
    def describe(self) -> dict:
        """JSON-safe audit form: the stage list, the resolved backend, the
        schedule shape, and the tuner's reasoning.  This is what
        ``explain --json`` embeds under ``"plan"``."""
        out: dict = {
            "backend": self.backend,
            "requested_backend": self.spec.backend,
            "passes": list(self.passes),
            "spec": self.spec.as_dict(),
            "fingerprint": self.fingerprint,
            "fingerprint_body": self.fingerprint_body,
            "n_levels": int(self.levels.n_levels),
            "max_wavefront": int(self.levels.max_width()),
            "levels_cached": self.levels_cached,
            "reorder": self.spec.reorder,
        }
        if not self.levels_cached:
            out["levels_body"] = self.levels.body
        if self.chunk is not None:
            out["chunk"] = int(self.chunk)
        if self.tuner is not None:
            out["tuner"] = self.tuner.as_dict()
        if self.distance_elision is not None:
            out["distance_elision"] = {
                k: v
                for k, v in self.distance_elision.items()
                if k != "certificate"
            }
        return out

    def summary(self) -> str:
        """One line for humans (mirrors ``RunResult.summary`` style)."""
        bits = [f"backend={self.backend}"]
        if self.spec.backend != self.backend:
            bits.append(f"(requested {self.spec.backend})")
        bits.append(f"levels={self.levels.n_levels}")
        if self.chunk is not None:
            bits.append(f"chunk={self.chunk}")
        if self.tuner is not None:
            bits.append(f"tuner={self.tuner.source}")
        return "plan: " + " ".join(bits)


def plan_loop(
    loop: IrregularLoop,
    spec: PlanSpec,
    cache: InspectorCache | None = None,
) -> Plan:
    """Plan ``loop`` under ``spec``: the Figure-3 preprocessing decisions,
    in their one fixed order.  ``Plan.passes`` names the stages that ran:

    ``validate-options``
        Reject options the requested backend cannot honor
        (:func:`~repro.passes.spec.check_options`), before any scheduling
        work or cache access.
    ``fingerprint``
        Content-address the dependence structure — the key of both the
        inspector cache and the tuner's persisted decisions; hashed once
        per loop object, then memoized (``fingerprint_body``).
    ``level-schedule``
        The §3.2 wavefront decomposition, served from ``cache`` when it
        has one for this structure.
    ``doconsider``
        Execution order: the wavefront order iff ``reorder="doconsider"``.
    ``fixed-backend`` / ``auto-tune``
        The backend: the one the spec names, or the tuner's choice under
        ``backend="auto"`` (:func:`~repro.passes.autotune.choose_backend`).
    ``stripmine``
        The chunk of the *resolved* backend: ``spec.chunk`` if it has a
        chunk option, else multiproc's load-balance default, else none.
    ``distance-elision`` (iff ``analyze``)
        The symbolic verdict, and group-synchronous post/wait elision
        where it proves a minimum dependence distance.
    ``sanitize`` (iff ``validate="sanitize"``)
        The number of true-dependence pairs the sanitizer must cover.
    ``inspector`` (iff the resolved backend is ``vectorized`` and no
    ``analyze``)
        Prebuild (or fetch) the vectorized inspector record; the runner
        executes it and reports this lookup's outcome.  Through the
        shared cache when there is one, so planning warms the same cache
        execution reads; for a ``vectorized`` spec on a structure not yet
        seen it runs before the level stage, as one inspection that also
        yields the levels; for ``auto`` it runs once the tuner has chosen
        ``vectorized``, from the levels the tuner ranked.
    """
    check_options(spec)
    passes = ["validate-options", "fingerprint", "level-schedule", "doconsider"]
    fingerprint, fingerprint_body = fingerprint_with_body(loop)
    # The vectorized inspector builds the levels with its record: one
    # inspection, whose schedule serves the level stage.
    inspects = spec.backend == "vectorized" and spec.analyze is None
    record, record_cached = None, False
    if cache is not None and inspects:
        levels, levels_cached, record, record_cached = cache.levels_and_record(
            loop, fingerprint
        )
    elif cache is not None:
        levels, levels_cached = cache.levels_for(loop, fingerprint)
    elif inspects:
        record = build_inspector_record(loop, fingerprint=fingerprint)
        levels, levels_cached = record.schedule, False
    else:
        levels, levels_cached = compute_levels(loop), False
    order = levels.order if spec.reorder == "doconsider" else None

    tuner = None
    if spec.backend == AUTO_BACKEND:
        passes.append("auto-tune")
        tuner = choose_backend(
            levels,
            fingerprint,
            cache if cache is not None else default_tuner_store(),
        )
        backend = tuner.backend
    else:
        passes.append("fixed-backend")
        backend = spec.backend
    if record is None and backend == "vectorized" and spec.analyze is None:
        # The tuner chose the vectorized backend: its record, from the
        # levels the tuner ranked (one record lookup, as the runner's).
        if cache is not None:
            record, record_cached = cache.get_or_build(
                loop, fingerprint=fingerprint
            )
        else:
            record = build_inspector_record(loop, levels, fingerprint)

    passes.append("stripmine")
    if spec.chunk is not None and "chunk" in OPTION_SUPPORT[backend]:
        chunk = spec.chunk
    elif backend == "multiproc":
        chunk = default_chunk(loop.n, spec.processors)
    else:
        chunk = None

    verdict = elision = None
    if spec.analyze is not None:
        from repro.analysis import analyze_loop

        passes.append("distance-elision")
        verdict = analyze_loop(loop)
        elision = plan_distance_elision(
            loop, backend, chunk, natural_order=order is None, verdict=verdict
        )

    sanitize_pairs = None
    if spec.validate == "sanitize":
        passes.append("sanitize")
        # The sanitizer itself runs during and after execution
        # (repro.sanitize); what belongs in the plan is the contract it
        # will enforce: the detector's required_pairs.
        sanitize_pairs = len(dependence_triples(loop))

    if record is not None:
        passes.append("inspector")

    return Plan(
        spec=spec,
        backend=backend,
        fingerprint=fingerprint,
        fingerprint_body=fingerprint_body,
        passes=tuple(passes),
        levels=levels,
        levels_cached=levels_cached,
        order=order,
        chunk=chunk,
        tuner=tuner,
        verdict=verdict,
        distance_elision=elision,
        sanitize_pairs=sanitize_pairs,
        record=record,
        record_cached=record_cached,
    )
