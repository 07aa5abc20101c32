"""The built-in schedule passes: the preprocessing stages, as passes.

Each pass is one piece of scheduling logic under the requires/provides
contract of :class:`~repro.passes.base.SchedulePass` (``subsumes`` names
the backend-private code it stands in for):

===================  ==========================  ============================
pass                 subsumes                    provides
===================  ==========================  ============================
``validate-options`` ``note_ignored_options``    ``options``
``fingerprint``      backend-private cache keys  ``fingerprint``
``dependence-dag``   per-backend DAG builds      ``depgraph``
``level-schedule``   ``compute_levels`` calls    ``levels``, ``levels_cached``
``doconsider``       ``Doconsider`` wrapper      ``order``
``coloring``         ``greedy_coloring`` (mesh)  ``coloring``
``fixed-backend``    ``backend=`` kwarg          ``backend``
``auto-tune``        (new)                       ``backend``, ``tuner``
``stripmine``        multiproc chunk formula     ``chunk``
``inspector``        vectorized ``_preprocess``  ``record``
===================  ==========================  ============================

:func:`default_passes` composes them into the standard pipeline for a
given :class:`~repro.passes.spec.PlanSpec`; any reordering that respects
the declared contracts produces the same plan (tested in
``tests/test_passes.py``).

Note on coloring: the color-major sweep order changes the *iterate
sequence* of a sweep-style loop (valid for relaxation, not for exact
replay), so ``coloring`` is analysis-only here — its output never feeds
the doacross execution order, which must preserve exact sequential
semantics.  It is provided for mesh workloads that consume the color
order explicitly and is not part of the default pipeline — and neither
is ``dependence-dag``, whose ``depgraph`` only ``coloring`` consumes.
"""

from __future__ import annotations

import numpy as np

from repro.backends.cache import build_inspector_record, loop_fingerprint
from repro.backends.kernel import default_chunk
from repro.graph.coloring import greedy_coloring
from repro.graph.depgraph import DependenceGraph
from repro.graph.levels import compute_levels
from repro.ir.analysis import CAT_TRUE, classify_reads
from repro.passes.base import PassContext, PassPipeline, SchedulePass
from repro.passes.spec import AUTO_BACKEND, PlanSpec, check_options

__all__ = [
    "ValidateOptionsPass",
    "LoopFingerprintPass",
    "DependenceDAGPass",
    "LevelSchedulePass",
    "DoconsiderPass",
    "ColoringPass",
    "FixedBackendPass",
    "SanitizePass",
    "StripminePass",
    "InspectorPass",
    "default_passes",
    "default_pipeline",
]


class ValidateOptionsPass(SchedulePass):
    """Reject spec options the requested backend cannot honor.

    An unsupported option raises a structured
    :class:`~repro.passes.spec.UnsupportedPlanOption` here, before any
    scheduling work happens — a planned run never reaches a backend's
    ``extras["ignored_options"]`` note.
    """

    name = "validate-options"
    provides = ("options",)

    def run(self, ctx: PassContext) -> None:
        check_options(ctx.spec)
        ctx.set("options", ctx.spec.tunable_options())


class LoopFingerprintPass(SchedulePass):
    """Content-address the loop's dependence structure.

    The digest (:func:`~repro.backends.cache.loop_fingerprint`) keys both
    the inspector cache and the auto-tuner's persisted decisions, so
    "same structure" means the same thing to amortization and to tuning.
    """

    name = "fingerprint"
    provides = ("fingerprint",)

    def run(self, ctx: PassContext) -> None:
        ctx.set("fingerprint", loop_fingerprint(ctx.loop))


class DependenceDAGPass(SchedulePass):
    """Materialize the true-dependence DAG in CSR form."""

    name = "dependence-dag"
    provides = ("depgraph",)

    def run(self, ctx: PassContext) -> None:
        ctx.set("depgraph", DependenceGraph.from_loop(ctx.loop))


class LevelSchedulePass(SchedulePass):
    """Wavefront (level) decomposition of the dependence DAG — the §3.2
    doconsider preprocessing, shared by every consumer instead of being
    recomputed privately per backend, and by every later plan of the same
    structure when the context has a cache
    (:meth:`~repro.backends.cache.InspectorCache.levels_for`).
    ``levels_cached`` says whether this plan was served from it."""

    name = "level-schedule"
    requires = ("fingerprint",)
    provides = ("levels", "levels_cached")

    def run(self, ctx: PassContext) -> None:
        if ctx.cache is not None:
            levels, hit = ctx.cache.levels_for(ctx.loop, ctx.get("fingerprint"))
        else:
            levels, hit = compute_levels(ctx.loop), False
        ctx.set("levels", levels)
        ctx.set("levels_cached", hit)


class DoconsiderPass(SchedulePass):
    """Choose the execution order: natural, or the wavefront order.

    Publishes ``order=None`` for ``reorder="natural"`` (the backend runs
    iterations as written) and the level schedule's order for
    ``reorder="doconsider"`` — the same reordering
    :class:`~repro.core.doconsider.Doconsider` applies, minus the wrapper.
    """

    name = "doconsider"
    requires = ("levels",)
    provides = ("order",)

    def run(self, ctx: PassContext) -> None:
        if ctx.spec.reorder == "doconsider":
            ctx.set("order", ctx.get("levels").order)
        else:
            ctx.set("order", None)


class ColoringPass(SchedulePass):
    """Greedy-color the dependence structure (analysis only — see the
    module docstring for why a color order can never feed the doacross)."""

    name = "coloring"
    requires = ("depgraph",)
    provides = ("coloring",)

    def run(self, ctx: PassContext) -> None:
        graph = ctx.get("depgraph")
        n = graph.n
        # Symmetrize the directed CSR: neighbors = successors ∪ predecessors.
        out_deg = graph.succ_ptr[1:] - graph.succ_ptr[:-1]
        in_deg = graph.pred_ptr[1:] - graph.pred_ptr[:-1]
        counts = (out_deg + in_deg).astype(np.int64)
        adj_ptr = np.zeros(n + 1, dtype=np.int64)
        adj_ptr[1:] = np.cumsum(counts)
        adj = np.empty(int(adj_ptr[-1]), dtype=np.int64)
        cursor = adj_ptr[:-1].copy()
        for v in range(n):
            lo, hi = int(graph.succ_ptr[v]), int(graph.succ_ptr[v + 1])
            adj[cursor[v] : cursor[v] + (hi - lo)] = graph.succ[lo:hi]
            cursor[v] += hi - lo
            lo, hi = int(graph.pred_ptr[v]), int(graph.pred_ptr[v + 1])
            adj[cursor[v] : cursor[v] + (hi - lo)] = graph.pred[lo:hi]
        ctx.set("coloring", greedy_coloring(adj_ptr, adj))


class FixedBackendPass(SchedulePass):
    """Resolve the backend the trivial way: the spec names it."""

    name = "fixed-backend"
    provides = ("backend",)

    def run(self, ctx: PassContext) -> None:
        ctx.set("backend", ctx.spec.backend)


class SanitizePass(SchedulePass):
    """Plan the dynamic sanitizer's workload for ``validate="sanitize"``.

    The sanitizer itself runs *during* execution (shadow logging) and
    *after* it (vector-clock replay, :mod:`repro.sanitize`); what belongs
    in the plan is the contract it will enforce — the set of true
    read-after-write pairs that must each be covered by a witnessed
    happens-before edge.  Publishing the pair count here makes the
    sanitize workload part of ``plan.describe()`` and lets callers see
    up front that a dependence-free loop has nothing to check.
    """

    name = "sanitize"
    provides = ("sanitize",)

    def run(self, ctx: PassContext) -> None:
        # The detector's required_pairs, counted without building them: a
        # written element has one writer, so the unique (reader, element)
        # true-dependence terms are its (writer, reader, element) triples.
        readers, _, categories = classify_reads(ctx.loop)
        true = categories == CAT_TRUE
        terms = np.stack([readers[true], ctx.loop.reads.index[true]], axis=1)
        ctx.set("sanitize", {"pairs": np.unique(terms, axis=0).shape[0]})


class StripminePass(SchedulePass):
    """Pick the strip-mine chunk size for the resolved backend.

    A caller-specified ``spec.chunk`` wins; otherwise the multiproc
    backend gets its load-balance default
    (:func:`~repro.backends.kernel.default_chunk`) and backends without a
    chunk knob get ``None``.
    """

    name = "stripmine"
    requires = ("backend",)
    provides = ("chunk",)

    def run(self, ctx: PassContext) -> None:
        spec = ctx.spec
        backend = ctx.get("backend")
        if spec.chunk is not None:
            ctx.set("chunk", spec.chunk)
        elif backend == "multiproc":
            ctx.set("chunk", default_chunk(ctx.loop.n, spec.processors))
        else:
            ctx.set("chunk", None)


class InspectorPass(SchedulePass):
    """Run (or fetch) the full vectorized preprocessing — the Figure-3
    inspector plus executor-ready term layout — through the shared
    :class:`~repro.backends.cache.InspectorCache` when the context has
    one, so planning warms the same cache execution reads."""

    name = "inspector"
    requires = ("fingerprint", "levels")
    provides = ("record",)

    def run(self, ctx: PassContext) -> None:
        if ctx.cache is not None:
            record, _hit = ctx.cache.get_or_build(
                ctx.loop, fingerprint=ctx.get("fingerprint")
            )
        else:
            record = build_inspector_record(ctx.loop, ctx.get("levels"))
        ctx.set("record", record)


def default_passes(spec: PlanSpec) -> list[SchedulePass]:
    """The standard pass sequence for ``spec``.

    The shape is identical for every backend — validate, fingerprint,
    levels, doconsider, backend resolution, stripmine — which is the
    point of the framework: one pipeline, five consumers.  The only
    variation is *which* backend-resolution pass runs (``fixed-backend``
    vs ``auto-tune``) and whether the vectorized backend's inspector
    record is prebuilt at plan time.
    """
    passes: list[SchedulePass] = [
        ValidateOptionsPass(),
        LoopFingerprintPass(),
        LevelSchedulePass(),
        DoconsiderPass(),
    ]
    if spec.backend == AUTO_BACKEND:
        from repro.passes.autotune import AutoTunePass

        passes.append(AutoTunePass())
    else:
        passes.append(FixedBackendPass())
    passes.append(StripminePass())
    if spec.analyze is not None:
        from repro.passes.distance import DistancePass

        passes.append(DistancePass())
    if spec.validate == "sanitize":
        passes.append(SanitizePass())
    if spec.backend == "vectorized" and spec.analyze is None:
        passes.append(InspectorPass())
    return passes


def default_pipeline(spec: PlanSpec) -> PassPipeline:
    """:func:`default_passes` wrapped in a validated pipeline."""
    return PassPipeline(default_passes(spec))
