"""Pass-pipeline contract tests (ISSUE 6 satellite 3).

Two properties carry the framework:

1. **Contracts fail loudly and early.**  A pass whose ``requires`` no
   earlier pass provides raises :class:`PassContractError` at
   *pipeline construction*; runtime violations (undeclared writes,
   undeclared reads, missing declared provides) raise during
   :meth:`~repro.passes.PassPipeline.plan`, naming the pass and the
   artifact.
2. **Contract-respecting reorderings are bitwise-equivalent.**  Any
   pass order satisfying the declared requires/provides dependencies
   produces the same plan — same backend, order, chunk — and executing
   both plans yields bitwise-identical ``y`` on the conformance-matrix
   workload families (chain / stencil / gather-scatter).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends import BACKENDS
from repro.passes import (
    PassContext,
    PassContractError,
    PassPipeline,
    PlanSpec,
    SchedulePass,
    UnsupportedPlanOption,
    execute_plan,
    plan_loop,
)
from repro.passes.builtin import (
    ColoringPass,
    DependenceDAGPass,
    DoconsiderPass,
    FixedBackendPass,
    LevelSchedulePass,
    LoopFingerprintPass,
    StripminePass,
    ValidateOptionsPass,
    default_passes,
    default_pipeline,
)
from repro.sparse.ilu import ilu0
from repro.sparse.stencils import five_point
from repro.sparse.trisolve import lower_solve_loop
from repro.workloads.synthetic import chain_loop, random_irregular_loop
from repro.workloads.testloop import make_test_loop


def _stencil_loop(nx: int = 12, ny: int = 12):
    A = five_point(nx, ny)
    L, _upper = ilu0(A)
    rhs = np.arange(1.0, A.n_rows + 1) / A.n_rows
    return lower_solve_loop(L, rhs, name=f"stencil-trisolve-{nx}x{ny}")


#: The three conformance-matrix workload families from
#: ``tests/test_conformance_matrix.py``, sized for fast planning.
WORKLOADS = {
    "chain": chain_loop(160, 3),
    "stencil": _stencil_loop(),
    "gather-scatter": random_irregular_loop(150, seed=5),
}


@pytest.fixture
def loop():
    return make_test_loop(n=120, m=2, l=8)


# ---------------------------------------------------------------------------
# Build-time contract validation
# ---------------------------------------------------------------------------


class TestBuildTimeContracts:
    def test_unmet_requires_raises_at_build(self):
        # level-schedule keys its memo by the fingerprint; alone it cannot
        # build.
        with pytest.raises(PassContractError, match="requires artifact"):
            PassPipeline([LevelSchedulePass()])

    def test_error_names_pass_artifact_and_available(self):
        with pytest.raises(PassContractError) as exc_info:
            PassPipeline([ValidateOptionsPass(), StripminePass()])
        err = exc_info.value
        assert err.pass_name == "stripmine"
        assert err.artifact == "backend"
        # The message lists what *was* available, for debugging.
        assert "loop" in str(err) and "spec" in str(err)

    def test_wrong_order_rejected_even_if_set_is_complete(self):
        # Same passes as a valid pipeline, but the consumer precedes the
        # producer: ordering is part of the contract.
        with pytest.raises(PassContractError, match="requires artifact"):
            PassPipeline([LevelSchedulePass(), LoopFingerprintPass()])

    def test_duplicate_provider_rejected(self):
        with pytest.raises(PassContractError, match="exactly one provider"):
            PassPipeline([FixedBackendPass(), FixedBackendPass()])

    def test_reproviding_a_seed_artifact_rejected(self):
        class _SpecForger(SchedulePass):
            name = "spec-forger"
            provides = ("spec",)

            def run(self, ctx):  # pragma: no cover - never runs
                ctx.set("spec", None)

        with pytest.raises(PassContractError, match="exactly one provider"):
            PassPipeline([_SpecForger()])

    def test_empty_pipeline_rejected(self):
        with pytest.raises(PassContractError, match="at least one pass"):
            PassPipeline([])

    def test_default_pipeline_builds_for_every_backend(self):
        for backend in BACKENDS + ("auto",):
            pipeline = default_pipeline(PlanSpec(backend=backend))
            assert pipeline.pass_names()[0] == "validate-options"
            assert "backend" in pipeline.provided()


# ---------------------------------------------------------------------------
# Run-time contract enforcement
# ---------------------------------------------------------------------------


class _UndeclaredWriter(SchedulePass):
    name = "undeclared-writer"
    provides = ("legit",)

    def run(self, ctx: PassContext) -> None:
        ctx.set("contraband", 1)


class _UndeclaredReader(SchedulePass):
    name = "undeclared-reader"
    provides = ("peek",)

    def run(self, ctx: PassContext) -> None:
        ctx.set("peek", ctx.get("levels"))  # never provided, never required


class _Welcher(SchedulePass):
    name = "welcher"
    provides = ("promised",)

    def run(self, ctx: PassContext) -> None:
        pass  # completes without writing "promised"


class TestRunTimeContracts:
    def test_undeclared_write_raises(self, loop):
        pipeline = PassPipeline([_UndeclaredWriter(), FixedBackendPass()])
        with pytest.raises(PassContractError, match="did not declare"):
            pipeline.plan(loop, PlanSpec())

    def test_undeclared_read_raises(self, loop):
        pipeline = PassPipeline([_UndeclaredReader(), FixedBackendPass()])
        with pytest.raises(PassContractError) as exc_info:
            pipeline.plan(loop, PlanSpec())
        assert exc_info.value.pass_name == "undeclared-reader"
        assert exc_info.value.artifact == "levels"

    def test_missing_declared_provide_raises(self, loop):
        pipeline = PassPipeline([_Welcher(), FixedBackendPass()])
        with pytest.raises(PassContractError, match="without providing"):
            pipeline.plan(loop, PlanSpec())

    def test_auto_spec_without_tuner_pass_raises(self, loop):
        # A pipeline that never resolves "auto" to a concrete backend is
        # a configuration bug, caught at assembly.
        pipeline = PassPipeline([ValidateOptionsPass()])
        with pytest.raises(PassContractError, match="auto.*unresolved"):
            pipeline.plan(loop, PlanSpec(backend="auto"))


# ---------------------------------------------------------------------------
# Plan content and the coloring side-channel
# ---------------------------------------------------------------------------


class TestPlanContent:
    def test_default_plan_artifacts(self, loop):
        plan = plan_loop(loop, PlanSpec(backend="simulated"))
        assert plan.backend == "simulated"
        assert plan.passes == (
            "validate-options",
            "fingerprint",
            "level-schedule",
            "doconsider",
            "fixed-backend",
            "stripmine",
        )
        assert isinstance(plan.fingerprint, str) and len(plan.fingerprint) > 8
        assert plan.levels is not None
        assert plan.order is None  # reorder="natural"
        described = plan.describe()
        assert described["backend"] == "simulated"
        assert described["requested_backend"] == "simulated"
        assert described["n_levels"] == plan.levels.n_levels
        assert described["levels_cached"] is False  # no cache to serve it
        # The DAG is not materialized on the default path: nothing reads it.
        assert "depgraph" not in plan.artifacts

    def test_doconsider_reorder_provides_wavefront_order(self, loop):
        plan = plan_loop(loop, PlanSpec(reorder="doconsider"))
        assert plan.order is not None
        assert np.array_equal(np.sort(plan.order), np.arange(loop.n))
        assert np.array_equal(plan.order, plan.levels.order)

    def test_vectorized_plan_prebuilds_inspector_record(self, loop):
        plan = plan_loop(loop, PlanSpec(backend="vectorized"))
        assert plan.passes[-1] == "inspector"
        assert plan.artifacts.get("record") is not None

    def test_multiproc_chunk_default_is_stripmine_formula(self, loop):
        plan = plan_loop(loop, PlanSpec(backend="multiproc", processors=4))
        assert plan.chunk == max(1, -(-loop.n // (4 * 4)))
        explicit = plan_loop(
            loop, PlanSpec(backend="multiproc", processors=4, chunk=7)
        )
        assert explicit.chunk == 7

    def test_coloring_pass_is_analysis_only(self, loop):
        # Not in any default pipeline (a color order is illegal as a
        # doacross execution order), but composable by contract.
        for backend in BACKENDS + ("auto",):
            names = [p.name for p in default_passes(PlanSpec(backend=backend))]
            assert "coloring" not in names
        pipeline = PassPipeline(
            [DependenceDAGPass(), ColoringPass(), FixedBackendPass()]
        )
        plan = pipeline.plan(loop, PlanSpec())
        colors = plan.artifacts["coloring"]
        # Proper coloring: no true dependence links same-colored iterates.
        graph = plan.artifacts["depgraph"]
        for v in range(graph.n):
            lo, hi = int(graph.succ_ptr[v]), int(graph.succ_ptr[v + 1])
            for w in graph.succ[lo:hi]:
                assert colors[v] != colors[w]


# ---------------------------------------------------------------------------
# Reordering equivalence on the conformance-matrix workloads
# ---------------------------------------------------------------------------

#: A legal alternative order: every requires still follows its provider
#: (fingerprint first, stripmine after backend, doconsider last), with the
#: off-default DAG pass thrown in.
def _reordered_passes():
    return [
        LoopFingerprintPass(),
        DependenceDAGPass(),
        FixedBackendPass(),
        LevelSchedulePass(),
        ValidateOptionsPass(),
        StripminePass(),
        DoconsiderPass(),
    ]


def _plans_equivalent(a, b):
    assert a.backend == b.backend
    assert a.fingerprint == b.fingerprint
    assert a.chunk == b.chunk
    if a.order is None:
        assert b.order is None
    else:
        assert np.array_equal(a.order, b.order)
    assert np.array_equal(a.levels.levels, b.levels.levels)


class TestReorderingEquivalence:
    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    @pytest.mark.parametrize("reorder", ("natural", "doconsider"))
    def test_reordered_pipeline_plans_identically(self, workload, reorder):
        loop = WORKLOADS[workload]
        spec = PlanSpec(backend="simulated", processors=4, reorder=reorder)
        default = default_pipeline(spec).plan(loop, spec)
        shuffled = PassPipeline(_reordered_passes()).plan(loop, spec)
        _plans_equivalent(default, shuffled)

    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    def test_reordered_pipeline_executes_bitwise_identically(self, workload):
        loop = WORKLOADS[workload]
        spec = PlanSpec(backend="simulated", processors=4)
        default = default_pipeline(spec).plan(loop, spec)
        shuffled = PassPipeline(_reordered_passes()).plan(loop, spec)
        first = execute_plan(loop, default)
        second = execute_plan(loop, shuffled)
        assert np.array_equal(first.y, second.y)
        assert np.array_equal(first.y, loop.run_sequential())

    def test_threaded_execution_matches_across_orders(self):
        loop = WORKLOADS["gather-scatter"]
        spec = PlanSpec(backend="threaded", processors=2)
        default = default_pipeline(spec).plan(loop, spec)
        shuffled = PassPipeline(_reordered_passes()).plan(loop, spec)
        first = execute_plan(loop, default)
        second = execute_plan(loop, shuffled)
        assert np.array_equal(first.y, second.y)
        assert np.array_equal(first.y, loop.run_sequential())


# ---------------------------------------------------------------------------
# The spec path never ignores options
# ---------------------------------------------------------------------------


class TestNoIgnoredOptions:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_spec_path_has_no_ignored_options(self, loop, backend):
        spec = PlanSpec(backend=backend, processors=2)
        plan = plan_loop(loop, spec)
        result = execute_plan(loop, plan)
        assert "ignored_options" not in result.extras
        assert result.extras["schedule_plan"]["backend"] == backend
        assert np.array_equal(result.y, loop.run_sequential())

    def test_all_backends_bitwise_identical_through_pipeline(self, loop):
        reference = loop.run_sequential()
        for backend in BACKENDS:
            plan = plan_loop(loop, PlanSpec(backend=backend, processors=2))
            result = execute_plan(loop, plan)
            assert np.array_equal(result.y, reference), backend

    def test_unsupported_option_rejected_structured(self, loop):
        with pytest.raises(UnsupportedPlanOption) as exc_info:
            plan_loop(loop, PlanSpec(backend="vectorized", chunk=4))
        err = exc_info.value
        assert (err.backend, err.option, err.value) == ("vectorized", "chunk", 4)
        assert err.as_dict() == {
            "backend": "vectorized",
            "option": "chunk",
            "value": 4,
            "reason": err.reason,
        }
