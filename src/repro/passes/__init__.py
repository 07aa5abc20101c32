"""Composable schedule passes over the dependence DAG (ROADMAP item 5).

The preprocessing stages the paper's Figure 3 describes — dependence
discovery, wavefront (level) scheduling, doconsider reordering, strip
mining — run here as :class:`SchedulePass` objects with declared
requires/provides contracts, composed by a contract-validating
:class:`PassPipeline` into one :class:`Plan` that every backend
consumes.  :class:`PlanSpec` is the frozen value object describing a
run's configuration, and :class:`AutoTunePass` closes the loop from the
telemetry layer back into planning (``PlanSpec(backend="auto")``).

Quick tour::

    from repro.passes import PlanSpec, plan_loop, execute_plan

    spec = PlanSpec(backend="vectorized")
    plan = plan_loop(loop, spec)        # contracts checked, passes run
    print(plan.describe()["passes"])    # audit: what decided what
    result = execute_plan(loop, plan)   # same answer as any backend
"""

from repro.passes.autotune import (
    AUTO_CANDIDATES,
    AutoTunePass,
    TunerDecision,
    features_from_telemetry,
    record_run_outcome,
)
from repro.passes.base import (
    PassContext,
    PassContractError,
    PassPipeline,
    SchedulePass,
)
from repro.passes.builtin import (
    ColoringPass,
    DependenceDAGPass,
    DoconsiderPass,
    FixedBackendPass,
    InspectorPass,
    LevelSchedulePass,
    LoopFingerprintPass,
    StripminePass,
    ValidateOptionsPass,
    default_passes,
    default_pipeline,
)
from repro.passes.execute import execute_plan, plan_loop
from repro.passes.plan import Plan
from repro.passes.spec import (
    AUTO_BACKEND,
    OPTION_SUPPORT,
    SPEC_BACKENDS,
    PlanSpec,
    UnsupportedPlanOption,
    check_options,
)

__all__ = [
    "AUTO_BACKEND",
    "AUTO_CANDIDATES",
    "AutoTunePass",
    "ColoringPass",
    "DependenceDAGPass",
    "DoconsiderPass",
    "FixedBackendPass",
    "InspectorPass",
    "LevelSchedulePass",
    "LoopFingerprintPass",
    "OPTION_SUPPORT",
    "Plan",
    "PlanSpec",
    "PassContext",
    "PassContractError",
    "PassPipeline",
    "SPEC_BACKENDS",
    "SchedulePass",
    "StripminePass",
    "TunerDecision",
    "UnsupportedPlanOption",
    "ValidateOptionsPass",
    "check_options",
    "default_passes",
    "default_pipeline",
    "execute_plan",
    "features_from_telemetry",
    "plan_loop",
    "record_run_outcome",
]
