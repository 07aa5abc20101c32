"""Planning: ``PlanSpec`` → ``plan_loop`` → ``Plan`` → ``execute_plan``.

The preprocessing decisions the paper's Figure 3 describes — dependence
discovery, wavefront (level) scheduling, doconsider reordering, strip
mining — are made by one straight-line function, :func:`plan_loop`, and
recorded as the typed fields of one :class:`Plan` that every backend
consumes.  :class:`PlanSpec` is the frozen value object describing a
run's configuration, and :mod:`repro.passes.autotune` closes the loop
from measured wall time back into planning (``PlanSpec(backend="auto")``).

Quick tour::

    from repro.passes import PlanSpec, plan_loop, execute_plan

    spec = PlanSpec(backend="vectorized")
    plan = plan_loop(loop, spec)        # options checked, stages run
    print(plan.describe()["passes"])    # audit: what decided what
    result = execute_plan(loop, plan)   # same answer as any backend
"""

from repro.passes.autotune import (
    AUTO_CANDIDATES,
    TunerDecision,
    record_run_outcome,
)
from repro.passes.execute import execute_plan
from repro.passes.plan import Plan, plan_loop
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
    "OPTION_SUPPORT",
    "Plan",
    "PlanSpec",
    "SPEC_BACKENDS",
    "TunerDecision",
    "UnsupportedPlanOption",
    "check_options",
    "execute_plan",
    "plan_loop",
    "record_run_outcome",
]
