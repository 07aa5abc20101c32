"""Plan execution: one code path from :class:`Plan` to :class:`RunResult`.

This module is the bridge between planning and the backends:
:func:`execute_plan` hands a :func:`~repro.passes.plan.plan_loop` plan to
the resolved backend — forwarding exactly the options that backend
honors (the plan was validated against the support matrix, so nothing is
ever silently dropped: planned results carry no ``ignored_options``
notes).  :func:`repro.core.doacross.parallelize` is
:func:`~repro.passes.plan.plan_loop` → ``plan_transform`` →
:func:`execute_plan`.
"""

from __future__ import annotations

import functools
from dataclasses import replace

from repro.backends.base import note_verdict
from repro.backends.cache import InspectorCache
from repro.core.results import RunResult
from repro.ir.loop import IrregularLoop
from repro.ir.transform import TransformPlan, plan_transform
from repro.passes.autotune import default_tuner_store, record_run_outcome
from repro.passes.plan import Plan
from repro.passes.spec import AUTO_BACKEND, OPTION_SUPPORT

__all__ = ["execute_plan"]

#: The backends whose runner keeps no per-run state on itself, so one
#: instance may serve every unobserved run of a spec, concurrent ones
#: included: only theirs are memoized on a cache.
_SHARED_RUNNERS = ("vectorized", "threaded", "speculative")


@functools.cache
def _backends():
    """:mod:`repro.backends`, whose runners' imports reach this module:
    imported by the first :func:`execute_plan`, and looked up once rather
    than by an import statement per call."""
    import repro.backends

    return repro.backends


def execute_plan(
    loop: IrregularLoop,
    plan: Plan,
    cache: InspectorCache | None = None,
    transform: TransformPlan | None = None,
    cost_model=None,
) -> RunResult:
    """Execute ``loop`` as ``plan`` prescribes on the resolved backend.

    Only options the resolved backend supports are forwarded (per
    :data:`~repro.passes.spec.OPTION_SUPPORT`): when the auto-tuner
    rebases a chunked spec onto a chunk-less backend, ``plan.chunk`` is
    already ``None`` — an adaptation the plan records, not an ignored
    option.  An auto-planned run's wall time is fed back into the tuner
    store afterwards; it is observed only when ``spec.observe`` asks.  An
    unobserved, unvalidated run with a ``cache`` on a backend of
    :data:`_SHARED_RUNNERS` runs on the hook-free runner memoized there
    (``InspectorCache.runner_for``); every other run builds its own.

    The simulated backend runs the strategy ``transform`` names (default:
    what :func:`~repro.ir.transform.plan_transform` selects from the
    loop's structure and ``plan.verdict``); the wall-clock backends
    execute every strategy through the same generalized protocol.
    """
    spec = plan.spec
    backend = plan.backend
    supported = OPTION_SUPPORT[backend]
    verdict = plan.verdict

    def build(cache):
        return _backends().make_runner(
            spec=replace(
                spec,
                backend=backend,
                # The simulated backend models the inspector as a costed
                # phase; its analyze handling is planning-level (verdict
                # below).
                analyze=spec.analyze if backend != "simulated" else None,
                **{
                    option: None
                    for option in ("schedule", "chunk", "wait_timeout")
                    if option not in supported
                },
            ),
            cost_model=cost_model,
            cache=cache,
        )

    if (
        cache is not None
        and not spec.observe
        and spec.validate is None
        and backend in _SHARED_RUNNERS
    ):
        # A hook-free runner is kept on the cache for the next call with
        # this spec; every hooked run gets a fresh one.
        runner = cache.runner_for((spec, backend, cost_model), build)
    else:
        runner = build(cache)

    run_kwargs: dict = {}
    order_label = None
    if plan.order is not None:
        run_kwargs["order"] = plan.order
        order_label = f"doconsider(levels={plan.levels.n_levels})"
    if spec.schedule is not None and "schedule" in supported:
        run_kwargs["schedule"] = spec.schedule
    if plan.chunk is not None:
        run_kwargs["chunk"] = plan.chunk

    if backend == "simulated":
        if spec.analyze == "symbolic+check":
            from repro.analysis import cross_check

            cross_check(loop, verdict, strict=True)
        if transform is None:
            transform = plan_transform(loop, verdict=verdict)
        run_kwargs["transform"] = transform
        if order_label is not None:
            # The runner applies it where it executes the order (its doall
            # and classic strategies run in natural order).
            run_kwargs["order_label"] = order_label

    if plan.record is not None:
        # The plan-time record and its lookup outcome: the runner neither
        # looks it up again nor counts a second cache access.
        run_kwargs["planned"] = (plan.record, plan.record_cached)

    elision = plan.distance_elision
    if elision is not None:
        # The plan certified group-synchronous execution.
        run_kwargs["group_sync"] = elision["group"]

    result = runner.run(loop, **run_kwargs)

    if order_label is not None and backend in ("threaded", "multiproc"):
        # These execute whatever order they are handed, unlabelled (the
        # vectorized backend runs and labels its own wavefront order;
        # speculation commits in natural order and notes the order ignored).
        result.order_label = order_label
    result.extras["schedule_plan"] = plan.describe()
    if elision is not None:
        result.extras["distance_elision"] = {
            k: v for k, v in elision.items() if k != "certificate"
        }
    if backend == "simulated":
        # Every other backend was handed ``analyze`` and noted it itself.
        note_verdict(result, spec.analyze, verdict)

    if spec.backend == AUTO_BACKEND:
        # Every tuner candidate is a wall-clock runner: wall_seconds is set.
        result.extras["tuner"] = plan.tuner.as_dict()
        store = cache if cache is not None else default_tuner_store()
        record_run_outcome(store, plan.fingerprint, backend, result.wall_seconds)
    return result
