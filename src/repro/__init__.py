"""repro — a reproduction of *The Preprocessed Doacross Loop*.

Saltz & Mirchandaney's inspector/executor scheme for parallelizing loops
whose inter-iteration dependencies are only known at run time, rebuilt as a
Python library on a deterministic discrete-event model of a shared-memory
multiprocessor (the substitute for the paper's Encore Multimax/320 — see
DESIGN.md §3).

Quick start::

    import repro

    loop = repro.make_test_loop(n=1000, m=5, l=8)     # paper Figure 4
    runner = repro.PreprocessedDoacross(processors=16)
    result = runner.run(loop)
    print(result.summary())                            # efficiency, phases
    assert (result.y == loop.run_sequential()).all()   # exact semantics

Subpackages
-----------
- :mod:`repro.core` — the paper's contribution: the preprocessed doacross
  (``PreprocessedDoacross.run`` / ``run(linear=True)`` / ``run_stripmined``),
  doconsider reordering (``reorder="doconsider"``), amortized inspector
  reuse (``run_amortized``), and ``parallelize``,
  which also dispatches the classic doacross / doall baselines
  (``known_distance=`` / ``assert_independent=``).
- :mod:`repro.machine` — the simulated multiprocessor.
- :mod:`repro.ir` — the loop IR and the transformation "compiler".
- :mod:`repro.graph` — dependence DAG, wavefronts, critical paths.
- :mod:`repro.sparse` — CSR matrices, stencil and SPE operators, ILU(0),
  triangular solves (the Table-1 substrate).
- :mod:`repro.backends` — simulated, real-thread, vectorized-wavefront,
  and shared-memory multiprocessing executors behind one :class:`Runner`
  protocol, plus the inspector cache.
- :mod:`repro.workloads` — Figure-4 and synthetic loop generators.
- :mod:`repro.bench` — the experiment harness regenerating Figure 6 and
  Table 1, plus ablations.
- :mod:`repro.obs` — cross-backend telemetry: phase/level/compute/wait
  spans, the unified metrics registry, Chrome-trace / JSONL / ASCII-Gantt
  exporters, and the ``PlanSpec(observe=True)`` instrumentation hook.
- :mod:`repro.passes` — planning: the consolidated :class:`PlanSpec` run
  configuration, :func:`plan_loop` making the Figure-3 preprocessing
  decisions into one typed :class:`Plan` for every backend,
  :func:`execute_plan` running it, and the wall-time auto-tuner behind
  ``PlanSpec(backend="auto")``.
"""

from repro._version import __version__
from repro.backends import (
    BACKENDS,
    HookedRunner,
    InspectorCache,
    MultiprocRunner,
    Runner,
    SimulatedRunner,
    ThreadedRunner,
    VectorizedRunner,
    WaitLadder,
    make_runner,
)
from repro.core.doacross import PreprocessedDoacross, parallelize
from repro.core.results import RunResult
from repro.core.sequential import run_reference, sequential_time
from repro.core.serialize import result_to_dict, result_to_json, results_to_csv
from repro.core.verify import VerificationReport, verify_loop
from repro.core.workspace import MAXINT, DoacrossWorkspace
from repro.errors import (
    InvalidLoopError,
    OutputDependenceError,
    RaceConditionError,
    ReproError,
    ScheduleError,
    SimulationDeadlockError,
    TelemetryError,
    WaitTimeout,
)
from repro.ir.accesses import ReadTable
from repro.ir.frontend import loop_from_source
from repro.ir.loop import INIT_EXTERNAL, INIT_OLD_VALUE, IrregularLoop
from repro.ir.subscript import AffineSubscript, IndirectSubscript
from repro.ir.transform import TransformPlan, plan_transform
from repro.lint import (
    Diagnostic,
    RaceReport,
    check_backend_schedule,
    format_diagnostics,
    run_lints,
)
from repro.machine.costs import CostModel, WorkProfile
from repro.machine.engine import Machine
from repro.obs import (
    MetricsRegistry,
    Telemetry,
    chrome_trace,
    validate_telemetry,
)
from repro.passes import (
    Plan,
    PlanSpec,
    UnsupportedPlanOption,
    execute_plan,
    plan_loop,
)
from repro.workloads.synthetic import chain_loop, random_irregular_loop
from repro.workloads.testloop import make_test_loop

__all__ = [
    "__version__",
    # Core runners
    "PreprocessedDoacross",
    "parallelize",
    # Backends
    "Runner",
    "SimulatedRunner",
    "ThreadedRunner",
    "VectorizedRunner",
    "MultiprocRunner",
    "WaitLadder",
    "InspectorCache",
    "HookedRunner",
    "make_runner",
    "BACKENDS",
    "run_reference",
    "sequential_time",
    "RunResult",
    "DoacrossWorkspace",
    "MAXINT",
    "verify_loop",
    "VerificationReport",
    "result_to_dict",
    "result_to_json",
    "results_to_csv",
    # IR
    "IrregularLoop",
    "ReadTable",
    "AffineSubscript",
    "IndirectSubscript",
    "INIT_OLD_VALUE",
    "INIT_EXTERNAL",
    "TransformPlan",
    "plan_transform",
    "loop_from_source",
    # Machine
    "Machine",
    "CostModel",
    "WorkProfile",
    # Workloads
    "make_test_loop",
    "random_irregular_loop",
    "chain_loop",
    # Planning
    "PlanSpec",
    "Plan",
    "UnsupportedPlanOption",
    "plan_loop",
    "execute_plan",
    # Observability
    "Telemetry",
    "MetricsRegistry",
    "validate_telemetry",
    "chrome_trace",
    # Static analysis
    "run_lints",
    "Diagnostic",
    "format_diagnostics",
    "RaceReport",
    "check_backend_schedule",
    # Errors
    "ReproError",
    "InvalidLoopError",
    "OutputDependenceError",
    "RaceConditionError",
    "ScheduleError",
    "SimulationDeadlockError",
    "TelemetryError",
    "WaitTimeout",
]
