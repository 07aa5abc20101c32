"""Closed-form performance model of the preprocessed doacross.

The simulator executes the transformed loops event by event; this module
predicts the same makespans from closed forms — the kind of back-of-envelope
analysis §3.1 of the paper does in prose ("the efficiencies we see for those
L values reflect the overheads of...").  The model covers the two regimes a
cyclic chunk-1 executor exhibits:

- **throughput-bound**: no (binding) chain; the executor span is each
  processor's share of per-iteration work, and the total adds the
  inspector/postprocessor shares and three barriers.  Dependence-free loops
  (odd ``L``) land exactly here — the Figure-6 plateau.
- **chain-bound**: a uniform-distance recurrence paces execution.  After
  the binding wait only the *post-wake* work remains per chain link (flag
  check, the awaited term's consume, any later terms, the flag set), so
  ``chain span ≈ (n / d) · step``.  The executor span is the max of the
  two regimes.

Accuracy is a tested property: predictions must track the simulator within
a tight relative tolerance across the Figure-4 family and chain loops
(:func:`run_model_validation` builds the predicted-vs-simulated table,
:func:`check_model` bounds its worst row) — a regression net for both the
model *and* the simulator: an unintended cost change breaks it immediately.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bench.harness import ExperimentRow, require
from repro.bench.reporting import format_table
from repro.core.doacross import PreprocessedDoacross
from repro.core.results import RunResult
from repro.machine.costs import DEFAULT_COST_MODEL, CostModel, WorkProfile
from repro.workloads.synthetic import chain_loop
from repro.workloads.testloop import dependence_distances, make_test_loop

__all__ = [
    "ModelPrediction",
    "predict_dependence_free",
    "predict_figure4",
    "predict_chain_loop",
    "relative_error",
    "run_model_validation",
    "check_model",
    "report_model",
]

#: Worst relative error on total makespan the model may show (measured 6.2%).
MAX_RELATIVE_ERROR = 0.07


@dataclass(frozen=True)
class ModelPrediction:
    """Predicted cycle counts for one preprocessed-doacross run."""

    n: int
    processors: int
    inspector: int
    executor_throughput: int
    executor_chain: int
    postprocessor: int
    barriers: int
    sequential: int

    @property
    def executor(self) -> int:
        return max(self.executor_throughput, self.executor_chain)

    @property
    def total(self) -> int:
        return self.inspector + self.executor + self.postprocessor + self.barriers

    @property
    def efficiency(self) -> float:
        return self.sequential / (self.processors * self.total)

    @property
    def regime(self) -> str:
        return (
            "chain-bound"
            if self.executor_chain > self.executor_throughput
            else "throughput-bound"
        )


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def _base_prediction(
    n: int,
    terms: int,
    processors: int,
    cm: CostModel,
    work: WorkProfile,
    chain_span: int,
) -> ModelPrediction:
    share = _ceil_div(n, processors)
    exec_iter = (
        cm.exec_iter_overhead
        + work.overhead
        + terms * (work.term + cm.dep_check)
        + cm.flag_set
    )
    return ModelPrediction(
        n=n,
        processors=processors,
        inspector=share * cm.pre_iter,
        executor_throughput=share * exec_iter,
        executor_chain=chain_span,
        postprocessor=share * cm.post_iter,
        barriers=3 * cm.barrier(processors),
        sequential=n * (work.overhead + terms * work.term),
    )


def predict_dependence_free(
    n: int,
    terms: int,
    processors: int,
    cost_model: CostModel | None = None,
    work: WorkProfile | None = None,
) -> ModelPrediction:
    """Prediction for a loop with no cross-iteration true dependencies
    (the Figure-6 odd-``L`` plateau)."""
    cm = cost_model if cost_model is not None else DEFAULT_COST_MODEL
    return _base_prediction(
        n, terms, processors, cm, cm.effective_work(work), chain_span=0
    )


def predict_chain_loop(
    n: int,
    distance: int,
    processors: int,
    cost_model: CostModel | None = None,
    work: WorkProfile | None = None,
) -> ModelPrediction:
    """Prediction for ``y[i] += c·y[i−d]`` (one term per iteration,
    iterations ``< d`` term-free) under a cyclic chunk-1 schedule."""
    cm = cost_model if cost_model is not None else DEFAULT_COST_MODEL
    w = cm.effective_work(work)
    step = cm.flag_check + w.term_consume + cm.flag_set
    # d independent chains of ~n/d links each, pipelined across processors
    # (needs P > d for full overlap; the simulator confirms the boundary).
    chain_span = _ceil_div(n, distance) * step if distance < n else 0
    # terms=1 slightly overstates sequential time (the first d iterations
    # are term-free); correct exactly.
    pred = _base_prediction(n, 1, processors, cm, w, chain_span)
    sequential = n * w.overhead + (n - distance) * w.term
    return ModelPrediction(
        n=pred.n,
        processors=pred.processors,
        inspector=pred.inspector,
        executor_throughput=pred.executor_throughput,
        executor_chain=pred.executor_chain,
        postprocessor=pred.postprocessor,
        barriers=pred.barriers,
        sequential=sequential,
    )


def predict_figure4(
    n: int,
    m: int,
    l: int,
    processors: int,
    cost_model: CostModel | None = None,
) -> ModelPrediction:
    """Prediction for the Figure-4/Figure-6 loop under cyclic chunk-1.

    For even ``L``, term ``j`` carries a true dependence of distance
    ``d_j = L/2 − j`` (when positive).  Each dependent term imposes a chain
    rate: iteration ``i`` cannot finish earlier than ``d_j`` links' worth
    of *post-wake tail* after iteration ``i − d_j`` — waking at term ``j``,
    executing every later term (satisfied waits included), and setting the
    flag.  The binding rate is the maximum of ``tail_j / d_j`` over the
    dependent terms; the chain span is ``n`` times that rate.
    """
    cm = cost_model if cost_model is not None else DEFAULT_COST_MODEL
    w = cm.work
    distances = dependence_distances(m, l)
    if not distances:
        return predict_dependence_free(n, m, processors, cm)
    half = l // 2

    def is_true_dep(j: int) -> bool:
        return 1 <= half - j

    rate = 0.0
    for j in range(1, m + 1):
        if not is_true_dep(j):
            continue
        d_j = half - j
        tail = cm.flag_check + w.term_consume + cm.flag_set
        for later in range(j + 1, m + 1):
            tail += cm.dep_check + w.term
            if is_true_dep(later):
                tail += cm.flag_check  # satisfied wait still checks once
        rate = max(rate, tail / d_j)
    chain_span = int(n * rate)
    return _base_prediction(n, m, processors, cm, w, chain_span)


def relative_error(prediction: ModelPrediction, result: RunResult) -> float:
    """|predicted − simulated| / simulated, on total makespan."""
    if result.total_cycles == 0:
        return 0.0 if prediction.total == 0 else float("inf")
    return abs(prediction.total - result.total_cycles) / result.total_cycles


def run_model_validation(
    n: int = 4000, chain_n: int = 3000, processors: int = 16
) -> list[ExperimentRow]:
    """Predicted vs simulated makespan across the Figure-4 family
    (``M`` × ``L`` grid, both regimes) and distance-``d`` chain loops."""
    cases = [
        (
            f"fig4 M={m} L={l}",
            make_test_loop(n=n, m=m, l=l),
            predict_figure4(n, m, l, processors),
        )
        for m in (1, 2, 5)
        for l in (3, 4, 8, 12, 14)
    ] + [
        (
            f"chain d={d}",
            chain_loop(chain_n, d),
            predict_chain_loop(chain_n, d, processors),
        )
        for d in (1, 4, 16)
    ]
    runner = PreprocessedDoacross(processors=processors)
    rows = []
    for label, loop, prediction in cases:
        simulated = runner.run(loop)
        rows.append(
            ExperimentRow(
                label=label,
                params={"regime": prediction.regime},
                result=simulated,
                metrics={
                    "predicted_cycles": prediction.total,
                    "relative_error": relative_error(prediction, simulated),
                },
            )
        )
    return rows


def check_model(rows: list[ExperimentRow]) -> None:
    """The model tracks the simulator within :data:`MAX_RELATIVE_ERROR`."""
    worst = max(rows, key=lambda r: r.metrics["relative_error"])
    require(
        worst.metrics["relative_error"] < MAX_RELATIVE_ERROR,
        f"{worst.label}: model is {worst.metrics['relative_error']:.3f} off "
        f"the simulator (bound {MAX_RELATIVE_ERROR})",
    )


def report_model(rows: list[ExperimentRow]) -> str:
    table = format_table(
        ["workload", "regime", "predicted", "simulated", "rel err"],
        [
            (
                r.label,
                r.params["regime"],
                r.metrics["predicted_cycles"],
                r.result.total_cycles,
                r.metrics["relative_error"],
            )
            for r in rows
        ],
        title="Analytic model vs. discrete-event simulation",
    )
    worst = max(r.metrics["relative_error"] for r in rows)
    return f"{table}\n\nworst relative error: {worst:.3f}\n"
