"""The one table of experiments.

Every artifact the package regenerates — the paper's Figure 6 and Table 1,
the two extension tables, ablations A–H and the model validation — is one
:class:`Experiment` record in :data:`EXPERIMENTS`.  Everything that
enumerates experiments iterates that tuple: the ``python -m repro``
experiment commands (print the report, then run the check), the tier-1
shape tests (``tests/test_experiments.py``: the check at reduced size, and
once at full size), the golden cycle counts
(``benchmarks/update_golden.py``) and DESIGN.md §5 (:func:`design_index`).
A new experiment is one more record.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.bench import ablations, model
from repro.bench.amortized_table import AmortizedTableResult, run_amortized_table
from repro.bench.figure6 import Figure6Result, run_figure6
from repro.bench.krylov_fraction import KrylovFractionResult, run_krylov_fraction
from repro.bench.table1 import Table1Result, run_table1

__all__ = ["Experiment", "EXPERIMENTS", "design_index"]


@dataclass(frozen=True)
class Experiment:
    """One experiment: how to run, print and check it, and what DESIGN.md
    says about it."""

    #: Key in this table; also the golden file's stem and the test id.
    name: str
    #: DESIGN.md §5 cells: id, workload and parameters, modules exercised.
    ident: str
    workload: str
    modules: str
    #: ``run()`` is the full-size experiment, ``run(**reduced)`` the fast one
    #: with the same shape; both return rows, or a result object with
    #: ``rows`` (:func:`repro.bench.harness.rows_of`).
    run: Callable[..., object]
    reduced: dict
    #: ``report(result)`` is the text to print; ``check(result)`` raises
    #: :class:`AssertionError` when the shape stops reproducing.
    report: Callable[[object], str]
    check: Callable[[object], None]
    #: The ``python -m repro`` command that runs it (several experiments may
    #: share one), and which of that command's parsed options ``run`` takes.
    command: str | None = None
    options: tuple[str, ...] = ()


def _ablation(
    letter: str,
    origin: str,
    title: str,
    workload: str,
    modules: str,
    run: Callable,
    check: Callable,
    reduced: dict,
    options: tuple[str, ...] = (),
) -> Experiment:
    """One ablation: they share a command, a report layout and a naming
    scheme."""
    return Experiment(
        name=f"ablation-{letter.lower()}",
        ident=f"**Abl. {letter}** ({origin})",
        workload=workload,
        modules=modules,
        run=run,
        reduced=reduced,
        report=ablations.report(f"Ablation {letter} — {title}"),
        check=check,
        command="ablations",
        options=options,
    )


EXPERIMENTS: tuple[Experiment, ...] = (
    Experiment(
        name="figure6",
        ident="**Fig. 6**",
        workload="Figure-4 loop, `N=10000`, `M∈{1,5}`, `L=1..14`, `a(i)=2i`, "
        "`b(i)=2i`, `nbrs(j)=2j−L`, `P=16`, cyclic chunk-1 schedule",
        modules="`workloads.testloop`, `ir.transform`, `core.doacross`, "
        "`backends.simulated`",
        run=run_figure6,
        reduced={"n": 2000},
        report=Figure6Result.report,
        check=Figure6Result.check_shape,
        command="figure6",
        options=("n",),
    ),
    Experiment(
        name="table1",
        ident="**Table 1**",
        workload="Figure-7 triangular solve on L factors of ILU(0) for SPE2 "
        "(6×6×5, 6×6 blocks), SPE5 (16×23×3, 3×3 blocks), 5-PT (63×63), 7-PT "
        "(20³), 9-PT (63×63); `P=16`; natural order vs doconsider (level) "
        "order",
        modules="`sparse.spe`, `sparse.ilu`, `sparse.trisolve`, "
        "`core.doacross`, `core.doconsider`, `graph.levels`",
        run=run_table1,
        reduced={"small": True},
        report=Table1Result.report,
        check=Table1Result.check_shape,
        command="table1",
        options=("small",),
    ),
    _ablation(
        "A", "ours", "schedule kind x chunk",
        "Figure-4 loop (`N=10000`, `M=1`, `L=8`), schedule kind ∈ {cyclic, "
        "block, dynamic, guided} × chunk ∈ {1,4,16,64}",
        "`machine.scheduler`",
        ablations.ablation_scheduling, ablations.check_scheduling,
        reduced={"n": 2000},
    ),
    _ablation(
        "B", "ours", "strip-mine block size",
        "Figure-4 loop (`M=2`, `L=8`), strip-mine block ∈ "
        "{250,500,1000,2500,10000}",
        "`core.doacross` (`run_stripmined`), `backends.simulated`",
        ablations.ablation_stripmine, ablations.check_stripmine,
        reduced={"n": 2000, "blocks": (100, 500, 2000)},
    ),
    _ablation(
        "C", "§2.3", "linear-subscript variant",
        "Figure-4 loop (`M∈{1,5}`, `L=7`) with/without linear-subscript "
        "inspector elimination",
        "`core.doacross` (`run(linear=True)`), `backends.simulated`",
        ablations.ablation_linear, ablations.check_linear,
        reduced={"n": 2000},
    ),
    _ablation(
        "D", "ours", "processor sweep (5-PT trisolve)",
        "5-PT triangular solve, P ∈ {1,2,4,8,16,32}, natural and doconsider "
        "order",
        "`bench.ablations`",
        ablations.ablation_processors, ablations.check_processors,
        reduced={"small": True},
        options=("small",),
    ),
    _ablation(
        "E", "ours", "bus contention",
        "Figure-4 loop (`M=2`, `L=5`), shared-bus cost per access ∈ "
        "{0,1,2,4} (0: bus model off)",
        "`machine.resource`",
        ablations.ablation_bus, ablations.check_bus,
        reduced={"n": 2000},
    ),
    _ablation(
        "F", "ours", "coherence misses x schedule (distance-1 chain)",
        "coherence-miss cost ∈ {0,10,50,200} × schedule ∈ {cyclic, block} on "
        "a distance-1 chain",
        "`machine.engine`, `backends.simulated`",
        ablations.ablation_coherence, ablations.check_coherence,
        reduced={"n": 1000},
    ),
    # H before G: the order `python -m repro ablations` prints them in.
    _ablation(
        "H", "ours", "processor sweep on the Figure-4 loop",
        "Figure-4 loop (`N=4000`, `M=1`), P ∈ {1..32}, dependence-free "
        "(`L=3`) vs distance-1 chain (`L=4`) vs distance-4 (`L=10`)",
        "`bench.ablations`",
        ablations.ablation_processors_testloop,
        ablations.check_processors_testloop,
        reduced={"n": 1500},
    ),
    _ablation(
        "G", "ours", "inspector amortization over repeated instances",
        "inspector amortization over {1,2,5,10,20} repeated instances of a "
        "Figure-4 loop (`N=4000`, `M=1`, `L=5`)",
        "`core.doacross` (`run_amortized`)",
        ablations.ablation_amortization, ablations.check_amortization,
        reduced={"n": 1000},
    ),
    Experiment(
        name="model",
        ident="**Model** (ours)",
        workload="closed-form predictions vs simulation, Figure-4 grid "
        "(`M∈{1,2,5}` × `L∈{3,4,8,12,14}`) + chains (`d∈{1,4,16}`); worst "
        "relative error < 7%",
        modules="`bench.model`",
        run=model.run_model_validation,
        reduced={"n": 1000, "chain_n": 750},
        report=model.report_model,
        check=model.check_model,
    ),
    Experiment(
        name="table2",
        ident='**"Table 2"** (ours)',
        workload="Table-1 problems × {full, reordered, amortized, "
        "amort+reord}, per-solve cost over 10 solves",
        modules=(
            "`core.doacross` (`run_amortized`, `reorder=\"doconsider\"`), "
            "`core.doconsider`, `bench.amortized_table`"
        ),
        run=run_amortized_table,
        reduced={"small": True},
        report=AmortizedTableResult.report,
        check=AmortizedTableResult.check_shape,
        command="table2",
        options=("small", "instances"),
    ),
    Experiment(
        name="krylov",
        ident="**Krylov** (ours; §3.2's framing)",
        workload="ILU(0)-preconditioned CG (stencils) / GMRES (SPE), "
        "sequential vs parallel-doacross solves, all five problems",
        modules="`sparse.krylov`, `bench.krylov_fraction`",
        run=run_krylov_fraction,
        reduced={"small": True},
        report=KrylovFractionResult.report,
        check=KrylovFractionResult.check_shape,
        command="krylov",
        options=("small",),
    ),
)


def design_index() -> str:
    """DESIGN.md §5's per-experiment index, generated (``tests/test_docs.py``
    asserts the file holds exactly this)."""
    lines = [
        "| Id | Workload & parameters | Modules | Run |",
        "|---|---|---|---|",
    ]
    for exp in EXPERIMENTS:
        where = (
            f"`python -m repro {exp.command}`"
            if exp.command
            else "tier-1 only (`tests/test_experiments.py`)"
        )
        lines.append(
            f"| {exp.ident} | {exp.workload} | {exp.modules} | {where} |"
        )
    return "\n".join(lines)
