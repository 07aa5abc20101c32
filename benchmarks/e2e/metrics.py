"""The metric catalogue: every name the benchmark reports, its unit and
direction, the bound of each end-to-end metric, and — for each per-layer
metric — which end-to-end metric it should move on which workload.

``BENCHMARK.json`` at the repository root is generated from this file
(``python3 benchmarks/e2e/run.py --benchmark-json > BENCHMARK.json``); its format has
no room for the interaction list, sizes or seeds, so those live here and
in README.md.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Seconds one run measures (``BENCHMARK.json`` ``run_seconds``).
RUN_SECONDS = 30

LAYER_BACKENDS = ("vectorized", "multiproc", "speculative", "threaded")


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" | "higher"
    what: str
    bound: float | None = None  # end-to-end only: allowed worsening
    moves: str = ""  # per-layer only: "<end-to-end metric> on <workload>"


# Bounds are about three times the widest run-to-run spread (quartile
# distance over median) seen on this box in its noisy spells, capped at
# the contract's 0.25: see README.md, "Why the bounds are what they are".
END_TO_END = (
    Metric("setup_s", "s", "lower",
           "workload generation (stencil + ILU(0) + loop build), median of at "
           "least five set-ups spread over the run, at its fastest reference speed", 0.25),
    Metric("rel_seq", "x_ref", "lower",
           "loop.run_sequential() / ref: the oracle itself", 0.25),
    Metric("rel_cold.vectorized", "x_ref", "lower",
           "cold operation, vectorized", 0.25),
    Metric("rel_warm.vectorized", "x_ref", "lower",
           "warm operation, vectorized", 0.25),
    Metric("rel_warm.simulated", "x_ref", "lower",
           "wall cost of one 16-processor simulation", 0.25),
    Metric("sim_efficiency", "ratio", "higher",
           "RunResult.efficiency of that simulation (exact for a given seed)", 0.05),
    Metric("peak_rss_mb", "MiB", "lower",
           "ru_maxrss of the driver plus its largest child", 0.10),
)


def _per_backend(template: str, unit: str, better: str, what: str, moves: str):
    return tuple(
        Metric(template.format(b=b), unit, better, what.format(b=b), moves=moves.format(b=b))
        for b in LAYER_BACKENDS
    )


_WARM_ALL = "rel_warm.{b} on every workload"

PER_LAYER = (
    Metric("fail_share", "ratio", "lower",
           "failed / attempted operations (exception, timeout, output not "
           "bitwise the reference, leak)", moves="none: must stay 0 everywhere"),
    Metric("rel_cold.multiproc", "x_ref", "lower",
           "cold operation, 2 worker processes: demoted from end-to-end, it "
           "moved by a fifth between runs on krylov_churn (a pool per call)",
           moves="none: ungated, see README"),
    Metric("rel_warm.multiproc", "x_ref", "lower",
           "warm operation, 2 worker processes: demoted with its cold twin",
           moves="none: ungated, see README"),
    Metric("rel_warm.speculative", "x_ref", "lower",
           "warm operation, 2 worker threads (no inspector, so no cold twin): "
           "demoted from end-to-end, quartile distance 15.5 % on fig4_chain",
           moves="none: ungated, see README"),
    Metric("rel_warm.threaded", "x_ref", "lower",
           "warm operation, 2 threads: a protocol demonstration, too "
           "unsteady on two cores to gate", moves="none: ungated by design"),
    # health of the benchmark itself
    Metric("bench.ref_s", "s", "lower", "median reference-interpreter time",
           moves="none: the base of every x_ref ratio"),
    Metric("bench.bracket_reject_share", "ratio", "lower",
           "samples dropped because their two reference brackets disagreed",
           moves="none: above 0.6 the box is too noisy to trust the run"),
    Metric("bench.trace_overhead", "ratio", "lower",
           "traced, decomposed vectorized warm operation / untraced one - 1",
           moves="none: what the spans and the re-enactment cost"),
    Metric("sparse.ilu0_s", "s", "lower", "ILU(0) factorisation (0 off trisolve_5pt)",
           moves="setup_s on trisolve_5pt"),
    Metric("sparse.loop_build_s", "s", "lower",
           "stencil + lower_solve_loop (0 off trisolve_5pt)",
           moves="setup_s on trisolve_5pt"),
    Metric("ir.seq_s", "s", "lower", "run_sequential over the call sequence",
           moves="rel_seq on every workload"),
    Metric("cache.fingerprint_s", "s", "lower", "loop_fingerprint, paid per call",
           moves="rel_warm.* on krylov_churn"),
    Metric("cache.hits", "count", "higher",
           "hits of the vectorized pass's cache: plan cold and warm, three runs, execute_plan, one operation",
           moves="rel_warm.vectorized on krylov_churn"),
    Metric("cache.misses", "count", "lower", "misses of the same cache over the same calls",
           moves="rel_cold.vectorized on krylov_churn"),
    Metric("cache.hit_ratio", "ratio", "higher", "hits / (hits + misses)",
           moves="rel_warm.vectorized on krylov_churn"),
    Metric("cache.bytes", "B", "lower", "bytes the cache holds after the passes",
           moves="peak_rss_mb on trisolve_5pt and fig4_doall"),
    Metric("cache.build_record_s", "s", "lower", "build_inspector_record per structure",
           moves="rel_cold.* on fig4_chain and trisolve_5pt; nothing on fig4_doall"),
    Metric("graph.depgraph_s", "s", "lower", "DependenceGraph.from_loop per structure",
           moves="rel_cold.vectorized on fig4_chain and trisolve_5pt"),
    Metric("graph.levels_s", "s", "lower", "compute_levels per structure",
           moves="rel_cold.vectorized on fig4_chain; about 0 on fig4_doall"),
    Metric("graph.n_levels", "count", "lower", "wavefronts, summed over structures",
           moves="rel_warm.vectorized on fig4_chain (per-level dispatch)"),
    Metric("graph.max_width", "count", "higher", "widest wavefront",
           moves="rel_warm.vectorized on fig4_doall (bulk kernel)"),
    Metric("analysis.analyze_s", "s", "lower", "analyze_loop per structure, memo off",
           moves="rel_cold.vectorized on fig4_doall if elision became default"),
    Metric("analysis.verdict", "code", "higher",
           "0 runtime-only, 1 injective-write, 2 min-distance-k, 3 constant-distance, 4 doall-proven",
           moves="rel_cold.vectorized on fig4_doall if elision became default"),
    Metric("analysis.elide_gain.vectorized", "ratio", "lower",
           "cold with analyze='symbolic' / cold default",
           moves="rel_cold.vectorized on fig4_doall if elision became default"),
    *(
        Metric(f"passes.plan_cold_s.{b}", "s", "lower", f"plan_loop on a fresh cache, {b}",
               moves=(f"rel_cold.{b} on fig4_chain and trisolve_5pt"
                      if b in ("vectorized", "multiproc")
                      else "nothing gated: only the first call of a structure pays it"))
        for b in LAYER_BACKENDS
    ),
    *_per_backend("passes.plan_warm_s.{b}", "s", "lower",
                  "plan_loop on the filled cache, {b}", _WARM_ALL),
    *_per_backend("passes.execute_s.{b}", "s", "lower",
                  "execute_plan on prebuilt plans, {b}", _WARM_ALL),
    *_per_backend("passes.plan_share.{b}", "ratio", "lower",
                  "plan_warm / (plan_warm + execute), {b}",
                  "rel_warm.{b} on fig4_chain and krylov_churn"),
    Metric("passes.doconsider_s", "s", "lower",
           "plan_loop with reorder='doconsider' on a filled cache (simulated)",
           moves="nothing by default; core.doconsider.sim_efficiency on trisolve_5pt"),
    Metric("passes.auto_choice", "code", "lower",
           "backend='auto' steady choice: 0 vectorized, 1 threaded, 2 multiproc, 3 speculative",
           moves="none: informational"),
    Metric("passes.auto_rel_steady", "x_ref", "lower",
           "backend='auto' operation once the tuner exploits",
           moves="none: should track the best rel_warm.* of the workload"),
    *_per_backend("backends.rel_run.{b}", "x_ref", "lower",
                  "steady make_runner(spec).run on a persistent {b} runner",
                  "rel_warm.{b}: kernel on fig4_doall and trisolve_5pt, per-level and waits on fig4_chain"),
    *_per_backend("backends.construct_s.{b}", "s", "lower",
                  "make_runner + first run - steady run, {b} (pool spawn, sessions)",
                  "rel_warm.{b} on krylov_churn"),
    Metric("backends.vectorized.per_level_us", "us", "lower", "steady run / wavefronts",
           moves="rel_warm.vectorized on fig4_chain"),
    Metric("backends.multiproc.wait_share", "ratio", "lower", "wait / (wait + compute), mean over lanes",
           moves="rel_warm.multiproc on fig4_chain"),
    Metric("backends.threaded.wait_share", "ratio", "lower", "wait / (wait + compute), mean over lanes",
           moves="rel_warm.threaded on fig4_chain"),
    Metric("backends.speculative.rounds", "count", "lower", "speculation rounds",
           moves="rel_warm.speculative on fig4_chain"),
    Metric("backends.speculative.chunks_conflicted", "count", "lower", "chunks that saw a conflict",
           moves="rel_warm.speculative on fig4_chain"),
    Metric("backends.speculative.chunks_rolled_back", "count", "lower", "chunk executions thrown away",
           moves="rel_warm.speculative on fig4_chain"),
    Metric("backends.speculative.fallback_chunks", "count", "lower", "chunks run by the sequential fallback",
           moves="rel_warm.speculative on fig4_chain"),
    Metric("backends.speculative.commit_ratio", "ratio", "higher",
           "useful / attempted chunk executions: 1.0 on fig4_doall, collapses on fig4_chain",
           moves="rel_warm.speculative on fig4_chain and krylov_churn"),
    *_per_backend("obs.inspector_s.{b}", "s", "lower",
                  "inspector phase span of an observe=True warm run, {b}",
                  "rel_warm.{b} on trisolve_5pt (what a warm run still inspects)"),
    *_per_backend("obs.executor_s.{b}", "s", "lower",
                  "executor phase span (speculate rounds for speculative), {b}", _WARM_ALL),
    *_per_backend("obs.post_s.{b}", "s", "lower",
                  "postprocess phase span (commit for speculative), {b}",
                  "rel_warm.{b} on fig4_doall"),
    *_per_backend("obs.overhead.{b}", "ratio", "lower",
                  "observe=True operation / bare operation - 1, {b}",
                  "nothing by default; the wrapper cost, visible on krylov_churn"),
    Metric("sanitize.overhead.vectorized", "ratio", "lower", "validate='sanitize' / bare - 1",
           moves="none: guard for wrapper refactors"),
    Metric("sanitize.overhead.multiproc", "ratio", "lower", "validate='sanitize' / bare - 1",
           moves="none: guard for wrapper refactors"),
    Metric("lint.static_validate_s", "s", "lower",
           "validate='static' - bare, vectorized (trisolve_5pt only, else 0)",
           moves="none: guard for wrapper refactors"),
    Metric("machine.sim_cycles", "cycles", "lower", "simulated makespan, exact",
           moves="sim_efficiency on every workload"),
    Metric("machine.seq_cycles", "cycles", "lower", "simulated sequential time, exact",
           moves="sim_efficiency on every workload"),
    Metric("machine.wait_cycles", "cycles", "lower", "simulated busy-wait cycles, exact",
           moves="sim_efficiency on fig4_chain"),
    Metric("machine.sim_s", "s", "lower", "wall seconds of the simulation",
           moves="rel_warm.simulated on every workload"),
    Metric("machine.cycles_per_s", "cycles/s", "higher", "simulated cycles per wall second",
           moves="rel_warm.simulated on every workload"),
    Metric("core.doconsider.sim_efficiency", "ratio", "higher",
           "efficiency with reorder='doconsider', Table 1's second column "
           "(trisolve_5pt only, else 0)", moves="none: the paper's reordering result"),
)

PER_LAYER_NAMES = frozenset(m.name for m in PER_LAYER)

#: Values that must be identical between two runs of one commit and seed.
EXACT = (
    "sim_efficiency", "cache.hits", "cache.misses", "graph.n_levels",
    "graph.max_width", "machine.sim_cycles", "machine.seq_cycles",
    "machine.wait_cycles",
)
#: Speculation is deterministic only where nothing conflicts.
EXACT_ON = {
    "fig4_doall": tuple(
        f"backends.speculative.{k}"
        for k in ("rounds", "chunks_conflicted", "chunks_rolled_back",
                  "fallback_chunks", "commit_ratio")
    ),
}


def benchmark_json() -> dict:
    from benchmarks.e2e.workloads import DEFAULT_SEED, HELDOUT_SEED, WORKLOADS

    seeds = f"; default seed {DEFAULT_SEED}, held-out {HELDOUT_SEED}"
    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": w.name, "why": w.why + seeds} for w in WORKLOADS.values()
        ],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }

