"""The traced run: one pass times every layer from outside, around public
calls only, under the span recorder.  ``LayerPass.run`` returns the
per-layer metrics of one pass; the driver repeats it while time remains
and reports medians.

Times are seconds per *operation* (the workload's whole call sequence);
work that is done once per structure (graph, levels, inspector record,
analysis) is summed over the sequence's distinct loops, which is what a
cold pass pays.
"""

from __future__ import annotations

from collections import Counter

from repro import InspectorCache, make_runner
from repro.analysis import analyze_loop
from repro.backends.cache import build_inspector_record, loop_fingerprint
from repro.graph.depgraph import DependenceGraph
from repro.graph.levels import compute_levels
from repro.ir.transform import plan_transform
from repro.passes import execute_plan, plan_loop
from repro.passes.autotune import AUTO_CANDIDATES

from benchmarks.e2e.cells import SINGLE_THREADED, operation, spec_for
from benchmarks.e2e.estimator import Estimator
from benchmarks.e2e.metrics import LAYER_BACKENDS, PER_LAYER_NAMES
from benchmarks.e2e.spans import SpanRecorder

#: ``analysis.verdict`` as a number: how much the symbolic engine proved.
VERDICT_CODES = {
    "runtime-only": 0,
    "injective-write": 1,
    "min-distance": 2,
    "constant-distance": 3,
    "doall-proven": 4,
}

#: Most auto-tuner operations to run while waiting for it to stop exploring.
_AUTO_OPS = 6


def verdict_code(kind: str) -> int:
    return VERDICT_CODES["min-distance" if kind.startswith("min-distance-") else kind]


def _close(runner) -> None:
    """Stop whatever pool the innermost runner of a wrapper chain owns."""
    while hasattr(runner, "inner"):
        runner = runner.inner
    if hasattr(runner, "close"):
        runner.close()


class LayerPass:
    def __init__(self, built, est: Estimator, rec: SpanRecorder, name: str):
        self.calls = built.calls
        self.unique = built.unique
        self.expected = built.expected
        self.est = est
        self.rec = rec
        self.workload = name
        self.m: dict[str, float] = {}

    # -- helpers -------------------------------------------------------
    def _spanned(self, name: str, fn, **attrs):
        with self.rec.span(name, **attrs) as s:
            out = fn()
        return s["end"] - s["start"], out

    def _checked(self, label: str, results) -> None:
        self.est.tally.check(label, [r.y for r in results], self.expected)

    def _bare(self, label: str, spec, cache) -> float:
        """Seconds of one untraced, unbracketed operation, checked."""
        seconds, (_ys, results) = self._spanned(
            "operation", lambda: operation(self.calls, spec, cache), cell=label
        )
        self._checked(label, results)
        return seconds

    # -- structure layers ----------------------------------------------
    def structure(self) -> None:
        m, unique = self.m, self.unique
        m["cache.fingerprint_s"], _ = self._spanned(
            "fingerprint", lambda: [loop_fingerprint(loop) for loop in self.calls]
        )
        m["graph.depgraph_s"], graphs = self._spanned(
            "depgraph", lambda: [DependenceGraph.from_loop(loop) for loop in unique]
        )
        m["graph.levels_s"], schedules = self._spanned(
            "levels", lambda: [compute_levels(g) for g in graphs]
        )
        m["graph.n_levels"] = sum(s.n_levels for s in schedules)
        m["graph.max_width"] = max(s.max_width() for s in schedules)
        m["cache.build_record_s"], _ = self._spanned(
            "build_record", lambda: [build_inspector_record(loop) for loop in unique]
        )
        m["analysis.analyze_s"], verdicts = self._spanned(
            "analyze", lambda: [analyze_loop(loop, use_cache=False) for loop in unique]
        )
        m["analysis.verdict"] = verdict_code(verdicts[0].kind)
        self.est.sample(
            "ir.seq", lambda: ([loop.run_sequential() for loop in self.calls], None)
        )

    # -- one wall-clock backend ------------------------------------------
    def backend(self, b: str) -> None:
        m = self.m
        spec, cache = spec_for(b), InspectorCache()
        plans, traced_s, steady_s = self._plan_and_run(b, spec, cache)

        execute_s, results = self._spanned(
            "execute_plan",
            lambda: [execute_plan(x, p, cache) for x, p in zip(self.calls, plans)],
            backend=b,
        )
        self._checked(f"execute_plan.{b}", results)
        plan_s = m[f"passes.plan_warm_s.{b}"]
        m[f"passes.execute_s.{b}"] = execute_s
        m[f"passes.plan_share.{b}"] = plan_s / (plan_s + execute_s)

        # End-to-end cells that were demoted to per-layer are sampled here.
        if f"rel_cold.{b}" in PER_LAYER_NAMES:
            fresh = InspectorCache()
            self.est.sample(f"rel_cold.{b}", lambda: operation(self.calls, spec, fresh))
        if f"rel_warm.{b}" in PER_LAYER_NAMES:
            self.est.sample(f"rel_warm.{b}", lambda: operation(self.calls, spec, cache))
        bare_s = self._bare(f"bare.{b}", spec, cache)
        if b == "vectorized":
            m["bench.trace_overhead"] = traced_s / bare_s - 1
            m["backends.vectorized.per_level_us"] = (
                steady_s / max(1, m["graph.n_levels"]) * 1e6
            )
            stats = cache.stats()
            m["cache.hits"], m["cache.misses"] = stats["hits"], stats["misses"]
            m["cache.hit_ratio"] = stats["hits"] / (stats["hits"] + stats["misses"])
            m["cache.bytes"] = stats["bytes"]
        self._observed(b, cache, bare_s)
        self._wrappers(b, spec, cache, bare_s)

    def _plan_and_run(self, b: str, spec, cache):
        """Cold planning, then the traced operation — the user's path
        re-enacted call by call so that each layer boundary gets a span —
        then the steady state of the runner it built."""
        m, calls = self.m, self.calls
        m[f"passes.plan_cold_s.{b}"], _ = self._spanned(
            "plan_loop", lambda: [plan_loop(loop, spec, cache) for loop in calls],
            backend=b, mode="cold",
        )
        runner = None
        try:
            with self.rec.span("operation", backend=b, mode="warm", traced=True) as op:
                self._spanned("fingerprint", lambda: [loop_fingerprint(x) for x in calls])
                self._spanned("analyze", lambda: [plan_transform(x) for x in calls])
                plan_s, plans = self._spanned(
                    "plan_loop", lambda: [plan_loop(x, spec, cache) for x in calls],
                    backend=b, mode="warm",
                )
                build_s, runner = self._spanned(
                    "build_runner", lambda: make_runner(spec=spec, cache=cache)
                )
                first_s, results = self._spanned(
                    "run", lambda: [runner.run(x) for x in calls], backend=b
                )
                self._spanned("result-check", lambda: self._checked(f"traced.{b}", results))
            m[f"passes.plan_warm_s.{b}"] = plan_s

            cell = f"backends.rel_run.{b}"
            for _ in range(2):
                self.est.sample(cell, lambda: ([runner.run(x).y for x in calls], None))
            steady_s = self.est.cells[cell].median_seconds() if cell in self.est.cells else 0.0
            m[f"backends.construct_s.{b}"] = build_s + first_s - steady_s
        finally:
            if runner is not None:
                _close(runner)
        return plans, op["end"] - op["start"], steady_s

    def _observed(self, b: str, cache, bare_s: float) -> None:
        """Phase spans, wait shares and speculation counters: existing
        output of an ``observe=True`` run, no new instrumentation."""
        m = self.m
        observed_s, (_ys, results) = self._spanned(
            "operation",
            lambda: operation(self.calls, spec_for(b, observe=True), cache),
            cell=f"observed.{b}",
        )
        self._checked(f"observed.{b}", results)
        m[f"obs.overhead.{b}"] = observed_s / bare_s - 1
        phases, waits = Counter(), []
        for r in results:
            phases.update(r.telemetry.phase_totals())
            waits.extend(r.telemetry.wait_fractions().values())
        # Speculation has no inspector; its rounds are executor
        # ("speculate") and postprocess ("commit") work.
        m[f"obs.inspector_s.{b}"] = phases["inspector"]
        m[f"obs.executor_s.{b}"] = phases["executor"] + phases["speculate"]
        m[f"obs.post_s.{b}"] = phases["postprocessor"] + phases["commit"]
        if b in ("multiproc", "threaded"):
            m[f"backends.{b}.wait_share"] = sum(waits) / len(waits) if waits else 0.0
        if b == "speculative":
            stats = Counter()
            for r in results:
                stats.update(
                    {k: int(v) for k, v in r.extras["speculation"].items() if k != "chunk"}
                )
            for key in ("rounds", "chunks_conflicted", "chunks_rolled_back", "fallback_chunks"):
                m[f"backends.speculative.{key}"] = stats[key]
            # Useful chunk executions over attempted ones.
            m["backends.speculative.commit_ratio"] = stats["chunks"] / (
                stats["chunks"] + stats["chunks_rolled_back"]
            )

    def _wrappers(self, b: str, spec, cache, bare_s: float) -> None:
        """What the optional wrappers cost beside the bare warm operation."""
        m = self.m
        if b in ("vectorized", "multiproc"):
            sanitized_s = self._bare(
                f"sanitize.{b}", spec_for(b, validate="sanitize"), cache
            )
            m[f"sanitize.overhead.{b}"] = sanitized_s / bare_s - 1
        if b == "vectorized":
            if self.workload == "trisolve_5pt":
                static_s = self._bare(
                    "lint.static", spec_for(b, validate="static"), cache
                )
                m["lint.static_validate_s"] = static_s - bare_s
            default_s = self._bare("cold.default", spec, InspectorCache())
            symbolic_s = self._bare(
                "cold.symbolic", spec_for(b, analyze="symbolic"), InspectorCache()
            )
            m["analysis.elide_gain.vectorized"] = symbolic_s / default_s

    # -- the simulated machine -------------------------------------------
    def machine(self) -> None:
        m, calls = self.m, self.calls
        cache = InspectorCache()
        self._bare("machine.prefill", spec_for("simulated"), cache)
        results = self.est.sample(
            "rel_warm.simulated", lambda: operation(calls, spec_for("simulated"), cache)
        )
        if results:
            m["machine.sim_cycles"] = sum(r.total_cycles for r in results)
            m["machine.seq_cycles"] = sum(r.sequential_cycles for r in results)
            m["machine.wait_cycles"] = sum(r.wait_cycles for r in results)
        doconsider = spec_for("simulated", reorder="doconsider")
        m["passes.doconsider_s"], _ = self._spanned(
            "plan_loop", lambda: [plan_loop(x, doconsider, cache) for x in calls],
            backend="simulated", mode="doconsider",
        )
        if self.workload == "trisolve_5pt":
            _ys, results = operation(calls, doconsider, cache)
            self._checked("doconsider", results)
            m["core.doconsider.sim_efficiency"] = sum(
                r.efficiency for r in results
            ) / len(results)

    # -- the auto-tuner --------------------------------------------------
    def auto(self) -> None:
        spec = spec_for("auto")
        cache = InspectorCache()
        for _ in range(_AUTO_OPS):
            _ys, results = operation(self.calls, spec, cache)
            self._checked("auto.explore", results)
            if all(r.extras["tuner"]["source"] == "telemetry" for r in results):
                break
        results = self.est.sample(
            "passes.auto_rel_steady", lambda: operation(self.calls, spec, cache)
        )
        if results:
            choice, _ = Counter(
                r.extras["tuner"]["backend"] for r in results
            ).most_common(1)[0]
            self.m["passes.auto_choice"] = AUTO_CANDIDATES.index(choice)

    # ------------------------------------------------------------------
    def run(self) -> dict[str, float]:
        # (label, step, pinned): a step that starts no worker is measured
        # pinned to one core, like the end-to-end cells.
        for label, step, pinned in (
            ("structure", self.structure, True),
            *((b, lambda b=b: self.backend(b), b in SINGLE_THREADED) for b in LAYER_BACKENDS),
            ("machine", self.machine, True),
            ("auto", self.auto, False),
        ):
            self.est.pin(pinned)
            try:
                step()
            except Exception as exc:  # boundary: a failed layer is a count
                self.est.tally.raised(f"layer {label}", exc)
        return self.m
