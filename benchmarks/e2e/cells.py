"""The measured operation and the end-to-end cells built from it."""

from __future__ import annotations

import resource
import time

import numpy as np

from repro import InspectorCache, PlanSpec, parallelize

from benchmarks.e2e.estimator import Estimator
from benchmarks.e2e.metrics import END_TO_END

#: Worker count per backend: two real workers (= the box's cores) and the
#: paper's sixteen simulated processors.
PROCESSORS = {
    "vectorized": 2,
    "multiproc": 2,
    "speculative": 2,
    "threaded": 2,
    "auto": 2,
    "simulated": 16,
}

#: Backends that start no worker: their cells are measured pinned to a core.
SINGLE_THREADED = ("vectorized", "simulated")

#: A round also times a set-up until the run has had this many set-up
#: samples and spent this long on them; cheap generators are batched so
#: that one sample takes at least ``_SETUP_SAMPLE_S``.
_SETUP_SAMPLES, _SETUP_BUDGET_S, _SETUP_SAMPLE_S = 5, 2.0, 0.05


def spec_for(backend: str, **options) -> PlanSpec:
    return PlanSpec(backend=backend, processors=PROCESSORS[backend], **options)


def operation(calls, spec: PlanSpec, cache: InspectorCache):
    """The path a user takes, once per call of the sequence, closed loop
    (one call in flight).  *Cold* is this on a fresh cache, *warm* is the
    same again on the cache the cold pass filled."""
    results = [parallelize(loop, spec=spec, cache=cache)[0] for loop in calls]
    return [r.y for r in results], results


def same_inputs(a, b) -> bool:
    """Whether two generated instances hold bitwise the same loops."""

    def arrays(loop):
        init = loop.init_values if loop.init_values is not None else np.empty(0)
        return (loop.write, loop.reads.ptr, loop.reads.index, loop.reads.coeff,
                loop.y0, init)

    return len(a.calls) == len(b.calls) and all(
        np.array_equal(x, y)
        for la, lb in zip(a.calls, b.calls)
        for x, y in zip(arrays(la), arrays(lb))
    )


class EndToEnd:
    """Round-robin over every end-to-end cell, so drift hits all alike.
    Which cells exist is read off the catalogue: a backend with a gated
    ``rel_cold`` metric is timed cold then warm on a fresh cache each
    round; one with only ``rel_warm`` keeps one cache for the whole run."""

    def __init__(self, built, regenerate, first_setup_s: float, est: Estimator):
        self.calls = built.calls
        self.est = est
        self.sim_efficiency = 0.0
        self._regenerate = regenerate
        self._built = built
        self._first_setup_s = first_setup_s
        self.setup_batch = max(1, round(_SETUP_SAMPLE_S / first_setup_s))
        self._setups, self._setup_spent = 0, 0.0
        names = {m.name for m in END_TO_END}
        self.backends = [b for b in PROCESSORS if f"rel_warm.{b}" in names]
        est.pin(all(b in SINGLE_THREADED for b in self.backends))
        self._cold = {b for b in self.backends if f"rel_cold.{b}" in names}
        # Warm-only caches are filled by a first pass nobody reports, so
        # that every reported pass is warm.
        self._warm = {b: InspectorCache() for b in self.backends if b not in self._cold}
        for backend, cache in self._warm.items():
            est.sample(
                f"prefill.{backend}",
                lambda: operation(self.calls, spec_for(backend), cache),
            )

    def round(self) -> None:
        calls, est = self.calls, self.est
        if self._setups < _SETUP_SAMPLES or self._setup_spent < _SETUP_BUDGET_S:
            # Set-up is timed like any cell, spread over the rounds;
            # regenerating must give the very same inputs.
            t0 = time.perf_counter()
            est.sample(
                "setup", self._setup_batch, accept=lambda b: same_inputs(b, self._built)
            )
            self._setups += 1
            self._setup_spent += time.perf_counter() - t0
        est.sample(
            "rel_seq", lambda: ([loop.run_sequential() for loop in calls], None)
        )
        for backend in self.backends:
            spec = spec_for(backend)
            if backend in self._cold:
                cache = InspectorCache()
                est.sample(
                    f"rel_cold.{backend}", lambda: operation(calls, spec, cache)
                )
            else:
                cache = self._warm[backend]
            results = est.sample(
                f"rel_warm.{backend}", lambda: operation(calls, spec, cache)
            )
            if backend == "simulated" and results:
                # One call: exactly RunResult.efficiency.  A sequence: its mean.
                self.sim_efficiency = sum(r.efficiency for r in results) / len(results)

    def _setup_batch(self):
        """Generate the workload ``setup_batch`` times, keeping only the
        last instance so the batch does not count towards ``peak_rss_mb``."""
        for _ in range(self.setup_batch):
            built = self._regenerate()
        return built

    def setup_seconds(self) -> float:
        """Median set-up time, expressed at the fastest reference speed
        the run saw: the box alternates between two speed states 1.6x
        apart, so plain seconds are bimodal from run to run."""
        cell = self.est.cells.get("setup")
        if cell is None:
            return self._first_setup_s
        return cell.value() / self.setup_batch * min(self.est.ref_seconds)


def peak_rss_mb() -> float:
    """High-water resident set of this process plus that of its largest
    waited-for child, in MiB (Linux reports KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024
