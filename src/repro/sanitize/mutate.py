"""Schedule-mutation harness: proof of detector power.

A race detector that never fires is indistinguishable from one that
cannot fire.  The evidence is mutations of the *real* protocol: a backend
shape is a small value made of what that backend executes (:class:`Flags`,
:class:`Walk`, :class:`Commits`); a mutant is one method over it that
corrupts the kernel's codes, the placement or the event stream and returns
how many sites it found (none: *not applicable* to that workload).  Stages
are lazy (``iter_arr`` -> ``codes`` -> ``capture``): the real kernel derives
everything after the corrupted one.  :func:`run_mutation_suite` is the CI
gate: unmutated captures clean, every applicable mutant killed.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from functools import cached_property, partial
from typing import Any, Callable, NamedTuple

import numpy as np

from repro.backends import kernel, MultiprocRunner, SpeculativeRunner
from repro.backends import ThreadedRunner, VectorizedRunner
from repro.ir.analysis import CAT_TRUE, classify_reads, writer_map
from repro.sanitize.detector import detect
from repro.sanitize.events import SRC_OLD
from repro.sanitize.shadow import ShadowCapture
from repro.workloads.synthetic import chain_loop, random_irregular_loop

__all__ = ["MUTANTS", "Mutant", "MutationReport", "run_mutation_suite"]


class Shape:
    """One backend run as data; ``capture`` is its shadow log."""

    def __init__(self, loop, runner):
        self.loop, self.runner = loop, runner

    def lose_posts(self, early: bool = False) -> int:
        """Two writers never post — or, ``early``, every flag is set before
        its value lands in ``ynew``.  Only posts some lane acquires are
        sites."""
        lanes = list(self.capture.lanes.values())
        awaited = {ev[1] for evs in lanes for ev in evs if ev[0] == "a"}
        sites = [
            (evs, k) for evs in lanes for k, ev in enumerate(evs)
            if ev[0] == "p" and ev[1] in awaited
        ][: None if early else 2]
        for evs, k in reversed(sites):
            post = evs.pop(k)
            if early:
                evs.insert(k - 1, post)
        return len(sites)


class Flags(Shape):
    """The flag protocol: lane ``k`` of the runner's ``schedule_model()``
    placement runs ``its[k]`` in order; ``codes`` is the kernel's per-term
    read contract given ``iter_arr``; ``capture`` is what ``run_span``
    logs, bracketed by the phase barriers every lane logs."""

    def __init__(self, loop, runner):
        super().__init__(loop, runner)
        placement = runner.schedule_model(loop)
        self.chunk, self.lane = placement.chunk, placement.lane
        workers = int(self.lane.max(initial=0)) + 1
        self.iter_arr = writer_map(loop)
        self.its = [
            kernel.lane_positions(0, loop.n, self.chunk, workers, k)
            for k in range(workers)
        ]

    @cached_property
    def codes(self) -> np.ndarray:
        r = self.loop.reads
        return kernel.classify_terms(
            r.ptr, r.index, self.iter_arr, np.arange(self.loop.n), self.chunk
        )

    @cached_property
    def capture(self) -> ShadowCapture:
        loop, r, capture = self.loop, self.loop.reads, ShadowCapture()
        y = np.zeros(loop.y_size)  # the log does not depend on values
        for k, its in enumerate(self.its):
            lane = capture.lane(k)
            terms = [np.arange(r.ptr[i], r.ptr[i + 1]) for i in its]
            lane.append(("b", 0))
            kernel.run_span(  # wait/post are recorded, never blocked on
                its, self.codes[np.concatenate([np.arange(0)] + terms)],
                loop.write, r.ptr, r.index, r.coeff, None, y, y, y,
                wait=lambda _e: None, post=lambda _e: None, events=lane,
            )
            lane.append(("b", 1))
        return capture

    def unwait(self, n: int = 3, whole_flags: bool = False) -> int:
        """The executor reads ``ynew`` without awaiting the ready flag
        (``whole_flags``: a skipped shm scrub left flags set for all their
        readers).  Only waits on another lane's writer are sites: program
        order covers the rest, and ``WAIT`` -> ``LOCAL`` there is no bug."""
        r, lane = self.loop.reads, self.lane
        cross = lane[self.iter_arr[r.index]] != lane[r.iteration_of_term()]
        sites = np.flatnonzero((self.codes == kernel.WAIT) & cross)
        if whole_flags:
            sites = sites[np.isin(r.index[sites], r.index[sites[:n]])]
        else:
            sites = sites[:n]
        self.codes[sites] = kernel.LOCAL
        return len(sites)

    def stale_iter(self) -> int:
        """Corrupt ``iter`` entries send readers to the stale input."""
        _, _, categories = classify_reads(self.loop)
        elems = np.unique(self.loop.reads.index[categories == CAT_TRUE])[:2]
        self.iter_arr[elems] = -1
        return len(elems)

    def reverse_strips(self) -> int:
        """Workers drain their strips last-first; codes assume ascending."""
        gaps = [np.flatnonzero(np.diff(its) > 1) + 1 for its in self.its]
        self.its = [
            np.concatenate(np.split(its, g)[::-1])
            for its, g in zip(self.its, gaps)
        ]
        waits = self.codes == kernel.WAIT  # none: no strip order to break
        return sum(map(len, gaps)) and np.count_nonzero(waits)

    def skip_barrier(self) -> int:
        """One lane skips the inspector/executor phase barrier."""
        evs = self.capture.lanes[1]
        evs[:] = [ev for ev in evs if ev[0] != "b"]
        return 2


class Walk(Shape):
    """The wavefront walk: one lane runs ``run_span`` over the inspector
    record's level-major ``order`` with its ``codes``; ``capture`` is the
    one span event the runner logs for it."""

    def __init__(self, loop, runner):
        super().__init__(loop, runner)
        record = runner._preprocess(loop)[0]
        self.order = record.schedule.order.copy()
        self.codes = record.codes.copy()
        self.level_ptr = record.schedule.level_ptr

    @cached_property
    def capture(self) -> ShadowCapture:
        capture = ShadowCapture()
        capture.lane(0).append(("s", self.order, self.codes))
        return capture

    def swap_levels(self) -> int:
        """The first two levels run in the other order, their codes moved
        along: every second-level iteration reads ahead of its writer."""
        if len(self.level_ptr) < 3:
            return 0
        p1, p2 = self.level_ptr[1:3]
        _, counts = kernel.term_positions(self.loop.reads.ptr, self.order)
        t1, t2 = counts[:p1].sum(), counts[:p2].sum()
        self.order[:p2] = np.roll(self.order[:p2], p2 - p1)
        self.codes[:t2] = np.roll(self.codes[:t2], t2 - t1)
        return 1

    def stale_record(self) -> int:
        """The record was built from a stale ``iter``: two renamed reads
        take the untouched input instead."""
        sites = np.flatnonzero(self.codes == kernel.WAIT)[:2]
        self.codes[sites] = kernel.OLD
        return len(sites)


class Commits(Shape):
    """A real speculative run, its commit rule reachable through the
    ``_conflicts`` seam; lanes appear in ``capture`` in commit order."""

    @cached_property
    def capture(self) -> ShadowCapture:
        capture = self.runner._san_capture = ShadowCapture()
        self.stats = self.runner.run(self.loop).extras["speculation"]
        return capture

    def miss_raw(self, deferred_only: bool = False) -> int:
        """The rule misses the first two RAW conflicts: the chunks commit
        what they computed against the stale snapshot and their log says
        so — or, ``deferred_only``, misses only edges from a writer chunk
        itself deferred: the reader commits first, claiming the new value."""
        real = self.runner._conflicts
        deferred_w = np.zeros(self.loop.y_size, dtype=bool)
        missed: dict[int, set] = {}  # commit index -> elements read stale

        def rule(reads, writes, pending_w, deferred_rw) -> bool:
            defer = real(reads, writes, pending_w, deferred_rw)
            edge = pending_w & deferred_w if deferred_only else pending_w
            if defer and edge[reads].any() and len(missed) < 2:
                commits = len(self.runner._san_capture.lanes)
                missed[commits] = set(reads[edge[reads]].tolist())
                defer = False
            deferred_w[writes] = defer
            return defer

        self.runner._conflicts = rule
        lanes = list(self.capture.lanes.values())
        for k, stale in ({} if deferred_only else missed).items():
            lanes[k][:] = [
                ev[:3] + (SRC_OLD,) if ev[0] == "r" and ev[2] in stale else ev
                for ev in lanes[k]
            ]
        return len(missed)

    def reverse_tail(self) -> int:
        """Rolled-back chunks re-commit newest-first: the same per-chunk
        logs, the commit chain in the other order."""
        lanes = self.capture.lanes
        order = list(lanes)  # chunk ids, round-one commits first
        first = len(order) - self.stats["chunks_conflicted"]
        for k, c in enumerate(order[:first] + order[first:][::-1]):
            body = [ev for ev in lanes[c] if ev[0] in "rw"]
            chain = [("a", ("c", k - 1))] if k else []
            lanes[c][:] = chain + body + [("p", ("c", k))]
        return max(len(order) - first - 1, 0)


def threaded(loop) -> Flags:
    return Flags(loop, ThreadedRunner(threads=4))


def chunked(loop) -> Flags:
    return Flags(loop, MultiprocRunner(workers=3, chunk=4))


def walk(loop) -> Walk:
    return Walk(loop, VectorizedRunner())


def speculative(loop) -> Commits:
    return Commits(loop, SpeculativeRunner(workers=3, chunk=4))


class Mutant(NamedTuple):
    """One injected protocol bug: ``apply`` (its docstring describes the
    bug) corrupts the value ``shape(loop)`` builds, returning its sites."""

    name: str
    shape: Callable[[Any], Shape]
    expect: tuple[str, ...]
    apply: Callable[[Any], int]


_RACE, _STALE = ("no-hb-edge",), ("stale-read",)
_STALL = ("unsatisfied-acquire", "no-hb-edge")
MUTANTS: tuple[Mutant, ...] = (
    Mutant("drop-wait-threaded", threaded, _RACE, Flags.unwait),
    Mutant("drop-post-threaded", threaded, _STALL, Flags.lose_posts),
    Mutant("post-before-write", threaded, _RACE,
           partial(Flags.lose_posts, early=True)),
    Mutant("split-barrier", threaded, ("unsatisfied-barrier",),
           Flags.skip_barrier),
    Mutant("stale-iter", threaded, _STALE, Flags.stale_iter),
    Mutant("drop-wait-chunked", chunked, _RACE, Flags.unwait),
    # The real kernel also waits on a same-lane earlier strip, so a
    # reversed lane blocks on posts it only makes later.
    Mutant("reverse-round-robin", chunked, _STALL, Flags.reverse_strips),
    Mutant("skip-scrub", chunked, _RACE,
           partial(Flags.unwait, n=2, whole_flags=True)),
    Mutant("stale-iter-chunked", chunked, _STALE, Flags.stale_iter),
    Mutant("swap-levels", walk, _RACE, Walk.swap_levels),
    Mutant("stale-record", walk, _STALE, Walk.stale_record),
    Mutant("skip-restore", speculative, _STALE, Commits.miss_raw),
    Mutant("drop-conflict-edge", speculative, _RACE,
           partial(Commits.miss_raw, deferred_only=True)),
    Mutant("reverse-reexecution", speculative, _RACE, Commits.reverse_tail),
)


@dataclass
class MutantResult:
    name: str
    mode: str
    expected: tuple[str, ...]
    #: Violation counts per workload it found a site on (none: untested).
    verdicts: dict[str, dict[str, int]] = field(default_factory=dict)

    @property
    def killed(self) -> bool:
        """An expected kind of violation on every workload it applied to."""
        return all(set(c) & set(self.expected) for c in self.verdicts.values())


@dataclass
class MutationReport:
    results: list[MutantResult] = field(default_factory=list)
    #: ``(mode, workload, clean)`` per unmutated capture.
    baselines: list[tuple[str, str, bool]] = field(default_factory=list)

    @property
    def kill_rate(self) -> float:
        ran = [r.killed for r in self.results if r.verdicts]
        return sum(ran) / len(ran) if ran else 0.0

    @property
    def baseline_clean(self) -> bool:
        return all(ok for _, _, ok in self.baselines)

    def passed(self, min_kill: float = 0.9) -> bool:
        tested = all(r.verdicts for r in self.results)  # each, somewhere
        return self.baseline_clean and tested and self.kill_rate >= min_kill

    def summary(self) -> str:
        ran = [r.killed for r in self.results if r.verdicts]
        lines = [
            f"mutation suite: {sum(ran)}/{len(ran)} mutant(s) killed (kill "
            f"rate {self.kill_rate:.0%}); baselines "
            f"{'clean' if self.baseline_clean else 'NOT CLEAN'}"
        ]
        for r in self.results:
            mark = "KILLED" if r.killed else "SURVIVED"
            lines.append(
                f"  [{mark if r.verdicts else 'NOT APPLICABLE'}] {r.name} "
                f"({r.mode}): {r.verdicts or '-'}"
            )
        lines += [
            f"  [FALSE POSITIVE] unmutated {mode} on {workload}"
            for mode, workload, ok in self.baselines if not ok
        ]
        return "\n".join(lines)

    def as_dict(self) -> dict[str, Any]:
        mutants = [asdict(r) | {"killed": r.killed} for r in self.results]
        return {
            "kill_rate": self.kill_rate,
            "baseline_clean": self.baseline_clean,
            "mutants": mutants,
            "baselines": self.baselines,
        }


def run_mutation_suite(
    workloads: list[tuple[str, Any]] | None = None,
    mutants: tuple[Mutant, ...] = MUTANTS,
) -> MutationReport:
    """Detect every shape's unmutated capture (must be clean) and every
    mutant's capture on each workload it finds a site on (must not be)."""
    if workloads is None:
        workloads = [
            ("chain-48-d1", chain_loop(48, 1)),
            ("chain-60-d3", chain_loop(60, 3)),
            ("irregular-100-s5", random_irregular_loop(100, seed=5)),
        ]
    report = MutationReport()
    for shape in dict.fromkeys(m.shape for m in mutants):
        for wl_name, loop in workloads:
            ok = detect(shape(loop).capture, loop).ok
            report.baselines.append((shape.__name__, wl_name, ok))
    for m in mutants:
        result = MutantResult(m.name, m.shape.__name__, m.expect)
        for wl_name, loop in workloads:
            p = m.shape(loop)
            if m.apply(p):
                result.verdicts[wl_name] = detect(p.capture, loop).counts
        report.results.append(result)
    return report
