"""Speculative doacross backend: optimism instead of inspection.

The paper's inspector is pessimistic — it pays the Figure-3
preprocessing cost up front to *prove* every cross-iteration dependence
before executing anything.  This backend is the optimistic dual
(PAPERS.md: "Speculative DOACROSS Loop Parallelization with taskloop",
arXiv 2302.05506): execute contiguous chunks of iterations in parallel
against a frozen snapshot of ``y`` with **no inspector run at all**,
record each chunk's actual read/write element sets, then detect
conflicts after the fact and re-execute the losers from the snapshot.

The round structure:

1. **Speculate.**  Every pending chunk executes on the thread pool
   against the committed array state (frozen for the round).  Writes
   land in a chunk-private buffer; the elements each chunk read from the
   snapshot (rather than from its own buffer) form its read log.
2. **Commit.**  Chunks are considered *sequentially in chunk order*.  A
   chunk conflicts — and is rolled back to pending — if it read an
   element an earlier pending chunk wrote this round (RAW: its inputs
   were stale), or if it writes an element an already-deferred chunk
   read or wrote (WAR/WAW: committing it would corrupt the deferred
   chunk's later re-execution).  A conflict-free chunk's buffer is
   applied to the committed state; its values are final.
3. **Fixpoint.**  Deferred chunks re-execute next round against the
   updated state.  The earliest pending chunk can never conflict, so
   every round commits at least one chunk and the fixpoint needs at most
   ``n_chunks`` rounds; a bounded retry budget (``max_rounds``) caps the
   wasted re-execution on dense dependence chains and falls back to
   plain sequential execution of whatever is still pending — the
   liveness guarantee the wait-free protocol otherwise lacks.

Correctness does not depend on thread timing: the snapshot is frozen
during the parallel phase, buffers are private, and conflict decisions
are computed from deterministic element sets in deterministic chunk
order — so ``speculation_rounds`` and the final values are reproducible
run to run, and a committed chunk provably read exactly the values the
sequential oracle would have (per-iteration term order is the oracle's,
so equality is bitwise, not approximate).

Sanitize composition: only *committed* executions are shadow-logged
(a rolled-back attempt is discarded work, not part of the witnessed
execution), one lane per chunk, with commits chained by synthetic
``("c", k)`` post/acquire tokens — the k-th commit acquires the token
the (k-1)-th posted, so every cross-chunk true dependence is covered by
a transitive happens-before edge the detector can replay.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.backends import kernel
from repro.backends.base import (
    Runner,
    check_analyze_mode,
    note_ignored_options,
    note_kernel,
    note_verdict,
    resolve_verdict,
    validate_execution_order,
)
from repro.backends.cache import loop_fingerprint
from repro.core.results import RunResult
from repro.core.sequential import sequential_time
from repro.ir.analysis import writer_map
from repro.ir.loop import INIT_EXTERNAL, IrregularLoop
from repro.machine.costs import CostModel
from repro.obs.spans import CAT_PHASE

__all__ = ["SpeculativeRunner"]

#: Default retry budget: enough rounds for moderate conflict densities
#: to reach the fixpoint, small enough that a dense chain (which commits
#: exactly one chunk per round) falls back before re-executing the whole
#: tail quadratically.
DEFAULT_MAX_ROUNDS = 8


class SpeculativeRunner(Runner):
    """Optimistic chunk-parallel execution with post-hoc conflict
    detection, rollback, and a sequential-fallback retry budget.

    ``analyze="symbolic"`` attaches the symbolic verdict to the result
    for diagnosis; unlike the inspector backends there is no inspector
    phase to elide, so the verdict never changes execution.
    """

    name = "speculative"

    def __init__(
        self,
        workers: int = 4,
        chunk: int | None = None,
        max_rounds: int = DEFAULT_MAX_ROUNDS,
        analyze: str | None = None,
    ):
        if workers < 1:
            raise ValueError(f"need at least one worker, got {workers}")
        if chunk is not None and chunk < 1:
            raise ValueError(f"chunk must be >= 1, got {chunk}")
        if max_rounds < 1:
            raise ValueError(
                f"retry budget must allow at least one round, got {max_rounds}"
            )
        self.workers = workers
        self.chunk = chunk
        #: Speculation rounds before giving up on convergence and
        #: executing the remaining chunks sequentially (bounded-livelock
        #: contract, same spirit as the multiproc WaitLadder).
        self.max_rounds = max_rounds
        self.analyze = check_analyze_mode(analyze)

    # ------------------------------------------------------------------
    def run(
        self,
        loop: IrregularLoop,
        *,
        order: np.ndarray | None = None,
        schedule=None,
        chunk: int | None = None,
        trace: bool = False,
    ) -> RunResult:
        """Execute ``loop`` speculatively; returns a :class:`RunResult`
        bitwise-equal to the sequential oracle.

        ``chunk`` overrides the constructor's chunk size for this run.
        ``order`` is validated when given but not used: commits happen in
        natural chunk order, and any *valid* execution order produces the
        same values, so reordering buys nothing here.  ``schedule`` and
        ``trace`` are ignored and recorded in
        ``result.extras["ignored_options"]``.
        """
        # Hashing checks ``write`` is injective; free once the loop is.
        loop_fingerprint(loop)
        verdict = resolve_verdict(loop, self.analyze)
        if order is not None:
            order = np.asarray(order, dtype=np.int64)
            validate_execution_order(loop, order)
        if chunk is not None and chunk < 1:
            raise ValueError(f"chunk must be >= 1, got {chunk}")
        cs = chunk if chunk is not None else self.chunk
        if cs is None:
            cs = kernel.default_chunk(loop.n, self.workers)

        t0 = time.perf_counter()
        y, stats, tallies = self._execute(loop, cs)
        wall = time.perf_counter() - t0

        cm = CostModel()
        result = RunResult(
            loop_name=loop.name,
            strategy="speculative-doacross",
            processors=self.workers,
            y=y,
            total_cycles=0,
            sequential_cycles=sequential_time(loop, cm),
            cost_model=cm,
            schedule=f"speculative({stats['chunks']} chunks of {cs})",
            wall_seconds=wall,
        )
        result.extras["speculation"] = stats
        note_verdict(result, self.analyze, verdict)
        note_kernel(result, self._obs_metrics, tallies)
        ignored = {}
        if order is not None:
            ignored["order"] = (
                "<array>",
                "speculative commits happen in natural chunk order; any "
                "valid execution order yields the identical result",
            )
        if schedule is not None:
            ignored["schedule"] = (
                schedule,
                "the speculative backend always executes contiguous "
                "chunks; only the chunk size is tunable",
            )
        if trace:
            ignored["trace"] = (
                True,
                "no simulated timeline exists on real threads; use "
                "observe=True for wall-clock spans",
            )
        note_ignored_options(result, self.name, **ignored)
        met = self._obs_metrics
        if met is not None:
            met.count("speculation_rounds", stats["rounds"])
            met.count("chunks_conflicted", stats["chunks_conflicted"])
            met.count("chunks_rolled_back", stats["chunks_rolled_back"])
            met.count("iterations", loop.n)
            if stats["sequential_fallback"]:
                met.count("fallback_chunks", stats["fallback_chunks"])
        return result

    # ------------------------------------------------------------------
    def _conflicts(
        self,
        read_elems: np.ndarray,
        write_elems: np.ndarray,
        pending_writes: np.ndarray,
        deferred_rw: np.ndarray,
    ) -> bool:
        """Whether a chunk must defer its commit this round.

        RAW — it read an element an earlier pending chunk wrote, so its
        speculative inputs were stale; WAR/WAW — it writes an element an
        already-deferred chunk read or wrote, so committing it now would
        corrupt that chunk's later re-execution.  Overridable seam for
        fault injection (an always-``True`` detector must drain the
        retry budget and fall back, never livelock — tested).
        """
        return bool(
            pending_writes[read_elems].any() or deferred_rw[write_elems].any()
        )

    # ------------------------------------------------------------------
    def _execute(
        self, loop: IrregularLoop, cs: int
    ) -> tuple[np.ndarray, dict, list]:
        n = loop.n
        write = loop.write
        ptr, r_idx, r_coeff = (
            loop.reads.ptr,
            loop.reads.index,
            loop.reads.coeff,
        )
        init = loop.init_values if loop.init_kind == INIT_EXTERNAL else None

        y = loop.y0.copy()
        n_chunks = -(-n // cs) if n else 0
        # writer_of[e] = the iteration writing element e, or -1: the
        # ir-level access map the terms are classified against.
        writer_of = writer_map(loop)
        rec = self._obs_recorder
        san = self._san_capture
        logging = san is not None
        spans: list[tuple] = []
        now = time.perf_counter

        def bounds(c: int) -> tuple[int, int]:
            return c * cs, min(n, (c + 1) * cs)

        # Which reads hit the snapshot (vs. the chunk's own buffer or the
        # live accumulator) depends only on subscripts, never on values,
        # so each chunk is classified once and the codes reused across
        # re-execution rounds.  WAIT here means "written by an earlier
        # chunk": no flag exists — the commit order discharges it.
        chunk_its = {c: np.arange(*bounds(c)) for c in range(n_chunks)}
        codes = {
            c: kernel.classify_terms(ptr, r_idx, writer_of, its, cs)
            for c, its in chunk_its.items()
        }

        def read_log(c: int) -> np.ndarray:
            """Elements chunk ``c`` reads from the snapshot — its
            conflict-detection read log: every term not served by the
            live accumulator or the chunk's own buffer."""
            lo, hi = bounds(c)
            snapshot = (codes[c] == kernel.OLD) | (codes[c] == kernel.WAIT)
            return np.unique(r_idx[ptr[lo]:ptr[hi]][snapshot])

        def run_chunk(c: int) -> tuple[dict, list | None]:
            """Execute chunk ``c`` against the frozen snapshot.

            Returns the private write buffer and — when the sanitizer is
            attached — the shadow events to replay if this attempt
            commits.  There is no renaming: old and committed values
            both live in the snapshot, and a read of an earlier chunk's
            element is only kept if that chunk had committed (else the
            RAW check rolls this attempt back).  Per-iteration term
            order is the oracle's, so a committed buffer is bitwise what
            sequential execution would have produced from the same
            inputs.
            """
            buf: dict = {}
            events: list | None = [] if logging else None
            kernel.run_span(
                chunk_its[c], codes[c], write, ptr, r_idx, r_coeff, init,
                y, y, buf, events=events,
            )
            tallies.append(kernel.take_tally())
            return buf, events

        commits = 0
        tallies: list[tuple] = []

        def commit(c: int, buf: dict, events: list | None) -> None:
            """Apply a conflict-free chunk's buffer to the committed
            state and replay its shadow log onto its lane, chained to
            every earlier commit by the synthetic token."""
            nonlocal commits
            elems = np.fromiter(buf.keys(), dtype=np.int64, count=len(buf))
            y[elems] = np.fromiter(
                buf.values(), dtype=np.float64, count=len(buf)
            )
            if not logging:
                return
            lane = san.lane(int(c))
            if commits:
                lane.append(("a", ("c", commits - 1)))
            lane.extend(events)
            lane.append(("p", ("c", commits)))
            commits += 1

        rounds = 0
        rolled_back = 0
        conflicted: set = set()
        pending = list(range(n_chunks))
        read_logs = {c: read_log(c) for c in pending}
        fallback = False
        with ThreadPoolExecutor(max_workers=self.workers) as pool:
            while pending:
                if rounds >= self.max_rounds:
                    fallback = True
                    break
                rounds += 1
                if rec is not None:
                    t_spec = now()
                futures = [pool.submit(run_chunk, c) for c in pending]
                results = [f.result() for f in futures]
                if rec is not None:
                    t_commit = now()
                    spans.append((
                        "speculate", CAT_PHASE, t_spec, t_commit, 0,
                        {"round": rounds, "chunks": len(pending)},
                    ))
                pending_w = np.zeros(loop.y_size, dtype=bool)
                deferred_rw = np.zeros(loop.y_size, dtype=bool)
                next_pending: list[int] = []
                for c, (buf, events) in zip(pending, results):
                    lo, hi = bounds(c)
                    w_slice = write[lo:hi]
                    reads = read_logs[c]
                    if self._conflicts(reads, w_slice, pending_w, deferred_rw):
                        pending_w[w_slice] = True
                        deferred_rw[reads] = True
                        deferred_rw[w_slice] = True
                        next_pending.append(c)
                        rolled_back += 1
                        conflicted.add(c)
                        continue
                    pending_w[w_slice] = True
                    commit(c, buf, events)
                if rec is not None:
                    spans.append((
                        "commit", CAT_PHASE, t_commit, now(), 0,
                        {
                            "round": rounds,
                            "committed": len(pending) - len(next_pending),
                            "deferred": len(next_pending),
                        },
                    ))
                pending = next_pending

        fallback_chunks = len(pending)
        if pending:
            # Retry budget exhausted: execute the stragglers sequentially
            # in chunk order straight against the committed state — exact
            # by construction, and bounded time by construction.
            if rec is not None:
                t_fb = now()
            for c in pending:
                commit(c, *run_chunk(c))
            if rec is not None:
                spans.append((
                    "fallback", CAT_PHASE, t_fb, now(), 0,
                    {"chunks": fallback_chunks},
                ))
        if rec is not None and spans:
            rec.record_batch(spans)

        stats = {
            "rounds": rounds,
            "chunks": n_chunks,
            "chunk": cs,
            "chunks_conflicted": len(conflicted),
            "chunks_rolled_back": rolled_back,
            "sequential_fallback": fallback,
            "fallback_chunks": fallback_chunks,
        }
        return y, stats, tallies
