"""Shared-memory multiprocessing backend: the doacross protocol across
real OS processes.

The threaded backend runs the paper's protocol under the GIL; this
backend removes the GIL from the picture.  A persistent pool of worker
*processes* runs the phase tasks of :mod:`repro.backends.lanes` (§2.2–2.3)
against ``multiprocessing.shared_memory`` segments that play the paper's
shared arrays — ``iter``, ``ready``, ``ynew``, ``y`` — directly, with
strips of ``chunk`` positions dealt round-robin to the workers (§2.3).
The structure is shipped once per loop structure (a *session*), so a
worker's natural-order term codes are memoised across loop instances.
This module is the transport: the pool, the shared arenas, the
broadcast of one phase task and the collect of its payloads, which is
the phase barrier.

Every blocking cross-strip wait is bounded by a
:class:`~repro.backends.waitladder.WaitLadder` (spin, then escalating
sleep, then :class:`~repro.errors.WaitTimeout`), so a corrupted schedule
diagnoses itself instead of hanging the pool; after a timeout the scratch
arrays are marked dirty and fully re-reset before the next run, keeping
the pool and its shared segments reusable.

Like the other real-concurrency backends the arithmetic is *exactly* the
sequential oracle's: per iteration, terms accumulate in original order as
float64 scalar operations, so outputs are bitwise equal to
:meth:`~repro.ir.loop.IrregularLoop.run_sequential` (tested by the
conformance matrix).

Observability: span times are ``time.perf_counter`` readings, which on
Linux is ``CLOCK_MONOTONIC`` — one clock domain across all processes —
so per-worker inspector/executor/postprocessor phase spans (``pid``
tagged in the attrs) and the compute/wait tiling inside the executor
merge directly into the session's :class:`~repro.obs.spans.SpanRecorder`,
lane = worker id.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import queue as queue_mod
import time
import weakref
from collections import OrderedDict

import numpy as np
from multiprocessing import shared_memory

from repro.backends import kernel, lanes
from repro.backends.kernel import Placement
from repro.backends.base import (
    NON_NATURAL_GROUP,
    Runner,
    check_analyze_mode,
    check_group_sync,
    execution_positions,
    note_ignored_options,
    note_kernel,
    note_verdict,
    resolve_verdict,
    validate_execution_order,
)
from repro.backends.cache import InspectorCache, loop_fingerprint
from repro.backends.waitladder import DEFAULT_LADDER, WaitLadder
from repro.core.results import RunResult
from repro.core.sequential import sequential_time
from repro.core.workspace import MAXINT
from repro.errors import ReproError
from repro.ir.loop import INIT_EXTERNAL, IrregularLoop
from repro.machine.costs import CostModel

__all__ = ["MultiprocRunner"]

# Shared-memory block layout: (field, dtype, which shape dimension).
_BLOCKS = (
    ("write", np.int64, "n"),
    ("ptr", np.int64, "n1"),
    ("index", np.int64, "terms"),
    ("coeff", np.float64, "terms"),
    ("init", np.float64, "n"),
    ("order", np.int64, "n"),
    ("y", np.float64, "y"),
    ("ynew", np.float64, "y"),
    ("iter", np.int64, "y"),
    ("ready", np.uint8, "y"),
)


def _block_len(dim: str, n: int, y_size: int, terms: int) -> int:
    return {"n": n, "n1": n + 1, "terms": terms, "y": y_size}[dim]


# ----------------------------------------------------------------------
# Worker process side.
# ----------------------------------------------------------------------


def _mute_shm_tracking() -> None:
    """Called once per worker process: stop the resource tracker from
    recording shared-memory *attachments*.

    Attaching registers the segment as if this process owned it; the main
    process is the owner and unlinks every segment itself, so worker-side
    registrations are spurious — depending on fork timing they either
    produce bogus "leaked shared_memory" warnings at worker exit (worker
    spawned its own tracker) or KeyErrors in a shared tracker when the
    owner unregisters first.  Workers never create segments, so dropping
    shared-memory registrations entirely is safe."""
    from multiprocessing import resource_tracker

    original = resource_tracker.register

    def register(name, rtype):
        if rtype != "shared_memory":
            original(name, rtype)

    resource_tracker.register = register


def _worker_attach(meta: dict) -> dict:
    """Attach one session's shared blocks and build the numpy views."""
    n, y_size, terms = meta["n"], meta["y_size"], meta["terms"]
    shms, views = [], {}
    for field, dtype, dim in _BLOCKS:
        shm = shared_memory.SharedMemory(name=meta["names"][field])
        shms.append(shm)
        count = _block_len(dim, n, y_size, terms)
        views[field] = np.ndarray((count,), dtype=dtype, buffer=shm.buf)
    return {
        "shms": shms,
        "views": views,
        "n": n,
        "y_size": y_size,
        "codes": {},
    }


def _worker_detach(sess: dict) -> None:
    """Release one attached session: numpy views first (they export the
    mmap's buffer; closing underneath them raises ``BufferError``)."""
    sess["views"].clear()
    sess["codes"].clear()
    for shm in sess["shms"]:
        shm.close()


def _worker_main(wid: int, task_q, result_q) -> None:
    """Worker process loop: attach sessions, run phase tasks, reply once
    per task.  Exceptions (including :class:`WaitTimeout`) are shipped
    back as replies — the worker survives them and keeps serving."""
    _mute_shm_tracking()
    sessions: dict[str, dict] = {}
    while True:
        msg = task_q.get()
        kind = msg[0]
        if kind == "exit":
            for sess in sessions.values():
                _worker_detach(sess)
            return
        try:
            if kind == "attach":
                _, key, meta = msg
                sessions[key] = _worker_attach(meta)
                result_q.put(("ok", wid, None))
            elif kind == "forget":
                _, key = msg
                sess = sessions.pop(key, None)
                if sess is not None:
                    _worker_detach(sess)
                result_q.put(("ok", wid, None))
            else:
                _, key, opts = msg
                payload = lanes.TASKS[kind](sessions[key], opts, wid)
                payload["pid"] = os.getpid()
                result_q.put(("ok", wid, payload))
        except BaseException as exc:
            result_q.put(("err", wid, exc))


# ----------------------------------------------------------------------
# Main process side.
# ----------------------------------------------------------------------


class _Session:
    """One loop structure's shared-memory arena (owned by the main
    process; workers hold attached views)."""

    def __init__(self, key: str, loop: IrregularLoop):
        self.key = key
        self.n = loop.n
        self.y_size = loop.y_size
        self.terms = int(loop.reads.total_terms)
        self.dirty = False
        self.shms: dict[str, shared_memory.SharedMemory] = {}
        self.views: dict[str, np.ndarray] = {}
        for field, dtype, dim in _BLOCKS:
            count = _block_len(dim, self.n, self.y_size, self.terms)
            nbytes = max(1, count) * np.dtype(dtype).itemsize
            shm = shared_memory.SharedMemory(create=True, size=nbytes)
            self.shms[field] = shm
            self.views[field] = np.ndarray(
                (count,), dtype=dtype, buffer=shm.buf
            )
        # Structure (shipped once per session) + clean scratch.
        self.views["write"][:] = loop.write
        self.views["ptr"][:] = loop.reads.ptr
        self.views["index"][:] = loop.reads.index
        self.views["iter"][:] = MAXINT
        self.views["ready"][:] = 0
        self.views["ynew"][:] = 0.0

    def meta(self) -> dict:
        return {
            "n": self.n,
            "y_size": self.y_size,
            "terms": self.terms,
            "names": {f: shm.name for f, shm in self.shms.items()},
        }

    def destroy(self) -> None:
        # Views hold exported buffers; drop them before closing the maps.
        self.views.clear()
        for shm in self.shms.values():
            shm.close()
            try:
                shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
        self.shms.clear()


def _shutdown_pool(procs, task_qs, sessions) -> None:
    """Finalizer: stop workers, then release every shared segment."""
    for q in task_qs:
        try:
            q.put(("exit",))
        except Exception:  # pragma: no cover - queue already broken
            pass
    for p in procs:
        p.join(timeout=2.0)
        if p.is_alive():  # pragma: no cover - wedged worker
            p.terminate()
            p.join(timeout=2.0)
    for sess in list(sessions.values()):
        sess.destroy()
    sessions.clear()


class MultiprocRunner(Runner):
    """Runs the preprocessed doacross on a persistent process pool over
    shared memory (see the module docstring for the protocol).

    Parameters
    ----------
    workers:
        Pool size; also the reported processor count.
    chunk:
        Default strip-mine chunk size (§2.3); ``None`` picks
        :func:`~repro.backends.kernel.default_chunk` per run, and the
        per-run ``chunk`` option overrides both.
    cache:
        Optional :class:`~repro.backends.cache.InspectorCache`; on a hit
        the cached ``iter`` array is copied straight into shared memory
        and the workers' inspector phase is skipped (Figure-3
        amortization across loop instances).
    analyze:
        ``"symbolic"``: when the symbolic engine proves the write
        subscript injective, ``iter`` is prefilled in closed form and the
        inspector phase is skipped; ``"symbolic+check"`` additionally
        cross-checks the verdict against the runtime inspector
        (:class:`~repro.errors.ProofError` on divergence).
    ladder:
        The :class:`~repro.backends.waitladder.WaitLadder` bounding every
        cross-chunk busy-wait.
    max_sessions:
        Shared-memory arenas kept alive (LRU per loop structure).

    The pool and its shared segments are released by :meth:`close` (also
    hooked to garbage collection), after which the runner may be used
    again — a fresh pool starts on demand.
    """

    name = "multiproc"

    def __init__(
        self,
        workers: int = 4,
        *,
        chunk: int | None = None,
        cache: InspectorCache | None = None,
        analyze: str | None = None,
        ladder: WaitLadder | None = None,
        max_sessions: int = 8,
    ):
        if workers < 1:
            raise ValueError(f"need at least one worker, got {workers}")
        if chunk is not None and chunk < 1:
            raise ValueError(f"chunk must be >= 1, got {chunk}")
        if max_sessions < 1:
            raise ValueError(
                f"max_sessions must be >= 1, got {max_sessions}"
            )
        self.workers = workers
        self.chunk = chunk
        self.cache = cache
        self.analyze = check_analyze_mode(analyze)
        self.ladder = ladder if ladder is not None else DEFAULT_LADDER
        self.max_sessions = max_sessions
        methods = mp.get_all_start_methods()
        self.start_method = "fork" if "fork" in methods else methods[0]
        self._procs: list = []
        self._task_qs: list = []
        self._result_q = None
        self._sessions: "OrderedDict[str, _Session]" = OrderedDict()
        self._finalizer = None

    # -- pool lifecycle ------------------------------------------------
    @property
    def started(self) -> bool:
        return bool(self._procs)

    def _ensure_pool(self) -> None:
        if self._procs:
            return
        ctx = mp.get_context(self.start_method)
        self._result_q = ctx.Queue()
        for wid in range(self.workers):
            q = ctx.Queue()
            p = ctx.Process(
                target=_worker_main,
                args=(wid, q, self._result_q),
                name=f"repro-multiproc-{wid}",
                daemon=True,
            )
            p.start()
            self._task_qs.append(q)
            self._procs.append(p)
        self._finalizer = weakref.finalize(
            self, _shutdown_pool, self._procs, self._task_qs, self._sessions
        )

    def close(self) -> None:
        """Stop the worker pool and unlink every shared segment.  Safe to
        call repeatedly; the next :meth:`run` starts a fresh pool."""
        if self._finalizer is not None:
            self._finalizer()
            self._finalizer = None
        self._procs = []
        self._task_qs = []
        self._result_q = None
        self._sessions = OrderedDict()

    def _broadcast(self, msg: tuple) -> None:
        for q in self._task_qs:
            q.put(msg)

    def _exchange(self, phase: str, key: str, opts: dict) -> list:
        """One phase task on every worker; their payloads."""
        self._broadcast((phase, key, opts))
        return self._collect(phase)

    def _collect(self, phase: str) -> list:
        payloads: list = [None] * self.workers
        first_err: BaseException | None = None
        timeout = self.ladder.timeout + 60.0
        for _ in range(self.workers):
            try:
                kind, wid, payload = self._result_q.get(timeout=timeout)
            except queue_mod.Empty:  # pragma: no cover - dead worker
                self.close()
                raise ReproError(
                    f"multiproc worker pool unresponsive during {phase} "
                    f"phase; pool shut down"
                ) from None
            if kind == "err":
                if first_err is None:
                    first_err = payload
            else:
                payloads[wid] = payload
        if first_err is not None:
            raise first_err
        return payloads

    # -- sessions ------------------------------------------------------
    def _session_for(self, loop: IrregularLoop) -> _Session:
        key = loop_fingerprint(loop)
        sess = self._sessions.get(key)
        if sess is not None:
            self._sessions.move_to_end(key)
            return sess
        while len(self._sessions) >= self.max_sessions:
            _, old = self._sessions.popitem(last=False)
            self._broadcast(("forget", old.key))
            self._collect("forget")
            old.destroy()
        sess = _Session(key, loop)
        self._broadcast(("attach", key, sess.meta()))
        self._collect("attach")
        self._sessions[key] = sess
        return sess

    # -- the run -------------------------------------------------------
    def run(
        self,
        loop: IrregularLoop,
        *,
        order: np.ndarray | None = None,
        schedule=None,
        chunk: int | None = None,
        trace: bool = False,
        group_sync: int | None = None,
    ) -> RunResult:
        """Execute ``loop`` on the process pool; see the module docstring.

        ``chunk`` sets the strip-mine chunk size.  ``schedule`` is ignored
        (iteration assignment is always chunked round-robin — the
        deadlock-freedom precondition); ``trace`` is ignored (no simulated
        timeline; use ``observe=True`` for wall-clock spans).  Both are
        recorded in ``result.extras["ignored_options"]`` when passed.
        """
        check_group_sync(loop, group_sync)
        c_size, group, group_refused = self._resolve(
            loop.n, order, chunk, group_sync
        )
        if order is not None:
            order = np.asarray(order, dtype=np.int64)
            validate_execution_order(loop, order)

        t0 = time.perf_counter()
        verdict = resolve_verdict(loop, self.analyze)
        elide = verdict is not None and verdict.write_injective
        record, hit = None, False
        if self.cache is not None:
            record, hit = self.cache.get_or_build(loop)

        self._ensure_pool()
        sess = self._session_for(loop)
        rec = self._obs_recorder
        met = self._obs_metrics
        observe = rec is not None

        n = loop.n
        if sess.dirty:
            # A previous run died mid-protocol (WaitTimeout): the normal
            # postprocess reset never ran, so scrub the scratch wholesale.
            sess.views["iter"][:] = MAXINT
            sess.views["ready"][:] = 0
        sess.dirty = True

        # Per-run values into shared memory (structure is already there).
        sess.views["y"][:] = loop.y0
        if sess.terms:
            sess.views["coeff"][:] = loop.reads.coeff
        external = loop.init_kind == INIT_EXTERNAL
        if external:
            sess.views["init"][:] = loop.init_values
        if order is not None:
            sess.views["order"][:] = order

        san = self._san_capture
        opts = {
            "chunk": c_size,
            "workers": self.workers,
            "has_order": order is not None,
            "external": external,
            "observe": observe,
            "ladder": self.ladder,
            "sanitize": san is not None,
            "window": (0, n),
        }

        # Phase 1: inspector — prefilled from the cache or the symbolic
        # proof (both yield the canonical iter contents), else parallel.
        # Phase 2: executor — one broadcast in flag mode; in group mode
        # one round per distance group, the collect between rounds being
        # the group barrier (no flags).  On WaitTimeout the session stays
        # dirty and is scrubbed on the next run; the pool itself survives.
        # Phase 3: postprocess/reset — scratch reusable afterwards.
        prefilled = record is not None or elide
        if prefilled:
            lanes.prefill(
                sess.views["iter"], loop, record, rec,
                cache_hit=bool(hit), elided=elide,
            )
        plan = lanes.steps(n, group, prefilled, opts)
        tallies = lanes.merge(
            plan,
            (self._exchange(kind, sess.key, o) for kind, o in plan),
            rec, met, san,
        )
        sess.dirty = False

        y = sess.views["y"].copy()
        wall = time.perf_counter() - t0

        cm = CostModel()
        result = RunResult(
            loop_name=loop.name,
            strategy="multiproc-doacross",
            processors=self.workers,
            y=y,
            total_cycles=0,
            sequential_cycles=sequential_time(loop, cm),
            cost_model=cm,
            schedule=f"chunked({c_size} x {self.workers} workers)",
            wall_seconds=wall,
        )
        result.extras["chunk"] = c_size
        result.extras["workers"] = self.workers
        result.extras["start_method"] = self.start_method
        if group is not None:
            result.extras["distance_group"] = int(group)
        if self.cache is not None:
            stats = self.cache.stats()
            result.extras["cache_hit"] = hit
            result.extras["cache_hits_total"] = stats["hits"]
            result.extras["cache_misses_total"] = stats["misses"]
        note_verdict(result, self.analyze, verdict, elide)
        note_kernel(result, met, tallies)
        if met is not None:
            met.gauge("workers", self.workers)
            met.gauge("chunk", c_size)
            if self.cache is not None:
                met.count("inspector_cache_hits", 1 if hit else 0)
                met.count("inspector_cache_misses", 0 if hit else 1)
            if self.analyze is not None:
                met.count("inspector_elisions", 1 if elide else 0)

        ignored = {}
        if schedule is not None:
            ignored["schedule"] = (
                schedule,
                "the multiproc backend always assigns contiguous chunks "
                "round-robin (deadlock-freedom precondition, DESIGN.md "
                "§6); use chunk= to size the strips",
            )
        if trace:
            ignored["trace"] = (
                True,
                "no simulated timeline exists on real processes; use "
                "observe=True for wall-clock spans",
            )
        if group_refused:
            ignored["group_sync"] = (group_sync, group_refused)
            if met is not None:
                met.count("sync_elision_fallbacks", 1)
        note_ignored_options(result, self.name, **ignored)
        return result

    def _resolve(
        self, n: int, order, chunk: int | None, group_sync: int | None
    ) -> tuple[int, int | None, str]:
        """The strip size and group size a run uses, and why a requested
        group is refused: the per-run ``chunk``, else the constructor's,
        else four strips per worker; group-synchronous elision
        (the distance stage) only in natural order and only for a chunk-aligned
        group, so the strip -> worker deal restricts cleanly to each group
        window."""
        if chunk is not None and chunk < 1:
            raise ValueError(f"chunk must be >= 1, got {chunk}")
        c_size = chunk if chunk is not None else self.chunk
        if c_size is None:
            c_size = kernel.default_chunk(n, self.workers)
        c_size = int(c_size)
        if group_sync is None:
            return c_size, None, ""
        if order is not None:
            return c_size, None, NON_NATURAL_GROUP
        if group_sync < c_size:
            why = f"smaller than the strip size (chunk={c_size})"
        elif group_sync % c_size:
            why = f"not a multiple of the strip size (chunk={c_size})"
        else:
            return c_size, group_sync, ""
        return c_size, None, (
            f"the group is {why}, so strips would straddle group "
            f"barriers; ran the flag protocol"
        )

    def schedule_model(
        self, loop, *, order=None, chunk=None, group_sync=None, **_options
    ) -> Placement:
        c_size, group, _ = self._resolve(loop.n, order, chunk, group_sync)
        if group is not None:
            return Placement.groups(loop.n, group, self.name, c_size)
        pos = execution_positions(loop.n, order)
        return Placement.flagged(
            pos,
            kernel.lane_of(pos, c_size, self.workers),
            c_size,
            f"multiproc({self.workers} workers, chunk={c_size})",
        )
