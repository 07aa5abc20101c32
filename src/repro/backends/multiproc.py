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
import weakref
from collections import OrderedDict

import numpy as np
from multiprocessing import shared_memory

from repro.backends import lanes
from repro.backends.base import Execution
from repro.backends.cache import InspectorCache
from repro.backends.waitladder import DEFAULT_LADDER, WaitLadder
from repro.core.workspace import MAXINT
from repro.errors import ReproError
from repro.ir.loop import INIT_EXTERNAL, IrregularLoop

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


def _map(meta: dict, segment) -> tuple[dict, dict]:
    """Each block's shared segment (``segment(field, nbytes)``) and its
    numpy view, for a session of ``meta``'s sizes."""
    n = meta["n"]
    sizes = {"n": n, "n1": n + 1, "terms": meta["terms"], "y": meta["y_size"]}
    shms, views = {}, {}
    for field, dtype, dim in _BLOCKS:
        count = sizes[dim]
        shms[field] = shm = segment(
            field, max(1, count) * np.dtype(dtype).itemsize
        )
        views[field] = np.ndarray((count,), dtype=dtype, buffer=shm.buf)
    return shms, views


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
    shms, views = _map(
        meta, lambda field, _: shared_memory.SharedMemory(name=meta["names"][field])
    )
    return {"shms": shms, "views": views, "n": meta["n"], "codes": {}}


def _worker_detach(sess: dict) -> None:
    """Release one attached session: numpy views first (they export the
    mmap's buffer; closing underneath them raises ``BufferError``)."""
    sess["views"].clear()
    sess["codes"].clear()
    for shm in sess["shms"].values():
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
        self.terms = int(loop.reads.total_terms)
        self.dirty = False
        self._meta = {"n": loop.n, "y_size": loop.y_size, "terms": self.terms}
        self.shms, self.views = _map(
            self._meta,
            lambda _, size: shared_memory.SharedMemory(create=True, size=size),
        )
        # Structure (shipped once per session) + clean scratch.
        self.views["write"][:] = loop.write
        self.views["ptr"][:] = loop.reads.ptr
        self.views["index"][:] = loop.reads.index
        self.views["iter"][:] = MAXINT
        self.views["ready"][:] = 0
        self.views["ynew"][:] = 0.0

    def meta(self) -> dict:
        names = {f: shm.name for f, shm in self.shms.items()}
        return dict(self._meta, names=names)

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


class MultiprocRunner(lanes.LaneRunner):
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
    again — a fresh pool starts on demand.  The ``schedule`` run option
    is ignored (strips are always dealt round-robin, the deadlock-freedom
    precondition) and so is ``trace``; each is noted in
    ``extras["ignored_options"]``.
    """

    name = "multiproc"
    strategy = "multiproc-doacross"
    schedule_format = "chunked({strip} x {workers} workers)"
    label_format = "multiproc({workers} workers, chunk={strip})"

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
        super().__init__(workers, chunk, analyze)
        if max_sessions < 1:
            raise ValueError(
                f"max_sessions must be >= 1, got {max_sessions}"
            )
        self.cache = cache
        self.ladder = ladder if ladder is not None else DEFAULT_LADDER
        self.max_sessions = max_sessions
        methods = mp.get_all_start_methods()
        self.start_method = "fork" if "fork" in methods else methods[0]
        self._procs: list = []
        self._task_qs: list = []
        self._result_q = None
        self._sessions: "OrderedDict[str, _Session]" = OrderedDict()
        self._live: _Session | None = None
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
    def _session_for(self, loop: IrregularLoop, key: str) -> _Session:
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

    # -- the transport -------------------------------------------------
    def _open(self, loop: IrregularLoop, key: str, order) -> dict:
        """The loop structure's session, with this run's values copied in
        (the structure is already there)."""
        self._ensure_pool()
        sess = self._live = self._session_for(loop, key)
        if sess.dirty:
            # A previous run died mid-protocol (WaitTimeout): the normal
            # postprocess reset never ran, so scrub the scratch wholesale.
            sess.views["iter"][:] = MAXINT
            sess.views["ready"][:] = 0
        sess.dirty = True
        sess.views["y"][:] = loop.y0
        if sess.terms:
            sess.views["coeff"][:] = loop.reads.coeff
        if loop.init_kind == INIT_EXTERNAL:
            sess.views["init"][:] = loop.init_values
        if order is not None:
            sess.views["order"][:] = order
        return sess.views

    def _phases(self, plan: list, views: dict, n: int):
        """One broadcast per step; the collect of its payloads is the
        barrier (between group rounds too).  On WaitTimeout the session
        stays dirty and is scrubbed on the next run; the pool survives."""
        for kind, opts in plan:
            self._broadcast((kind, self._live.key, opts))
            yield self._collect(kind)

    def _close(self, views: dict) -> np.ndarray:
        self._live.dirty = False
        return views["y"].copy()

    def _execute(self, loop, key, order, verdict, strip, group) -> Execution:
        done = super()._execute(loop, key, order, verdict, strip, group)
        done.extras.update(
            chunk=strip, workers=self.workers, start_method=self.start_method
        )
        if self._obs_metrics is not None:
            self._obs_metrics.gauge("workers", self.workers)
            self._obs_metrics.gauge("chunk", strip)
        return done
