"""The lane protocol: Figure 3's three phases as tasks over flat arrays.

The paper's executor is one protocol (§2.2, Figure 5) over four shared
arrays:

- ``iter``  — writer iteration per ``y`` element (``MAXINT`` = unwritten),
- ``ready`` — one byte per element, the Figure-5 busy-wait flags,
- ``ynew``  — the renamed write targets (antidependence removal),
- ``y``     — the live values, updated by the postprocessor.

Iterations are strip-mined into contiguous strips of ``chunk`` positions
(§2.3), dealt round-robin to the lanes; each lane executes its strips in
increasing order, so every cross-strip true dependence points to a
strictly earlier strip and the busy-wait protocol is deadlock-free
(DESIGN.md §6).  A lane classifies its terms once from ``iter``
(:func:`~repro.backends.kernel.classify_terms`) — in natural order the
codes depend on structure alone and are memoised per (strip size, lane
count, window) in the lane's own state — and walks them with
:func:`~repro.backends.kernel.run_span`, every blocking wait bounded by a
:class:`~repro.backends.waitladder.WaitLadder`.

The phases are the functions in :data:`TASKS`, each ``task(sess, opts,
wid) -> payload``: ``sess`` is the lane's state (``views``: the arrays by
name, ``n``, ``codes``: the memo), ``opts`` the phase's options, and the
payload what the coordinator merges with :func:`merge` — counters, span
rows, compute/wait tiling, the shadow log and the kernel tally.  Two
transports run them:

- :class:`~repro.backends.threaded.ThreadedRunner` — threads over plain
  NumPy arrays allocated per run, strips of one position (the cyclic
  deal), a thread barrier between phases and group rounds;
- :class:`~repro.backends.multiproc.MultiprocRunner` — a process pool over
  ``multiprocessing.shared_memory`` segments, the coordinator's collect
  being the barrier.

Both are one :class:`LaneRunner`: the strip and group rules, the schedule
model and the run's sequence (options, prefill, steps, merge) are written
here once, and a transport supplies only its arrays (``_open`` /
``_close``) and how it runs a phase on every lane (``_phases``).  A
payload from another process carries its ``pid``: the phase spans are
tagged with it and the shadow-log lane is keyed ``(pid, wid)``.
"""

from __future__ import annotations

import time

import numpy as np

from repro.backends import kernel
from repro.backends.base import (
    NON_NATURAL_GROUP,
    Execution,
    WallClockRunner,
    execution_positions,
    inverse_permutation,
)
from repro.backends.kernel import Placement
from repro.core.workspace import MAXINT
from repro.errors import WaitTimeout
from repro.ir.loop import INIT_EXTERNAL
from repro.obs.spans import CAT_PHASE

__all__ = ["LaneRunner", "TASKS", "merge"]


def _lane(sess: dict, opts: dict, wid: int) -> np.ndarray:
    """This lane's positions: its strips, in increasing order."""
    return kernel.lane_positions(
        0, sess["n"], opts["chunk"], opts["workers"], wid
    )


def _task_inspector(sess: dict, opts: dict, wid: int) -> dict:
    """Phase 1: fill this lane's slice of ``iter`` (Figure 3, left).
    ``iter[write[i]] = i`` is order-independent, so the slice fills in one
    vectorized store regardless of any doconsider order."""
    v = sess["views"]
    t0 = time.perf_counter()
    mine = _lane(sess, opts, wid)
    v["iter"][v["write"][mine]] = mine
    payload: dict = {
        "wid": wid,
        "metrics": {"inspector_iterations": len(mine)},
    }
    if opts["observe"]:
        payload["spans"] = [(
            "inspector", CAT_PHASE, t0, time.perf_counter(),
            {"elided": False},
        )]
    return payload


def _lane_codes(
    sess: dict, opts: dict, wid: int, lo: int, hi: int
) -> tuple[np.ndarray, np.ndarray]:
    """This lane's iterations inside position window ``[lo, hi)`` and
    their term codes.  In natural order both depend only on the loop's
    structure, so they are memoised per (chunking, window)."""
    v = sess["views"]
    chunk, workers, ordered = opts["chunk"], opts["workers"], opts["has_order"]
    key = (chunk, workers, lo, hi)
    if not ordered and key in sess["codes"]:
        return sess["codes"][key]
    its = kernel.lane_positions(lo, hi, chunk, workers, wid)
    pos = None
    if ordered:
        its = v["order"][its]
        pos = inverse_permutation(v["order"])
    entry = its, kernel.classify_terms(
        v["ptr"], v["index"], v["iter"], its, chunk, pos
    )
    if not ordered:
        sess["codes"][key] = entry
    return entry


def _task_executor(sess: dict, opts: dict, wid: int) -> dict:
    """Phase 2: the Figure-5 executor over this lane's strips inside
    ``opts["window"]``, every blocking wait bounded by ``opts["ladder"]``.

    In flag mode the window is the whole loop.  In group-synchronous mode
    (``opts["round"]`` set) it is one distance group: planning
    (``plan_distance_elision``) proved every cross-iteration true
    dependence reaches into a strictly earlier group, and the transport
    separates rounds by a barrier, so every wait is already discharged —
    no flag is checked or set.  The shadow log records that barrier as
    one ``("g", round)`` generation per lane, and brackets the executor
    with the phase barriers ``0`` (before the first window) and ``1``
    (after the last).
    """
    v = sess["views"]
    ready = memoryview(v["ready"])
    ladder = opts["ladder"]
    observe = opts["observe"]
    group_round = opts.get("round")
    flagged = group_round is None
    lo, hi = opts["window"]
    events: list | None = [] if opts["sanitize"] else None
    if events is not None and lo == 0:
        events.append(("b", 0))
    clock = time.perf_counter
    timed_out: WaitTimeout | None = None

    busy_waits = wait_escalations = 0
    wait_seconds = 0.0
    waits: list = []  # (w0, w1, element) per blocking wait, when observed

    def wait(idx) -> None:
        nonlocal busy_waits, wait_escalations, wait_seconds
        if ready[idx]:
            return
        busy_waits += 1
        w0 = clock()
        if ladder.wait(lambda: ready[idx], element=int(idx)) > 0:
            # Past the spin rung: this stall was long enough to sleep on
            # (the doctor's wait-escalation evidence).
            wait_escalations += 1
        w1 = clock()
        wait_seconds += w1 - w0
        if observe:
            waits.append((w0, w1, idx))

    def post(w) -> None:
        ready[w] = 1

    t_phase = clock()
    its, codes = _lane_codes(sess, opts, wid, lo, hi)
    n_waits = int(np.count_nonzero(codes == kernel.WAIT))
    kernel.take_tally()  # a span that timed out left its count behind
    try:
        kernel.run_span(
            its, codes, v["write"], v["ptr"], v["index"], v["coeff"],
            v["init"] if opts["external"] else None,
            v["y"], v["ynew"], v["ynew"],
            wait=wait if flagged else None,
            post=post if flagged else None,
            events=events,
        )
    except WaitTimeout as exc:
        if events is None:
            raise
        # Sanitizing: ship the partial shadow log home with the timeout
        # riding in the payload — the log usually explains the hang
        # better than the timeout does.
        timed_out = exc.with_traceback(None)

    metrics = {
        "flag_checks": n_waits if flagged else 0,
        "flag_sets": len(its) if flagged else 0,
        "busy_waits": busy_waits,
        "wait_seconds": wait_seconds,
        "iterations": len(its),
    }
    attrs: dict = {}
    if flagged:
        metrics["wait_escalations"] = wait_escalations
    else:
        # Posts never set (one per iteration) + waits never performed.
        metrics["sync_elisions"] = len(its) + n_waits
        attrs["group_round"] = group_round
    payload: dict = {
        "wid": wid, "metrics": metrics, "kernel": kernel.take_tally(),
    }
    if observe:
        t_end = clock()
        payload["spans"] = [("executor", CAT_PHASE, t_phase, t_end, attrs)]
        payload["waits"] = (t_phase, t_end, waits)
    if events is not None:
        if not flagged:
            # Every lane logs the round barrier, share or no share — the
            # sanitizer's replay releases a generation only when *all*
            # lanes arrive.
            events.append(("b", ("g", group_round)))
        if timed_out is None and hi == sess["n"]:
            events.append(("b", 1))
        payload["events"] = events
        if timed_out is not None:
            payload["wait_timeout"] = timed_out
    return payload


def _task_post(sess: dict, opts: dict, wid: int) -> dict:
    """Phase 3: reset scratch for the written elements and publish
    ``ynew`` into ``y`` — the arrays are reusable immediately after."""
    v = sess["views"]
    t0 = time.perf_counter()
    w = v["write"][_lane(sess, opts, wid)]
    v["iter"][w] = MAXINT
    v["y"][w] = v["ynew"][w]
    v["ready"][w] = 0
    payload: dict = {"wid": wid, "metrics": {}}
    if opts["observe"]:
        payload["spans"] = [
            ("postprocessor", CAT_PHASE, t0, time.perf_counter(), {})
        ]
    return payload


TASKS = {
    "inspector": _task_inspector,
    "executor": _task_executor,
    "post": _task_post,
}


def merge(payloads: list, rec, met, san) -> list[tuple]:
    """Merge one phase's lane payloads into the run's telemetry and shadow
    log; returns their kernel tallies.  A lane that shipped a
    :class:`~repro.errors.WaitTimeout` home (a sanitized run) raises it
    here, after every lane's log is in."""
    tallies: list[tuple] = []
    timed_out: WaitTimeout | None = None
    for payload in payloads:
        if payload is None:
            continue
        wid, pid = payload["wid"], payload.get("pid")
        tag = {} if pid is None else {"pid": pid}
        if met is not None:
            for name, value in payload["metrics"].items():
                met.count(name, value)
        if rec is not None:
            for name, cat, s0, s1, attrs in payload.get("spans", ()):
                rec.record(name, cat, s0, s1, lane=wid, **attrs, **tag)
            if "waits" in payload:
                rec.record_wait_segments(wid, *payload["waits"])
        if san is not None and "events" in payload:
            san.ingest(wid, payload["events"], pid=pid)
        if "kernel" in payload:
            tallies.append(payload["kernel"])
        if timed_out is None:
            timed_out = payload.get("wait_timeout")
    if timed_out is not None:
        raise timed_out
    return tallies


class LaneRunner(WallClockRunner):
    """The lane protocol as a runner: ``workers`` lanes over strips of
    positions.  A transport supplies ``ladder`` (the
    :class:`~repro.backends.waitladder.WaitLadder` every blocking wait
    climbs), ``schedule_format`` / ``label_format`` (formatted with
    ``workers`` and ``strip``), ``_open(loop, key, order)`` (the run's
    arrays by name: its values, clean scratch), ``_phases(plan, views,
    n)`` (each step run on every lane, a barrier after it; yields the
    payloads) and ``_close(views)`` (the final ``y``).  ``cache``, when
    set, prefills ``iter`` from an inspector record (Figure-3
    amortization)."""

    cache = None
    schedule_format: str
    label_format: str

    def _resolve(self, n, order, chunk, group_sync):
        """Group-synchronous elision (the distance stage) runs only in
        natural order — the bound is on iteration numbers — and only for
        a strip-aligned group, so the strip -> lane deal restricts
        cleanly to each group window."""
        strip = self._strip(n, chunk)
        if group_sync is None:
            return strip, None, ""
        if order is not None:
            return strip, None, NON_NATURAL_GROUP
        if group_sync < strip:
            why = f"smaller than the strip size (chunk={strip})"
        elif group_sync % strip:
            why = f"not a multiple of the strip size (chunk={strip})"
        else:
            return strip, group_sync, ""
        return strip, None, (
            f"the group is {why}, so strips would straddle group "
            f"barriers; ran the flag protocol"
        )

    def schedule_model(
        self, loop, *, order=None, chunk=None, group_sync=None, **_options
    ) -> Placement:
        strip, group, _ = self._resolve(loop.n, order, chunk, group_sync)
        if group is not None:
            return Placement.groups(loop.n, group, self.name, strip)
        pos = execution_positions(loop.n, order)
        return Placement.flagged(
            pos,
            kernel.lane_of(pos, strip, self.workers),
            strip,
            self.label_format.format(workers=self.workers, strip=strip),
        )

    def _execute(self, loop, key, order, verdict, strip, group) -> Execution:
        """Figure 3's phases, each a step on every lane: the inspector —
        unless ``iter`` is prefilled on the coordinator, from the cache's
        record or in closed form (the write proven injective, so no fill
        order matters; both yield the canonical contents) — the executor,
        once in flag mode or once per distance group, and the
        postprocessor.  Each step's payloads are merged into the run's
        telemetry and shadow log as the transport delivers them."""
        elide = verdict is not None and verdict.write_injective
        record, hit = None, False
        if self.cache is not None:
            record, hit = self.cache.get_or_build(loop, fingerprint=key)
        views = self._open(loop, key, order)
        rec, met, san = self._obs_recorder, self._obs_metrics, self._san_capture
        n = loop.n
        opts = {
            "chunk": strip,
            "workers": self.workers,
            "has_order": order is not None,
            "external": loop.init_kind == INIT_EXTERNAL,
            "observe": rec is not None,
            "ladder": self.ladder,
            "sanitize": san is not None,
            "window": (0, n),
        }
        prefilled = record is not None or elide
        if prefilled:
            t0 = time.perf_counter()
            if record is not None:
                views["iter"][:] = record.iter_array
            else:
                views["iter"][loop.write] = np.arange(n, dtype=np.int64)
            if rec is not None:
                rec.record(
                    "inspector", CAT_PHASE, t0, rec.now(), lane=0,
                    cache_hit=bool(hit), elided=elide,
                )
        rounds = [opts] if group is None else [
            dict(opts, window=(lo, min(n, lo + group)), round=gk)
            for gk, lo in enumerate(range(0, n, group))
        ]
        plan = (
            ([] if prefilled else [("inspector", opts)])
            + [("executor", r) for r in rounds]
            + [("post", opts)]
        )
        tallies: list[tuple] = []
        for payloads in self._phases(plan, views, n):
            tallies += merge(payloads, rec, met, san)
        if met is not None:
            if prefilled:
                met.count("inspector_iterations", 0)
            if group is not None:
                met.count("group_barriers", len(rounds))
        extras: dict = {}
        if self.cache is not None:
            extras.update(
                cache_hit=hit,
                cache_hits_total=self.cache.hits,
                cache_misses_total=self.cache.misses,
            )
            if met is not None:
                met.count("inspector_cache_hits", 1 if hit else 0)
                met.count("inspector_cache_misses", 0 if hit else 1)
        return Execution(
            self._close(views),
            self.schedule_format.format(workers=self.workers, strip=strip),
            tallies,
            None if verdict is None else elide,
            extras,
        )
