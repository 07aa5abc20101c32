"""The Figure-5 term rule and the lane placement it depends on — once.

The paper's whole executor is one rule (§2.2, Figure 5): a right-hand
side term ``y[idx]`` of iteration ``i`` is served according to how
``iter[idx]`` (the writer of ``idx``) compares with ``i`` —

- ``>`` (or unwritten): the **old** ``y[idx]`` (an antidependence, removed
  by the ``ynew`` renaming),
- ``==``: the **live accumulator** of iteration ``i`` itself,
- ``<``: the **renamed** value ``ynew[idx]``, once its writer has
  produced it.

The last case is the only one that needs synchronisation, and whether it
does depends on where the writer runs.  Every real-concurrency backend
deals positions to lanes the same way — contiguous strips of ``chunk``
positions, strip ``c`` to lane ``c % workers`` (threads: ``chunk = 1``,
the cyclic schedule) — and a lane walks its positions in increasing
order.  So a true dependence whose writer sits earlier in the reader's
own strip is ordered by program order (:data:`LOCAL`); any other one
crosses lanes and must wait for the writer's post (:data:`WAIT`).

:func:`classify_terms` evaluates that rule for a batch of iterations in
one vectorised pass; :func:`run_span` is the one scalar evaluator that
walks iterations by code.  The threaded, multiproc, speculative and
simulated backends are scheduling and synchronisation around these two,
and the vectorized backend calls :func:`run_span` for every run of wavefronts too
narrow to batch (its codes come from the inspector record: level order
discharges the waits, so nothing there is :data:`LOCAL` and ``wait`` is
``None``).  The static race checker (:mod:`repro.lint.hb`) reads the same
placement and the same codes — its wait set is exactly the terms coded
:data:`WAIT` — and the mutation harness (:mod:`repro.sanitize.mutate`)
corrupts these codes and replays :func:`run_span` over them, so what is
checked, and what the detector is proven against, is what the backend
executes.

:func:`run_span` has two bodies behind one signature.  A span that needs
no Python callback — no ``wait``, no ``post``, no shadow log, every
operand a flat array — and is long enough to repay a foreign call runs
compiled (:mod:`repro.backends.native`: the same walk in C, built once
with ``gcc`` and cached on disk, called through :mod:`ctypes` with the GIL
released); every other span, and every span when there is no compiler,
runs the Python walk below.  Which body ran, and why, is tallied per
thread (:func:`take_tally`) and reported by the backends per run
(``result.extras["kernel"]``).  The two agree bit for bit except in the
payload bits of a NaN (see :mod:`~repro.backends.native`).

The cycle-charging simulator (:mod:`repro.backends.simulated`) calls both
as well: :func:`classify_terms` with ``chunk = 1``, per strip-mine block,
from the ``iter`` array its inspector phase just filled, and one
:func:`run_span` per executor phase over the positions in execution order
(``wait=None``: every writer sits at an earlier position).  Values and
cycles are separate there — the codes fix which value each term reads
whatever the interleaving, so the simulated clock (a recurrence over the
flag set-times, or generator tasks that *yield* their waits to the event
engine) charges and synchronises without doing any arithmetic.

Not here, on purpose: the sequential oracle
(:meth:`~repro.ir.loop.IrregularLoop.run_sequential`) is the reference
the walk is tested against, and the vectorized backend's bulk per-level
kernel works on whole wavefronts — neither shares control flow with a
blocking scalar walk.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.backends import native

__all__ = [
    "OLD",
    "LOCAL",
    "WAIT",
    "ACC",
    "default_chunk",
    "lane_of",
    "lane_positions",
    "classify_terms",
    "run_span",
    "take_tally",
]

#: Term codes.  ``OLD``: read the old ``y`` (antidependence or unwritten
#: element).  ``LOCAL``: renamed value this lane wrote earlier in the
#: same strip — program order is the happens-before edge.  ``WAIT``:
#: renamed value written on another lane (or an earlier strip) — needs
#: the writer's post.  ``ACC``: the iteration's own live accumulator.
OLD, LOCAL, WAIT, ACC = 0, 1, 2, 3

#: Spans shorter than this keep the Python body: a compiled call has a
#: fixed cost (ten operand checks + marshalling 16 arguments) that a short
#: walk does not repay.  One ``run_span`` call in us, best of 7 x 2000, on
#: ``random_irregular_loop(4000, seed=3)`` (2.0 terms per iteration), at
#: 1 / 8 / 16 / 24 / 32 / 48 / 64 / 128 iterations: Python 3.6 / 7.1 /
#: 10.3 / 13.8 / 17.4 / 25.7 / 32.0 / 49.6, compiled 14.6 / 14.9 / 15.3 /
#: 14.5 / 15.4 / 16.3 / 15.4 / 12.6 — they cross between 24 and 32.  It is
#: a property of the span the code can see, not a setting: the fused runs
#: of ``krylov_churn`` (1-7 iterations) and ``trisolve_5pt`` (two of 28)
#: stay interpreted, ``fig4_chain``'s one run of 8,000 is compiled.  The
#: segment cut ``cache._FUSE_BELOW`` sits beside it and is unchanged.
_NATIVE_FROM = 32


class _Tally(threading.local):
    """Spans this thread ran on each body since :func:`take_tally`, and
    why the last Python one did."""

    native = 0
    python = 0
    reason: str | None = None


_tally = _Tally()


def take_tally() -> tuple[int, int, str | None]:
    """``(native spans, Python spans, reason)`` of the calling thread
    since it last asked; resets the count.  The reason is why the latest
    Python-body span did not run compiled: ``sanitize`` (a shadow log),
    ``blocking-span`` (``wait`` / ``post`` callbacks), ``short-span``,
    ``non-array-operand`` (anything but flat arrays of the walk's dtypes,
    ``out`` writeable), or the process-level ``no-compiler`` /
    ``unsafe-cache-dir`` / ``build-failed: ...``, which take precedence."""
    t = _tally
    taken = t.native, t.python, t.reason
    t.native = t.python = 0
    t.reason = None
    return taken


def default_chunk(n: int, workers: int) -> int:
    """Strip-mine default (§2.3): four strips per worker, for load
    balance without drowning short loops in cross-strip waits."""
    return max(1, -(-n // (4 * workers)))


def lane_of(pos: np.ndarray, chunk: int, workers: int) -> np.ndarray:
    """The lane executing each position: strips of ``chunk`` positions
    dealt round-robin."""
    return (pos // chunk) % workers


def lane_positions(
    lo: int, hi: int, chunk: int, workers: int, wid: int
) -> np.ndarray:
    """Lane ``wid``'s positions inside ``[lo, hi)``, increasing — the
    order it executes them in (the deadlock-freedom precondition)."""
    p = np.arange(lo, hi, dtype=np.int64)
    return p[lane_of(p, chunk, workers) == wid]


def classify_terms(
    ptr: np.ndarray,
    index: np.ndarray,
    iter_arr: np.ndarray,
    its: np.ndarray,
    chunk: int,
    pos: np.ndarray | None = None,
) -> np.ndarray:
    """Per-term codes for iterations ``its``, in the order given (flat:
    all terms of ``its[0]``, then of ``its[1]``, ...).  The code array is
    the per-iteration read contract (Blom/Darabi/Huisman, arXiv
    1406.3484): which memory each iteration may read, and after whom.

    ``iter_arr[e]`` is the iteration writing element ``e``; any value
    outside ``[0, i)`` for a reader ``i`` (``MAXINT``, ``-1``, a later
    writer) means the old value is read.  ``pos[i]`` is the execution
    position of iteration ``i`` (``None``: natural order, ``pos[i] = i``);
    the Figure-5 compare is on iteration numbers, the strip test on
    positions.  With ``chunk = 1`` a strip holds a single iteration, so
    nothing is ``LOCAL`` and ``pos`` is irrelevant.
    """
    its = np.asarray(its, dtype=np.int64)
    counts = ptr[its + 1] - ptr[its]
    total = int(counts.sum())
    flat = np.repeat(ptr[its] - (np.cumsum(counts) - counts), counts)
    flat += np.arange(total, dtype=np.int64)
    writers = iter_arr[index[flat]]
    readers = np.repeat(its, counts)
    codes = np.full(total, OLD, dtype=np.int8)
    codes[writers == readers] = ACC
    dep = np.nonzero((writers >= 0) & (writers < readers))[0]
    w, r = writers[dep], readers[dep]
    if pos is not None:
        w, r = pos[w], pos[r]
    local = (w // chunk == r // chunk) & (w < r)
    codes[dep] = np.where(local, LOCAL, WAIT)
    return codes


def run_span(
    its: np.ndarray,
    codes: np.ndarray,
    write: np.ndarray,
    ptr: np.ndarray,
    index: np.ndarray,
    coeff: np.ndarray,
    init: np.ndarray | None,
    old,
    new,
    out,
    *,
    cur: int = 0,
    wait=None,
    post=None,
    events: list | None = None,
) -> int:
    """Execute iterations ``its`` in order; returns the code cursor.

    ``codes[cur:]`` are their term codes (:func:`classify_terms` order),
    so a lane classified once can be walked in several calls — one per
    barrier-separated group — by feeding the returned cursor back in.
    Per iteration, terms accumulate in original order as float64 scalar
    operations: bitwise the sequential oracle's arithmetic.

    ``old`` serves ``OLD`` terms, ``out`` receives every write and serves
    ``LOCAL`` terms, ``new`` serves ``WAIT`` terms after ``wait(idx)``
    returned (the backend's bounded busy-wait on the writer's post).
    ``wait=None`` means the caller's own ordering already discharged
    every wait — a group barrier, the speculative commit chain — and the
    term is read with no acquire.  ``post(w)`` publishes a finished
    write; ``post=None`` publishes nothing.  ``init`` seeds the
    accumulators (``None``: from ``old[w]``).

    ``events`` is the lane's shadow log (:mod:`repro.sanitize.events`).
    An acquire is logged *before* blocking: on success the lane's order
    is unchanged, and a timed-out wait leaves the unsatisfied acquire in
    the log for the sanitizer to name.  Accumulator terms are not logged.

    Array operands are walked through ``memoryview``s taken once here, so
    every index yields a plain ``int`` / ``float`` instead of a NumPy
    scalar (about half the interpreter time of the walk; Python floats
    are IEEE doubles, so the arithmetic is bit-for-bit the same).  A view
    reads the live buffer — a value another thread or process publishes
    is seen as before.  Non-array operands (the speculative backend's
    ``dict`` write buffer) pass through untouched.

    That is the Python body.  A span with no callback and no log, at
    least :data:`_NATIVE_FROM` iterations long, is handed to the compiled
    body instead (:func:`repro.backends.native.run_span`), which either
    returns the cursor or says why it cannot run; its bounds violations
    raise :class:`~repro.errors.InvalidLoopError`.
    """
    reason = native.unavailable()
    if reason is None:
        if events is not None:
            reason = "sanitize"
        elif wait is not None or post is not None:
            reason = "blocking-span"
        elif len(its) < _NATIVE_FROM:
            reason = "short-span"
        else:
            done = native.run_span(
                its, codes, write, ptr, index, coeff, init, old, new, out, cur
            )
            if type(done) is int:
                _tally.native += 1
                return done
            reason = done
    _tally.python += 1
    _tally.reason = reason
    code, write, ptr, index, coeff, init, old, new, out = (
        memoryview(a) if isinstance(a, np.ndarray) else a
        for a in (codes, write, ptr, index, coeff, init, old, new, out)
    )
    for i in its.tolist():
        w = write[i]
        acc = old[w] if init is None else init[i]
        for k in range(ptr[i], ptr[i + 1]):
            c = code[cur]
            cur += 1
            idx = index[k]
            if c == OLD:
                if events is not None:
                    events.append(("r", i, idx, 0))
                value = old[idx]
            elif c == ACC:
                value = acc
            elif c == LOCAL:
                if events is not None:
                    events.append(("r", i, idx, 1))
                value = out[idx]
            else:
                if wait is not None:
                    if events is not None:
                        events.append(("a", idx))
                    wait(idx)
                if events is not None:
                    events.append(("r", i, idx, 1))
                value = new[idx]
            acc += coeff[k] * value
        out[w] = acc
        if events is not None:
            events.append(("w", i, w))
        if post is not None:
            post(w)
            if events is not None:
                events.append(("p", w))
    return cur
