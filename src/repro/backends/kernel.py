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
and the vectorized backend is one :func:`run_span` call over the level-major
order of its wavefronts (its codes come from the inspector record: level
order discharges the waits, so nothing there is :data:`LOCAL` and ``wait``
is ``None``).  That call reads the record's structure gathered into level
order, by position (``start``), and one copy of ``y`` as ``new`` and
``out`` — and as ``old`` too when no :data:`OLD` term reads an element
some iteration writes, since the renaming exists for antidependences
only.  With one, ``old`` is the caller's ``y``, which the walk never
writes, so the copy ends as the result and nothing is copied back.  Each
runner states where its iterations run as one
:class:`Placement` (``schedule_model``); the static race checker
(:mod:`repro.lint.hb`) applies the one coverage rule to it, its waits
being exactly the terms :func:`classify_terms` codes :data:`WAIT`; the
mutation harness (:mod:`repro.sanitize.mutate`) corrupts these codes and
walks them (:func:`run_span`'s log, or its NumPy twin :func:`span_events`),
so what is checked, and what the detector is proven against, is run.

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
the walk is tested against, so it shares no code with it.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from repro.backends import native

__all__ = [
    "OLD",
    "LOCAL",
    "WAIT",
    "ACC",
    "Placement",
    "default_chunk",
    "lane_of",
    "lane_positions",
    "term_positions",
    "classify_terms",
    "run_span",
    "span_events",
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
#: a property of the span the code can see, not a setting: every
#: vectorized walk of the four benchmark workloads (2,000 to 50,000
#: iterations) is compiled, a walk of a toy loop is interpreted.
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


@dataclass(frozen=True)
class Placement:
    """Where a run puts each iteration, as far as ordering goes: what a
    runner's ``schedule_model`` hands the static race checker, read off
    the lane map, strip size and barriers the runner executes by.

    ``pos[i]`` is iteration ``i``'s execution position; ``lane[i]`` the
    lane that walks it, positions increasing (``None``: no program order
    is relied on); ``cut[i]`` its barrier segment, every barrier lying
    between two consecutive segments; ``chunk`` the strip size its term
    codes are classified with (without flags: the run's strip size, which
    ``validate="static"`` lints); ``flags`` whether a :data:`WAIT` term
    waits for its writer's post.  A true dependence ``w → r`` on element ``e`` is
    ordered iff ``cut[w] < cut[r]``, or ``lane[w] == lane[r]`` and
    ``pos[w] < pos[r]``, or ``flags`` and ``r``'s term reading ``e`` is
    coded :data:`WAIT` by :func:`classify_terms` — the rule
    :func:`repro.lint.hb.check_dependence_coverage` applies.
    """

    pos: np.ndarray
    lane: np.ndarray | None
    cut: np.ndarray
    chunk: int
    flags: bool
    label: str

    @classmethod
    def barriers(cls, cut, label: str, chunk: int = 1) -> "Placement":
        """Barrier-separated segments and nothing else: wavefront levels,
        distance groups."""
        cut = np.asarray(cut, dtype=np.int64)
        pos = np.arange(len(cut), dtype=np.int64)
        return cls(pos, None, cut, chunk, False, label)

    @classmethod
    def groups(
        cls, n: int, group: int, backend: str, chunk: int = 1
    ) -> "Placement":
        """Natural-order groups of ``group`` iterations, one barrier
        between consecutive groups, no flags: the distance-elided mode."""
        if group < 1:
            raise ValueError(f"group size must be >= 1, got {group}")
        cut = np.arange(n, dtype=np.int64) // group
        return cls.barriers(cut, f"{backend}/group({group})", chunk)

    @classmethod
    def flagged(
        cls, pos: np.ndarray, lane: np.ndarray, chunk: int, label: str
    ) -> "Placement":
        """The flag protocol: lanes and no barrier, a wait per
        :data:`WAIT` term."""
        cut = np.zeros(len(pos), dtype=np.int64)
        return cls(pos, np.asarray(lane, dtype=np.int64), cut, chunk, True, label)


def term_positions(ptr: np.ndarray, its: np.ndarray):
    """``(terms, counts)`` of iterations ``its``, in the order given: the
    flat positions of their terms and each one's term count.  ``terms``
    is a ``slice`` when ``its`` is one ascending contiguous range (the
    natural order of a block, a doall's or a chain's level order), so no
    term-sized index array is built; an index array otherwise."""
    n = len(its)
    if n and its[-1] - its[0] == n - 1 and bool((its[1:] > its[:-1]).all()):
        lo, hi = int(its[0]), int(its[-1]) + 1
        return slice(int(ptr[lo]), int(ptr[hi])), np.diff(ptr[lo : hi + 1])
    counts = ptr[its + 1] - ptr[its]
    flat = np.repeat(ptr[its] - (np.cumsum(counts) - counts), counts)
    flat += np.arange(len(flat), dtype=np.int64)
    return flat, counts


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
    terms, counts = term_positions(ptr, its)
    writers = iter_arr[index[terms]]
    # The reader of every term, as narrow as iteration numbers allow: it
    # is the largest temporary here besides ``writers``.
    narrow = np.int32 if len(ptr) <= 2**31 else np.int64
    readers = np.repeat(its.astype(narrow), counts)
    codes = np.full(len(writers), OLD, dtype=np.int8)
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
    start: np.ndarray | None = None,
    wait=None,
    post=None,
    events: list | None = None,
    memo=None,
) -> int:
    """Execute iterations ``its`` in order; returns the code cursor.

    ``codes[cur:]`` are their term codes (:func:`classify_terms` order),
    so a lane classified once can be walked in several calls — one per
    barrier-separated group — by feeding the returned cursor back in.
    Per iteration, terms accumulate in original order as float64 scalar
    operations: bitwise the sequential oracle's arithmetic.

    ``start`` selects the layout of the structure.  ``None``: ``write``,
    ``ptr`` and ``index`` are the loop's own, read by iteration
    (``write[i]``, terms ``ptr[i]:ptr[i + 1]``, ``coeff[k]``).  An array:
    they are gathered into the order of ``its`` and read by position —
    ``write[t]``, terms ``ptr[t]:ptr[t + 1]`` of ``index`` — and
    ``start[t]`` is position ``t``'s first term in the loop's ``coeff``,
    which is never gathered (nor ``init``, read at ``its[t]``): per-call
    values stay the loop's, so one layout serves every loop of its
    structure.  A gathered layout is a record's copy rather than the
    loop's checked and frozen arrays, so both bodies check it as they go
    and refuse a bad entry with :class:`~repro.errors.InvalidLoopError`.

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
    raise :class:`~repro.errors.InvalidLoopError`.  ``memo`` (an
    inspector record) keeps the compiled body's argument block of the
    fixed operands between calls (:class:`~repro.backends.native.ArgBlock`).
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
                its, codes, write, ptr, index, coeff, init, old, new, out,
                cur, start, memo,
            )
            if type(done) is int:
                _tally.native += 1
                return done
            reason = done
    _tally.python += 1
    _tally.reason = reason
    gathered = start is not None
    if gathered:
        n, size, n_codes = len(write), len(out), len(codes)
        n_terms, n_coeff = len(index), len(coeff)
    code, write, ptr, index, coeff, init, old, new, out, start = (
        memoryview(a) if isinstance(a, np.ndarray) else a
        for a in (codes, write, ptr, index, coeff, init, old, new, out, start)
    )
    shift = 0  # coeff[k + shift]: the loop's own offset of term k
    t = -1  # the position, counted only where it is read
    for i in its.tolist():
        if gathered:
            t += 1
            # Checked as the C body checks it, before anything of t is
            # written (module doc of :mod:`~repro.backends.native`).
            if not (0 <= i < n and t < n):
                raise native.span_error(t, i)
            w, k, hi = write[t], ptr[t], ptr[t + 1]
            shift = start[t] - k
            if not (
                0 <= w < size and 0 <= k <= hi <= n_terms
                and hi - k <= n_codes - cur
                and 0 <= k + shift <= n_coeff - (hi - k)
                and (k == hi or 0 <= min(index[k:hi]) <= max(index[k:hi]) < size)
            ):
                raise native.span_error(t, i)
        else:
            w, k, hi = write[i], ptr[i], ptr[i + 1]
        acc = old[w] if init is None else init[i]
        for k in range(k, hi):
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
            acc += coeff[k + shift] * value
        out[w] = acc
        if events is not None:
            events.append(("w", i, w))
        if post is not None:
            post(w)
            if events is not None:
                events.append(("p", w))
    return cur


def span_events(
    its: np.ndarray,
    codes: np.ndarray,
    write: np.ndarray,
    ptr: np.ndarray,
    index: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The shadow log :func:`run_span` writes for a span with no ``wait``
    and no ``post``, as columns ``(iteration, element, src)`` — row ``t``
    is the lane's event at time ``t``.  Per position, in term order: a
    read (``src`` 0 for :data:`OLD`, 1 for a renamed value) per term not
    coded :data:`ACC`, then the write (``src`` -1).  ``codes`` are the
    span's own, as :func:`classify_terms` orders them."""
    its = np.asarray(its, dtype=np.int64)
    terms, counts = term_positions(ptr, its)
    read = codes != ACC
    seen = np.zeros(len(read) + 1, dtype=np.int64)
    np.cumsum(read, out=seen[1:])
    ends = np.zeros(len(its) + 1, dtype=np.int64)
    np.cumsum(counts, out=ends[1:])
    rows = np.diff(seen[ends]) + 1  # a position's reads, then its write
    iteration = np.repeat(its, rows)
    last = np.cumsum(rows) - 1
    is_read = np.ones(len(iteration), dtype=bool)
    is_read[last] = False
    element = np.empty(len(iteration), dtype=np.int64)
    src = np.empty(len(iteration), dtype=np.int8)
    element[is_read] = index[terms][read]
    src[is_read] = codes[read] != OLD
    element[last] = write[its]
    src[last] = -1
    return iteration, element, src
