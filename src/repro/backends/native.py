"""The compiled bodies of :func:`repro.backends.kernel.run_span`, of the
sequential loop (:func:`sequential`), of the one max-plus recurrence,
:func:`max_plus`, and of the inspector, :func:`inspect`.

The paper's §1 flow *compiles* the executor out of the source loop.  This
module is that step for the one scalar evaluator every wall-clock backend
shares, for the sweep behind every cycle bound and for the inspector:
one C text (:func:`c_source`, the term codes generated from
:mod:`~repro.backends.kernel`'s constants), a ``gcc`` build into one shared
object cached on disk, and four :mod:`ctypes` entries (GIL released):
:func:`run_span`, which ``kernel.run_span`` hands every span that needs no
Python callback; :func:`sequential`, the oracle's loop compiled — the
denominator a compiled walk is measured against, not a backend;
:func:`max_plus`; and :func:`inspect`.  Every value an iteration reads was
written by an earlier one (the per-iteration read contract), so position
order is topological, and one forward sweep with times indexed by element
(no ``iter`` array, no dependence graph) gives the critical path and the
simulated executor's cycles; :func:`max_plus` is its one dispatch site,
between the C function and its Python body.  The inspector is Figure 3's
preprocessing in one call: ``iter(a(i)) = i``, then one natural-order
walk giving each iteration its wavefront level from ``iter`` (the same
levels the unit-step sweep gives), a stable counting sort into the
level-major ``order`` and ``level_ptr``, and, for a record, each term's
Figure-5 code in that order and the structure gathered into it — written
straight into the arrays the record keeps.  Its NumPy body (no compiled
object) is :func:`repro.graph.levels.sweep_levels` plus the array
operations of :func:`repro.backends.cache.build_inspector_record`.

The walk reads two layouts of one structure (``start`` selects).  By
iteration: the loop's own ``write[i]``, ``ptr[i]:ptr[i + 1]``, ``index``
and ``coeff`` — every backend's spans.  By position: ``write``, ``ptr``
and ``index`` gathered into the span's order once per inspector record,
read front to back, with ``start[t]`` the offset of position ``t``'s
first coefficient in the loop's own ``coeff`` — the vectorized walk.
Either way ``coeff`` and ``init`` are the call's, read at the term's
original offset and at ``its[t]``: they are per-call values, and a
record shared by every loop of one structure never holds them.

Contract.  The same operands, the same term codes, one ``double`` multiply
then one add per term, left to right — ``-ffp-contract=off``, no
``-ffast-math``, so no fused multiply-add and no reassociation.  Every
finite value, ``±inf`` and ``-0.0`` is bitwise what the Python body (and
the sequential oracle) computes; a NaN appears exactly where theirs does,
but its payload bits may differ (IEEE 754 leaves the result of an
operation on two NaNs to the implementation; compilers commute them).

Memory safety is inside the loop, not in NumPy passes before it: the walk
checks every iteration number, write index, ``ptr`` pair, coefficient
offset, code cursor and read index as it goes (perfectly predicted
branches) and stops at the first violation, which :func:`run_span` raises
as :class:`~repro.errors.InvalidLoopError`.  (``min`` / ``max`` /
monotonicity passes before each call cost 144 us and made ``krylov_churn``
warm 17-24 % slower.)  Writes go to ``out`` — the renamed buffer, or,
in the vectorized walk without an antidependence, a copy of the caller's
values — so a span that stops early has not touched the caller's ``y``.
The Python walk checks a by-position layout the same way (a record's
copy, not the loop's checked and frozen arrays).  The sweep checks every
``ptr`` pair, term, write and lane index the same way, and refuses a
second write of one element, on both bodies.  The inspector makes the
sweep's checks, refusing at the position the sweep would (the first
failing one in natural order; at one position a range violation before
a second write): the ``ptr`` pairs and writes while it fills ``iter``,
every read index in its level walk, and, with a given order, every
position of that order.  So an index array mutated after construction —
out of range, or into a non-injective write — is refused by the level
pass before any executor starts, with the same exception on every body.

Soft dependency.  No compiler, a cache directory somebody else could write
to, or a failed build (one :mod:`warnings` line per process) leave the
Python walk, the Python sweep and the NumPy inspector in charge;
:func:`unavailable` says which.

Cache.  One ``.so`` in a per-user directory (``$XDG_CACHE_HOME`` or
``~/.cache``, else a ``0700`` directory under the temp dir), named by a
hash of C text + flags + ``gcc -dumpfullversion`` + machine.  A process
that finds it must start no child at all: the benchmark's ``peak_rss_mb``
is own + largest waited-for child, and a ``vfork``-ed compiler is
accounted at the *parent's* peak RSS (Linux ``exec_mmap``) — +16 % on
``fig4_chain`` for the one process that compiles.  Hence the build is lazy
(first eligible span, sweep or inspection), the cache persistent, and the
compiler's version string cached beside the object, keyed by the binary's
path, size, mtime.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import platform
import shutil
import stat
import subprocess
import tempfile
import threading
import warnings
from pathlib import Path
from typing import NamedTuple

import numpy as np

from repro.errors import InvalidLoopError, OutputDependenceError
from repro.ir.loop import INIT_EXTERNAL

__all__ = [
    "FLAGS",
    "c_source",
    "find_compiler",
    "cache_dir",
    "build",
    "object_name",
    "unavailable",
    "run_span",
    "ArgBlock",
    "span_error",
    "sequential",
    "max_plus",
    "Inspection",
    "inspect",
    "describe",
]

#: No ``-ffast-math``, no FMA contraction: left-to-right ``double``
#: accumulation is the bitwise contract.
FLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")

_C_TEMPLATE = """\
#include <stdint.h>

{defines}

/* Executes iterations its[0..n_its) in order over codes[cur..); returns
   the code cursor, or -(t + 1) when position t would read or write
   outside an operand (nothing of its[t] is written).  Two layouts of the
   same walk.  start == NULL: the loop's own arrays, read by iteration
   i = its[t] -- write[i], terms ptr[i]..ptr[i+1], coeff[k].  start !=
   NULL: the structure gathered into walk order, read by position t --
   write[t], terms ptr[t]..ptr[t+1], the coefficients from start[t] on
   (coeff stays the loop's own).  init is read by iteration either way. */
int64_t run_span(
    const int64_t *its, int64_t n_its, const int8_t *codes, int64_t n_codes,
    const int64_t *write, int64_t n, const int64_t *ptr,
    const int64_t *index, int64_t n_index, const int64_t *start,
    const double *coeff, int64_t n_coeff, const double *init,
    const double *old, const double *new_, double *out, int64_t y_size,
    int64_t cur)
{{
    for (int64_t t = 0; t < n_its; t++) {{
        int64_t i = its[t], p = start ? t : i;
        if (i < 0 || i >= n || p >= n)
            return -(t + 1);
        int64_t w = write[p], k = ptr[p], hi = ptr[p + 1];
        if (w < 0 || w >= y_size || k < 0 || k > hi || hi > n_index
            || hi - k > n_codes - cur)
            return -(t + 1);
        int64_t c = start ? start[p] : k;
        if (c < 0 || c > n_coeff - (hi - k))
            return -(t + 1);
        double acc = init ? init[i] : old[w];
        for (; k < hi; k++, c++) {{
            int64_t idx = index[k];
            if (idx < 0 || idx >= y_size)
                return -(t + 1);
            double value;
            switch (codes[cur++]) {{
            case OLD: value = old[idx]; break;
            case ACC: value = acc; break;
            case LOCAL: value = out[idx]; break;
            case WAIT: default: value = new_[idx]; break;
            }}
            acc += coeff[c] * value;
        }}
        out[w] = acc;
    }}
    return cur;
}}

/* The sequential loop itself (Figure 1), for the oracle's values at
   compiled speed: per iteration, acc = init ? init[i] : y[w], then per
   term acc += coeff[k] * (index[k] == w ? acc : y[index[k]]), then
   y[w] = acc.  Returns 0, or -(i + 1) when iteration i would read or
   write outside an operand (nothing of i is written). */
int64_t sequential(
    const int64_t *write, int64_t n, const int64_t *ptr,
    const int64_t *index, int64_t n_index, const double *coeff,
    const double *init, double *y, int64_t y_size)
{{
    for (int64_t i = 0; i < n; i++) {{
        int64_t w = write[i], k = ptr[i], hi = ptr[i + 1];
        if (w < 0 || w >= y_size || k < 0 || k > hi || hi > n_index)
            return -(i + 1);
        double acc = init ? init[i] : y[w];
        for (; k < hi; k++) {{
            int64_t idx = index[k];
            if (idx < 0 || idx >= y_size)
                return -(i + 1);
            acc += coeff[k] * (idx == w ? acc : y[idx]);
        }}
        y[w] = acc;
    }}
    return 0;
}}

/* The max-plus recurrence in position order, times indexed by element.
   Position p reads the elements src[ptr[p]..ptr[p+1]) of an array of
   `size` and then writes element write[p] (p itself without `write`,
   size == n).  Every writer of an element p reads sits at an earlier
   position, so one sweep meets each time after it is set:
       t = lane ? free_[lane[p]] : start ? start[p] : 0
       per term k:  t += ahead[k];  t = max(t, set[src[k]])
       set[write[p]] = free_[lane[p]] = t + step + tail[p]
   ahead, start, tail, write and lane may each be NULL (zero, zero, zero,
   p, no lanes).  An element no earlier position wrote holds INT64_MIN,
   below every time.  Returns 0; -(p + 1) when position p's ptr pair, a
   term, its write index or its lane reaches outside its operand; p + 1
   when p writes an element an earlier position wrote.  Either way nothing
   of p is written. */
int64_t max_plus(
    int64_t n, const int64_t *ptr, const int64_t *src, int64_t n_src,
    const int64_t *ahead, const int64_t *start, const int64_t *tail,
    int64_t step, const int64_t *write, int64_t *set, int64_t size,
    const int64_t *lane, int64_t *free_, int64_t lanes)
{{
    for (int64_t e = 0; e < size; e++)
        set[e] = INT64_MIN;
    for (int64_t l = 0; l < lanes; l++)
        free_[l] = 0;
    for (int64_t p = 0; p < n; p++) {{
        int64_t k = ptr[p], hi = ptr[p + 1];
        int64_t w = write ? write[p] : p, l = lane ? lane[p] : 0;
        if (k < 0 || k > hi || hi > n_src || w < 0 || w >= size
            || (lane && (l < 0 || l >= lanes)))
            return -(p + 1);
        int64_t t = lane ? free_[l] : start ? start[p] : 0;
        for (; k < hi; k++) {{
            int64_t idx = src[k];
            if (idx < 0 || idx >= size)
                return -(p + 1);
            if (ahead)
                t += ahead[k];
            if (set[idx] > t)
                t = set[idx];
        }}
        if (set[w] != INT64_MIN)
            return p + 1;
        t += step + (tail ? tail[p] : 0);
        set[w] = t;
        if (lane)
            free_[l] = t;
    }}
    return 0;
}}

/* The inspector in one call.  Pass 1 fills iter (the writer of each of
   the y_size elements, INT64_MAX where none writes): iter[write[p]] = p.
   Unless `given`, pass 2 gives each iteration its wavefront level from
   iter in natural order (0, or one more than the highest level of an
   earlier writer it reads) and a stable counting sort lays out order
   and level_ptr; with `given`, order holds a schedule's order and
   levels / level_ptr are unused.  With codes, each term's code (ACC: its
   own element; WAIT: an earlier writer's; OLD otherwise) in order: pass
   2 writes them in natural order, and pass 3 (after pass 2 only if order
   is not the identity) walks order for them and, unless it is the
   identity, for the structure gathered into it (l_write, l_ptr, l_index,
   l_start).  info gets the level count, whether an OLD term reads a
   written element, and whether order is the identity.  Returns 0, or
   max_plus's statuses at its precedence (the first failing position in
   natural order; a range violation before a second write at one
   position): -(p + 1) when p's ptr pair, write or a read reaches outside
   its operand (with `given`, p may be a walk position of pass 3), p + 1
   when p writes an element an earlier position wrote.  Nothing but the
   output arrays is written. */
int64_t inspect(
    int64_t n, const int64_t *write, const int64_t *ptr,
    const int64_t *index, int64_t n_index, int64_t y_size, int64_t *iter,
    int64_t given, int64_t *levels, int64_t *order, int64_t *level_ptr,
    int8_t *codes, int64_t *l_write, int64_t *l_ptr, int64_t *l_index,
    int64_t *l_start, int64_t *info)
{{
    int64_t bad = n, dup = 0, n_levels = 0, identity = 1, anti = 0;
    for (int64_t e = 0; e < y_size; e++)
        iter[e] = INT64_MAX;
    for (int64_t p = 0; p < n; p++) {{
        int64_t k = ptr[p], hi = ptr[p + 1], w = write[p];
        if (k < 0 || k > hi || hi > n_index || w < 0 || w >= y_size) {{
            bad = p;
            break;
        }}
        if (iter[w] != INT64_MAX) {{
            bad = p;
            dup = 1;
            break;
        }}
        iter[w] = p;
    }}
    if (bad < n) {{
        /* An earlier read out of range (or one of the second writer's
           own) comes first, as in the sweep. */
        for (int64_t p = 0; p < bad + dup; p++)
            for (int64_t k = ptr[p]; k < ptr[p + 1]; k++)
                if (index[k] < 0 || index[k] >= y_size)
                    return -(p + 1);
        return dup ? bad + 1 : -(bad + 1);
    }}
    if (given) {{
        for (int64_t t = 0; t < n && identity; t++)
            identity = order[t] == t;
    }} else {{
        for (int64_t p = 0; p < n; p++) {{
            int64_t lv = 0;
            for (int64_t k = ptr[p]; k < ptr[p + 1]; k++) {{
                int64_t idx = index[k];
                if (idx < 0 || idx >= y_size)
                    return -(p + 1);
                int64_t j = iter[idx];
                if (j < p && levels[j] >= lv)
                    lv = levels[j] + 1;
                if (codes) {{  /* in natural order: final if it is the order */
                    codes[k] = j == p ? ACC : j < p ? WAIT : OLD;
                    if (j > p && j != INT64_MAX)
                        anti = 1;
                }}
            }}
            levels[p] = lv;
            if (lv >= n_levels)
                n_levels = lv + 1;
            if (p && lv < levels[p - 1])
                identity = 0;
        }}
        /* Counting sort (level_ptr holds n + 2): level_ptr[l + 1] starts
           level l and advances as its iterations are placed, in index
           order, ending where level l + 1 starts.  No shift pass after
           it: gcc makes that a memmove call, whose PLT slot moves every
           function of this text 16 bytes (run_span's loop ran 8 %
           slower there). */
        for (int64_t l = 0; l <= n_levels + 1; l++)
            level_ptr[l] = 0;
        for (int64_t p = 0; p < n; p++)
            level_ptr[levels[p] + 2]++;
        for (int64_t l = 2; l <= n_levels + 1; l++)
            level_ptr[l] += level_ptr[l - 1];
        for (int64_t p = 0; p < n; p++)
            order[level_ptr[levels[p] + 1]++] = p;
    }}
    if (codes && (given || !identity)) {{
        int64_t cur = 0;
        for (int64_t t = 0; t < n; t++) {{
            int64_t i = order[t];
            if (i < 0 || i >= n)
                return -(t + 1);
            int64_t k = ptr[i], hi = ptr[i + 1];
            if (hi - k > n_index - cur)
                return -(t + 1);
            if (!identity) {{
                l_write[t] = write[i];
                l_ptr[t] = cur;
                l_start[t] = k;
            }}
            for (; k < hi; k++, cur++) {{
                int64_t idx = index[k];
                if (idx < 0 || idx >= y_size)
                    return -(t + 1);
                int64_t j = iter[idx];
                codes[cur] = j == i ? ACC : j < i ? WAIT : OLD;
                if (j > i && j != INT64_MAX)
                    anti = 1;
                if (!identity)
                    l_index[cur] = idx;
            }}
        }}
        if (!identity)
            l_ptr[n] = cur;
    }}
    info[0] = n_levels;
    info[1] = anti;
    info[2] = identity;
    return 0;
}}
"""


@functools.cache
def c_source() -> str:
    """The C text of the walk, term codes ``#define``-d from
    :mod:`repro.backends.kernel`'s constants (``python -m repro codegen
    --c`` prints it)."""
    from repro.backends import kernel  # kernel imports this module

    defines = "\n".join(
        f"#define {name} {getattr(kernel, name)}"
        for name in ("OLD", "LOCAL", "WAIT", "ACC")
    )
    return _C_TEMPLATE.format(defines=defines)


def find_compiler() -> str | None:
    """Path of the C compiler, or ``None`` (the seam the no-compiler
    tests patch)."""
    return shutil.which("gcc")


def cache_dir() -> Path | None:
    """The per-user directory holding the shared object, created ``0700``
    on first use; ``None`` when none can be made or the one found is not
    safe to load code from (not ours, or writable by group / others)."""
    home = os.environ.get("XDG_CACHE_HOME") or os.path.expanduser("~/.cache")
    for base, leaf in (
        (home, "repro-doacross"),
        (tempfile.gettempdir(), f"repro-doacross-{os.getuid()}"),
    ):
        path = Path(base, leaf)
        try:
            path.mkdir(mode=0o700, parents=True, exist_ok=True)
            info = path.stat()
        except OSError:
            continue
        if info.st_uid != os.getuid() or info.st_mode & (
            stat.S_IWGRP | stat.S_IWOTH
        ):
            return None
        return path
    return None


def _publish(target: Path, write) -> None:
    """``write(temp path)`` beside ``target``, then an atomic rename onto
    it: racing processes each publish a whole file and the last one wins;
    a failure leaves nothing behind."""
    fd, temp = tempfile.mkstemp(dir=target.parent, prefix=target.name + ".")
    os.close(fd)
    try:
        write(temp)
        os.replace(temp, target)
    finally:
        if os.path.exists(temp):
            os.unlink(temp)


def _compiler_version(cc: str, directory: Path) -> str:
    """``gcc -dumpfullversion``, asked once per compiler binary and kept
    beside the object so a warm process starts no child (module doc)."""
    info = os.stat(cc)
    key = f"{os.path.realpath(cc)}|{info.st_size}|{info.st_mtime_ns}"
    stamp = directory / f"cc-{hashlib.sha256(key.encode()).hexdigest()[:16]}.version"
    try:
        return stamp.read_text()
    except OSError:
        pass
    version = subprocess.run(
        [cc, "-dumpfullversion"], capture_output=True, text=True, check=True
    ).stdout.strip()
    _publish(stamp, lambda temp: Path(temp).write_text(version))
    return version


def build(cc: str, source: str, target: Path) -> None:
    """Compile ``source`` (fed on stdin: no ``.c`` file) into the shared
    object ``target``.  Raises :class:`RuntimeError` carrying the first
    line of the compiler's stderr."""

    def compile_to(temp: str) -> None:
        proc = subprocess.run(
            [cc, *FLAGS, "-x", "c", "-", "-o", temp],
            input=source, capture_output=True, text=True,
        )
        if proc.returncode != 0:
            lines = proc.stderr.strip().splitlines()
            raise RuntimeError(lines[0] if lines else f"exit {proc.returncode}")

    _publish(target, compile_to)


def object_name(version: str) -> str:
    """File name of the shared object: everything that decides its
    contents, hashed."""
    key = "\0".join(
        (c_source(), " ".join(FLAGS), version, platform.machine())
    )
    return f"native-{hashlib.sha256(key.encode()).hexdigest()[:20]}.so"


_P, _N = ctypes.c_void_p, ctypes.c_int64
#: ``argtypes`` of each C function, in the order of its parameters.
_ARGTYPES = {
    "run_span": [
        _P, _N, _P, _N, _P, _N, _P, _P, _N, _P, _P, _N, _P, _P, _P, _P, _N, _N,
    ],
    "sequential": [_P, _N, _P, _P, _N, _P, _P, _P, _N],
    "max_plus": [_N, _P, _P, _N, _P, _P, _P, _N, _P, _P, _N, _P, _P, _N],
    "inspect": [_N, _P, _P, _P, _N, _N, _P, _N, _P, _P, _P, _P, _P, _P, _P, _P, _P],
}


class _Body:
    """What this process knows about the compiled object, resolved in two
    steps so a process that never runs an eligible span or sweep
    builds nothing: the compiler lookup when first asked, build-or-load at
    the first call that could use it."""

    def __init__(self) -> None:
        self.cc = find_compiler()
        #: Process-level reason the Python bodies run, ``None`` while the
        #: compiled ones are (or may still become) available.
        self.why: str | None = None if self.cc else "no-compiler"
        self.lib = None
        self.version = ""
        self.path: Path | None = None
        self._lock = threading.Lock()

    def entry(self):
        """The loaded object (its functions typed), or ``None`` with
        :attr:`why` set."""
        if self.lib is None and self.why is None:
            with self._lock:  # threads reach their first span together
                if self.lib is None and self.why is None:
                    self._load()
        return self.lib

    def _load(self) -> None:
        directory = cache_dir()
        if directory is None:
            self.why = "unsafe-cache-dir"
            return
        try:
            self.version = _compiler_version(self.cc, directory)
            self.path = directory / object_name(self.version)
            if not self.path.exists():
                build(self.cc, c_source(), self.path)
            lib = ctypes.CDLL(str(self.path))
            for name, argtypes in _ARGTYPES.items():
                fn = getattr(lib, name)
                fn.argtypes = argtypes
                fn.restype = ctypes.c_int64
        except (OSError, RuntimeError, subprocess.SubprocessError) as exc:
            self.why = f"build-failed: {exc}"
            warnings.warn(
                f"repro: the compiled bodies are unavailable ({exc}); spans "
                f"run on the Python walk, the max-plus sweep in Python, the "
                f"inspector in NumPy",
                RuntimeWarning, stacklevel=2,
            )
            return
        self.lib = lib


_body: _Body | None = None


def _state() -> _Body:
    global _body
    if _body is None:
        _body = _Body()
    return _body


def unavailable() -> str | None:
    """The process-level reason no span can run compiled (``no-compiler``,
    ``unsafe-cache-dir``, ``build-failed: ...``), or ``None``."""
    return _state().why


def describe() -> str:
    """One line for a test-log header: which body eligible spans run on
    in this process (builds or loads it to find out)."""
    body = _state()
    if body.entry() is None:
        return f"python ({body.why})"
    return f"native (gcc {body.version}, {body.path.parent})"


_I8, _I64, _F64 = np.dtype(np.int8), np.dtype(np.int64), np.dtype(np.float64)


def _flat(a, dtype: np.dtype) -> bool:
    return (
        isinstance(a, np.ndarray)
        and a.dtype == dtype
        and a.ndim == 1
        and a.flags.c_contiguous
    )


def _pointers(*operands) -> list | None:
    """The C arguments of ``(array, dtype)`` operands — the one pointer
    helper of :func:`run_span`, :func:`sequential` and :func:`max_plus`:
    each array's address (``None`` stays ``None``), or ``None`` when one
    is not a flat array of its dtype.  A non-empty writeable array's
    address is read through a ``ctypes`` view of its buffer (0.6 us),
    any other's through ``ndarray.ctypes`` (1.6 us)."""
    out = []
    for a, dtype in operands:
        if a is None:
            out.append(None)
        elif not _flat(a, dtype):
            return None
        elif a.flags.writeable and len(a):
            out.append(ctypes.addressof(ctypes.c_char.from_buffer(a)))
        else:
            out.append(a.ctypes.data)
    return out


class ArgBlock:
    """The argument block of a span's fixed operands — ``its``,
    ``codes``, ``write``, ``ptr``, ``index`` and ``start`` — as the C
    ``run_span`` takes them: addresses and lengths, dtypes and contiguity
    checked once (``args`` is ``None`` when one is not a flat array of
    its dtype) and the lengths' consistency with them (``consistent``).

    :func:`run_span` keeps one on its ``memo`` (the vectorized walk's
    inspector record), so a warm call converts only its per-call values.
    The block holds its arrays, so its addresses stay valid while it
    lives, and serves a call only while that call hands over the very
    same array objects (:meth:`holds`, the identity check of the
    fingerprint memo); a rebound one builds a new block.
    """

    __slots__ = ("arrays", "args", "n", "n_index", "n_ptr", "consistent")

    def __init__(self, its, codes, write, ptr, index, start):
        self.arrays = (its, codes, write, ptr, index, start)
        at = _pointers(
            (its, _I64), (codes, _I8), (write, _I64), (ptr, _I64),
            (index, _I64), (start, _I64),
        )
        self.args = None
        if at is None:
            return
        n, n_index = len(write), len(index)
        self.n, self.n_index, self.n_ptr = n, n_index, len(ptr)
        self.consistent = len(ptr) == n + 1 and (
            start is None or len(start) == n
        )
        self.args = (
            at[0], len(its), at[1], len(codes), at[2], n, at[3], at[4],
            n_index, at[5],
        )

    def holds(self, its, codes, write, ptr, index, start) -> bool:
        """Whether these are the block's own array objects."""
        mine = self.arrays
        return (
            its is mine[0] and codes is mine[1] and write is mine[2]
            and ptr is mine[3] and index is mine[4] and start is mine[5]
        )


def span_error(t: int, i: int) -> InvalidLoopError:
    """The refusal of span position ``t`` (iteration ``i``), on either
    body of the walk."""
    return InvalidLoopError(
        f"run_span: span position {t} (iteration {i}) reaches outside its "
        f"operands — an iteration number, write, read or coefficient index "
        f"out of range, a decreasing ptr, or fewer codes than terms; the "
        f"span stopped there"
    )


def run_span(
    its, codes, write, ptr, index, coeff, init, old, new, out, cur,
    start=None, memo=None,
):
    """Run the span compiled.  Returns the code cursor (``int``), or the
    reason (``str``) the caller must run its Python body instead.

    ``start`` selects the layout (the C comment): ``None`` reads
    ``write`` / ``ptr`` / ``index`` by iteration, an array reads them by
    position, gathered into walk order, with ``start[t]`` position ``t``'s
    first coefficient.  O(1) checks only on this side — dtype,
    contiguity, lengths; the per-element bounds are the C loop's (module
    doc).  ``memo`` is an object whose ``arg_block`` attribute keeps the
    fixed operands' :class:`ArgBlock` between calls (an inspector
    record), so only ``coeff``, ``init``, ``old``, ``new`` and ``out``
    are checked and converted per call; without one the block is built
    for this call.  Operands stay referenced by the caller's frame for
    the duration of the call.
    """
    block = None if memo is None else memo.arg_block
    if block is None or not block.holds(its, codes, write, ptr, index, start):
        block = ArgBlock(its, codes, write, ptr, index, start)
        if memo is not None:
            memo.arg_block = block
    at = None if block.args is None else _pointers(
        (coeff, _F64), (init, _F64), (out, _F64),
        (None if new is out else new, _F64),
        (None if old is out else old, _F64),
    )
    if at is None or not out.flags.writeable:
        return "non-array-operand"
    body = _state()
    lib = body.entry()  # the first eligible span builds or loads
    if lib is None:
        return body.why
    n, n_index, y_size = block.n, block.n_index, len(out)
    if (
        cur < 0
        or not block.consistent
        or (start is None and len(coeff) != n_index)
        or len(old) != y_size
        or len(new) != y_size
        or (init is not None and len(init) < n)
    ):
        raise InvalidLoopError(
            f"run_span: inconsistent operands (cur={cur}, {n} writes, "
            f"{block.n_ptr} ptr entries, {n_index} indices, {len(coeff)} "
            f"coefficients, value arrays of {len(old)}/{len(new)}/{y_size})"
        )
    a_coeff, a_init, a_out, a_new, a_old = at
    got = lib.run_span(
        *block.args, a_coeff, len(coeff), a_init,
        a_out if old is out else a_old, a_out if new is out else a_new,
        a_out, y_size, cur,
    )
    if got < 0:
        t = -got - 1
        raise span_error(t, int(its[t]))
    return got


def sequential(loop) -> np.ndarray:
    """The sequential loop's final ``y``, computed by the C text's
    ``sequential`` — the oracle
    (:meth:`~repro.ir.loop.IrregularLoop.run_sequential`) compiled, and
    bitwise equal to it (module doc).  Without the compiled object it is
    the oracle itself (:func:`unavailable` says why).  A library function,
    not a backend: the denominator a compiled walk is measured against.

    The loop's ``y0`` is untouched; a subscript outside ``y`` (an index
    array mutated after construction) raises
    :class:`~repro.errors.InvalidLoopError`.
    """
    lib = _state().entry()
    if lib is None:
        return loop.run_sequential()
    reads = loop.reads
    write, ptr, index = (
        np.ascontiguousarray(a, dtype=np.int64)
        for a in (loop.write, reads.ptr, reads.index)
    )
    coeff = np.ascontiguousarray(reads.coeff, dtype=np.float64)
    init = None
    if loop.init_kind == INIT_EXTERNAL and loop.init_values is not None:
        init = np.ascontiguousarray(loop.init_values, dtype=np.float64)
    y = np.array(loop.y0, dtype=np.float64)
    n = len(write)
    if (
        len(ptr) != n + 1
        or len(coeff) != len(index)
        or (init is not None and len(init) < n)
    ):
        raise InvalidLoopError(
            f"sequential: inconsistent operands ({n} writes, {len(ptr)} ptr "
            f"entries, {len(index)} indices, {len(coeff)} coefficients)"
        )
    a_write, a_ptr, a_index, a_coeff, a_init, a_y = _pointers(
        (write, _I64), (ptr, _I64), (index, _I64), (coeff, _F64),
        (init, _F64), (y, _F64),
    )
    got = lib.sequential(
        a_write, n, a_ptr, a_index, len(index), a_coeff, a_init, a_y, len(y),
    )
    if got < 0:
        raise InvalidLoopError(
            f"sequential: iteration {-got - 1} reaches outside its operands "
            f"— a write or read index out of range, or a decreasing ptr"
        )
    return y


_UNSET = -(2**63)  # C INT64_MIN: no earlier position wrote the element


def _sweep(n, ptr, src, ahead, start, tail, step, write, times, lane, free):
    """The C ``max_plus`` statement for statement, for processes without
    it: over ``memoryview``s, filling the lists ``times`` (all
    ``_UNSET``) and ``free`` (all 0); the same status."""
    size, n_src, lanes = len(times), len(src), len(free)
    for p in range(n):
        k, hi = ptr[p], ptr[p + 1]
        w = p if write is None else write[p]
        on = 0 if lane is None else lane[p]
        if (
            k < 0 or k > hi or hi > n_src or not 0 <= w < size
            or (lane is not None and not 0 <= on < lanes)
        ):
            return -(p + 1)
        t = free[on] if lane is not None else 0 if start is None else start[p]
        for k in range(k, hi):
            idx = src[k]
            if not 0 <= idx < size:
                return -(p + 1)
            if ahead is not None:
                t += ahead[k]
            if times[idx] > t:
                t = times[idx]
        if times[w] != _UNSET:
            return p + 1
        t += step if tail is None else step + tail[p]
        times[w] = t
        if lane is not None:
            free[on] = t
    return 0


def max_plus(
    ptr, src, size, *, write=None, ahead=None, start=None, tail=None,
    step=0, lane=None, lanes=0,
):
    """The max-plus recurrence of the C text's ``max_plus`` (its comment
    has the per-position rule), compiled or, where it cannot be,
    :func:`_sweep`: ``(times, free, body)`` — each element's write time
    (``INT64_MIN`` where never written), each lane's last time, and
    ``"native"`` or ``"python (<reason>)"``.

    Unit ``step`` gives wavefront levels plus one; ``start = weights −
    step`` the critical path; lanes, per-``WAIT`` ``ahead`` and
    per-position ``tail`` the simulated executor's finish times.  A
    position reaching outside its operands raises
    :class:`~repro.errors.InvalidLoopError`, one writing an element an
    earlier one wrote :class:`~repro.errors.OutputDependenceError`, on
    either body.  O(1) checks here, the per-element ones in the sweep.
    """
    n = len(ptr) - 1
    per_position = (write, start, tail, lane)
    if (
        n < 0
        or (write is None and size != n)
        or any(a is not None and len(a) != n for a in per_position)
        or (ahead is not None and len(ahead) != len(src))
    ):
        raise InvalidLoopError(
            f"max_plus: inconsistent operands ({len(ptr)} ptr entries, "
            f"{len(src)} terms, {size} elements)"
        )
    body = _state()
    at = _pointers(*((a, _I64) for a in (ptr, src, ahead, start, tail, write, lane)))
    if at is not None:
        lib, why = body.entry(), body.why  # the first sweep may build or load
    else:
        lib, why = None, "non-array-operand"
    if lib is not None:
        times = np.empty(size, dtype=np.int64)
        free = np.empty(lanes, dtype=np.int64)
        a_ptr, a_src, a_ahead, a_start, a_tail, a_write, a_lane = at
        a_times, a_free = _pointers((times, _I64), (free, _I64))
        got = lib.max_plus(
            n, a_ptr, a_src, len(src), a_ahead, a_start, a_tail, step,
            a_write, a_times, size, a_lane, a_free, lanes,
        )
        ran = "native"
    else:
        times, free = [_UNSET] * size, [0] * lanes

        def view(a):
            return None if a is None else memoryview(np.ascontiguousarray(a))

        got = _sweep(
            n, view(ptr), view(src), view(ahead), view(start), view(tail),
            step, view(write), times, view(lane), free,
        )
        times = np.array(times, dtype=np.int64)
        free = np.array(free, dtype=np.int64)
        ran = f"python ({why})"
    if got < 0:
        raise InvalidLoopError(
            f"max_plus: position {-got - 1} reaches outside its operands — "
            f"a write, read or lane index out of range, or a decreasing "
            f"ptr; the sweep stopped there"
        )
    if got > 0:
        w = int(write[got - 1])
        first = int(np.flatnonzero(write[: got - 1] == w)[0])
        raise OutputDependenceError(w, first, got - 1)
    return times, free, ran


class Inspection(NamedTuple):
    """What one :func:`inspect` call built, in fresh arrays: ``iter``
    (``INT64_MAX`` where unwritten), the levels with their order and
    ``level_ptr`` (with a given order: ``None``, the order given,
    ``None``), and with ``codes`` the term codes in that order, the
    structure gathered into it — ``(write, ptr, index, start)``, or
    ``None`` for the identity order — and ``renames``."""

    iter_array: np.ndarray
    levels: np.ndarray | None
    order: np.ndarray
    level_ptr: np.ndarray | None
    codes: np.ndarray | None
    layout: tuple | None
    renames: bool


def inspect(loop, *, order=None, codes=True) -> Inspection | str:
    """The inspector of ``loop``, compiled: the C text's ``inspect`` (its
    comment has the passes) in one call, or the reason (``str``) the
    caller must run its NumPy body instead.

    ``order`` is a schedule's order to classify and gather in (the levels
    are then not computed); ``codes=False`` stops after the levels.  A
    position reaching outside its operands raises
    :class:`~repro.errors.InvalidLoopError`, one writing an element an
    earlier one wrote :class:`~repro.errors.OutputDependenceError`, at the
    position the level sweep (:func:`max_plus`) would refuse; the loop is
    never written.  O(1) checks here, the per-element ones in the C."""
    reads = loop.reads
    write, ptr, index, y_size = loop.write, reads.ptr, reads.index, loop.y_size
    n, n_index = len(write), len(index)
    if (
        len(ptr) != n + 1
        or ptr[0] != 0
        or ptr[n] != n_index
        or (order is not None and len(order) != n)
    ):
        raise InvalidLoopError(
            f"inspect: inconsistent operands ({n} writes, {len(ptr)} ptr "
            f"entries, {n_index} indices, "
            f"{n if order is None else len(order)} positions)"
        )
    at = _pointers((write, _I64), (ptr, _I64), (index, _I64), (order, _I64))
    if at is None:
        return "non-array-operand"
    body = _state()
    lib = body.entry()
    if lib is None:
        return body.why
    given = order is not None
    iter_array = np.empty(y_size, dtype=np.int64)
    levels = level_ptr = None
    if not given:
        levels, order, level_ptr = (
            np.empty(m, dtype=np.int64) for m in (n, n, n + 2)
        )
    term_codes = layout = None
    if codes:
        term_codes = np.empty(n_index, dtype=np.int8)
        # Untouched (and dropped) when the order is the identity.
        layout = tuple(
            np.empty(m, dtype=np.int64) for m in (n, n + 1, n_index, n)
        )
    info = np.empty(3, dtype=np.int64)
    a_iter, a_levels, a_order, a_level_ptr, *a_out, a_info = _pointers(
        (iter_array, _I64), (levels, _I64), (order, _I64), (level_ptr, _I64),
        (term_codes, _I8), *((a, _I64) for a in layout or (None,) * 4),
        (info, _I64),
    )
    got = lib.inspect(
        n, *at[:3], n_index, y_size, a_iter, given, a_levels, a_order,
        a_level_ptr, *a_out, a_info,
    )
    if got < 0:
        raise InvalidLoopError(
            f"inspect: position {-got - 1} reaches outside its operands — "
            f"a write or read index out of range, or a decreasing ptr; the "
            f"inspector stopped there"
        )
    if got > 0:
        w = int(write[got - 1])
        raise OutputDependenceError(w, int(iter_array[w]), got - 1)
    n_levels, renames, identity = (int(v) for v in info)
    if level_ptr is not None:
        level_ptr = level_ptr[: n_levels + 1].copy()
    if identity:
        layout = None
    return Inspection(
        iter_array, levels, order, level_ptr, term_codes, layout,
        bool(renames),
    )
