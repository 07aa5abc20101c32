"""The compiled bodies of :func:`repro.backends.kernel.run_span`, of the
sequential loop (:func:`sequential`) and of the one max-plus recurrence,
:func:`max_plus`.

The paper's §1 flow *compiles* the executor out of the source loop.  This
module is that step for the one scalar evaluator every wall-clock backend
shares, and for the sweep behind the §3.2 wavefronts and every cycle
bound: one C text (:func:`c_source`, the walk's term codes generated from
:mod:`~repro.backends.kernel`'s constants), a ``gcc`` build into one shared
object cached on disk, and three :mod:`ctypes` entries (GIL released):
:func:`run_span`, which ``kernel.run_span`` hands every span that needs no
Python callback; :func:`sequential`, the oracle's loop compiled — the
denominator a compiled walk is measured against, not a backend; and
:func:`max_plus`.  Every value an iteration reads was
written by an earlier one (the per-iteration read contract), so position
order is topological, and one forward sweep with times indexed by element
(no ``iter`` array, no dependence graph) gives the wavefront levels, the
critical path and the simulated executor's cycles; :func:`max_plus` is
its one dispatch site, between the C function and its Python body.

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
second write of one element, on both bodies, so an index array mutated
after construction — out of range, or into a non-injective write — is
refused by the level pass before any executor starts.

Soft dependency.  No compiler, a cache directory somebody else could write
to, or a failed build (one :mod:`warnings` line per process) leave the
Python walk and the Python sweep in charge; :func:`unavailable` says
which.

Cache.  One ``.so`` in a per-user directory (``$XDG_CACHE_HOME`` or
``~/.cache``, else a ``0700`` directory under the temp dir), named by a
hash of C text + flags + ``gcc -dumpfullversion`` + machine.  A process
that finds it must start no child at all: the benchmark's ``peak_rss_mb``
is own + largest waited-for child, and a ``vfork``-ed compiler is
accounted at the *parent's* peak RSS (Linux ``exec_mmap``) — +16 % on
``fig4_chain`` for the one process that compiles.  Hence the build is lazy
(first eligible span or sweep), the cache persistent, and the
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
    "span_error",
    "sequential",
    "max_plus",
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
                f"run on the Python walk, the max-plus sweep in Python",
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
    start=None,
):
    """Run the span compiled.  Returns the code cursor (``int``), or the
    reason (``str``) the caller must run its Python body instead.

    ``start`` selects the layout (the C comment): ``None`` reads
    ``write`` / ``ptr`` / ``index`` by iteration, an array reads them by
    position, gathered into walk order, with ``start[t]`` position ``t``'s
    first coefficient.  O(1) checks only on this side — dtype,
    contiguity, lengths; the per-element bounds are the C loop's (module
    doc).  Operands stay referenced by the caller's frame for the
    duration of the call.
    """
    if not (
        _flat(its, _I64) and _flat(codes, _I8) and _flat(write, _I64)
        and _flat(ptr, _I64) and _flat(index, _I64) and _flat(coeff, _F64)
        and (init is None or _flat(init, _F64))
        and (start is None or _flat(start, _I64)) and _flat(old, _F64)
        and _flat(new, _F64) and _flat(out, _F64) and out.flags.writeable
    ):
        return "non-array-operand"
    body = _state()
    lib = body.entry()  # the first eligible span builds or loads
    if lib is None:
        return body.why
    n, n_index, y_size = len(write), len(index), len(out)
    if (
        cur < 0
        or len(ptr) != n + 1
        or (start is None and len(coeff) != n_index)
        or (start is not None and len(start) != n)
        or len(old) != y_size
        or len(new) != y_size
        or (init is not None and len(init) < n)
    ):
        raise InvalidLoopError(
            f"run_span: inconsistent operands (cur={cur}, {n} writes, "
            f"{len(ptr)} ptr entries, {n_index} indices, {len(coeff)} "
            f"coefficients, value arrays of {len(old)}/{len(new)}/{y_size})"
        )
    got = lib.run_span(
        its.ctypes.data, len(its), codes.ctypes.data, len(codes),
        write.ctypes.data, n, ptr.ctypes.data, index.ctypes.data, n_index,
        None if start is None else start.ctypes.data,
        coeff.ctypes.data, len(coeff), None if init is None else init.ctypes.data,
        old.ctypes.data, new.ctypes.data, out.ctypes.data, y_size, cur,
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
    got = lib.sequential(
        write.ctypes.data, n, ptr.ctypes.data, index.ctypes.data, len(index),
        coeff.ctypes.data, None if init is None else init.ctypes.data,
        y.ctypes.data, len(y),
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
    if all(
        a is None or _flat(a, _I64)
        for a in (ptr, src, ahead, start, tail, write, lane)
    ):
        lib, why = body.entry(), body.why  # the first sweep may build or load
    else:
        lib, why = None, "non-array-operand"
    if lib is not None:
        times = np.empty(size, dtype=np.int64)
        free = np.empty(lanes, dtype=np.int64)

        def at(a):
            return None if a is None else a.ctypes.data

        got = lib.max_plus(
            n, at(ptr), at(src), len(src), at(ahead), at(start), at(tail),
            step, at(write), at(times), size, at(lane), at(free), lanes,
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
