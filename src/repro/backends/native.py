"""The compiled bodies of :func:`repro.backends.kernel.run_span` and of
:func:`repro.graph.levels.compute_levels`.

The paper's §1 flow *compiles* the executor out of the source loop.  This
module is that step for the one scalar evaluator every wall-clock backend
shares, and for the inspector's wavefront pass: one C text
(:func:`c_source`, the walk's term codes generated from
:mod:`~repro.backends.kernel`'s constants), a ``gcc`` build into one shared
object cached on disk, and two :mod:`ctypes` entries (GIL released):
:func:`run_span`, which ``kernel.run_span`` hands every span that needs no
Python callback, and :func:`wavefront_levels`, the level recurrence
``compute_levels`` runs on every loop and dependence graph.

Contract.  The same operands, the same term codes, one ``double`` multiply
then one add per term, left to right — ``-ffp-contract=off``, no
``-ffast-math``, so no fused multiply-add and no reassociation.  Every
finite value, ``±inf`` and ``-0.0`` is bitwise what the Python body (and
the sequential oracle) computes; a NaN appears exactly where theirs does,
but its payload bits may differ (IEEE 754 leaves the result of an
operation on two NaNs to the implementation; compilers commute them).

Memory safety is inside the loop, not in NumPy passes before it: the walk
checks every iteration number, write index, ``ptr`` pair, code cursor and
read index as it goes (perfectly predicted branches) and stops at the
first violation, which :func:`run_span` raises as
:class:`~repro.errors.InvalidLoopError`.  (``min`` / ``max`` /
monotonicity passes before each call cost 144 us and made ``krylov_churn``
warm 17-24 % slower.)  Writes go to the renamed buffer, so a span that
stops early has not touched the caller's ``y``.  The level pass checks
every write index, ``ptr`` pair and term index the same way, so an index
array mutated out of range after construction is refused before any
executor starts.

Soft dependency.  No compiler, a cache directory somebody else could write
to, or a failed build (one :mod:`warnings` line per process) leave the
Python walk and the NumPy level frontier in charge; :func:`unavailable`
says which.

Cache.  One ``.so`` in a per-user directory (``$XDG_CACHE_HOME`` or
``~/.cache``, else a ``0700`` directory under the temp dir), named by a
hash of C text + flags + ``gcc -dumpfullversion`` + machine.  A process
that finds it must start no child at all: the benchmark's ``peak_rss_mb``
is own + largest waited-for child, and a ``vfork``-ed compiler is
accounted at the *parent's* peak RSS (Linux ``exec_mmap``) — +16 % on
``fig4_chain`` for the one process that compiles.  Hence the build is lazy
(first eligible span or level pass), the cache persistent, and the
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

from repro.errors import InvalidLoopError

__all__ = [
    "FLAGS",
    "c_source",
    "find_compiler",
    "cache_dir",
    "build",
    "object_name",
    "unavailable",
    "run_span",
    "wavefront_levels",
    "describe",
]

#: No ``-ffast-math``, no FMA contraction: left-to-right ``double``
#: accumulation is the bitwise contract.
FLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")

_C_TEMPLATE = """\
#include <stdint.h>

{defines}

/* Executes iterations its[0..n_its) in order over codes[cur..); returns
   the code cursor, or -(t + 1) when its[t] would read or write outside an
   operand (nothing of iteration t is written). */
int64_t run_span(
    const int64_t *its, int64_t n_its, const int8_t *codes, int64_t n_codes,
    const int64_t *write, int64_t n, const int64_t *ptr,
    const int64_t *index, int64_t n_index, const double *coeff,
    const double *init, const double *old, const double *new_, double *out,
    int64_t y_size, int64_t cur)
{{
    for (int64_t t = 0; t < n_its; t++) {{
        int64_t i = its[t];
        if (i < 0 || i >= n)
            return -(t + 1);
        int64_t w = write[i], k = ptr[i], hi = ptr[i + 1];
        if (w < 0 || w >= y_size || k < 0 || k > hi || hi > n_index
            || hi - k > n_codes - cur)
            return -(t + 1);
        double acc = init ? init[i] : old[w];
        for (; k < hi; k++) {{
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
            acc += coeff[k] * value;
        }}
        out[w] = acc;
    }}
    return cur;
}}

/* Wavefront levels by the position-order recurrence: every true dependence
   points backwards in iteration order, so level[i] = 1 + max level[w] over
   the terms of i whose writer w is earlier, and 0 when it has none.  The
   terms of i are src[ptr[i]..ptr[i+1]), elements of an array of `size`.
   With `write` (one element per iteration) they are mapped to their writer
   through iter, built here: iter[write[i]] = i, INT64_MAX where unwritten.
   Without it each term is its writer already (a predecessor list, size ==
   n).  Returns 0, or -(i + 1) when iteration i's write index, ptr pair or
   a term reaches outside its operand (level[i..n) not written). */
int64_t wavefront_levels(
    const int64_t *write, int64_t *iter, int64_t size, int64_t n,
    const int64_t *ptr, const int64_t *src, int64_t n_src, int64_t *level)
{{
    if (write) {{
        for (int64_t e = 0; e < size; e++)
            iter[e] = INT64_MAX;
        for (int64_t i = 0; i < n; i++) {{
            int64_t w = write[i];
            if (w < 0 || w >= size)
                return -(i + 1);
            iter[w] = i;
        }}
    }}
    for (int64_t i = 0; i < n; i++) {{
        int64_t k = ptr[i], hi = ptr[i + 1], lvl = 0;
        if (k < 0 || k > hi || hi > n_src)
            return -(i + 1);
        for (; k < hi; k++) {{
            int64_t idx = src[k];
            if (idx < 0 || idx >= size)
                return -(i + 1);
            int64_t w = write ? iter[idx] : idx;
            if (w < i && level[w] >= lvl)
                lvl = level[w] + 1;
        }}
        level[i] = lvl;
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
    "run_span": [_P, _N, _P, _N, _P, _N, _P, _P, _N, _P, _P, _P, _P, _P, _N, _N],
    "wavefront_levels": [_P, _P, _N, _N, _P, _P, _N, _P],
}


class _Body:
    """What this process knows about the compiled object, resolved in two
    steps so a process that never runs an eligible span or level pass
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
                f"repro: the compiled run_span is unavailable ({exc}); "
                f"spans run on the Python walk, levels on the NumPy frontier",
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


def run_span(its, codes, write, ptr, index, coeff, init, old, new, out, cur):
    """Run the span compiled.  Returns the code cursor (``int``), or the
    reason (``str``) the caller must run its Python body instead.

    O(1) checks only on this side — dtype, contiguity, lengths; the
    per-element bounds are the C loop's (module doc).  Operands stay
    referenced by the caller's frame for the duration of the call.
    """
    if not (
        _flat(its, _I64) and _flat(codes, _I8) and _flat(write, _I64)
        and _flat(ptr, _I64) and _flat(index, _I64) and _flat(coeff, _F64)
        and (init is None or _flat(init, _F64)) and _flat(old, _F64)
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
        or len(coeff) != n_index
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
        coeff.ctypes.data, None if init is None else init.ctypes.data,
        old.ctypes.data, new.ctypes.data, out.ctypes.data, y_size, cur,
    )
    if got < 0:
        t = -got - 1
        raise InvalidLoopError(
            f"run_span: span position {t} (iteration {int(its[t])}) reaches "
            f"outside its operands — an iteration number, write or read "
            f"index out of range, a decreasing ptr, or fewer codes than "
            f"terms; the span stopped there"
        )
    return got


def wavefront_levels(ptr, src, write=None, size=0):
    """The level of every iteration, compiled: an ``int64`` array, or the
    reason (``str``) the caller must run the NumPy frontier instead.

    Iteration ``i``'s terms are ``src[ptr[i]:ptr[i+1]]``.  With ``write``
    they are elements of a ``size``-element array, written by iteration
    ``j`` where ``write[j]`` names them (a loop's read table); without it
    they are iteration numbers (a dependence graph's predecessor lists).
    O(1) checks here, the per-element bounds in the C loop (module doc).
    """
    if not (
        _flat(ptr, _I64) and _flat(src, _I64)
        and (write is None or _flat(write, _I64))
    ):
        return "non-array-operand"
    body = _state()
    lib = body.entry()  # the first level pass may build or load
    if lib is None:
        return body.why
    n = len(ptr) - 1
    if n < 0 or (write is not None and len(write) != n):
        raise InvalidLoopError(
            f"wavefront_levels: inconsistent operands ({len(ptr)} ptr "
            f"entries, {n if write is None else len(write)} writes)"
        )
    level = np.empty(n, dtype=np.int64)
    if write is None:
        write_at, iter_at, size = None, None, n
    else:
        iter_ = np.empty(size, dtype=np.int64)  # the C pass fills it
        write_at, iter_at = write.ctypes.data, iter_.ctypes.data
    got = lib.wavefront_levels(
        write_at, iter_at, size, n,
        ptr.ctypes.data, src.ctypes.data, len(src), level.ctypes.data,
    )
    if got < 0:
        raise InvalidLoopError(
            f"wavefront_levels: iteration {-got - 1} reaches outside its "
            f"operands — a write or read index out of range, or a "
            f"decreasing ptr; the level pass stopped there"
        )
    return level
