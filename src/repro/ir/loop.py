"""The normalized irregular loop form.

Both loops the paper evaluates fit one shape::

    do i = 0, n-1
        acc = <init_i>                      # y[w(i)] or an external value
        do each read term (idx, coeff) of i
            acc = acc + coeff * y[idx]      # y read "live": latest value
        end do
        y[w(i)] = acc
    end do

- Figure 4 (test loop): ``w(i) = a(i)``, init is the *old* ``y[a(i)]``,
  ``M`` terms per iteration reading ``y[b(i) + nbrs(j)]`` with coefficient
  ``val(j)``.
- Figure 7 (sparse triangular solve): ``w(i) = i``, init is ``rhs(i)``,
  the terms read ``y[column(j)]`` with coefficient ``-a(j)``.

Reads are *live*: a term whose index equals an element written by an earlier
iteration sees the updated value (true dependence), and a term whose index
equals the element this very iteration writes sees the partially accumulated
value (the paper's ``check == 0`` case, Figure 5 statement S8).

:meth:`IrregularLoop.run_sequential` is the semantic oracle every parallel
strategy is tested against.
"""

from __future__ import annotations

import numpy as np

from repro.errors import InvalidLoopError, OutputDependenceError
from repro.ir.accesses import ReadTable
from repro.ir.subscript import AffineSubscript, IndirectSubscript, Subscript

__all__ = ["IrregularLoop", "INIT_OLD_VALUE", "INIT_EXTERNAL"]

#: Initialize each iteration's accumulator from the old ``y[w(i)]``
#: (Figure 4 / Figure 5's ``ynew(a(i)) = y(a(i))``).
INIT_OLD_VALUE = "old_value"
#: Initialize from an external per-iteration value (Figure 7's ``rhs(i)``).
INIT_EXTERNAL = "external"


class IrregularLoop:
    """A loop with run-time-determined dependencies, in normalized form.

    Parameters
    ----------
    n:
        Number of iterations.
    y_size:
        Length of the shared array ``y``.
    write_subscript:
        The left-hand-side subscript ``w``; must be injective over
        ``0..n-1`` (the paper's "no output dependencies" assumption).
    reads:
        The per-iteration read-term table.
    init_kind:
        :data:`INIT_OLD_VALUE` or :data:`INIT_EXTERNAL`.
    init_values:
        Length-``n`` vector of external initial values (required iff
        ``init_kind == INIT_EXTERNAL``).
    y0:
        Initial contents of ``y`` (defaults to zeros).
    name:
        Label used in reports.
    work:
        Optional per-iteration :class:`~repro.machine.costs.WorkProfile` of
        the *source* loop (sequential overhead, per-term setup/consume).
        ``None`` means "use the cost model's default profile".
    read_slots:
        Optional sequence of :class:`~repro.ir.accesses.ReadSlot` declaring
        the read terms symbolically: iteration ``i``'s terms must be its
        active slots in increasing slot order.  Consumed by the symbolic
        dependence analysis (``repro.analysis``); checked against the
        materialized table by :func:`~repro.analysis.cross_check` (the
        ``VERDICT-CHECK`` lint rule).

    The index arrays ``write``, ``reads.ptr`` and ``reads.index`` (and
    every array they are views of) become **read-only at the loop's first
    plan or run** — its first :func:`~repro.backends.cache.loop_fingerprint`
    — so the content-addressed inspector cache can memoize the digest:
    edit them before first use, or the write raises ``ValueError``.  A
    simulated run freezes them only when its runner holds an
    :class:`~repro.backends.cache.InspectorCache` (whatever the machine);
    without one it leaves them writeable.  The coefficients, ``y0`` and
    ``init_values`` stay writeable.  Arrays backed by a writeable foreign
    buffer (``bytearray``, ``mmap``) are not frozen and are hashed on
    every call instead.
    """

    #: ``(bound arrays, frozen chain, digest)`` once
    #: :func:`~repro.backends.cache.loop_fingerprint` has frozen the index
    #: arrays; shared by :meth:`with_name` clones, dropped by copies and
    #: pickles.
    _fingerprint_memo: tuple | None = None
    #: The compiled walk's argument block of an identity-order record
    #: over this loop's own ``write`` / ``ptr`` / ``index``
    #: (:class:`~repro.backends.native.ArgBlock`); kept and dropped with
    #: the fingerprint memo, and replaced when a walk of another record
    #: finds it does not hold that record's arrays.  It refers to the
    #: record's ``order`` and ``codes`` weakly: once an
    #: :class:`~repro.backends.cache.InspectorCache` has evicted or
    #: dropped the record they are freed, and the next walk builds a new
    #: block.
    arg_block: object = None

    def __init__(
        self,
        n: int,
        y_size: int,
        write_subscript: Subscript,
        reads: ReadTable,
        init_kind: str = INIT_OLD_VALUE,
        init_values=None,
        y0=None,
        name: str = "loop",
        work=None,
        read_slots=None,
    ):
        if n < 0:
            raise InvalidLoopError(f"iteration count must be >= 0, got {n}")
        if y_size < 0:
            raise InvalidLoopError(f"y_size must be >= 0, got {y_size}")
        if reads.n != n:
            raise InvalidLoopError(
                f"read table covers {reads.n} iterations, loop has {n}"
            )
        if init_kind not in (INIT_OLD_VALUE, INIT_EXTERNAL):
            raise InvalidLoopError(f"unknown init_kind {init_kind!r}")

        self.n = n
        self.y_size = y_size
        self.write_subscript = write_subscript
        self.reads = reads
        self.init_kind = init_kind
        self.name = name
        self.work = work
        self.read_slots = tuple(read_slots) if read_slots is not None else None

        self.write = write_subscript.materialize(n)
        if len(self.write) != n:
            raise InvalidLoopError(
                f"write subscript materialized to {len(self.write)} entries "
                f"for {n} iterations"
            )
        self.check_subscripts()

        self.init_values: np.ndarray | None
        if init_kind == INIT_EXTERNAL:
            if init_values is None:
                raise InvalidLoopError(
                    "init_kind=external requires init_values"
                )
            self.init_values = np.ascontiguousarray(
                init_values, dtype=np.float64
            )
            if len(self.init_values) != n:
                raise InvalidLoopError(
                    f"init_values has {len(self.init_values)} entries for "
                    f"{n} iterations"
                )
        else:
            if init_values is not None:
                raise InvalidLoopError(
                    "init_values only allowed with init_kind=external"
                )
            self.init_values = None

        if y0 is None:
            self.y0 = np.zeros(y_size, dtype=np.float64)
        else:
            self.y0 = np.ascontiguousarray(y0, dtype=np.float64)
            if len(self.y0) != y_size:
                raise InvalidLoopError(
                    f"y0 has {len(self.y0)} entries, y_size={y_size}"
                )

        self._check_output_dependencies()

    # ------------------------------------------------------------------
    def check_subscripts(self) -> None:
        """Raise :class:`~repro.errors.InvalidLoopError` if a write or read
        index lies outside ``y`` — checked at construction, and again where
        the loop is hashed, since an index array may have been mutated)."""
        if self.n > 0:
            lo, hi = int(self.write.min()), int(self.write.max())
            if lo < 0 or hi >= self.y_size:
                raise InvalidLoopError(
                    f"write index out of range: min={lo}, max={hi}, "
                    f"y_size={self.y_size}"
                )
        self.reads.check_bounds(self.y_size)

    def _check_output_dependencies(self) -> None:
        """Enforce the paper's no-output-dependence assumption: the write
        subscript must be injective over the iteration range.  A closed
        form that proves it (an affine ``c·i + d`` with ``c != 0``) is
        taken at its word; anything else is sorted and checked."""
        if not (
            isinstance(self.write_subscript, AffineSubscript)
            and self.write_subscript.is_injective(self.n)
        ):
            self.check_write_injective()

    def check_write_injective(self) -> None:
        """Raise :class:`~repro.errors.OutputDependenceError` naming the
        first element two iterations write, reading the ``write`` array as
        it is now — a loop whose ``write`` was mutated before first use
        included, whatever its subscript's closed form says.  Hashing the
        loop (:func:`~repro.backends.cache.loop_fingerprint`) calls it, so
        every run checks before anything is executed."""
        if self.n <= 1:
            return
        order = np.argsort(self.write, kind="stable")
        sorted_w = self.write[order]
        dup = np.nonzero(sorted_w[1:] == sorted_w[:-1])[0]
        if len(dup):
            k = int(dup[0])
            raise OutputDependenceError(
                index=int(sorted_w[k]),
                first_writer=int(order[k]),
                second_writer=int(order[k + 1]),
            )

    # ------------------------------------------------------------------
    @classmethod
    def from_arrays(
        cls,
        write,
        reads: ReadTable,
        y_size: int | None = None,
        **kwargs,
    ) -> "IrregularLoop":
        """Build from a raw write-index vector (wrapped as an
        :class:`IndirectSubscript`)."""
        write = np.asarray(write, dtype=np.int64)
        n = len(write)
        if y_size is None:
            hi = int(write.max()) if n else -1
            if len(reads.index):
                hi = max(hi, int(reads.index.max()))
            y_size = hi + 1
        return cls(
            n=n,
            y_size=y_size,
            write_subscript=IndirectSubscript(write),
            reads=reads,
            **kwargs,
        )

    # ------------------------------------------------------------------
    def run_sequential(self) -> np.ndarray:
        """Execute the loop sequentially; the semantic oracle.

        Returns the final ``y`` array.  Reads are live: within an iteration
        a read of the element being written sees the partial accumulator.

        The arrays are walked through ``memoryview``s: indexing one gives
        a plain ``int`` / ``float`` rather than a NumPy scalar (less than
        half the interpreter time), and Python floats are IEEE doubles, so
        the result is bit-for-bit what NumPy scalar arithmetic gives.
        """
        out = self.y0.copy()
        y = memoryview(out)
        write = memoryview(self.write)
        ptr, index, coeff = map(
            memoryview, (self.reads.ptr, self.reads.index, self.reads.coeff)
        )
        init = None
        if self.init_kind == INIT_EXTERNAL and self.init_values is not None:
            init = memoryview(self.init_values)
        for i in range(self.n):
            w = write[i]
            acc = y[w] if init is None else init[i]
            for k in range(ptr[i], ptr[i + 1]):
                idx = index[k]
                value = acc if idx == w else y[idx]
                acc += coeff[k] * value
            y[w] = acc
        return out

    def describe(self) -> str:
        """Human-readable profile of the loop: shape, init kind, write
        subscript class, and the dependence summary (term classification,
        distances, wavefront-relevant counts).  A debugging convenience —
        the value-level analysis this prints is exactly what the runtime
        will discover."""
        from repro.ir.analysis import summarize_dependences

        s = summarize_dependences(self)
        sub = type(self.write_subscript).__name__
        lines = [
            f"{self.name}: n={self.n}, y_size={self.y_size}, "
            f"terms={self.reads.total_terms}, init={self.init_kind}, "
            f"write={sub}",
            f"  reads: true={s.true_terms} intra={s.intra_terms} "
            f"anti={s.anti_terms} unwritten={s.unwritten_terms}",
            f"  true edges: {s.unique_true_edges} "
            f"(distances {s.min_distance}..{s.max_distance}); "
            f"{s.dependence_fraction:.0%} of iterations ordered",
        ]
        return "\n".join(lines)

    def with_name(self, name: str) -> "IrregularLoop":
        """Shallow relabeled copy (shares all arrays and the fingerprint
        memo)."""
        clone = object.__new__(IrregularLoop)
        clone.__dict__.update(self.__dict__)
        clone.name = name
        return clone

    def __getstate__(self) -> dict:
        # A copy or an unpickled loop hashes its own arrays again; the
        # memo would also drag the frozen base arrays along.
        state = self.__dict__.copy()
        state.pop("_fingerprint_memo", None)
        state.pop("arg_block", None)
        return state

    def __repr__(self) -> str:
        return (
            f"IrregularLoop({self.name!r}, n={self.n}, y_size={self.y_size}, "
            f"terms={self.reads.total_terms}, init={self.init_kind})"
        )
