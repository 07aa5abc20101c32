"""First-class subscript functions.

A subscript maps a loop index ``i`` to an array index.  The distinction that
drives the whole paper is *what the compiler can know about it*:

- :class:`AffineSubscript` — ``i ↦ c·i + d`` with ``c``, ``d`` known
  symbolically.  The writer of element ``off`` is computable in closed form
  (``(off − d)/c`` when divisible), which is exactly the §2.3 optimization
  that eliminates the inspector and the ``iter`` array.
- :class:`IndirectSubscript` — ``i ↦ a[i]`` for a runtime-filled integer
  array ``a``; nothing is known until the values exist, so run-time
  preprocessing is required.

Both materialize to a NumPy index vector for execution; the affine form
additionally supports the closed-form writer query and a small composition
algebra used by the workload generators.

:class:`ExprSubscript` sits between the two: an arbitrary closed-form
expression over the loop index (built from :class:`Index`, :class:`Const`,
``+``, ``*``, ``%``, ``//``) that the symbolic analysis in
``repro.analysis`` can interpret abstractly even when it is not affine —
e.g. ``(i // 2) * 2`` is provably even, which a congruence domain can use
to separate it from an odd affine write.
"""

from __future__ import annotations

import numpy as np

from repro.errors import InvalidLoopError

__all__ = [
    "Subscript",
    "AffineSubscript",
    "IndirectSubscript",
    "ExprSubscript",
    "SymExpr",
    "Index",
    "Const",
    "Add",
    "Mul",
    "Mod",
    "FloorDiv",
]


# ----------------------------------------------------------------------
# Symbolic index expressions
# ----------------------------------------------------------------------
class SymExpr:
    """Closed-form integer expression over the loop index ``i``.

    The AST is deliberately tiny — ``i``, integer constants, ``+``, ``*``,
    ``%`` and ``//`` — because that is exactly the fragment the abstract
    domains in :mod:`repro.analysis.domains` can reason about.  Nodes are
    immutable and hashable so subscripts built from them can participate in
    structural signatures.
    """

    __slots__ = ()

    def evaluate(self, i: np.ndarray) -> np.ndarray:
        """Evaluate over a vector of iteration indices (int64 semantics,
        Python floor-division/modulo conventions)."""
        raise NotImplementedError

    def signature(self) -> tuple:
        """Hashable structural signature (used for cache fingerprints)."""
        raise NotImplementedError

    # Operator sugar so expressions read like the loops they index.
    def __add__(self, other: "SymExpr | int") -> "SymExpr":
        return Add(self, _as_expr(other))

    def __radd__(self, other: int) -> "SymExpr":
        return Add(_as_expr(other), self)

    def __mul__(self, other: "SymExpr | int") -> "SymExpr":
        return Mul(self, _as_expr(other))

    def __rmul__(self, other: int) -> "SymExpr":
        return Mul(_as_expr(other), self)

    def __mod__(self, other: int) -> "SymExpr":
        return Mod(self, int(other))

    def __floordiv__(self, other: int) -> "SymExpr":
        return FloorDiv(self, int(other))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SymExpr) and self.signature() == other.signature()

    def __hash__(self) -> int:
        return hash(self.signature())


def _as_expr(value: "SymExpr | int") -> "SymExpr":
    if isinstance(value, SymExpr):
        return value
    return Const(int(value))


class Index(SymExpr):
    """The loop index ``i`` itself."""

    __slots__ = ()

    def evaluate(self, i: np.ndarray) -> np.ndarray:
        return np.asarray(i, dtype=np.int64)

    def signature(self) -> tuple:
        return ("i",)

    def __repr__(self) -> str:
        return "i"


class Const(SymExpr):
    """An integer constant."""

    __slots__ = ("value",)

    def __init__(self, value: int):
        object.__setattr__(self, "value", int(value))

    def __setattr__(self, name, value):  # pragma: no cover - immutability
        raise AttributeError("SymExpr nodes are immutable")

    def evaluate(self, i: np.ndarray) -> np.ndarray:
        return np.full_like(np.asarray(i, dtype=np.int64), self.value)

    def signature(self) -> tuple:
        return ("const", self.value)

    def __repr__(self) -> str:
        return str(self.value)


class _Binary(SymExpr):
    __slots__ = ("left", "right")

    _op = "?"

    def __init__(self, left: SymExpr, right: SymExpr):
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)

    def __setattr__(self, name, value):  # pragma: no cover - immutability
        raise AttributeError("SymExpr nodes are immutable")

    def signature(self) -> tuple:
        return (self._op, self.left.signature(), self.right.signature())

    def __repr__(self) -> str:
        return f"({self.left!r} {self._op} {self.right!r})"


class Add(_Binary):
    """``left + right``."""

    __slots__ = ()
    _op = "+"

    def evaluate(self, i: np.ndarray) -> np.ndarray:
        return self.left.evaluate(i) + self.right.evaluate(i)


class Mul(_Binary):
    """``left * right``."""

    __slots__ = ()
    _op = "*"

    def evaluate(self, i: np.ndarray) -> np.ndarray:
        return self.left.evaluate(i) * self.right.evaluate(i)


class _ConstDivisor(SymExpr):
    __slots__ = ("operand", "divisor")

    _op = "?"

    def __init__(self, operand: SymExpr, divisor: int):
        divisor = int(divisor)
        if divisor <= 0:
            raise InvalidLoopError(
                f"{type(self).__name__} requires a positive constant "
                f"divisor, got {divisor}"
            )
        object.__setattr__(self, "operand", operand)
        object.__setattr__(self, "divisor", divisor)

    def __setattr__(self, name, value):  # pragma: no cover - immutability
        raise AttributeError("SymExpr nodes are immutable")

    def signature(self) -> tuple:
        return (self._op, self.operand.signature(), self.divisor)

    def __repr__(self) -> str:
        return f"({self.operand!r} {self._op} {self.divisor})"


class Mod(_ConstDivisor):
    """``operand % divisor`` with a positive constant divisor."""

    __slots__ = ()
    _op = "%"

    def evaluate(self, i: np.ndarray) -> np.ndarray:
        return self.operand.evaluate(i) % self.divisor


class FloorDiv(_ConstDivisor):
    """``operand // divisor`` with a positive constant divisor."""

    __slots__ = ()
    _op = "//"

    def evaluate(self, i: np.ndarray) -> np.ndarray:
        return self.operand.evaluate(i) // self.divisor


class Subscript:
    """Abstract subscript function over iterations ``0..n-1``."""

    #: True when the closed form is known to the "compiler" (enables the
    #: linear-subscript transformation of paper §2.3).
    statically_known = False

    def materialize(self, n: int) -> np.ndarray:
        """Index vector of length ``n`` (dtype ``int64``)."""
        raise NotImplementedError

    def is_injective(self, n: int) -> bool:
        """Whether no two iterations in ``0..n-1`` map to the same index."""
        values = self.materialize(n)
        return len(np.unique(values)) == n

    def static_signature(self) -> tuple | None:
        """Hashable structural description of the closed form, or ``None``
        when the subscript is runtime data (nothing to describe).  Two
        subscripts with equal signatures compute the same function, so the
        symbolic analysis may share verdicts — and the InspectorCache may
        share records — between them."""
        return None


class AffineSubscript(Subscript):
    """The linear subscript ``i ↦ c·i + d``.

    The paper's Figure-6 experiment uses ``a(i) = 2i`` (1-based); in our
    0-based convention that is ``AffineSubscript(2, 2)`` over ``i = 0..N-1``
    (see DESIGN.md §8).
    """

    statically_known = True

    def __init__(self, c: int, d: int = 0):
        self.c = int(c)
        self.d = int(d)

    def __call__(self, i: int) -> int:
        return self.c * i + self.d

    def materialize(self, n: int) -> np.ndarray:
        out = np.arange(n, dtype=np.int64)  # one allocation, no temporaries
        out *= self.c
        out += self.d
        return out

    def is_injective(self, n: int) -> bool:
        return self.c != 0 or n <= 1

    def writer_of(self, off: int, n: int) -> int:
        """Closed-form inverse: which iteration writes element ``off``.

        Returns the iteration index, or ``-1`` if no iteration in ``0..n-1``
        writes ``off`` — the §2.3 test ``(off − d) mod c == 0``.
        """
        if self.c == 0:
            # Constant subscript: only legal for n <= 1 loops.
            return 0 if (off == self.d and n >= 1) else -1
        q, r = divmod(off - self.d, self.c)
        if r != 0 or not 0 <= q < n:
            return -1
        return int(q)

    def writer_of_many(self, offs: np.ndarray, n: int) -> np.ndarray:
        """Vectorized :meth:`writer_of` (``-1`` where unwritten)."""
        offs = np.asarray(offs, dtype=np.int64)
        if self.c == 0:
            writers = np.where(offs == self.d, 0, -1).astype(np.int64)
            return writers if n >= 1 else np.full_like(offs, -1)
        q, r = np.divmod(offs - self.d, self.c)
        ok = (r == 0) & (q >= 0) & (q < n)
        return np.where(ok, q, -1).astype(np.int64)

    def shifted(self, offset: int) -> "AffineSubscript":
        """``i ↦ c·i + d + offset``."""
        return AffineSubscript(self.c, self.d + offset)

    def composed(self, inner: "AffineSubscript") -> "AffineSubscript":
        """``self ∘ inner``: ``i ↦ c·(c'·i + d') + d``."""
        return AffineSubscript(self.c * inner.c, self.c * inner.d + self.d)

    def static_signature(self) -> tuple:
        return ("affine", self.c, self.d)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, AffineSubscript)
            and self.c == other.c
            and self.d == other.d
        )

    def __hash__(self) -> int:
        return hash((AffineSubscript, self.c, self.d))

    def __repr__(self) -> str:
        return f"AffineSubscript({self.c}, {self.d})"


class IndirectSubscript(Subscript):
    """The runtime subscript ``i ↦ a[i]`` (paper Figure 1's ``a``/``b``).

    The defining property: its values are *data*, invisible to compile-time
    dependence analysis — which is why the preprocessed doacross exists.
    """

    statically_known = False

    def __init__(self, values):
        arr = np.ascontiguousarray(values, dtype=np.int64)
        if arr.ndim != 1:
            raise InvalidLoopError(
                f"indirect subscript array must be 1-D, got shape {arr.shape}"
            )
        self.values = arr

    def __call__(self, i: int) -> int:
        return int(self.values[i])

    def materialize(self, n: int) -> np.ndarray:
        if n > len(self.values):
            raise InvalidLoopError(
                f"loop has {n} iterations but subscript array has only "
                f"{len(self.values)} entries"
            )
        return self.values[:n]

    def __repr__(self) -> str:
        head = ", ".join(str(v) for v in self.values[:4])
        tail = ", ..." if len(self.values) > 4 else ""
        return f"IndirectSubscript([{head}{tail}] len={len(self.values)})"


class ExprSubscript(Subscript):
    """A closed-form but not-necessarily-affine subscript ``i ↦ e(i)``.

    ``e`` is a :class:`SymExpr`.  The "compiler" knows the expression, so
    the symbolic analysis can derive congruence/interval/monotonicity facts
    for it even when no affine form exists (``(i // 2) * 2``, ``i % 8``,
    …).  Injectivity stays value-level unless the analysis proves it.
    """

    statically_known = True

    def __init__(self, expr: SymExpr):
        if not isinstance(expr, SymExpr):
            raise InvalidLoopError(
                f"ExprSubscript needs a SymExpr, got {type(expr).__name__}"
            )
        self.expr = expr

    def __call__(self, i: int) -> int:
        return int(self.expr.evaluate(np.asarray([i], dtype=np.int64))[0])

    def materialize(self, n: int) -> np.ndarray:
        out = self.expr.evaluate(np.arange(n, dtype=np.int64))
        return np.ascontiguousarray(out, dtype=np.int64)

    def static_signature(self) -> tuple:
        return ("expr", self.expr.signature())

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ExprSubscript) and self.expr == other.expr

    def __hash__(self) -> int:
        return hash((ExprSubscript, self.expr))

    def __repr__(self) -> str:
        return f"ExprSubscript({self.expr!r})"
