"""Cycle cost model for the simulated multiprocessor.

All times in the simulation are integer cycles.  Costs split into two
groups:

**Machinery costs** (:class:`CostModel`) — what the *transformation* adds:
inspector/postprocessor stores, the per-term ``iter`` check, flag traffic,
dispatch, barriers.  These are properties of the doacross runtime and are
shared by every loop.

**Work costs** (:class:`WorkProfile`) — what the *source loop* does per
iteration: its loop-control overhead and its per-term arithmetic.  Different
source loops legitimately differ (the paper's Figure-7 triangular-solve row
is several times heavier than a Figure-4 term: indirect ``column(j)``
addressing, ``low/high`` bounds loads, a ``y(i)`` store per term), so each
:class:`~repro.ir.loop.IrregularLoop` may carry its own profile; loops
without one use the :class:`CostModel` defaults.

Each term's work further splits into ``term_setup`` (loading the
coefficient and index, computing the offset — work a busy-waiting processor
has already completed before the awaited flag flips) and ``term_consume``
(loading the awaited value, the multiply-add — work that can only start
after the flag).  The split is what lets dependence chains pipeline at the
hardware-realistic rate: after a wake-up only ``consume`` remains.

Calibration (DESIGN.md §7): with the defaults, the zero-dependence
efficiency plateau of the Figure-6 experiment is
``10/30 ≈ 0.33`` (``M=1``) and ``34/70 ≈ 0.49`` (``M=5``), matching the
paper; the triangular-solve profile (see
:func:`repro.sparse.trisolve.TRISOLVE_WORK`) reproduces the Table-1 bands.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

from repro.errors import CalibrationError

__all__ = ["CostModel", "DEFAULT_COST_MODEL", "WorkProfile"]


@dataclass(frozen=True)
class WorkProfile:
    """Per-iteration source-loop work, in cycles.

    Attributes
    ----------
    overhead:
        Loop control, induction-variable and address arithmetic per
        iteration of the *original* loop (also paid by the executor).
    term_setup:
        Per-term work available before the term's value: coefficient and
        index loads, offset computation.
    term_consume:
        Per-term work needing the value: the load of ``y``/``ynew`` at the
        offset and the multiply-add.
    """

    overhead: int = 4
    term_setup: int = 4
    term_consume: int = 2

    def __post_init__(self) -> None:
        for name in ("overhead", "term_setup", "term_consume"):
            value = getattr(self, name)
            if not isinstance(value, int) or value < 0:
                raise CalibrationError(
                    f"work profile field {name!r} must be a non-negative "
                    f"int, got {value!r}"
                )

    @property
    def term(self) -> int:
        """Total per-term work."""
        return self.term_setup + self.term_consume


@dataclass(frozen=True)
class CostModel:
    """Machinery cycle costs of the doacross runtime plus the default
    :class:`WorkProfile`.

    Glossary (cycles):

    ``pre_iter``
        One inspector iteration: ``iter(a(i)) = i`` (Figure 3).
    ``post_iter``
        One postprocessor iteration: reset ``iter``/``ready``, copy
        ``ynew → yold`` (Figure 3).
    ``exec_iter_overhead``
        Executor machinery per iteration beyond the source loop's own
        overhead: the ``ynew(a(i)) = y(a(i))`` renaming init and the final
        renamed store (Figure 5, S2 and the closing store).
    ``dep_check``
        Per-term run-time dependence check: load ``iter(offset)``, compare,
        branch (Figure 5, S3/S6).
    ``flag_check`` / ``flag_set``
        One ``ready`` read (a busy-wait trip) / one ``ready`` store.
    ``dispatch``
        One self-scheduling counter grab (serialized).
    ``barrier_base`` + ``barrier_per_proc * P``
        Inter-phase barrier.
    ``bus_per_access``
        Optional bus occupancy per shared access (contention model).
    """

    # Default source-loop work (Figure-4-like).
    work: WorkProfile = WorkProfile()
    # Transformation machinery.
    pre_iter: int = 4
    post_iter: int = 8
    #: Reduced postprocessor iteration used between instances of an
    #: amortized (inspector-reused) doacross: ``ready`` reset and
    #: ``ynew → y`` copy only — ``iter`` stays valid, saving one store.
    post_iter_amortized: int = 6
    exec_iter_overhead: int = 2
    dep_check: int = 4
    flag_check: int = 2
    flag_set: int = 2
    dispatch: int = 12
    barrier_base: int = 20
    barrier_per_proc: int = 4
    bus_per_access: int = 0
    #: When the coherence model is enabled, extra cycles charged for
    #: reading a renamed (``ynew``) value most recently written by a
    #: *different* processor — the invalidation-miss transfer of a
    #: write-invalidate protocol.  Same-processor re-reads are cache hits.
    coherence_miss: int = 0

    #: Simulated cycles per microsecond, used only to render human-readable
    #: "milliseconds" in Table-1 style reports (the paper reports ms).
    cycles_per_us: int = 10

    def __post_init__(self) -> None:
        for f in fields(self):
            if f.name == "work":
                continue
            value = getattr(self, f.name)
            if not isinstance(value, int):
                raise CalibrationError(
                    f"cost model field {f.name!r} must be an int, got "
                    f"{type(value).__name__}"
                )
            if value < 0:
                raise CalibrationError(
                    f"cost model field {f.name!r} must be >= 0, got {value}"
                )
        if self.cycles_per_us <= 0:
            raise CalibrationError("cycles_per_us must be positive")

    # ------------------------------------------------------------------
    def effective_work(self, profile: WorkProfile | None) -> WorkProfile:
        """The loop's profile, or this model's default."""
        return profile if profile is not None else self.work

    def seq_iteration(self, terms: int, profile: WorkProfile | None = None) -> int:
        """Sequential cost of one original-loop iteration."""
        w = self.effective_work(profile)
        return w.overhead + terms * w.term

    def exec_iteration_base(
        self, terms: int, profile: WorkProfile | None = None
    ) -> int:
        """Executor cost of one transformed iteration, *excluding*
        busy-waits, flag traffic, and dispatch."""
        w = self.effective_work(profile)
        return (
            self.exec_iter_overhead
            + w.overhead
            + terms * (w.term + self.dep_check)
        )

    def barrier(self, processors: int) -> int:
        """Cost of one inter-phase barrier across ``processors``."""
        return self.barrier_base + self.barrier_per_proc * processors

    def overhead_plateau(
        self, terms: int, profile: WorkProfile | None = None
    ) -> float:
        """Analytic zero-dependence efficiency plateau (DESIGN.md §7):
        sequential iteration cost over total transformed per-iteration cost
        (inspector + executor + postprocessor shares, flag set included)."""
        transformed = (
            self.pre_iter
            + self.post_iter
            + self.exec_iteration_base(terms, profile)
            + self.flag_set
        )
        return self.seq_iteration(terms, profile) / transformed

    def cycles_to_ms(self, cycles: int) -> float:
        """Render simulated cycles as milliseconds for report tables."""
        return cycles / (self.cycles_per_us * 1000.0)

    def scaled(self, **overrides) -> "CostModel":
        """Return a copy with some fields replaced (ablation helper)."""
        return replace(self, **overrides)


#: The default machine, built once: :class:`CostModel` is frozen, and two
#: default instances are equal and hash-equal, so every ``cost_model=None``
#: shares this one (and a simulated operand-cache key is unchanged).
DEFAULT_COST_MODEL = CostModel()
