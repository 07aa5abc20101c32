"""Cross-strategy verification: run a loop every sound way and compare.

The library's central contract is that every parallel strategy reproduces
the sequential loop exactly.  :func:`verify_loop` makes that contract a
user-facing debugging tool: given any :class:`~repro.ir.loop.IrregularLoop`
it runs the sequential oracle plus every strategy *applicable* to the loop
(eligibility decided by the same analysis the runners use), reports the
maximum absolute deviation per strategy, and says PASS/FAIL.

Useful when developing a new workload encoding: a subscript-mapping bug
shows up as one strategy disagreeing rather than as a mysterious wrong
number downstream.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.backends.threaded import ThreadedRunner
from repro.core.doacross import PreprocessedDoacross
from repro.ir.analysis import (
    CAT_ANTI,
    CAT_TRUE,
    classify_reads,
    uniform_distance,
)
from repro.ir.loop import IrregularLoop
from repro.ir.subscript import AffineSubscript

__all__ = ["StrategyCheck", "VerificationReport", "verify_loop"]


@dataclass(frozen=True)
class StrategyCheck:
    """Outcome of one strategy's comparison against the oracle."""

    strategy: str
    max_abs_diff: float
    passed: bool
    skipped_reason: str | None = None

    @property
    def skipped(self) -> bool:
        return self.skipped_reason is not None


@dataclass
class VerificationReport:
    """All strategy checks for one loop."""

    loop_name: str
    tolerance: float
    checks: list[StrategyCheck] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks if not c.skipped)

    @property
    def ran(self) -> list[StrategyCheck]:
        return [c for c in self.checks if not c.skipped]

    def summary(self) -> str:
        lines = [
            f"verification of {self.loop_name!r} "
            f"(tolerance {self.tolerance:g}): "
            f"{'PASS' if self.passed else 'FAIL'}"
        ]
        for c in self.checks:
            if c.skipped:
                lines.append(f"  - {c.strategy}: skipped ({c.skipped_reason})")
            else:
                verdict = "ok" if c.passed else "MISMATCH"
                lines.append(
                    f"  - {c.strategy}: {verdict} "
                    f"(max |diff| = {c.max_abs_diff:.3e})"
                )
        return "\n".join(lines)


def verify_loop(
    loop: IrregularLoop,
    processors: int = 8,
    tolerance: float = 1e-12,
    include_threaded: bool = True,
    threads: int = 4,
) -> VerificationReport:
    """Run every applicable strategy and compare against the oracle.

    Strategies whose eligibility conditions the loop does not meet are
    reported as skipped (with the reason) rather than failed.
    """
    reference = loop.run_sequential()
    report = VerificationReport(loop_name=loop.name, tolerance=tolerance)

    def check(name: str, y: np.ndarray, expected=reference) -> None:
        diff = float(np.max(np.abs(y - expected))) if len(expected) else 0.0
        report.checks.append(
            StrategyCheck(
                strategy=name, max_abs_diff=diff, passed=diff <= tolerance
            )
        )

    def skip(name: str, reason: str) -> None:
        report.checks.append(
            StrategyCheck(
                strategy=name,
                max_abs_diff=float("nan"),
                passed=True,
                skipped_reason=reason,
            )
        )

    runner = PreprocessedDoacross(processors=processors)
    check("preprocessed-doacross", runner.run(loop).y)
    check("doconsider-doacross", runner.run(loop, reorder="doconsider").y)
    block = max(1, loop.n // 4)
    check("stripmined-doacross", runner.run_stripmined(loop, block=block).y)
    # Two instances compose the loop with itself: the oracle applied to
    # its own output.
    twice = loop.with_name(loop.name)
    twice.y0 = reference
    check(
        "amortized-doacross(x2)",
        runner.run_amortized(loop, 2).y,
        twice.run_sequential(),
    )

    if isinstance(loop.write_subscript, AffineSubscript):
        check("linear-doacross", runner.run(loop, linear=True).y)
    else:
        skip("linear-doacross", "write subscript is not statically affine")

    _, _, categories = classify_reads(loop)
    has_true = bool(np.any(categories == CAT_TRUE))
    has_anti = bool(np.any(categories == CAT_ANTI))

    distance = uniform_distance(loop)
    if distance is not None and not has_anti:
        check("classic-doacross", runner.runner().run_classic(loop, distance).y)
    else:
        skip(
            "classic-doacross",
            "no uniform dependence distance"
            if distance is None
            else "loop carries antidependencies",
        )

    if not has_true and not has_anti:
        check("doall", runner.runner().run_doall(loop).y)
    else:
        skip("doall", "loop carries cross-iteration dependencies")

    # Imported here: backends.vectorized pulls in backends.cache, which
    # would cycle back into repro.core at module-import time.
    from repro.backends.vectorized import VectorizedRunner

    check("vectorized-wavefront", VectorizedRunner().run(loop).y)

    if include_threaded:
        check(
            f"threaded({threads})",
            ThreadedRunner(threads=threads).run(loop).y,
        )

    return report
