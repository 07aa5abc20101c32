"""The benchmark's own evaluator of the paper's Figure-1 loop semantics.

It is both the timing base (every ratio is "x this function on the same
loop") and the correctness reference, so it shares no code with
``IrregularLoop.run_sequential``: it reads only the loop's raw arrays and
works on Python lists.  Python floats are IEEE doubles and ``+``/``*`` are
never fused, so the result is bitwise what a correct executor produces.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


def reference_run(loop) -> np.ndarray:
    """``y`` after the loop: reads are live, and a read of the element the
    iteration itself writes sees the partial accumulator."""
    y = loop.y0.tolist()
    write = loop.write.tolist()
    ptr = loop.reads.ptr.tolist()
    index = loop.reads.index.tolist()
    coeff = loop.reads.coeff.tolist()
    init = None if loop.init_values is None else loop.init_values.tolist()
    for i in range(loop.n):
        w = write[i]
        acc = y[w] if init is None else init[i]
        for k in range(ptr[i], ptr[i + 1]):
            j = index[k]
            acc += coeff[k] * (acc if j == w else y[j])
        y[w] = acc
    return np.array(y, dtype=np.float64)


@dataclass
class Tally:
    """Every operation the benchmark attempts, and every one that failed.

    A failure is an exception (timeouts included: the library's busy-waits
    are bounded, so a hang surfaces as ``WaitTimeout``), an output that is
    not bitwise equal to the reference, or a leaked process / shared-memory
    segment.  Failures are counted and named, never dropped.
    """

    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def fail(self, note: str) -> None:
        self.failed += 1
        if len(self.notes) < 20:
            self.notes.append(note)

    def count(self, label: str, ok: bool, why: str) -> bool:
        """Count one attempted operation; ``why`` names it if it failed."""
        self.attempted += 1
        if not ok:
            self.fail(f"{label}: {why}")
        return ok

    def check(self, label: str, outputs, expected) -> bool:
        """Count one operation whose calls returned ``outputs``."""
        if len(outputs) != len(expected):
            return self.count(
                label, False, f"{len(outputs)} outputs for {len(expected)} calls"
            )
        for k, (got, want) in enumerate(zip(outputs, expected)):
            if not (
                isinstance(got, np.ndarray)
                and got.dtype == np.float64
                and np.array_equal(got, want)
            ):
                return self.count(
                    label, False, f"output of call {k} differs from the reference"
                )
        return self.count(label, True, "")

    def raised(self, label: str, exc: BaseException) -> None:
        """Count one operation that raised instead of returning."""
        self.count(label, False, f"{type(exc).__name__}: {exc}")

    @property
    def fail_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
