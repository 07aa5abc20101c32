"""Reusable scratch arrays for the preprocessed doacross.

The paper (§2.1, Figure 3) stresses that ``iter`` and ``ready`` are *reused*
across multiple preprocessed doacross loops: the postprocessing phase
restores them to their pristine state (``iter`` all ``MAXINT``, ``ready``
all ``NOTDONE``), so one allocation amortizes over many loop instances.
:class:`DoacrossWorkspace` is that allocation: the ``iter`` array, the
``ynew`` value array, and bookkeeping that lets tests verify the
clean-after-postprocess invariant.

(The ``ready`` flags live on the backend side — a
:class:`~repro.machine.flags.FlagStore` in simulation, a ``uint8`` array
in the threaded and multiproc lanes (:mod:`repro.backends.lanes`) — but
their reset cost is charged by the postprocessor just the same.)
"""

from __future__ import annotations

import numpy as np

__all__ = ["MAXINT", "DoacrossWorkspace"]

#: The paper's ``MAXINT`` sentinel: ``iter[off] == MAXINT`` means "element
#: ``off`` is not written by any iteration of the current loop", which the
#: executor's ``check > 0`` branch maps to "read the old value, don't wait".
MAXINT = np.iinfo(np.int64).max


class DoacrossWorkspace:
    """Scratch arrays sized to the shared array ``y``.

    Attributes
    ----------
    iter_arr:
        The paper's ``iter``: for each element of ``y``, the iteration that
        writes it, or :data:`MAXINT`.
    ynew:
        The renamed write target (paper's ``ynew``); writes never touch the
        old ``y`` until postprocessing copies them back, which is what
        removes antidependence ordering.
    invocations:
        How many loop instances have used this workspace (reuse counter).
    """

    def __init__(self, y_size: int = 0):
        self.iter_arr = np.full(y_size, MAXINT, dtype=np.int64)
        self.ynew = np.zeros(y_size, dtype=np.float64)
        self.invocations = 0

    @property
    def y_size(self) -> int:
        return len(self.iter_arr)

    def ensure_size(self, y_size: int) -> None:
        """Grow the scratch arrays if the loop's ``y`` is larger.

        Growing preserves the clean state; shrinking never happens (the whole
        point is reuse across loops of similar footprint).
        """
        if y_size > len(self.iter_arr):
            grown_iter = np.full(y_size, MAXINT, dtype=np.int64)
            grown_iter[: len(self.iter_arr)] = self.iter_arr
            self.iter_arr = grown_iter
        self.ynew_for(y_size)

    def ynew_for(self, y_size: int) -> np.ndarray:
        """``ynew``'s first ``y_size`` elements, growing it if it is
        shorter; ``iter`` is left as it is (a run whose term codes are
        already known never reads it)."""
        if y_size > len(self.ynew):
            grown_new = np.zeros(y_size, dtype=np.float64)
            grown_new[: len(self.ynew)] = self.ynew
            self.ynew = grown_new
        return self.ynew[:y_size]

    def is_clean(self) -> bool:
        """Whether ``iter`` is pristine (all :data:`MAXINT`) — the state the
        postprocessing phase must restore (paper Figure 3)."""
        return bool(np.all(self.iter_arr == MAXINT))

    def dirty_indices(self) -> np.ndarray:
        """Indices where ``iter`` is not pristine (diagnostics for tests)."""
        return np.nonzero(self.iter_arr != MAXINT)[0]

    def scratch_bytes(self) -> int:
        """Memory footprint of the scratch arrays (the quantity §2.3's
        strip-mining variant reduces)."""
        return self.iter_arr.nbytes + self.ynew.nbytes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DoacrossWorkspace(y_size={self.y_size}, "
            f"invocations={self.invocations}, clean={self.is_clean()})"
        )
