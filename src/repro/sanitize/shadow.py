"""Shadow-access capture: the per-run container backends log into.

A :class:`ShadowCapture` is attached to the backend
(``runner._san_capture``) by the :class:`~repro.backends.hooks.Sanitize`
run hook for the duration of one ``run()`` call.  Each executing
lane (thread, worker process, simulated processor, the vectorized walk)
obtains its own append-only event list via :meth:`lane` and appends
tuples from the :mod:`~repro.sanitize.events` vocabulary; nothing is
shared between lanes mid-run, so logging needs no locking beyond the
GIL-atomic ``dict.setdefault``/``list.append``.

Worker *processes* cannot share the list: the multiprocessing backend
accumulates events locally and ships them back in its result payload;
the main process merges them with :meth:`ingest`, pid-tagging the lane so
two workers reusing worker-id 0 across pool generations stay distinct.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, List

import numpy as np

from repro.backends.kernel import ACC

__all__ = ["ShadowCapture"]


class ShadowCapture:
    """Per-run shadow log: lane id -> ordered event list, plus metadata
    about the run."""

    def __init__(self) -> None:
        self.lanes: Dict[Hashable, List[tuple]] = {}
        #: Backend-reported facts about the log: ``backend`` (name),
        #: ``pids`` (multiproc: lanes are ``(pid, wid)`` tuples).
        self.meta: Dict[str, Any] = {}

    def lane(self, lane_id: Hashable) -> List[tuple]:
        """Get (or create) the event list for ``lane_id``.

        The returned list is the live log: backends keep a local
        reference and ``append`` directly to it inside the hot loop.
        """
        return self.lanes.setdefault(lane_id, [])

    def ingest(self, lane_id: Hashable, events: List[tuple],
               pid: int | None = None) -> None:
        """Merge an event list produced out-of-process.

        ``pid`` tags the lane id as ``(pid, lane_id)`` so logs from
        distinct OS processes never collide even if they reuse worker
        ids.
        """
        key: Hashable = (pid, lane_id) if pid is not None else lane_id
        self.lanes.setdefault(key, []).extend(events)
        if pid is not None:
            self.meta.setdefault("pids", []).append(pid)

    def total_events(self) -> int:
        """Number of logged events, a span event counted as the reads and
        writes it stands for: one write per iteration, one read per term
        not served by the accumulator."""
        total = 0
        for events in self.lanes.values():
            for ev in events:
                if ev[0] == "s":
                    total += len(ev[1]) + int(np.count_nonzero(ev[2] != ACC))
                else:
                    total += 1
        return total

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        sizes = {k: len(v) for k, v in self.lanes.items()}
        return f"ShadowCapture(lanes={sizes}, meta={self.meta})"
