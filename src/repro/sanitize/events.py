"""Shadow-log event vocabulary.

Backends append tuples to per-lane event lists while executing; the
detector replays them.  Events are plain tuples (not dataclasses) because
the hot executor loops append millions of them — tuple construction is
the cheapest structured record CPython has.

Events (the first field is the kind tag):

``("r", iteration, element, src)``
    A read of ``y``/``ynew`` element ``element`` performed by
    ``iteration``.  ``src`` is :data:`SRC_OLD` (the untouched input
    vector — paper Figure 5's ``y[idx]`` branch) or :data:`SRC_NEW` (the
    renamed ``ynew`` vector, which is only safe after the writer's post).
``("w", iteration, element)``
    The iteration's single renamed write ``ynew[element] = acc``.
``("p", token)``
    A post: the lane published token ``token`` (for real backends the
    token is the written element whose ``ready`` flag was set).
``("a", token)``
    An acquire: the lane observed token ``token`` as posted before
    proceeding (a completed busy-wait, a chunk handoff).
``("b", generation)``
    The lane arrived at global barrier generation ``generation`` — a
    rendezvous of *all* lanes (the threaded backend's inspector/executor
    phase barrier).
``("s", its, codes)``
    A span: the lane walked :func:`~repro.backends.kernel.run_span` over
    iterations ``its`` with term codes ``codes`` and no wait or post — the
    vectorized backend's one event.  It stands for the reads and writes
    :func:`~repro.backends.kernel.span_events` lists, which the detector
    expands it into.
"""

from __future__ import annotations

__all__ = [
    "EV_READ",
    "EV_WRITE",
    "EV_POST",
    "EV_ACQUIRE",
    "EV_BARRIER",
    "EV_SPAN",
    "SRC_OLD",
    "SRC_NEW",
]

EV_READ = "r"
EV_WRITE = "w"
EV_POST = "p"
EV_ACQUIRE = "a"
EV_BARRIER = "b"
EV_SPAN = "s"

#: The read came from the untouched input vector ``y`` (old value).
SRC_OLD = 0
#: The read came from the renamed output vector ``ynew`` (new value).
SRC_NEW = 1
