"""The distance-elision stage: proof-carrying synchronization elision.

The per-slot dependence tests (:mod:`repro.analysis.deptest`) prove a
lower bound ``min_distance`` on the distance of every cross-iteration
true dependence.  Whenever that bound is at least the synchronization
granularity, the per-element post/wait protocol of §2.2 is overkill: run
iterations in *groups* of ``g <= min_distance`` consecutive iterations
with one barrier between groups, and every renamed read's writer has
already passed a barrier — no ready flag is ever checked or set (after
"Parallelization of Loops with Variable Distance Data Dependences",
arXiv 1311.2927).

The ``distance-elision`` stage of :func:`~repro.passes.plan.plan_loop`
(:func:`plan_distance_elision`) decides the group size per backend and
records the decision — with the verdict's machine-checkable certificate —
in the plan (``Plan.distance_elision``):

strips must not straddle group boundaries, so ``g = c * (min_distance
// c)`` for a strip of ``c`` positions — requires ``c <= min_distance``.
A backend with no ``chunk`` knob has no strips, which is strip 1:
``threaded`` (strips of one position; it swaps flags for barriers) and
``vectorized`` (it widens its wavefront levels to the groups) get
``g = min_distance``; ``multiproc`` gets its chunk aligned down.

:func:`~repro.passes.execute.execute_plan` hands the group size to the
backend as its ``group_sync`` run option; the elision only applies in
natural order (the bound is on iteration numbers) and when the write is
proven injective (concurrent renamed writes to one element would race).
"""

from __future__ import annotations

from repro.passes.spec import OPTION_SUPPORT

__all__ = ["plan_distance_elision"]

#: Backends whose ``run`` takes ``group_sync``.
_GROUP_BACKENDS = ("threaded", "multiproc", "vectorized")


def plan_distance_elision(
    loop,
    backend: str,
    chunk: int | None,
    *,
    natural_order: bool,
    verdict=None,
) -> dict | None:
    """The elision decision for one loop/backend/chunk combination
    under ``verdict`` (default: :func:`repro.analysis.analyze_loop`).

    Returns ``None`` when group-synchronous execution is not provably
    sound (or not supported), else a JSON-safe dict carrying the group
    size and the verdict's proof-backed certificate.
    """
    if not natural_order or backend not in _GROUP_BACKENDS:
        return None
    if verdict is None:
        from repro.analysis import analyze_loop

        verdict = analyze_loop(loop)
    m = verdict.min_distance
    if m is None or m < 2 or not verdict.write_injective:
        return None
    strip = chunk if "chunk" in OPTION_SUPPORT[backend] else 1
    if strip is None or strip > m:
        return None
    group = int(strip) * (int(m) // int(strip))
    if group < 2:
        return None
    return {
        "backend": backend,
        "min_distance": int(m),
        "group": group,
        "verdict": verdict.kind,
        "certificate": {
            "loop": loop.name,
            "min_distance": int(m),
            "slots": [s.as_dict() for s in verdict.slots],
            "proof": verdict.proof.as_dict(),
        },
    }
