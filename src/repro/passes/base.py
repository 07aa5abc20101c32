"""The schedule-pass framework: contracts, context, pipeline.

The paper's preprocessing phase (Figure 3) is a pipeline — dependence
discovery, level scheduling, doconsider reordering, chunk selection — but
until this package those stages were hard-wired inside each backend.
Here each stage is a :class:`SchedulePass`: a named transformation from
artifacts to artifacts over a shared :class:`PassContext`, with its
inputs (``requires``) and outputs (``provides``) declared as data.

A :class:`PassPipeline` composes passes and **validates the composition
at construction time**:

- every pass's ``requires`` must be provided by some *earlier* pass
  (seeded artifacts — ``loop``, ``spec`` — are always available);
- every artifact has exactly one provider (two passes claiming to
  provide ``levels`` is a configuration bug, caught before any loop
  runs);
- at run time, a pass writing an artifact it did not declare (or
  failing to write one it did) raises immediately.

Violations raise :class:`PassContractError` — a
:class:`~repro.errors.ScheduleError` naming the pass and the artifact —
so a misassembled pipeline fails loudly at build, not with a mystery
``KeyError`` three passes later.  The contract tests in
``tests/test_passes.py`` pin this behavior, and the reordering test
shows the payoff: any pass order that satisfies the contracts produces
bitwise-identical plans.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.backends.cache import InspectorCache
from repro.errors import ScheduleError
from repro.ir.loop import IrregularLoop
from repro.passes.plan import Plan
from repro.passes.spec import AUTO_BACKEND, PlanSpec

__all__ = [
    "SEED_ARTIFACTS",
    "PassContractError",
    "PassContext",
    "SchedulePass",
    "PassPipeline",
]

#: Artifacts present in every :class:`PassContext` before any pass runs.
SEED_ARTIFACTS = ("loop", "spec")


class PassContractError(ScheduleError):
    """A pass pipeline violates its declared requires/provides contracts.

    Attributes
    ----------
    pass_name:
        The offending pass (empty string for whole-pipeline violations).
    artifact:
        The artifact whose contract was violated.
    """

    def __init__(self, pass_name: str, artifact: str, message: str):
        self.pass_name = pass_name
        self.artifact = artifact
        super().__init__(message)


class PassContext:
    """Shared state one pipeline invocation threads through its passes.

    Seeded with the ``loop`` and the :class:`~repro.passes.spec.PlanSpec`;
    passes read artifacts with :meth:`get` and publish them with
    :meth:`set`.  Writes are checked against the running pass's declared
    ``provides`` (the pipeline arms the check via :attr:`_active`), so a
    pass cannot smuggle out artifacts the build-time validation never saw.
    """

    def __init__(
        self,
        loop: IrregularLoop,
        spec: PlanSpec,
        cache: InspectorCache | None = None,
    ):
        self.loop = loop
        self.spec = spec
        #: Optional :class:`~repro.backends.cache.InspectorCache` — serves
        #: level schedules to the level-schedule pass and inspector records
        #: to the inspector pass, and persists tuner decisions for the
        #: auto-tune pass.
        self.cache = cache
        self._artifacts: dict[str, object] = {"loop": loop, "spec": spec}
        #: Provider bookkeeping: artifact name -> pass name.
        self.providers: dict[str, str] = {a: "<seed>" for a in SEED_ARTIFACTS}
        self._active: "SchedulePass | None" = None

    def __contains__(self, name: str) -> bool:
        return name in self._artifacts

    def get(self, name: str):
        """Read artifact ``name``; a miss is a contract violation (the
        build-time check should have made it impossible)."""
        try:
            return self._artifacts[name]
        except KeyError:
            active = self._active.name if self._active is not None else "?"
            raise PassContractError(
                active,
                name,
                f"pass {active!r} read artifact {name!r} which no earlier "
                f"pass provided — undeclared requirement",
            ) from None

    def set(self, name: str, value) -> None:
        """Publish artifact ``name`` (must be declared in the running
        pass's ``provides``)."""
        active = self._active
        if active is not None and name not in active.provides:
            raise PassContractError(
                active.name,
                name,
                f"pass {active.name!r} wrote artifact {name!r} it did not "
                f"declare in provides={tuple(active.provides)}",
            )
        self._artifacts[name] = value
        self.providers[name] = active.name if active is not None else "<seed>"

    def artifacts(self) -> dict[str, object]:
        """Snapshot of all artifacts (seed values included)."""
        return dict(self._artifacts)


class SchedulePass:
    """One stage of the preprocessing pipeline: artifacts in, artifacts out.

    Subclasses set three class attributes and implement :meth:`run`:

    ``name``
        Stable identifier (appears in plans, CLI audit output, errors).
    ``requires``
        Artifact names that must exist before this pass runs.  Validated
        against earlier passes' ``provides`` at pipeline build.
    ``provides``
        Artifact names this pass publishes.  Every name must be written
        by :meth:`run`; writing anything else raises.

    Passes hold no per-invocation state — all state lives on the
    :class:`PassContext` — so one pass instance is safely shared across
    pipelines and threads.
    """

    name: str = "<unnamed>"
    requires: Sequence[str] = ()
    provides: Sequence[str] = ()

    def run(self, ctx: PassContext) -> None:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<{type(self).__name__} {self.name!r} "
            f"requires={tuple(self.requires)} provides={tuple(self.provides)}>"
        )


class PassPipeline:
    """An ordered, contract-checked composition of :class:`SchedulePass`.

    Construction validates the whole composition (see module docstring);
    :meth:`plan` then runs the passes over a fresh :class:`PassContext`
    and assembles the resulting artifacts into a
    :class:`~repro.passes.plan.Plan` — the single object every backend
    consumes.
    """

    def __init__(self, passes: Iterable[SchedulePass]):
        self.passes: tuple[SchedulePass, ...] = tuple(passes)
        if not self.passes:
            raise PassContractError(
                "", "", "a PassPipeline needs at least one pass"
            )
        available: dict[str, str] = {a: "<seed>" for a in SEED_ARTIFACTS}
        for p in self.passes:
            for req in p.requires:
                if req not in available:
                    raise PassContractError(
                        p.name,
                        req,
                        f"pass {p.name!r} requires artifact {req!r} which no "
                        f"earlier pass provides (available: "
                        f"{', '.join(sorted(available))})",
                    )
            for out in p.provides:
                if out in available:
                    raise PassContractError(
                        p.name,
                        out,
                        f"pass {p.name!r} provides artifact {out!r} already "
                        f"provided by {available[out]!r} — every artifact "
                        f"must have exactly one provider",
                    )
                available[out] = p.name

    # ------------------------------------------------------------------
    def pass_names(self) -> tuple[str, ...]:
        return tuple(p.name for p in self.passes)

    def provided(self) -> set[str]:
        """All artifacts this pipeline produces (seeds excluded)."""
        out: set[str] = set()
        for p in self.passes:
            out.update(p.provides)
        return out

    def plan(
        self,
        loop: IrregularLoop,
        spec: PlanSpec,
        cache: InspectorCache | None = None,
    ) -> Plan:
        """Run every pass over ``loop`` and assemble the :class:`Plan`."""
        ctx = PassContext(loop, spec, cache=cache)
        for p in self.passes:
            ctx._active = p
            p.run(ctx)
            missing = set(p.provides) - set(ctx._artifacts)
            if missing:
                raise PassContractError(
                    p.name,
                    sorted(missing)[0],
                    f"pass {p.name!r} completed without providing declared "
                    f"artifact(s) {sorted(missing)}",
                )
        ctx._active = None
        return self._assemble(ctx)

    def _assemble(self, ctx: PassContext) -> Plan:
        spec = ctx.spec
        arts = ctx.artifacts()
        backend = arts.get("backend", spec.backend)
        if backend == AUTO_BACKEND:
            raise PassContractError(
                "",
                "backend",
                "pipeline finished with backend='auto' unresolved — an "
                "auto spec needs a backend-selecting pass (AutoTunePass)",
            )
        return Plan(
            spec=spec,
            backend=backend,
            fingerprint=arts.get("fingerprint"),
            passes=self.pass_names(),
            levels=arts.get("levels"),
            order=arts.get("order"),
            chunk=arts.get("chunk", spec.chunk),
            tuner=arts.get("tuner"),
            artifacts=arts,
        )
