"""Static analysis: lint a loop portfolio and race-check a schedule.

The paper's split is compile time vs. run time: the compiler plans the
inspector/executor transform, the dependence *values* only exist once the
index arrays do.  The lint subsystem sits on the compile-time side — it
inspects the loop IR, the transform plan, and a proposed backend schedule
and reports what is wasteful (an inspector for an affine write, a wait
that can never fire, a chunk choice that serializes the wavefront) or
wrong (a schedule that drops a true dependence: a race).

Run:  ``python examples/static_analysis.py``
Lint: ``python -m repro lint examples/static_analysis.py --json``
"""

import numpy as np

import repro
from repro.lint import (
    check_backend_schedule,
    check_dependence_coverage,
    format_diagnostics,
    run_lints,
)


def build_loops() -> dict:
    """The portfolio ``python -m repro lint`` sees for this example."""
    return {
        # Affine write + cross-iteration reads: AFFINE-WRITE territory.
        "affine-write": repro.make_test_loop(n=2000, m=2, l=8),
        # Odd L: terms exist but none is ever true-dependent — DOALL-ABLE.
        "independent": repro.make_test_loop(n=2000, m=2, l=7),
        # Runtime-determined subscripts: the loop the paper is about.
        "irregular": repro.random_irregular_loop(2000, seed=7),
    }


def main() -> None:
    loops = build_loops()

    # --- 1. Lint each loop against a block schedule ---------------------
    for name, loop in loops.items():
        print(f"== {name} ==")
        diagnostics = run_lints(loop, schedule="block", processors=16)
        print(format_diagnostics(diagnostics))
        print()

    # --- 2. Race-check the schedules the backends actually execute ------
    loop = loops["irregular"]
    for backend in ("vectorized", "threaded", "simulated"):
        report = check_backend_schedule(loop, backend, processors=16)
        print(report.summary())

    # --- 3. Prove the checker has teeth: corrupt a placement ------------
    # The runner's placement is plain data (lanes, strip size, barrier
    # cuts).  Swap one true-dependence pair across the level cuts; the
    # edge must now surface as a race.
    from repro.backends.kernel import Placement
    from repro.ir.analysis import dependence_pairs

    pristine = repro.make_runner("vectorized").schedule_model(loop)
    pairs = dependence_pairs(loop)
    writer, reader = int(pairs[0, 0]), int(pairs[0, 1])
    cut = pristine.cut.copy()
    cut[writer], cut[reader] = cut[reader], cut[writer]
    corrupted = Placement.barriers(cut, "corrupted-levels")
    report = check_dependence_coverage(loop, corrupted)
    print()
    print(report.summary())
    assert not report.passed, "the corrupted schedule must be flagged"

    # The pristine placement, read off the executed level cuts, is clean.
    clean = check_dependence_coverage(loop, pristine)
    assert clean.passed
    print("\npristine level placement re-checked: clean")

    # --- 4. validate='static' wires the same check into execution -------
    result, plan = repro.parallelize(
        loop,
        spec=repro.PlanSpec(backend="vectorized", validate="static"),
    )
    assert np.array_equal(result.y, loop.run_sequential())
    print(f"validated run matches the sequential oracle ({plan.strategy})")


if __name__ == "__main__":
    main()
