"""Quickstart: parallelize a loop with runtime-determined dependencies.

This walks the paper's core story end to end:

1. build the Figure-4 test loop (``y(a(i)) += Σ val(j)·y(b(i)+nbrs(j))``)
   whose dependence structure is invisible until the arrays exist;
2. run it as a **preprocessed doacross** on a simulated 16-processor
   shared-memory machine — inspector, executor, postprocessor;
3. verify the parallel result equals the sequential loop exactly;
4. compare against the baselines: doall (only sound when independent) and
   the §2.3 linear-subscript variant (no inspector);
5. let :func:`repro.parallelize` pick the strategy automatically.

Run:  ``python examples/quickstart.py``
"""

import numpy as np

import repro


def main() -> None:
    # --- 1. A loop the compiler cannot analyze -------------------------
    # L=8 gives true dependencies of distance 3 (j=1), an intra-iteration
    # reference (j=4 would be, but M=2 stops earlier), and antidependencies.
    loop = repro.make_test_loop(n=4000, m=2, l=8)
    print(f"loop: {loop}")
    print(f"sequential cycles: {repro.sequential_time(loop, repro.CostModel())}")

    # --- 2. Preprocessed doacross on 16 simulated processors -----------
    runner = repro.PreprocessedDoacross(processors=16)
    result = runner.run(loop)
    print("\n--- preprocessed doacross ---")
    print(result.summary())

    # --- 3. Exact semantic equivalence ----------------------------------
    reference = loop.run_sequential()
    assert np.allclose(result.y, reference, rtol=1e-12)
    print("values match the sequential oracle exactly")

    # --- 4. Variants and baselines --------------------------------------
    print("\n--- linear-subscript variant (no inspector, paper §2.3) ---")
    linear = runner.run(loop, linear=True)
    print(linear.summary())

    print("\n--- strip-mined variant (block = 500, paper §2.3) ---")
    stripmined = runner.run_stripmined(loop, block=500)
    print(stripmined.summary())

    independent = repro.make_test_loop(n=4000, m=2, l=7)  # odd L: no deps
    print("\n--- doall on the dependence-free (odd L) configuration ---")
    doall = runner.runner().run_doall(independent)  # same machine
    print(doall.summary())
    overhead = repro.PreprocessedDoacross(processors=16).run(independent)
    print(
        f"doacross machinery costs a factor "
        f"{overhead.total_cycles / doall.total_cycles:.2f} over doall here — "
        f"that gap is the paper's Figure-6 efficiency plateau"
    )

    # --- 5. Automatic strategy selection --------------------------------
    print("\n--- parallelize(): the compiler's choice ---")
    auto_result, plan = repro.parallelize(loop, processors=16)
    print(f"chosen plan: {plan.describe()}")
    assert np.allclose(auto_result.y, reference, rtol=1e-12)
    print("auto-parallelized values verified")


def build_loops() -> dict:
    """Expose this example's loops to ``python -m repro lint``."""
    return {
        "quickstart-figure4": repro.make_test_loop(n=4000, m=2, l=8),
        "quickstart-independent": repro.make_test_loop(n=4000, m=2, l=7),
    }


if __name__ == "__main__":
    main()
