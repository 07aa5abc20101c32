"""Sparse triangular solves — the paper's §3.2 application.

The dominant cost of preconditioned Krylov solvers is applying the ILU
preconditioner: one forward (lower) and one backward (upper) triangular
solve per iteration.  Their dependence structure lives in the ``column``
array of the sparse format, so a compiler sees nothing — exactly the
preprocessed doacross's home turf.

This example:

1. builds the paper's 5-PT operator (63×63 five-point grid, 3969 eqs);
2. computes the ILU(0) factors ``A ≈ L·U`` with our own factorization;
3. encodes the Figure-7 forward solve as an irregular loop and runs it as
   a preprocessed doacross, in natural order and in doconsider (wavefront)
   order, on 16 simulated processors;
4. completes the full preconditioner application with the backward solve;
5. checks everything against the sequential solves.

Run:  ``python examples/sparse_triangular_solve.py``
"""

import numpy as np

import repro
from repro.graph.levels import compute_levels
from repro.sparse import (
    five_point,
    ilu0,
    lower_solve_loop,
    solve_lower_unit,
    solve_upper,
    upper_solve_loop,
)


def main() -> None:
    # --- the operator and its incomplete factors -----------------------
    A = five_point(63, 63)
    print(f"operator: {A}")
    L, U = ilu0(A)
    print(f"ILU(0) factors: L {L}, U {U}")

    rhs = np.sin(np.arange(A.n_rows) * 0.01) + 1.5

    # --- Figure-7 forward solve as an irregular loop -------------------
    forward = lower_solve_loop(L, rhs, name="5-PT forward")
    levels = compute_levels(forward)
    print(
        f"\nforward-solve dependence DAG: {forward.n} iterations, "
        f"{levels.n_levels} wavefronts, widest {levels.max_width()}"
    )

    runner = repro.PreprocessedDoacross(processors=16)
    natural = runner.run(forward)
    print("\n--- natural iteration order ---")
    print(natural.summary())

    reordered = runner.run(forward, reorder="doconsider")
    print("\n--- doconsider (wavefront) order ---")
    print(reordered.summary())
    print(
        f"\nreordering speeds the solve up by "
        f"{natural.total_cycles / reordered.total_cycles:.2f}x "
        f"(the paper's Table-1 effect)"
    )

    # --- verify against the sequential solve ---------------------------
    y_ref = solve_lower_unit(L, rhs)
    assert np.allclose(natural.y, y_ref, rtol=1e-12)
    assert np.allclose(reordered.y, y_ref, rtol=1e-12)
    print("forward-solve values verified against sequential substitution")

    # --- complete the preconditioner: backward solve -------------------
    backward = upper_solve_loop(U, y_ref, name="5-PT backward")
    back_result = runner.run(backward, reorder="doconsider")
    x_ref = solve_upper(U, y_ref)
    assert np.allclose(back_result.y, x_ref, rtol=1e-10)
    print("\n--- backward (upper) solve, wavefront order ---")
    print(back_result.summary())

    # --- sanity: the preconditioner actually preconditions -------------
    residual = np.abs(A.matvec(x_ref) - rhs).max() / np.abs(rhs).max()
    print(
        f"\none preconditioned Richardson step leaves |A·x − rhs|/|rhs| = "
        f"{residual:.3f} (< 1, so the ILU(0) application contracts the "
        f"residual; a Krylov solver would apply it every iteration)"
    )
    assert residual < 1.0


if __name__ == "__main__":
    main()
