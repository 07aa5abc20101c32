"""Preconditioned conjugate gradients — the paper's motivating application.

Section 3.2 motivates the Table-1 experiment in one sentence: "The solution
of these sparse triangular systems accounts for a large fraction of the
sequential execution time of linear solvers that use Krylov methods."
This example makes the whole chain concrete:

1. solve a 63×63 five-point Poisson-like system with CG, unpreconditioned
   and with ILU(0) — the preconditioner slashes iterations but every
   iteration now contains two triangular solves;
2. measure what fraction of sequential solver time those solves consume
   (the paper's claim, as a number);
3. swap in a preconditioner whose substitutions run as doconsider-reordered
   preprocessed doacross loops on 16 simulated processors (amortizing the
   inspector across iterations is `PreprocessedDoacross.run_amortized`,
   ablation G) — and measure the *whole-solver* speedup
   (the Amdahl payoff the paper is after).

Run:  ``python examples/preconditioned_krylov.py``
"""

import numpy as np

from repro import PreprocessedDoacross
from repro.sparse import IluPreconditioner, cg, five_point


def main() -> None:
    A = five_point(63, 63)
    rng = np.random.default_rng(17)
    b = rng.normal(size=A.n_rows)
    print(f"system: {A}")

    # --- 1. plain vs ILU(0)-preconditioned CG ---------------------------
    x_plain, rep_plain = cg(A, b, tol=1e-8)
    print(f"\nplain CG:          {rep_plain.summary()}")

    seq_pc = IluPreconditioner(A)
    x_ilu, rep_ilu = cg(A, b, preconditioner=seq_pc, tol=1e-8)
    print(f"ILU(0) CG (seq):   {rep_ilu.summary()}")
    print(
        f"\nILU(0) cuts iterations {rep_plain.iterations} → "
        f"{rep_ilu.iterations}, and triangular solves now take "
        f"{rep_ilu.precond_fraction:.0%} of sequential solver time — "
        f"the paper's 'large fraction'."
    )
    np.testing.assert_allclose(A.matvec(x_ilu), b, atol=1e-6)

    # --- 2. parallelize the triangular solves ---------------------------
    runner = PreprocessedDoacross(processors=16, reorder="doconsider")
    par_pc = IluPreconditioner(A, runner=runner)
    x_par, rep_par = cg(A, b, preconditioner=par_pc, tol=1e-8)
    print(f"\nILU(0) CG (par):   {rep_par.summary()}")

    np.testing.assert_allclose(x_par, x_ilu, rtol=1e-10)
    print("\nparallel and sequential preconditioning give identical solves")

    solve_speedup = rep_ilu.precond_cycles / rep_par.precond_cycles
    total_speedup = rep_ilu.total_cycles / rep_par.total_cycles
    print(
        f"\ntriangular-solve speedup: {solve_speedup:.2f}x "
        f"(preprocessed doacross, doconsider order, 16 processors)\n"
        f"whole-solver speedup:     {total_speedup:.2f}x "
        f"(Amdahl: matvec and vector ops stay sequential here)"
    )
    print(
        f"parallelized solves now take {rep_par.precond_fraction:.0%} of "
        f"solver time (was {rep_ilu.precond_fraction:.0%})"
    )


if __name__ == "__main__":
    main()
