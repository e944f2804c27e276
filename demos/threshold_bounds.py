"""Upper bounds for winning at least k of n repetitions.

Compares the witness menu on the bundled hedging game: the naive
sum-of-words bound, the sharper recursive bound with value p^k C(n,k),
and the exact binomial law that survives on classical (diagonal) games.
Also spot-checks the positivity transfer behind the threshold bounds.

Run: python demos/threshold_bounds.py
"""
import numpy as np

from hedgekit import (
    check_dual_feasibility,
    classical_optimum,
    compile_primal,
    dephase_game,
    parallel_game,
    solve,
    threshold_objective,
    verify_monotone_inequality,
)
from hedgekit.error_reduction import binomial_tail
from hedgekit.hedging import WIN_PROBABILITY, hedging_game, hedging_optimal_witness
from hedgekit.sampling import random_monotone_instance
from hedgekit.witnesses import (
    single_round_witness,
    witness_classical_binomial,
    witness_naive,
    witness_recursive_snk,
)

p = WIN_PROBABILITY
game = hedging_game()
witness = hedging_optimal_witness()

print("=" * 72)
print("Certified bounds for the threshold problems (hedging game, p = cos^2(pi/8))")
print("=" * 72)
print(f"\n{'n':>2} {'k':>2} {'solver':>12} {'binomial':>12} {'p^k C(n,k)':>12} {'naive':>12}")
for n, k in ((2, 1), (2, 2), (3, 2), (4, 1), (4, 2), (4, 3), (4, 4)):
    doubled = parallel_game(game, n)
    objective = threshold_objective(game, n, k)
    opt = solve(compile_primal(doubled, objective), tol=1e-8).primal_value
    snk = witness_recursive_snk(witness, game, n, k)
    naive = witness_naive(witness, game, n, k)
    for w in (snk, naive):
        feas = check_dual_feasibility(doubled, objective, w, 1e-9)
        assert feas.feasible
    tail = binomial_tail(p, n, k)
    print(f"{n:>2} {k:>2} {opt:>12.7f} {tail:>12.7f} {snk.value:>12.7f} {naive.value:>12.7f}")

print("\nThe binomial column is NOT an upper bound in general: at n=2, k=1 the")
print("solver reaches 1.0 > 0.9786.  The certified bounds are the last two")
print("columns, and p^k C(n,k) is the sharper of the pair (it exceeds 1 where")
print("k is small).  Pairing copies with the perfect hedge wins k <= n/2 surely,")
print("and k = n is multiplicative (p^n); the n=4, k=3 optimum has no closed form")
print("in the paper.  At n >= 3 the solver works in the S_n-reduced blocks.")

# -- the classical case ----------------------------------------------------------
print("\n" + "-" * 72)
print("Dephasing the game restores the binomial law")
print("-" * 72)
classical = dephase_game(game)
pc = classical_optimum(classical)
print(f"classical single-round optimum (enumerated): {pc:.6f}")
doubled = parallel_game(classical, 2)
opt = solve(compile_primal(doubled, threshold_objective(classical, 2, 1)), tol=1e-8)
print(f"classical 2-rep k=1 optimum (solver)        : {opt.primal_value:.6f}")
print(f"binomial tail at p_c                        : {binomial_tail(pc, 2, 1):.6f}")

base = single_round_witness(classical, classical.outcomes[1])
wcb = witness_classical_binomial(base, classical, 2, 1)
feas = check_dual_feasibility(doubled, threshold_objective(classical, 2, 1), wcb, 1e-9)
print(f"clamped diagonal witness                    : {feas.value:.6f} "
      f"(feasible={feas.feasible})")

# -- the positivity transfer ------------------------------------------------------
print("\n" + "-" * 72)
print("The engine behind the bounds: monotone positivity transfer")
print("-" * 72)
rng = np.random.default_rng(11)
a0, a1, r = random_monotone_instance(rng, 2)
for n, k in ((1, 1), (2, 1), (3, 2)):
    ok, lo = verify_monotone_inequality(a0, a1, r, n, k)
    print(f"  n={n} k={k}: shifting mass from the losing to the winning slot keeps "
          f"the word sum dominated (min eig {lo:+.2e}, holds={ok})")
