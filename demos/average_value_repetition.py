"""Average value per repetition cannot be improved by correlation.

Samples a random single-round game, assigns values to its outcomes, and
compares the one-shot optimum v against the two-fold optimum v' of the
average value per repetition.  The symmetrized dual witness pins v' to v.

Run: python demos/average_value_repetition.py
"""
import numpy as np

from hedgekit import (
    SingleRoundGameSpec,
    check_dual_feasibility,
    compile_primal,
    outcome_operators_single_round,
    parallel_rounds,
    solve,
    space,
    value_objective,
)
from hedgekit.sampling import random_density, random_measurement
from hedgekit.witnesses import single_round_witness, witness_average

rng = np.random.default_rng(7)

print("=" * 72)
print("Average-value parallel repetition: v = v'")
print("=" * 72)

for trial in range(3):
    outcomes = int(rng.integers(2, 4))
    spec = SingleRoundGameSpec(
        random_density(rng, space(("X1", 2), ("Z", 2))),
        random_measurement(rng, space(("Y1", 2), ("Z", 2)), outcomes),
    )
    game = outcome_operators_single_round(spec)
    values = tuple(round(float(v), 3) for v in rng.random(outcomes))
    print(f"\ntrial {trial}: {outcomes} outcomes, values {values}")

    one = solve(compile_primal(game, value_objective(game, values, 1)), tol=1e-8)
    print(f"  v  (one repetition)  = {one.primal_value:.9f}")

    doubled = parallel_rounds(game, 2)
    two = solve(compile_primal(doubled, value_objective(game, values, 2)), tol=1e-8)
    print(f"  v' (two repetitions) = {two.primal_value:.9f}")
    print(f"  |v - v'|             = {abs(one.primal_value - two.primal_value):.2e}")

    base = single_round_witness(game, value_objective(game, values, 1))
    lifted = witness_average(base, game, 2, values=values)
    feas = check_dual_feasibility(doubled, value_objective(game, values, 2), lifted, 1e-9)
    print(f"  averaged witness     : trace {feas.value:.9f}, feasible={feas.feasible}")
    print("  (one witness factor per slot, padded with the game's marginal;")
    print("   its trace equals the single-round optimum, certifying v' <= v)")
