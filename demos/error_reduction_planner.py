"""Planning error reduction for interactive proofs by parallel repetition.

Given completeness alpha and soundness beta with
beta < 2^(-H(alpha)/alpha), repeating the proof n times and accepting at
threshold floor(c n) drives both errors below any epsilon in O(log 1/eps)
rounds.  This walk-through sizes the plans, each with the admissible
threshold fraction that needs the fewest rounds, and emits the threshold
curve as CSV.

Run: python demos/error_reduction_planner.py
"""
from hedgekit import (
    binary_entropy,
    completeness_error_bound,
    entropy_curve,
    entropy_threshold,
    plan_rounds,
    soundness_error_bound,
    threshold_condition,
)

alpha, beta = 0.9, 0.05

print("=" * 72)
print(f"Error reduction for alpha = {alpha}, beta = {beta}")
print("=" * 72)

threshold = entropy_threshold(alpha)
print(f"\nH({alpha}) = {binary_entropy(alpha):.6f}")
print(f"2^(-H(alpha)/alpha) = {threshold:.6f}")
print(f"Condition beta < {threshold:.4f} < alpha: {threshold_condition(alpha, beta)}")
print("(The curve stays above x/3, so beta < alpha/3 always qualifies.)")

print(f"\n{'epsilon':>10} {'rounds n':>10} {'threshold k':>12} "
      f"{'completeness':>13} {'soundness':>12}")
for eps in (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6):
    plan = plan_rounds(alpha, beta, eps)
    print(f"{eps:>10.0e} {plan.n:>10} {plan.k:>12} "
          f"{plan.completeness_bound:>13.2e} {plan.soundness_bound:>12.2e}")

plan = plan_rounds(alpha, beta, 1e-3)
print(f"\nChosen threshold fraction: c = {plan.c_numerator}/{plan.c_denominator} "
      f"= {plan.c:.6f}")
print("(of the fractions below alpha with a negative soundness decay coefficient,")
print(" the one that needs the fewest rounds)")
print("Re-verification at the returned n:")
print(f"  completeness bound {completeness_error_bound(alpha, plan.c, plan.n):.3e}")
print(f"  soundness bound    {soundness_error_bound(beta, plan.n, plan.k):.3e}")
print("Rounds double when epsilon squares: the O(log 1/eps) law, executably.")

points = entropy_curve(0.05, 1.0, 0.05)
print("\nThreshold curve 2^(-H(x)/x) (CSV, also via `hedgekit plot-entropy`):")
print("x,y")
for x, y in points:
    print(f"{x:.12g},{y:.12g}")
