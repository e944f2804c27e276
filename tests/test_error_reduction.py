import math

import numpy as np
import pytest

from hedgekit import (
    ErrorReductionPlan,
    binary_entropy,
    binomial_tail,
    completeness_error_bound,
    entropy_curve,
    entropy_threshold,
    plan_rounds,
    soundness_error_bound,
    threshold_condition,
)
from hedgekit.errors import DomainError, ValidationError


# -------------------------------------------------------------- binary entropy


def test_entropy_values():
    assert binary_entropy(0.5) == pytest.approx(1.0)
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    direct = -0.9 * math.log2(0.9) - 0.1 * math.log2(0.1)
    assert binary_entropy(0.9) == pytest.approx(direct, abs=1e-15)
    assert binary_entropy(0.9) == pytest.approx(0.468996, abs=1e-6)


def test_entropy_symmetric():
    for x in np.linspace(0.01, 0.99, 25):
        assert binary_entropy(x) == pytest.approx(binary_entropy(1 - x), abs=1e-12)


def test_entropy_domain():
    with pytest.raises(ValidationError):
        binary_entropy(1.2)


# --------------------------------------------------------- threshold condition


def test_condition_examples():
    assert threshold_condition(0.9, 0.05) is True
    assert entropy_threshold(0.9) == pytest.approx(0.697, abs=5e-4)
    assert threshold_condition(0.6, 0.59) is False
    assert entropy_threshold(0.6) == pytest.approx(0.3257301, abs=1e-6)


def test_condition_holds_below_a_third():
    # 2^(-H(a)/a) > a/3 makes beta < alpha / 3 always sufficient.
    for alpha in np.linspace(0.05, 0.99, 40):
        beta = alpha / 3 * 0.999
        assert threshold_condition(alpha, beta) is True


def test_condition_ordering_validated():
    with pytest.raises(ValidationError):
        threshold_condition(0.5, 0.6)


# ------------------------------------------------------------------ chernoff


def test_completeness_examples():
    assert completeness_error_bound(0.9, 0.5, 0) == pytest.approx(1.0)
    assert completeness_error_bound(1.0, 0.5, 8) == pytest.approx(math.exp(-1.0))


def test_completeness_halving_period():
    # the bound halves at least every ceil(2 ln 2 / (p (1-c/p)^2)) rounds
    p, c = 0.8, 0.4
    rate = p * (1 - c / p) ** 2 / 2
    period = math.ceil(math.log(2) / rate)
    for n in (0, 7, 40):
        assert completeness_error_bound(p, c, n + period) <= (
            completeness_error_bound(p, c, n) / 2 + 1e-15
        )


def test_completeness_rejects_c_at_least_p():
    with pytest.raises(ValidationError):
        completeness_error_bound(0.5, 0.5, 4)


# ------------------------------------------------------------------ soundness


def test_soundness_examples():
    assert soundness_error_bound(0.5, 4, 3) == pytest.approx(0.5)
    assert soundness_error_bound(0.3, 10, 0) == 1.0
    assert soundness_error_bound(0.0, 10, 3) == 0.0


def test_soundness_log_space_extreme():
    val = soundness_error_bound(0.05, 100, 50)
    assert 0.0 < val < 1e-20
    cap = 2.0 ** (100 * (0.5 * math.log2(0.05) + 1.0))
    assert val <= cap


def test_soundness_never_exceeds_one():
    for p in (0.2, 0.7, 1.0):
        for n in (1, 5, 30):
            for k in range(n + 1):
                assert 0.0 <= soundness_error_bound(p, n, k) <= 1.0


def test_soundness_eventually_decreasing_when_coefficient_negative():
    beta, c1, c2 = 0.05, 53, 59
    c = c1 / c2
    assert c * math.log2(beta) + binary_entropy(c) < 0
    vals = [soundness_error_bound(beta, n, (c1 * n) // c2) for n in range(200, 260)]
    assert vals[-1] < vals[0]


def test_soundness_index_range():
    with pytest.raises(ValidationError):
        soundness_error_bound(0.5, 4, 5)


# ------------------------------------------------------------------- planning


def test_plan_satisfied_and_reverified():
    plan = plan_rounds(0.9, 0.05, 1e-2)
    assert plan.satisfied
    assert plan.k == (plan.c_numerator * plan.n) // plan.c_denominator
    assert completeness_error_bound(0.9, plan.c, plan.n) <= 1e-2
    assert soundness_error_bound(0.05, plan.n, plan.k) <= 1e-2
    assert plan.c < 0.9


def test_plan_picks_the_fraction_needing_few_rounds():
    # the largest admissible fraction below alpha (53/59) needs millions
    plan = plan_rounds(0.9, 0.05, 1e-3)
    assert plan.n <= 40
    assert completeness_error_bound(0.9, plan.c, plan.n) <= 1e-3
    assert soundness_error_bound(0.05, plan.n, plan.k) <= 1e-3


def test_plan_scans_below_the_bisection_result():
    # bisection stops at 145 rounds for c = 6/17, which already works at 136
    plan = plan_rounds(0.6, 0.144, 1e-3)
    assert plan.n <= 136
    assert completeness_error_bound(0.6, plan.c, plan.n) <= 1e-3
    assert soundness_error_bound(0.144, plan.n, plan.k) <= 1e-3


def test_plan_log_growth():
    n2 = plan_rounds(0.9, 0.05, 1e-2).n
    n4 = plan_rounds(0.9, 0.05, 1e-4).n
    assert n4 <= 2 * n2 + 64


def test_plan_loose_epsilon():
    plan = plan_rounds(0.9, 0.05, 0.49)
    assert plan.satisfied
    assert plan.n <= plan_rounds(0.9, 0.05, 1e-3).n


def test_plan_requires_condition():
    with pytest.raises(DomainError):
        plan_rounds(0.6, 0.59, 1e-3)


def test_plan_epsilon_range():
    with pytest.raises(ValidationError):
        plan_rounds(0.9, 0.05, 0.6)


def test_plan_invariants_enforced():
    with pytest.raises(ValidationError):
        ErrorReductionPlan(
            alpha=0.9,
            beta=0.05,
            epsilon=0.01,
            c_numerator=1,
            c_denominator=2,
            n=10,
            k=7,  # != floor(0.5 * 10)
            completeness_bound=0.001,
            soundness_bound=0.001,
            satisfied=True,
        )


# ---------------------------------------------------------------- entropy curve


def test_curve_endpoints():
    points = entropy_curve(1.0, 1.0, 0.1)
    assert points[0] == (1.0, pytest.approx(1.0))
    mid = entropy_curve(0.5, 0.5, 0.1)
    assert mid[0][1] == pytest.approx(0.25)


def test_curve_above_a_third_and_monotone():
    points = entropy_curve(0.01, 0.99, 0.01)
    xs = [x for x, _ in points]
    ys = [y for _, y in points]
    assert len(points) == 99
    assert all(y > x / 3 for x, y in points)
    assert all(b > a for a, b in zip(ys, ys[1:]))
    assert xs[0] == pytest.approx(0.01) and xs[-1] == pytest.approx(0.99)


def test_curve_range_validation():
    with pytest.raises(ValidationError):
        entropy_curve(0.0, 0.5, 0.1)
    with pytest.raises(ValidationError):
        entropy_curve(0.5, 0.4, 0.1)


@pytest.mark.parametrize("step", [float("nan"), 1e-320, 1e-12, 0.4 / 1_000_001, -0.1, 0.0])
def test_curve_refuses_unusable_steps(step):
    # NaN, a step whose grid overflows, and grids past 10^6 samples are
    # refused before the first sample is drawn.
    with pytest.raises(ValidationError, match="step"):
        entropy_curve(0.5, 0.9, step)


# ------------------------------------------------------------------- binomial


def test_binomial_tail_basics():
    assert binomial_tail(0.5, 2, 1) == pytest.approx(0.75)
    assert binomial_tail(0.3, 5, 0) == pytest.approx(1.0)
    p = math.cos(math.pi / 8) ** 2
    assert binomial_tail(p, 2, 1) == pytest.approx(1 - (1 - p) ** 2, abs=1e-15)
