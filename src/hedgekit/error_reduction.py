"""Round planning for error reduction by parallel repetition.

A proof system with completeness ``alpha`` and soundness ``beta`` is
repeated ``n`` times and accepted when at least ``k = floor(c n)``
repetitions accept.  For ``beta < 2^(-H(alpha)/alpha) < alpha`` the
planner tries every admissible rational threshold fraction ``c``, finds
for each an ``n`` at which the Chernoff completeness bound and the
``p^k C(n,k)`` soundness bound both drop below the target error, and
keeps the fraction that needs the fewest rounds.  All tail bounds are
evaluated in log-space.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, ValidationError

_MAX_DENOMINATOR = 64
_COEFFICIENT_MARGIN = 0.01
_SEARCH_CAP = 1 << 62
_MAX_CURVE_SAMPLES = 10**6


def binary_entropy(x: float) -> float:
    """Base-2 entropy of a bit, with the limit convention H(0) = H(1) = 0."""
    x = float(x)
    if not 0.0 <= x <= 1.0:
        raise ValidationError(f"entropy argument must lie in [0, 1], got {x!r}")
    if x in (0.0, 1.0):
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def entropy_threshold(alpha: float) -> float:
    """The curve ``2^(-H(alpha)/alpha)`` separating plannable soundness."""
    if not 0.0 < alpha <= 1.0:
        raise ValidationError(f"alpha must lie in (0, 1], got {alpha!r}")
    return 2.0 ** (-binary_entropy(alpha) / alpha)


def threshold_condition(alpha: float, beta: float) -> bool:
    """True iff ``beta < 2^(-H(alpha)/alpha) < alpha``."""
    alpha, beta = float(alpha), float(beta)
    if not (0.0 <= beta < alpha <= 1.0):
        raise ValidationError(
            f"need 0 <= beta < alpha <= 1, got beta={beta!r}, alpha={alpha!r}"
        )
    t = entropy_threshold(alpha)
    return beta < t < alpha


def completeness_error_bound(p: float, c: float, n: int) -> float:
    """Chernoff bound on seeing at most ``c n`` successes in ``n`` trials
    of rate ``p``: ``exp(-p n (1 - c/p)^2 / 2)``; decreasing in ``n``."""
    p, c = float(p), float(c)
    if not 0.0 < c < p <= 1.0:
        raise ValidationError(f"need 0 < c < p <= 1, got c={c!r}, p={p!r}")
    if n < 0:
        raise ValidationError("round count must be nonnegative")
    lam = 1.0 - c / p
    return math.exp(-p * n * lam * lam / 2.0)


def soundness_error_bound(p: float, n: int, k: int) -> float:
    """``min(1, p^k C(n,k))`` evaluated in log-space."""
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise ValidationError(f"success rate must lie in [0, 1], got {p!r}")
    if not 0 <= k <= n:
        raise ValidationError(f"threshold {k} out of range 0..{n}")
    if k == 0:
        return 1.0
    if p == 0.0:
        return 0.0
    log2_bound = k * math.log2(p) + (
        math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
    ) / math.log(2.0)
    if log2_bound >= 0.0:
        return 1.0
    return 2.0**log2_bound


def binomial_tail(p: float, n: int, k: int) -> float:
    """Probability of at least ``k`` successes in ``n`` independent trials."""
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise ValidationError(f"success rate must lie in [0, 1], got {p!r}")
    if not 0 <= k <= n:
        raise ValidationError(f"threshold {k} out of range 0..{n}")
    return float(
        sum(math.comb(n, t) * p**t * (1.0 - p) ** (n - t) for t in range(k, n + 1))
    )


@dataclass(frozen=True)
class ErrorReductionPlan:
    alpha: float
    beta: float
    epsilon: float
    c_numerator: int
    c_denominator: int
    n: int
    k: int
    completeness_bound: float
    soundness_bound: float
    satisfied: bool

    @property
    def c(self) -> float:
        return self.c_numerator / self.c_denominator

    def __post_init__(self):
        if self.k != (self.c_numerator * self.n) // self.c_denominator:
            raise ValidationError("threshold k must equal floor(c * n)")
        if self.satisfied and not (
            self.completeness_bound <= self.epsilon
            and self.soundness_bound <= self.epsilon
        ):
            raise ValidationError("a satisfied plan must meet both bounds")


def admissible_fractions(alpha: float, beta: float) -> list:
    """Every rational ``c1/c2`` in lowest terms (``c2 <= 64``) below
    ``alpha`` whose soundness decay coefficient ``c lg(beta) + H(c)`` is at
    most ``-_COEFFICIENT_MARGIN``, as ``(c1, c2)`` pairs.

    The coefficient is the large-``n`` slope of ``lg(p^k C(n,k))`` at
    ``k = c n``; it must be negative for the soundness bound to decay.
    """
    lg_beta = -math.inf if beta == 0.0 else math.log2(beta)
    out = [
        (c1, c2)
        for c2 in range(1, _MAX_DENOMINATOR + 1)
        for c1 in range(1, c2)
        if math.gcd(c1, c2) == 1
        and c1 / c2 < alpha
        and (c1 / c2) * lg_beta + binary_entropy(c1 / c2) <= -_COEFFICIENT_MARGIN
    ]
    if not out:
        raise DomainError(
            "no admissible threshold fraction: soundness decay coefficient "
            "stays nonnegative below alpha"
        )
    return out


def _rounds(alpha: float, beta: float, epsilon: float, c1: int, c2: int, cap: int):
    """A repetition count at which both bounds at ``k = floor(c1 n / c2)``
    are at most ``epsilon``, or None once every count the search could
    still return is at least ``cap``.  Doubling plus bisection finds a
    working ``n``.  The floor makes the bounds locally non-monotone, so
    bisection can stop above a working count: the result is the smallest
    working count in ``[n - c2, n]``, one period of the floor's steps."""

    def ok(n: int) -> bool:
        return (
            completeness_error_bound(alpha, c1 / c2, n) <= epsilon
            and soundness_error_bound(beta, n, (c1 * n) // c2) <= epsilon
        )

    hi = 1
    while not ok(hi):
        if hi + 1 - c2 >= cap:  # the bisection and scan below return more
            return None
        hi *= 2
    lo = hi // 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if ok(mid):
            hi = mid
        else:
            lo = mid
    return next(n for n in range(max(1, hi - c2), hi + 1) if ok(n))


def plan_rounds(alpha: float, beta: float, epsilon: float) -> ErrorReductionPlan:
    """A plan whose Chernoff completeness and ``p^k C(n,k)`` soundness
    bounds are both at most ``epsilon``: for each admissible threshold
    fraction ``c1/c2``, a round count found by doubling plus bisection,
    keeping the fraction that needs the fewest rounds (the first such in
    :func:`admissible_fractions` order).  Bisection on the non-monotone
    predicate can stop a few rounds above a working count, so each
    fraction's count is the smallest that meets both bounds among the
    bisection result and the ``c2`` counts below it."""
    alpha, beta, epsilon = float(alpha), float(beta), float(epsilon)
    if not 0.0 < epsilon < 0.5:
        raise ValidationError(f"epsilon must lie in (0, 0.5), got {epsilon!r}")
    if not threshold_condition(alpha, beta):
        raise DomainError(
            f"threshold condition fails: 2^(-H(alpha)/alpha) = "
            f"{entropy_threshold(alpha)!r} does not separate beta={beta!r} "
            f"from alpha={alpha!r}"
        )
    best = None
    for c1, c2 in admissible_fractions(alpha, beta):
        n = _rounds(alpha, beta, epsilon, c1, c2, _SEARCH_CAP if best is None else best[0])
        if n is not None and (best is None or n < best[0]):
            best = (n, c1, c2)
    if best is None:
        raise DomainError("round search exceeded the cap without satisfying the bounds")
    n, c1, c2 = best
    k = (c1 * n) // c2
    return ErrorReductionPlan(
        alpha=alpha,
        beta=beta,
        epsilon=epsilon,
        c_numerator=c1,
        c_denominator=c2,
        n=n,
        k=k,
        completeness_bound=completeness_error_bound(alpha, c1 / c2, n),
        soundness_bound=soundness_error_bound(beta, n, k),
        satisfied=True,
    )


def entropy_curve(x_min: float, x_max: float, step: float):
    """Sampled ``(x, 2^(-H(x)/x))`` curve on a uniform grid.

    Every sample satisfies ``y > x / 3``, which is what makes the
    threshold condition non-vacuous; the curve is monotone increasing
    with ``y(1) = 1``.  The step must give at most 10^6 samples.
    """
    x_min, x_max, step = float(x_min), float(x_max), float(step)
    if not (0.0 < x_min <= x_max <= 1.0):
        raise ValidationError(f"need 0 < x_min <= x_max <= 1, got [{x_min}, {x_max}]")
    if not step > 0.0:
        raise ValidationError(f"step must be positive, got {step!r}")
    span = (x_max - x_min) / step + 1e-9
    if span >= _MAX_CURVE_SAMPLES:
        raise ValidationError(f"step {step!r} gives over {_MAX_CURVE_SAMPLES} samples")
    count = math.floor(span) + 1
    points = []
    for i in range(count):
        x = min(x_min + i * step, x_max)
        y = entropy_threshold(x)
        if y <= x / 3.0:
            raise ValidationError(f"entropy curve dipped below x/3 at x={x!r}")
        points.append((x, y))
    return points
