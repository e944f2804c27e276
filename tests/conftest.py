"""Shared builders for the test suite (seeded, deterministic)."""
import numpy as np
import pytest

from hedgekit import (
    DensityOperator,
    HermitianOperator,
    OutcomeOperators,
    SingleRoundGameSpec,
    SpaceList,
    identity,
    kron,
    outcome_operators_single_round,
)
from hedgekit.sampling import random_density, random_measurement


def random_hermitian(rng, spaces, scale: float = 1.0) -> HermitianOperator:
    if not isinstance(spaces, SpaceList):
        spaces = SpaceList(spaces)
    d = spaces.dim
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return HermitianOperator(spaces, scale * (g + g.conj().T) / 2)


def random_diagonal_density(rng, spaces) -> DensityOperator:
    if not isinstance(spaces, SpaceList):
        spaces = SpaceList(spaces)
    w = rng.random(spaces.dim) + 1e-3
    return DensityOperator(spaces, np.diag(w / w.sum()))


def random_diagonal_measurement(rng, spaces, outcomes: int) -> tuple:
    """A POVM of diagonal effects, for classical games."""
    if not isinstance(spaces, SpaceList):
        spaces = SpaceList(spaces)
    w = rng.random((outcomes, spaces.dim)) + 1e-3
    w /= w.sum(axis=0)
    return tuple(HermitianOperator(spaces, np.diag(w[i])) for i in range(outcomes))


def make_random_game(rng, dq=2, dz=2, dy=2, outcomes=2) -> OutcomeOperators:
    xq = SpaceList((("X1", dq),))
    z = SpaceList((("Z", dz),))
    ya = SpaceList((("Y1", dy),))
    sigma = random_density(rng, xq.concat(z))
    meas = random_measurement(rng, ya.concat(z), outcomes)
    return outcome_operators_single_round(SingleRoundGameSpec(sigma, meas))


def make_random_diagonal_game(rng, dq=2, dz=2, dy=2, outcomes=2) -> OutcomeOperators:
    xq = SpaceList((("X1", dq),))
    z = SpaceList((("Z", dz),))
    ya = SpaceList((("Y1", dy),))
    sigma = random_diagonal_density(rng, xq.concat(z))
    meas = random_diagonal_measurement(rng, ya.concat(z), outcomes)
    return outcome_operators_single_round(SingleRoundGameSpec(sigma, meas))


def make_r2_product_game(rng) -> tuple:
    """Two independent single-round games stacked as a two-round game.

    Returns ``(round-1 game, round-2 game, stacked game)``; the stacked
    optimum for winning both rounds is the product of the two
    single-round optima.
    """
    g1 = make_random_game(rng)
    zb = SpaceList((("Zb", 2),))
    sigma2 = random_density(rng, SpaceList((("X2", 2),)).concat(zb))
    meas2 = random_measurement(rng, SpaceList((("Y2", 2),)).concat(zb), 2)
    g2 = outcome_operators_single_round(SingleRoundGameSpec(sigma2, meas2))
    outcomes = tuple(
        kron(g1.outcomes[i], g2.outcomes[j]) for i in range(2) for j in range(2)
    )
    r2_block = kron(kron(identity(SpaceList((("Y1", 2),))), g1.rho), g2.rho)
    stacked = OutcomeOperators(
        rounds=2,
        spaces=outcomes[0].spaces,
        x_rounds=(("X1",), ("X2",)),
        y_rounds=(("Y1",), ("Y2",)),
        outcomes=outcomes,
        rho=g1.rho,
        r_blocks=(r2_block,),
        outcome_keys=((0, 0), (0, 1), (1, 0), (1, 1)),
    )
    return g1, g2, stacked


def parallel_base(name) -> OutcomeOperators:
    """A single-copy game whose n-fold rounds the tests compare with its
    n-fold game, for each name in ``PARALLEL_CASES``."""
    if name == "hedging":
        from hedgekit import hedging_game

        return hedging_game()
    if name == "three-outcome":
        return make_random_game(np.random.default_rng(7), outcomes=3)
    return make_r2_product_game(np.random.default_rng(1))[2]


PARALLEL_CASES = [("hedging", n) for n in (1, 2, 3, 4)] + [
    (name, n) for name in ("three-outcome", "product") for n in (1, 2)
]


@pytest.fixture(scope="session")
def hedging():
    from hedgekit import hedging_game

    return hedging_game()


@pytest.fixture()
def rng():
    return np.random.default_rng(20110614)
