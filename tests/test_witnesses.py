import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from hedgekit import (
    DualWitness,
    group_outcomes,
    check_dual_feasibility,
    classical_optimum,
    compile_primal,
    dephase,
    dephase_game,
    parallel_game,
    parallel_rounds,
    single_round_witness,
    solve,
    space,
    threshold_objective,
    value_objective,
    verify_monotone_inequality,
    witness_average,
    witness_classical_binomial,
    witness_naive,
    witness_recursive_snk,
    witness_tensor_power,
)
from hedgekit.error_reduction import binomial_tail
from hedgekit.errors import DomainError, ValidationError
from hedgekit.hedging import (
    WIN_PROBABILITY,
    hedging_game,
    hedging_optimal_witness,
)
from hedgekit.operators import HermitianOperator
from hedgekit.sampling import random_monotone_instance, random_psd
from hedgekit.witnesses import elementwise_min

from conftest import make_r2_product_game, make_random_diagonal_game, make_random_game

P = WIN_PROBABILITY


@pytest.fixture(scope="module")
def w_opt():
    return hedging_optimal_witness()


@pytest.fixture(scope="module")
def game():
    return hedging_game()


@pytest.fixture(scope="module")
def game2(game):
    return parallel_game(game, 2)


# ------------------------------------------------------------------- average


def test_average_passthrough_at_n1(game, w_opt):
    w = witness_average(w_opt, game, 1, values=(0.0, 1.0))
    assert_allclose(w.Y.entries, w_opt.Y.entries)
    assert w.value == pytest.approx(w_opt.value)


def test_average_two_reps_feasible_with_same_trace(game, game2, w_opt):
    w = witness_average(w_opt, game, 2, values=(0.0, 1.0))
    assert w.value == pytest.approx(w_opt.value, abs=1e-12)
    feas = check_dual_feasibility(game2, value_objective(game, (0.0, 1.0), 2), w, 1e-9)
    assert feas.feasible


def test_average_rejects_infeasible_input(game):
    too_small = DualWitness(Y=0.5 * hedging_optimal_witness().Y)
    with pytest.raises(DomainError):
        witness_average(too_small, game, 2, values=(0.0, 1.0))


# -------------------------------------------------------------- tensor power


def test_tensor_power_passthrough_at_n1(game, w_opt):
    w = witness_tensor_power(w_opt, 1, game)
    assert_allclose(w.Y.entries, w_opt.Y.entries)


def test_tensor_power_value_and_feasibility(game, game2, w_opt):
    w = witness_tensor_power(w_opt, 2, game)
    assert w.value == pytest.approx(P**2, abs=1e-12)
    feas = check_dual_feasibility(game2, threshold_objective(game, 2, 2), w, 1e-9)
    assert feas.feasible


def test_tensor_power_matches_solver_optimum(game, game2, w_opt):
    rep = solve(compile_primal(game2, threshold_objective(game, 2, 2)), 1e-8)
    w = witness_tensor_power(w_opt, 2, game)
    assert rep.primal_value == pytest.approx(w.value, abs=1e-5)


def test_tensor_power_bounds_the_n4_optimum_at_tight_tol(game, w_opt):
    # The paper's k = n case at n = 4: the solver reaches p^4 at tol 1e-10
    # and the tensor-power witness certifies it from above.
    tol = 1e-10
    rounds = parallel_rounds(game, 4)
    objective = threshold_objective(game, 4, 4)
    rep = solve(compile_primal(rounds, objective), tol)
    assert rep.status == "optimal"
    assert abs(rep.primal_value - P**4) <= 10 * tol
    feas = check_dual_feasibility(rounds, objective, witness_tensor_power(w_opt, 4, game), 1e-9)
    assert feas.feasible
    assert feas.value == pytest.approx(P**4, abs=1e-12)
    assert rep.primal_value <= feas.value


# --------------------------------------------------------------------- naive


def test_naive_value_formula(game, game2, w_opt):
    w = witness_naive(w_opt, game, 2, 1)
    assert w.value == pytest.approx(2 * P + P**2, abs=1e-12)
    feas = check_dual_feasibility(game2, threshold_objective(game, 2, 1), w, 1e-9)
    assert feas.feasible
    assert min(feas.constraint_min_eigenvalues) >= -1e-9


def test_naive_k0_binomial_identity(game, w_opt):
    for n in (1, 2):
        w = witness_naive(w_opt, game, n, 0)
        assert w.value == pytest.approx((1 + P) ** n, abs=1e-12)


# ----------------------------------------------------------------- recursive


def test_snk_base_cases(game, w_opt):
    w0 = witness_recursive_snk(w_opt, game, 2, 0)
    assert w0.value == pytest.approx(1.0, abs=1e-12)
    wn = witness_recursive_snk(w_opt, game, 2, 2)
    wt = witness_tensor_power(w_opt, 2, game)
    assert_allclose(wn.Y.entries, wt.Y.entries, atol=1e-14)


def test_snk_hedging_value(game, game2, w_opt):
    w = witness_recursive_snk(w_opt, game, 2, 1)
    assert w.value == pytest.approx(2 * P, abs=1e-10)
    feas = check_dual_feasibility(game2, threshold_objective(game, 2, 1), w, 1e-9)
    assert feas.feasible


def test_snk_n3_values_and_feasibility(game, w_opt):
    game3 = parallel_game(game, 3)
    for k in (1, 2):
        w = witness_recursive_snk(w_opt, game, 3, k)
        assert w.value == pytest.approx(P**k * math.comb(3, k), abs=1e-10)
        feas = check_dual_feasibility(game3, threshold_objective(game, 3, k), w, 1e-9)
        assert feas.feasible


def test_witness_value_ordering_on_p_grid():
    # binomial tail <= p^k C(n,k) <= sum_{t>=k} C(n,t) p^t for k >= 1.
    for p in np.linspace(0.0, 1.0, 21):
        for n in (1, 2, 3, 4):
            for k in range(1, n + 1):
                tail = binomial_tail(p, n, k)
                middle = p**k * math.comb(n, k)
                naive = sum(math.comb(n, t) * p**t for t in range(k, n + 1))
                assert tail <= middle + 1e-12
                assert middle <= naive + 1e-12


# ------------------------------------------------------------------ classical


def test_classical_binomial_requires_diagonal_game(game, w_opt):
    with pytest.raises(DomainError):
        witness_classical_binomial(w_opt, game, 2, 1)


def test_classical_binomial_matches_solver(rng):
    g = make_random_diagonal_game(rng)
    w0 = single_round_witness(g, g.outcomes[1])
    w = witness_classical_binomial(w0, g, 2, 1)
    pg = parallel_game(g, 2)
    feas = check_dual_feasibility(pg, threshold_objective(g, 2, 1), w, 1e-9)
    assert feas.feasible
    pc = classical_optimum(g)
    # the clamp cannot push the optimal diagonal witness below the game value
    assert w.meta["p_clamped"] == pytest.approx(pc, abs=1e-7)
    assert feas.value == pytest.approx(binomial_tail(pc, 2, 1), abs=1e-6)
    rep = solve(compile_primal(pg, threshold_objective(g, 2, 1)), 1e-8)
    assert rep.primal_value == pytest.approx(feas.value, abs=1e-6)


def test_dephasing_preserves_trace(rng):
    y = random_psd(rng, space(("A", 3)))
    assert dephase(y).trace() == pytest.approx(y.trace(), abs=1e-12)


def test_clamp_idempotent(rng):
    a = HermitianOperator(space(("A", 3)), np.diag(rng.random(3)))
    b = HermitianOperator(space(("A", 3)), np.diag(rng.random(3)))
    once = elementwise_min(a, b)
    twice = elementwise_min(once, b)
    assert_allclose(once.entries, twice.entries)


def test_clamp_refuses_commuting_nondiagonal_pair(rng):
    # the clamp serves dephased witnesses of diagonal games only: a pair
    # that commutes but is not diagonal is refused, not rotated
    basis = np.linalg.qr(
        rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    )[0]
    a = HermitianOperator(space(("A", 3)), basis @ np.diag(rng.random(3)) @ basis.conj().T)
    b = HermitianOperator(space(("A", 3)), basis @ np.diag(rng.random(3)) @ basis.conj().T)
    with pytest.raises(DomainError, match="not both diagonal"):
        elementwise_min(a, b)


def test_clamp_refuses_noncommuting(rng):
    a = HermitianOperator(space(("A", 2)), np.array([[1.0, 0.5], [0.5, 0.0]]))
    b = HermitianOperator(space(("A", 2)), np.diag([1.0, 0.0]))
    with pytest.raises(DomainError):
        elementwise_min(a, b)


# ------------------------------------------------------- monotone inequality


def test_monotone_base_cases(rng):
    a0, a1, r = random_monotone_instance(rng, 2)
    ok, lo = verify_monotone_inequality(a0, a1, r, 1, 0)
    assert ok and abs(lo) <= 1e-12  # difference vanishes identically
    ok, lo = verify_monotone_inequality(a0, a1, r, 1, 1)
    assert ok
    r_min = float(np.linalg.eigvalsh(r.entries)[0])
    assert lo == pytest.approx(r_min, abs=1e-10)


def test_monotone_fuzz(rng):
    for _ in range(60):
        dim = int(rng.integers(2, 4))
        n = int(rng.integers(1, 4))
        k = int(rng.integers(0, n + 1))
        a0, a1, r = random_monotone_instance(rng, dim)
        ok, lo = verify_monotone_inequality(a0, a1, r, n, k)
        assert ok, lo


def test_monotone_custom_subsets(rng):
    a0, a1, r = random_monotone_instance(rng, 2)
    # any monotone subset works, not just the at-least-k families
    subset = {(1, 1, 1), (1, 1, 0), (1, 0, 1), (0, 1, 1), (1, 0, 0)}
    ok, lo = verify_monotone_inequality(a0, a1, r, 3, 0, indices=subset)
    assert ok, lo
    with pytest.raises(ValidationError):
        verify_monotone_inequality(a0, a1, r, 3, 0, indices={(1, 0, 0)})


def test_monotone_precondition_reporting(rng):
    a0, a1, r = random_monotone_instance(rng, 2)
    big_r = 10.0 * (r + a0)
    with pytest.raises(DomainError, match="a0 - r"):
        verify_monotone_inequality(a0, a1, big_r, 2, 1)


# ------------------------------------------------------------ classical oracle


def test_classical_optimum_always_win(rng):
    g = make_random_diagonal_game(rng)
    # one-sided game: replace outcomes with lose = 0, win = everything
    from hedgekit import OutcomeOperators

    zero = HermitianOperator(g.spaces, np.zeros((g.spaces.dim,) * 2))
    total = g.outcomes[0] + g.outcomes[1]
    sure = OutcomeOperators(
        rounds=1,
        spaces=g.spaces,
        x_rounds=g.x_rounds,
        y_rounds=g.y_rounds,
        outcomes=(zero, total),
        rho=g.rho,
    )
    assert classical_optimum(sure) == pytest.approx(1.0, abs=1e-10)
    never = OutcomeOperators(
        rounds=1,
        spaces=g.spaces,
        x_rounds=g.x_rounds,
        y_rounds=g.y_rounds,
        outcomes=(total, zero),
        rho=g.rho,
    )
    assert classical_optimum(never) == pytest.approx(0.0, abs=1e-10)


def test_classical_optimum_matches_sdp(rng):
    for _ in range(3):
        g = make_random_diagonal_game(rng)
        oracle = classical_optimum(g)
        rep = solve(compile_primal(g, g.outcomes[1]), 1e-8)
        assert rep.primal_value == pytest.approx(oracle, abs=1e-6)


def test_classical_optimum_rejects_quantum_game(game):
    with pytest.raises(DomainError):
        classical_optimum(game)


# ------------------------------------------------------------- weak duality


def test_solver_never_beats_feasible_witnesses(game, game2, w_opt):
    rep = solve(compile_primal(game2, threshold_objective(game, 2, 1)), 1e-8)
    for w in (
        witness_naive(w_opt, game, 2, 1),
        witness_recursive_snk(w_opt, game, 2, 1),
    ):
        feas = check_dual_feasibility(game2, threshold_objective(game, 2, 1), w, 1e-9)
        assert feas.feasible
        assert rep.primal_value <= feas.value + 1e-7


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_solver_extracted_witness_constructions(seed):
    # The full pipeline on random games: solve, extract, construct, check.
    rng = np.random.default_rng(seed)
    g = make_random_game(rng)
    w = single_round_witness(g, g.outcomes[1])
    p1 = w.value
    pg = parallel_game(g, 2)
    for build, k, expect in (
        (lambda: witness_tensor_power(w, 2, g), 2, p1**2),
        (lambda: witness_naive(w, g, 2, 1), 1, 2 * p1 + p1**2),
        (lambda: witness_recursive_snk(w, g, 2, 1), 1, 2 * p1),
    ):
        cand = build()
        feas = check_dual_feasibility(pg, threshold_objective(g, 2, k), cand, 1e-9)
        assert feas.feasible
        assert feas.value == pytest.approx(expect, abs=1e-9)


@pytest.mark.parametrize("seed", [1, 2])
def test_constructions_on_a_two_round_game(seed):
    # Every construction reaches the second chain level: n = 2 copies of a
    # seeded 2-round product game, grouped to "win both".
    g = group_outcomes(make_r2_product_game(np.random.default_rng(seed))[2], [(1, 1)])
    rounds = parallel_rounds(g, 2)
    w = single_round_witness(g, g.outcomes[1])
    p = w.value
    cases = [
        (witness_average(w, g, 2, values=(0.0, 1.0)), value_objective(g, (0.0, 1.0), 2), p),
        (witness_tensor_power(w, 2, g), threshold_objective(g, 2, 2), p**2),
    ]
    for k in range(3):
        objective = threshold_objective(g, 2, k)
        naive = sum(math.comb(2, t) * p**t for t in range(k, 3))
        cases.append((witness_naive(w, g, 2, k), objective, naive))
        cases.append((witness_recursive_snk(w, g, 2, k), objective, math.comb(2, k) * p**k))
    dg = dephase_game(g)
    wd = single_round_witness(dg, dg.outcomes[1])
    for k in range(3):
        cand = witness_classical_binomial(wd, dg, 2, k)
        tail = binomial_tail(cand.meta["p_clamped"], 2, k)
        cases.append((cand, threshold_objective(dg, 2, k), tail))
    for cand, objective, value in cases:
        assert len(cand.Y_blocks) == 1
        feas = check_dual_feasibility(rounds, objective, cand, 1e-9)
        assert feas.feasible, cand.meta["construction"]
        assert feas.value == pytest.approx(value, abs=1e-12), cand.meta["construction"]


# ------------------------------------------------- one labelling rule for every n


@pytest.mark.parametrize("n", [1, 2, 3])
def test_parallel_game_pairs_with_objectives_and_witnesses(game, w_opt, n):
    # parallel_game, the objectives and the witnesses share one labelling
    # rule, so they pair for every n, a single copy included.
    pg = parallel_game(game, n)
    known = {(1, 1): P, (2, 1): 1.0, (2, 2): P**2, (3, 1): 1.0, (3, 3): P**3}
    for k in range(1, n + 1):
        objective = threshold_objective(game, n, k)
        rep = solve(compile_primal(pg, objective), 1e-8)
        assert rep.status == "optimal"
        if (n, k) in known:
            assert rep.primal_value == pytest.approx(known[(n, k)], abs=1e-6)
        naive = sum(math.comb(n, t) * P**t for t in range(k, n + 1))
        for w, value in (
            (witness_naive(w_opt, game, n, k), naive),
            (witness_recursive_snk(w_opt, game, n, k), math.comb(n, k) * P**k),
        ):
            feas = check_dual_feasibility(pg, objective, w, 1e-9)
            assert feas.feasible
            assert feas.value == pytest.approx(value, abs=1e-12)
            assert rep.primal_value <= feas.value + 1e-7
    rep = solve(compile_primal(pg, value_objective(game, (0.0, 1.0), n)), 1e-8)
    assert rep.status == "optimal"
    assert rep.primal_value == pytest.approx(P, abs=1e-5)


def test_zero_repetitions_rejected(game, w_opt):
    dg = dephase_game(game)
    wd = single_round_witness(dg, dg.outcomes[1])
    for build in (
        lambda: parallel_game(game, 0),
        lambda: threshold_objective(game, 0, 0),
        lambda: value_objective(game, (0.0, 1.0), 0),
        lambda: witness_average(w_opt, game, 0, values=(0.0, 1.0)),
        lambda: witness_tensor_power(w_opt, 0, game),
        lambda: witness_naive(w_opt, game, 0, 0),
        lambda: witness_recursive_snk(w_opt, game, 0, 0),
        lambda: witness_classical_binomial(wd, dg, 0, 0),
    ):
        with pytest.raises(ValidationError, match="repetition count"):
            build()
