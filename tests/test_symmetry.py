"""The S_n-reduced solve of copy-symmetric strategy SDPs.

Each reduced solve is compared with a dense oracle: the same compiled
problem rebuilt as a plain ``SdpProblem``, which carries no copy symmetry.
"""
import math

import numpy as np
import pytest

from hedgekit import (
    DensityOperator,
    OutcomeOperators,
    SpaceList,
    compile_primal,
    dual_witness_from_report,
    parallel_rounds,
    repair_witness,
    solve,
    threshold_objective,
    value_objective,
)
from hedgekit.cli import main
from hedgekit.games import repetitions, tensor_word
from hedgekit.sampling import random_measurement
from hedgekit.errors import ValidationError
from hedgekit.sdp import SdpProblem, check_dual_feasibility, check_weak_duality
from hedgekit.solver import BlockMap, ConstraintMap
from hedgekit.serialize import load_json
from hedgekit import symmetry
from hedgekit.symmetry import CopySymmetry, Reduction

from conftest import make_r2_product_game, make_random_game

TOL = 1e-8


def plain(prob):
    return SdpProblem(
        prob.blocks, prob.objective, prob.constraint_map,
        primal_start=prob.primal_start, dual_start=prob.dual_start,
    )


def partitions(n, largest=None):
    largest = n if largest is None else largest
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest), 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


def hook_content(shape, D):
    """(s_lambda, f_lambda): the GL_D dimension and the tableau count."""
    cols = [sum(1 for length in shape if length > c) for c in range(shape[0])]
    hooks = [shape[r] - c + cols[c] - r - 1 for r in range(len(shape)) for c in range(shape[r])]
    contents = [c - r for r in range(len(shape)) for c in range(shape[r])]
    s = math.prod(D + c for c in contents) // math.prod(hooks)
    return s, math.factorial(sum(shape)) // math.prod(hooks)


# ---------------------------------------------------------------- representation


@pytest.mark.parametrize("dy, dx, n", [(2, 2, 3), (2, 2, 4), (2, 1, 8)])
def test_block_dimensions_match_the_hook_content_formula(dy, dx, n):
    D = dy * dx
    red = Reduction(CopySymmetry(n, dy, dx))
    want = {shape: hook_content(shape, D) for shape in partitions(n) if len(shape) <= D}
    assert red.shapes == tuple(sorted(want, reverse=True))
    assert [(s, f) for s, f in zip(red.dims, red.multiplicities)] == [
        want[shape] for shape in red.shapes
    ]
    assert sum(f * s for f, s in zip(red.multiplicities, red.dims)) == D**n
    assert sum(s * s for s in red.dims) == math.comb(n + D * D - 1, n)


def test_lifted_blocks_commute_with_the_copies():
    sym = CopySymmetry(4, 2, 2)
    red = Reduction(sym)
    rng = np.random.default_rng(3)
    blocks = [rng.standard_normal((s, s)) + 1j * rng.standard_normal((s, s)) for s in red.dims]
    blocks = [b + b.conj().T for b in blocks]
    x = red.lift(blocks)
    assert sym.is_invariant(x, 1e-12)
    for got, want in zip(red.compress(x), blocks):
        assert np.max(np.abs(got - want)) < 1e-12


@pytest.mark.parametrize("dy, dx, n", [(1, 2, 8), (2, 2, 4)])
def test_reduced_rows_fix_the_dense_constraints_of_the_lift(dy, dx, n):
    # Tr_{Y^n} X of the lifted X is the operator the reduced rows give, so
    # meeting them to some accuracy meets Tr_{Y^n} X = I to that accuracy
    red = Reduction(CopySymmetry(n, dy, dx))
    rng = np.random.default_rng(5)
    blocks = [rng.standard_normal((s, s)) + 1j * rng.standard_normal((s, s)) for s in red.dims]
    blocks = [b + b.conj().T for b in blocks]
    x = red.lift(blocks)
    w = dx**n
    question = np.trace(x.reshape(dy**n, w, dy**n, w), axis1=0, axis2=2)
    rows = red.constraints().apply(blocks)
    assert np.max(np.abs(question - red.operator(rows))) < 1e-10 * np.max(np.abs(question))
    assert np.max(np.abs(red.operator(red.constraints().b) - np.eye(w))) < 1e-12


# ---------------------------------------------------------------- reduced solves


def assert_matches_the_dense_oracle(prob):
    rep = solve(prob, TOL)
    oracle = solve(plain(prob), TOL)
    assert rep.status == oracle.status == "optimal"
    assert rep.solved_blocks != oracle.solved_blocks == (prob.block_space("X").dim,)
    assert abs(rep.primal_value - oracle.primal_value) <= 10 * TOL
    assert abs(rep.dual_value - oracle.dual_value) <= 10 * TOL
    assert len(rep.dual_multipliers) == prob.constraint_map.m
    check_weak_duality(prob, rep.primal_blocks, rep.dual_multipliers)
    return rep


@pytest.mark.parametrize("n, k", [(3, 1), (3, 2), (3, 3), (4, 1), (4, 2), (4, 3), (4, 4)])
def test_hedging_threshold_matches_the_dense_oracle(hedging, n, k):
    prob = compile_primal(parallel_rounds(hedging, n), threshold_objective(hedging, n, k))
    assert_matches_the_dense_oracle(prob)


@pytest.mark.parametrize("n", [3, 4])
def test_hedging_value_matches_the_dense_oracle(hedging, n):
    prob = compile_primal(parallel_rounds(hedging, n), value_objective(hedging, (0.0, 1.0), n))
    rep = assert_matches_the_dense_oracle(prob)
    assert abs(rep.primal_value - math.cos(math.pi / 8) ** 2) <= 10 * TOL


def test_complex_random_game_matches_the_dense_oracle():
    g = make_random_game(np.random.default_rng(41))
    assert np.any(g.outcomes[1].entries.imag)
    prob = compile_primal(parallel_rounds(g, 3), threshold_objective(g, 3, 2))
    assert_matches_the_dense_oracle(prob)


def test_reduced_kernel_refuses_other_problems(hedging):
    prob = compile_primal(parallel_rounds(hedging, 3), threshold_objective(hedging, 3, 2))
    sym = CopySymmetry(3, 2, 2)
    c = [prob.objective["X"].entries]
    (rows,) = prob.constraint_map.blocks
    b = prob.constraint_map.b
    fewer = ConstraintMap([BlockMap(0, rows.stop - 1, rows.G[:-1], rows.pad)], b[:-1])
    shifted = ConstraintMap([rows], b + 0.5)
    scaled = ConstraintMap([BlockMap(0, rows.stop, 2 * rows.G, rows.pad)], 2 * b)
    for constraints in (fewer, shifted, scaled):
        with pytest.raises(ValidationError):
            sym.interior_point(c, constraints, tol=TOL, max_iter=50)
    with pytest.raises(ValidationError):
        CopySymmetry(3, 2, 1).interior_point(c, prob.constraint_map, tol=TOL, max_iter=50)


def test_lifted_n4_report_gives_a_feasible_witness(hedging):
    rounds = parallel_rounds(hedging, 4)
    objective = threshold_objective(hedging, 4, 3)
    prob = compile_primal(rounds, objective)
    rep = solve(prob, TOL)
    assert rep.solved_blocks == (35, 45, 20, 15, 1)
    witness = repair_witness(rounds, objective, dual_witness_from_report(rounds, prob, rep))
    feas = check_dual_feasibility(rounds, objective, witness)
    assert feas.feasible
    assert rep.primal_value <= feas.value <= rep.primal_value + 10 * TOL


def test_solve_reports_the_reduced_blocks(tmp_path):
    out = tmp_path / "r.json"
    code = main([
        "solve", "hedging", "--objective", "threshold", "--reps", "4", "--wins", "2",
        "--quiet", "--out", str(out),
    ])
    assert code == 0
    results = load_json(out)["results"]
    assert results["solved_blocks"] == [35, 45, 20, 15, 1]
    assert abs(results["primal_value"]["value"] - 1.0) <= 10 * TOL


def test_repeated_solves_share_one_reduction(hedging, monkeypatch):
    built = []

    class Counted(Reduction):
        def __init__(self, sym):
            built.append(sym)
            super().__init__(sym)

    symmetry._reduction.cache_clear()
    monkeypatch.setattr(symmetry, "Reduction", Counted)
    rounds = parallel_rounds(hedging, 3)
    first, second = (
        solve(compile_primal(rounds, threshold_objective(hedging, 3, 2)), TOL) for _ in range(2)
    )
    symmetry._reduction.cache_clear()
    assert built == [CopySymmetry(3, 2, 2)]
    assert (first.status, first.iterations, first.primal_value, first.dual_value) == (
        second.status, second.iterations, second.primal_value, second.dual_value
    )
    assert first.dual_multipliers == second.dual_multipliers
    assert np.array_equal(first.primal_blocks["X"].entries, second.primal_blocks["X"].entries)


def test_trivial_question_at_eight_copies_reduces_without_enumerating(monkeypatch):
    # n! = 40320 permutations; the reduction builds O(n^2) of them
    rng = np.random.default_rng(8)
    spaces = SpaceList((("Y1", 2), ("X1", 1)))
    lose, win = random_measurement(rng, spaces, 2)
    g = OutcomeOperators(
        rounds=1, spaces=spaces, x_rounds=(("X1",),), y_rounds=(("Y1",),),
        outcomes=(lose, win), rho=DensityOperator(SpaceList((("X1", 1),)), [[1.0]]),
    )
    n, k = 8, 5
    built = []
    symmetry._reduction.cache_clear()
    original = CopySymmetry.transposition
    monkeypatch.setattr(
        CopySymmetry, "transposition",
        lambda self, i, j: built.append((i, j)) or original(self, i, j),
    )
    objective = threshold_objective(g, n, k)
    prob = compile_primal(parallel_rounds(g, n), objective)
    rep = solve(prob, TOL)
    assert rep.status == "optimal"
    assert rep.solved_blocks == (9, 7, 5, 3, 1)
    assert len(built) <= n * n
    top = float(np.linalg.eigvalsh(objective.entries)[-1])
    assert abs(rep.primal_value - top) <= 10 * TOL


# ---------------------------------------------------------------- dense path kept


def dense_cases(hedging):
    _, _, stacked = make_r2_product_game(np.random.default_rng(7))
    noninvariant = tensor_word([hedging.outcomes[1]] + [hedging.outcomes[0]] * 2, repetitions(3))
    return {
        "n=1": (hedging, hedging.outcomes[1]),
        "n=2": (parallel_rounds(hedging, 2), threshold_objective(hedging, 2, 1)),
        "two rounds": (stacked, stacked.outcomes[3]),
        "not invariant": (parallel_rounds(hedging, 3), noninvariant),
    }


@pytest.mark.parametrize("case", ["n=1", "n=2", "two rounds", "not invariant"])
def test_other_problems_keep_the_dense_path(hedging, case):
    rounds, objective = dense_cases(hedging)[case]
    prob = compile_primal(rounds, objective)
    rep, oracle = solve(prob, TOL), solve(plain(prob), TOL)
    assert rep.solved_blocks == tuple(sp.dim for _, sp in prob.blocks)
    assert (rep.status, rep.iterations, rep.primal_value, rep.dual_value) == (
        oracle.status, oracle.iterations, oracle.primal_value, oracle.dual_value
    )
    assert rep.dual_multipliers == oracle.dual_multipliers
    for name, x in rep.primal_blocks.items():
        assert np.array_equal(x.entries, oracle.primal_blocks[name].entries)
