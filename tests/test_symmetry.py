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
from hedgekit.error_reduction import binomial_tail
from hedgekit.games import dephase_game, repetitions, tensor_word
from hedgekit.hedging import hedging_game
from hedgekit.operators import align, identity, kron, min_eigenvalue
from hedgekit.sampling import random_measurement
from hedgekit.sdp import SdpProblem, check_dual_feasibility, check_weak_duality
from hedgekit.serialize import load_json
from hedgekit import solver, symmetry
from hedgekit.symmetry import CopySymmetry, Reduction, phase_classes
from hedgekit.witnesses import classical_optimum

from conftest import make_r2_product_game, make_random_diagonal_game, make_random_game

TOL = 1e-8
#: the hedging game's n = 4 phase-sector blocks, sector by sector
N4_SECTOR_BLOCKS = (5, 3, 1, 4, 2, 4, 2, 3, 1, 3, 1, 3, 1, 2, 2, 2, 2, 1, 1, 1, 1, 1)


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


def dense_bases(red):
    """Each block's ``(index, U)`` scattered into its ``(d, s)`` rows."""
    bases = []
    for index, u in red._blocks:
        basis = np.zeros((red.sym.dim, u.shape[1]))
        basis[index] = u
        bases.append(basis)
    return bases


# ---------------------------------------------------------------- representation


@pytest.mark.parametrize("dy, dx, n", [(2, 2, 3), (2, 2, 4), (2, 2, 5), (2, 2, 6), (2, 1, 8)])
def test_block_dimensions_match_the_hook_content_formula(dy, dx, n):
    D = dy * dx
    red = Reduction(CopySymmetry(n, dy, dx))
    want = {shape: hook_content(shape, D) for shape in partitions(n) if len(shape) <= D}
    # one letter class: one partition per block's shape
    assert red.shapes == tuple((shape,) for shape in sorted(want, reverse=True))
    assert [(s, f) for s, f in zip(red.dims, red.multiplicities)] == [
        want[shape] for (shape,) in red.shapes
    ]
    assert sum(f * s for f, s in zip(red.multiplicities, red.dims)) == D**n
    assert sum(s * s for s in red.dims) == math.comb(n + D * D - 1, n)


@pytest.mark.parametrize("dy, dx, n", [(2, 2, 4), (2, 2, 6), (1, 2, 8)])
def test_bases_are_orthonormal_jucys_murphy_eigenvectors(dy, dx, n):
    # J_k = sum_{j<k} (j k) acts on U as the content of k in the row-reading
    # tableau; (P U)[a] = U[p[a]], so J_k U is a sum of row gathers
    sym = CopySymmetry(n, dy, dx)
    red = Reduction(sym)
    for (shape,), s, u in zip(red.shapes, red.dims, dense_bases(red)):
        assert u.shape == (sym.dim, s)
        assert np.linalg.norm(u.T @ u - np.eye(u.shape[1])) <= 1e-12
        contents = [c - r for r, length in enumerate(shape) for c in range(length)]
        for k in range(1, n):
            jk = sum(u[sym.transposition(j, k)] for j in range(k))
            assert np.max(np.abs(jk - contents[k] * u)) <= 1e-12 * k


def test_eigensolves_stay_within_one_weight_class(monkeypatch):
    # the largest weight class at n = 6 over D = 4 letters is 6!/(2! 2! 1! 1!)
    shapes = []
    eigh = np.linalg.eigh

    def recorded(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recorded)
    symmetry._class_blocks.cache_clear()
    Reduction(CopySymmetry(6, 2, 2))
    assert shapes
    assert max(max(shape) for shape in shapes) <= 180


@pytest.mark.parametrize("dy, dx, n", [(2, 2, 3), (2, 2, 4), (2, 3, 3), (3, 2, 3), (1, 2, 8)])
def test_lifted_blocks_commute_with_the_copies(dy, dx, n):
    # dy != dx catches a lift that permutes the answer and question copies
    # apart; the lift holds f_lambda copies of each block's spectrum
    sym = CopySymmetry(n, dy, dx)
    red = Reduction(sym)
    rng = np.random.default_rng(3)
    blocks = [rng.standard_normal((s, s)) + 1j * rng.standard_normal((s, s)) for s in red.dims]
    blocks = [b + b.conj().T for b in blocks]
    x = red.lift(blocks)
    assert sym.is_invariant(x, 1e-12)
    for got, want in zip(red.compress(x), blocks):
        assert np.max(np.abs(got - want)) < 1e-12
    want = np.sort(np.concatenate([
        np.repeat(np.linalg.eigvalsh(b), f) for b, f in zip(blocks, red.multiplicities)
    ]))
    got = np.linalg.eigvalsh(x)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("case", ["hedging n=4", "seed 41 n=3"])
def test_lift_of_the_compressed_objective_is_the_objective(hedging, case):
    if case == "hedging n=4":
        game, n = hedging, 4
    else:
        game, n = make_random_game(np.random.default_rng(41)), 3
    c = align(threshold_objective(game, n, 2), parallel_rounds(game, n).block(1)).entries
    sym = CopySymmetry(n, 2, 2)
    assert sym.is_invariant(c, 1e-12)
    red = Reduction(sym)
    assert np.max(np.abs(red.lift(red.compress(c)) - c)) <= 1e-12 * np.max(np.abs(c))


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


SWAP_CASES = [(3, 2, 2), (4, 2, 2), (3, 2, 3), (3, 3, 2), (5, 2, 1)]


@pytest.mark.parametrize("n, dy, dx", SWAP_CASES)
def test_copy_swap_is_the_transposition_gather(n, dy, dx):
    sym = CopySymmetry(n, dy, dx)
    rng = np.random.default_rng(9)
    mat = rng.standard_normal((sym.dim, sym.dim)) + 1j * rng.standard_normal((sym.dim, sym.dim))
    for i in range(n):
        for j in range(i + 1, n):
            p = sym.transposition(i, j)
            assert sym.swap(mat, i, j).tobytes() == mat[p[:, None], p].tobytes()
            assert sym.swap(mat.real, i, j).tobytes() == mat.real[p[:, None], p].tobytes()


def gather_lift(red, blocks):
    """The coset average of the lift, each transposition as an index gather."""
    sym = red.sym
    a = np.zeros((sym.dim,) * 2, dtype=np.result_type(*blocks))
    for f, (index, u), x in zip(red.multiplicities, red._blocks, blocks):
        a[np.ix_(index, index)] += f * (u @ x @ u.T)
    for k in range(2, sym.n + 1):
        swaps = [sym.transposition(j, k - 1) for j in range(k - 1)]
        a = (a + sum(a[p[:, None], p] for p in swaps)) / k
    return a


@pytest.mark.parametrize("sym", [CopySymmetry(*case) for case in SWAP_CASES]
                         + [CopySymmetry(4, 2, 2, (0, 1, 2, 0), (0, 1))],
                         ids=lambda s: f"{s.n}-{s.dy}-{s.dx}" + ("-sectors" if s.classes else ""))
def test_lift_matches_the_gather_reference(sym):
    red = Reduction(sym)
    rng = np.random.default_rng(10)
    blocks = [rng.standard_normal((s, s)) + 1j * rng.standard_normal((s, s)) for s in red.dims]
    blocks = [b + b.conj().T for b in blocks]
    assert red.lift(blocks).tobytes() == gather_lift(red, blocks).tobytes()
    real = [b.real for b in blocks]
    assert red.lift(real).tobytes() == gather_lift(red, real).tobytes()


# ---------------------------------------------------------------- reduced solves


def assert_matches_the_dense_oracle(prob):
    rep = solve(prob, TOL)
    oracle = solve(plain(prob), TOL)
    assert rep.status == oracle.status == "optimal"
    assert rep.solved_blocks != oracle.solved_blocks == (dict(prob.blocks)["X"].dim,)
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


@pytest.mark.parametrize("n", [3, 4])
def test_complex_random_game_matches_the_dense_oracle(n):
    # one letter class: the S_n blocks, 20, 20, 4 at n = 3 and 35, 45, 20,
    # 15, 1 at n = 4
    g = make_random_game(np.random.default_rng(41))
    assert np.any(g.outcomes[1].entries.imag)
    prob = compile_primal(parallel_rounds(g, n), threshold_objective(g, n, 2))
    assert_matches_the_dense_oracle(prob)


#: the stacks the kernel iterates on, and the blocks the report names
KERNEL_STACKS = {
    # the hedging sectors' small blocks fill slots of their widest width
    "hedging n=3": ([(6, 4, 4)], (4, 2, 3, 1, 3, 1, 2, 2, 2, 1, 1, 1, 1)),
    "hedging n=4": ([(9, 5, 5), (1, 1, 1)], N4_SECTOR_BLOCKS),
    # the S_n blocks of one class leave no full slot: they keep their stacks
    "seed 41 n=3": ([(2, 20, 20), (1, 4, 4)], (20, 20, 4)),
    "seed 41 n=4": ([(1, 35, 35), (1, 45, 45), (1, 20, 20), (1, 15, 15), (1, 1, 1)],
                    (35, 45, 20, 15, 1)),
}


@pytest.mark.parametrize("case", list(KERNEL_STACKS))
def test_kernel_iterates_on_slots_and_reports_blocks(hedging, case, monkeypatch):
    name, n = case.rsplit(" n=", 1)
    game = hedging if name == "hedging" else make_random_game(np.random.default_rng(41))
    n = int(n)
    seen = []
    iterate = solver._iterate

    def recorded(C, A, *args):
        seen.append([c.shape for c in C])
        return iterate(C, A, *args)

    monkeypatch.setattr(solver, "_iterate", recorded)
    rep = solve(compile_primal(parallel_rounds(game, n), threshold_objective(game, n, 2)), TOL)
    stacks, blocks = KERNEL_STACKS[case]
    assert rep.status == "optimal"
    assert seen == [stacks]
    assert rep.solved_blocks == blocks


def test_reduced_dual_is_an_invariant_operator_on_the_questions(hedging):
    # read back from the report, y is the operator Y on X^(x)n with
    # I_{Y^n} (x) Y >= C and Tr Y the dual value
    n, dx = 3, 2
    rounds = parallel_rounds(hedging, n)
    objective = threshold_objective(hedging, n, 2)
    prob = compile_primal(rounds, objective)
    rep = solve(prob, TOL, max_iter=50)
    assert rep.status == "optimal" and rep.solved_blocks != (64,)
    Y = dual_witness_from_report(rounds, prob, rep).Y
    y = Y.entries
    assert y.shape == (dx**n, dx**n)
    questions = CopySymmetry(n, 1, dx)
    for i in range(n):
        for j in range(i + 1, n):
            p = questions.transposition(i, j)
            assert np.max(np.abs(y[p[:, None], p] - y)) <= 1e-12 * np.max(np.abs(y))
    assert abs(Y.trace() - rep.dual_value) <= 1e-10
    slack = align(kron(identity(rounds.answer(1)), Y), rounds.block(1)) - align(
        objective, rounds.block(1)
    )
    assert min_eigenvalue(slack) >= -1e-6


def test_lifted_n4_report_gives_a_feasible_witness(hedging):
    rounds = parallel_rounds(hedging, 4)
    objective = threshold_objective(hedging, 4, 3)
    prob = compile_primal(rounds, objective)
    rep = solve(prob, TOL)
    assert rep.solved_blocks == N4_SECTOR_BLOCKS
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
    assert results["solved_blocks"] == list(N4_SECTOR_BLOCKS)
    assert abs(results["primal_value"]["value"] - 1.0) <= 10 * TOL


def test_repeated_solves_share_one_reduction(hedging, monkeypatch):
    built = []

    class Counted(Reduction):
        def __init__(self, sym):
            built.append(sym)
            super().__init__(sym)

    symmetry.reduction.cache_clear()
    monkeypatch.setattr(symmetry, "Reduction", Counted)
    rounds = parallel_rounds(hedging, 3)
    first, second = (
        solve(compile_primal(rounds, threshold_objective(hedging, 3, 2)), TOL) for _ in range(2)
    )
    symmetry.reduction.cache_clear()
    assert built == [CopySymmetry(3, 2, 2, (0, 1, 2, 0), (0, 1))]
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
    symmetry.reduction.cache_clear()
    symmetry._class_blocks.cache_clear()
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


# ---------------------------------------------------------------- phase sectors


def hedging_sectors(n):
    return CopySymmetry(n, 2, 2, (0, 1, 2, 0), (0, 1))


def aligned_objective(game, n, k):
    return align(threshold_objective(game, n, k), parallel_rounds(game, n).block(1)).entries


def test_letter_classes_of_hedging_random_and_diagonal_games(hedging):
    # hedging couples only the letters (y, x) = 00 and 11; a random qubit
    # game couples every letter; a diagonal game couples none
    games = {
        "hedging": (hedging, hedging_sectors(3)),
        "random": (make_random_game(np.random.default_rng(41)), CopySymmetry(3, 2, 2)),
        "diagonal": (
            make_random_diagonal_game(np.random.default_rng(42)),
            CopySymmetry(3, 2, 2, (0, 1, 2, 3), (0, 1)),
        ),
    }
    for name, (game, want) in games.items():
        prob = compile_primal(parallel_rounds(game, 3), threshold_objective(game, 3, 2))
        assert prob._copy_symmetry == want, name
        c = aligned_objective(game, 3, 2)
        assert phase_classes(c, CopySymmetry(3, 2, 2), 1e-12) == (want.classes, want.xclasses)


@pytest.mark.parametrize("n, blocks, widths", [
    (3, 13, {1: 6, 2: 4, 3: 2, 4: 1}),
    (4, 22, {1: 9, 2: 6, 3: 4, 4: 2, 5: 1}),
])
def test_sectors_span_the_strategy_block(n, blocks, widths):
    # 4^n = sum f s over the sector blocks, with n + 1 Hamming-weight rows
    red = Reduction(hedging_sectors(n))
    assert len(red.dims) == blocks
    assert {s: red.dims.count(s) for s in set(red.dims)} == widths
    assert sum(f * s for f, s in zip(red.multiplicities, red.dims)) == 4**n
    assert len(red.constraints().b) == n + 1
    for u in dense_bases(red):
        assert np.linalg.norm(u.T @ u - np.eye(u.shape[1])) <= 1e-12


def per_copy_phases(rng, n):
    """Phases on the (y_1 .. y_n, x_1 .. x_n) indices: per copy, charges
    alpha_y + beta_x equal on the letters 00 and 11."""
    total = np.zeros((2,) * (2 * n))
    for k in range(n):
        a0, a1, b0 = rng.uniform(-np.pi, np.pi, size=3)
        alpha, beta = np.array([a0, a1]), np.array([b0, a0 + b0 - a1])
        shape = [1] * (2 * n)
        shape[k] = shape[n + k] = 2
        total = total + (alpha[:, None] + beta[None, :]).reshape(shape)
    return np.exp(1j * total.reshape(-1))


@pytest.mark.parametrize("n", [3, 4])
def test_lift_of_sector_blocks_is_invariant_under_copies_and_phases(n):
    sym = hedging_sectors(n)
    red = Reduction(sym)
    rng = np.random.default_rng(9)
    blocks = [rng.standard_normal((s, s)) + 1j * rng.standard_normal((s, s)) for s in red.dims]
    blocks = [b + b.conj().T for b in blocks]
    x = red.lift(blocks)
    assert CopySymmetry(n, 2, 2).is_invariant(x, 1e-12)
    for _ in range(3):
        v = per_copy_phases(rng, n)
        assert np.max(np.abs(v[:, None] * x * v.conj() - x)) <= 1e-12 * np.max(np.abs(x))
    for got, want in zip(red.compress(x), blocks):
        assert np.max(np.abs(got - want)) < 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("n", [3, 4])
def test_sector_objective_is_the_dense_objective_of_the_lift(hedging, n):
    red = Reduction(hedging_sectors(n))
    c = aligned_objective(hedging, n, 2)
    rng = np.random.default_rng(10)
    blocks = [rng.standard_normal((s, s)) for s in red.dims]
    blocks = [b + b.T for b in blocks]
    reduced = sum(
        f * np.vdot(cb, b).real for f, cb, b in zip(red.multiplicities, red.compress(c), blocks)
    )
    assert abs(np.vdot(c, red.lift(blocks)).real - reduced) <= 1e-12 * max(1.0, abs(reduced))


def test_one_class_game_keeps_the_copy_symmetric_reduction():
    # a random game has one letter class: its reduction is the S_n one,
    # the single sector of n copies, whose window permutes every index
    game = make_random_game(np.random.default_rng(41))
    prob = compile_primal(parallel_rounds(game, 3), threshold_objective(game, 3, 2))
    c = aligned_objective(game, 3, 2)
    assert phase_classes(c, CopySymmetry(3, 2, 2), 1e-12) == (None, None)
    red, rows = symmetry.reduction(prob._copy_symmetry)
    plain_red = Reduction(CopySymmetry(3, 2, 2))
    plain_rows = plain_red.constraints()
    assert red.dims == plain_red.dims == (20, 20, 4)
    for index, _ in red._blocks:
        assert np.array_equal(np.sort(index), np.arange(64))
    for bm, other in zip(rows.blocks, plain_rows.blocks):
        assert bm.G.tobytes() == other.G.tobytes()
    assert rows.b.tobytes() == plain_rows.b.tobytes()


#: primal values of the S_n-reduced solves these sector solves replace
S_N_VALUES = {
    3: (0.999999998266493, 0.986135906048825, 0.6218592136306248, 0.8535533896839698),
    4: (0.9999999946761785, 0.9999999920471011, 0.9523200694011185, 0.5307900401547088,
        0.8535533879553152),
}


@pytest.mark.parametrize("n, k", [(3, 1), (3, 2), (3, 3), (3, "value"),
                                  (4, 1), (4, 2), (4, 3), (4, 4), (4, "value")])
def test_sector_solves_keep_the_reduced_values(hedging, n, k):
    rounds = parallel_rounds(hedging, n)
    if k == "value":
        objective, want = value_objective(hedging, (0.0, 1.0), n), S_N_VALUES[n][-1]
    else:
        objective, want = threshold_objective(hedging, n, k), S_N_VALUES[n][k - 1]
    prob = compile_primal(rounds, objective)
    rep = solve(prob, TOL)
    assert rep.status == "optimal"
    assert max(rep.solved_blocks) == n + 1
    assert abs(rep.primal_value - want) <= 10 * TOL
    assert len(rep.dual_multipliers) == prob.constraint_map.m
    check_weak_duality(prob, rep.primal_blocks, rep.dual_multipliers)


def classical_games():
    return {
        "dephased hedging": dephase_game(hedging_game()),
        "diagonal seed 42": make_random_diagonal_game(np.random.default_rng(42)),
    }


@pytest.mark.parametrize("name", ["dephased hedging", "diagonal seed 42"])
def test_classical_games_solve_in_one_by_one_blocks_at_the_binomial_tail(name):
    # every per-copy phase fixes a classical game: its sectors are 1 x 1
    # blocks, a linear program, and each k is the independent answer
    game, n = classical_games()[name], 3
    p = classical_optimum(game)
    rounds = parallel_rounds(game, n)
    for k in range(1, n + 1):
        rep = solve(compile_primal(rounds, threshold_objective(game, n, k)), TOL)
        assert rep.status == "optimal"
        assert set(rep.solved_blocks) == {1}
        assert abs(rep.primal_value - binomial_tail(p, n, k)) <= 10 * TOL
