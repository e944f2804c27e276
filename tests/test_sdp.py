import numpy as np
import pytest
from numpy.testing import assert_allclose

from hedgekit import (
    DualWitness,
    SdpProblem,
    check_dual_feasibility,
    compile_primal,
    dephase_game,
    dual_witness_from_report,
    identity,
    min_eigenvalue,
    parallel_game,
    parallel_rounds,
    repair_witness,
    solve,
    space,
    threshold_objective,
    value_objective,
)
from hedgekit.errors import DomainError, SpaceError, ValidationError
from hedgekit.hedging import WIN_PROBABILITY, hedging_optimal_witness
from hedgekit.sdp import check_weak_duality, compile_dual, hermitian_basis, slater_points
from hedgekit.solver import BlockMap, ConstraintMap
from hedgekit.witnesses import classical_optimum

from conftest import PARALLEL_CASES, make_r2_product_game, make_random_game, parallel_base

P = WIN_PROBABILITY


# ------------------------------------------------------------------ compilation


def test_compile_primal_shape_single_round(hedging):
    prob = compile_primal(hedging, hedging.outcomes[1])
    assert prob.block_names == ("X",)
    assert prob.block_space("X").dim == 4
    assert prob.constraint_map.m == 4


def test_compile_primal_shape_two_copies(hedging):
    pg = parallel_game(hedging, 2)
    prob = compile_primal(pg, threshold_objective(hedging, 2, 1))
    assert prob.block_space("X").dim == 16
    assert prob.constraint_map.m == 16


def _problem_bytes(prob):
    out = [prob.blocks, prob.offset, prob.constraint_map.b.tobytes(),
           prob.dual_start.tobytes()]
    for bm in prob.constraint_map.blocks:
        perm = None if bm.perm is None else bm.perm.tobytes()
        out += [bm.start, bm.stop, bm.pad, bm.G.dtype, bm.G.shape, bm.G.tobytes(), perm]
    for ops in (prob.objective, prob.primal_start):
        out += [(name, op.spaces, op.entries.tobytes()) for name, op in sorted(ops.items())]
    return out


@pytest.mark.parametrize("name,n", PARALLEL_CASES)
def test_compile_from_parallel_rounds_matches_parallel_game(name, n):
    # The strategy SDP reads only the rounds: the n-fold game's outcome
    # words add nothing to the compiled problem.
    g = parallel_base(name)
    if g.outcome_count == 2:
        objective = threshold_objective(g, n, (n + 1) // 2)
    else:
        objective = value_objective(g, np.linspace(0.0, 1.0, g.outcome_count), n)
    from_rounds = compile_primal(parallel_rounds(g, n), objective)
    from_game = compile_primal(parallel_game(g, n), objective)
    assert _problem_bytes(from_rounds) == _problem_bytes(from_game)


def test_uniform_point_is_feasible(hedging):
    # X = I / dim(Y) satisfies the scalarized partial-trace constraints.
    prob = compile_primal(hedging, hedging.outcomes[1])
    x = identity(prob.block_space("X")) * 0.5
    cmap = prob.constraint_map
    assert_allclose(cmap.apply([x.entries]), cmap.b, rtol=0, atol=1e-12)


def test_hermitian_basis_orthonormal():
    basis = list(hermitian_basis(3))
    assert len(basis) == 9
    for i, a in enumerate(basis):
        for j, b in enumerate(basis):
            expect = 1.0 if i == j else 0.0
            assert np.vdot(a, b).real == pytest.approx(expect, abs=1e-12)


def _map_case(name, hedging):
    if name.startswith("hedging-n"):
        n = int(name[-1])
        pg = hedging if n == 1 else parallel_game(hedging, n)
        return compile_primal(pg, threshold_objective(hedging, n, 1)), [True]
    rng = np.random.default_rng(7)
    if name == "qubit-game":
        g = make_random_game(rng)
        return compile_primal(g, g.outcomes[1]), [True]
    _, _, stacked = make_r2_product_game(rng)
    return compile_primal(stacked, stacked.outcomes[3]), [False, True]


@pytest.mark.parametrize(
    "name", ["hedging-n1", "hedging-n2", "hedging-n3", "qubit-game", "r2-product"]
)
def test_constraint_map_matches_dense_expansion(name, hedging):
    # The structured apply, adjoint and Schur matrix against the dense
    # expansion of each block map into its rows.  The r = 2 game has a
    # pad-1 block (batched Schur) and a last block behind a nontrivial
    # permutation.
    prob, kron_schur = _map_case(name, hedging)
    cmap = prob.constraint_map
    assert [bm.kron_schur for bm in cmap.blocks] == kron_schur
    rng = np.random.default_rng(11)
    m = cmap.m
    X, Zi, F = [], [], []
    for bm in cmap.blocks:
        d = bm.dim
        f = np.zeros((m, d, d), dtype=np.complex128)
        f[bm.start : bm.stop] = bm.expand()
        F.append(f)
        for out in (X, Zi):
            a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            out.append(a @ a.conj().T / d + np.eye(d))
    y = rng.standard_normal(m)
    dense_apply = sum(np.einsum("iab,ba->i", f, x).real for f, x in zip(F, X))
    assert_allclose(cmap.apply(X), dense_apply, rtol=0, atol=1e-12)
    for got, f in zip(cmap.adjoint(y), F):
        assert_allclose(got, np.tensordot(y, f, axes=(0, 0)), rtol=0, atol=1e-12)
    dense_m = sum(
        np.einsum("iab,bc,jcd,da->ij", f, x, f, zi, optimize=True).real
        for f, x, zi in zip(F, X, Zi)
    )
    scale = max(1.0, float(np.max(np.abs(dense_m))))
    assert_allclose(cmap.schur(X, Zi), dense_m, rtol=0, atol=1e-12 * scale)


def test_hedging_n4_solves_without_dense_constraints(hedging):
    # d = m = 256: the solve never allocates one (m, d, d) stack
    # (256 MB); tracemalloc sees numpy's buffers.
    import tracemalloc

    prob = compile_primal(parallel_game(hedging, 4), threshold_objective(hedging, 4, 2))
    m, d = prob.constraint_map.m, prob.block_space("X").dim
    assert (m, d) == (256, 256)
    tracemalloc.start()
    try:
        rep = solve(prob, 1e-8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.status == "optimal"
    assert abs(rep.primal_value - 1.0) <= 10 * 1e-8
    assert peak < m * d * d * 16 / 8


# ---------------------------------------------------------------------- solving


def test_hedging_single_round_optimum(hedging):
    rep = solve(compile_primal(hedging, hedging.outcomes[1]), 1e-8)
    assert rep.status == "optimal"
    assert rep.primal_value == pytest.approx(P, abs=1e-6)
    assert rep.gap <= 1e-8 * max(1.0, abs(rep.primal_value)) * 2


def test_hedging_two_rep_threshold_kk(hedging):
    pg = parallel_game(hedging, 2)
    rep1 = solve(compile_primal(pg, threshold_objective(hedging, 2, 1)), 1e-8)
    assert rep1.primal_value == pytest.approx(1.0, abs=1e-6)
    rep2 = solve(compile_primal(pg, threshold_objective(hedging, 2, 2)), 1e-8)
    assert rep2.primal_value == pytest.approx(P**2, abs=1e-5)


def test_solver_deterministic(hedging):
    prob = compile_primal(hedging, hedging.outcomes[1])
    a = solve(prob, 1e-8)
    b = solve(prob, 1e-8)
    assert a.primal_value == b.primal_value
    assert a.iterations == b.iterations
    assert_allclose(a.primal_blocks["X"].entries, b.primal_blocks["X"].entries)


def test_tolerance_validation(hedging):
    prob = compile_primal(hedging, hedging.outcomes[1])
    with pytest.raises(ValidationError):
        solve(prob, 1e-12)
    with pytest.raises(ValidationError):
        solve(prob, 0.5)


def test_two_outcome_value_in_unit_interval(rng):
    for _ in range(3):
        g = make_random_game(rng)
        rep = solve(compile_primal(g, g.outcomes[1]), 1e-8)
        assert rep.status == "optimal"
        assert -1e-8 <= rep.primal_value <= 1 + 1e-8


def test_solver_matches_lp_vertex_enumeration(rng):
    # Linear programs are SDPs with one-dimensional blocks, and their
    # optima sit on vertices, so exhaustive basis enumeration is an
    # independent oracle for the interior-point kernel.
    import itertools

    from hedgekit import HermitianOperator

    sp1 = space(("v", 1))
    for _ in range(5):
        n, m = 5, 3
        a = rng.random((m, n)) + 0.1
        x_feas = rng.random(n) + 0.1
        b = a @ x_feas
        c = rng.standard_normal(n)
        best = -np.inf
        for cols in itertools.combinations(range(n), m):
            sub = a[:, cols]
            if abs(np.linalg.det(sub)) < 1e-10:
                continue
            xb = np.linalg.solve(sub, b)
            if np.all(xb >= -1e-9):
                x = np.zeros(n)
                x[list(cols)] = xb
                best = max(best, float(c @ x))
        blocks = tuple((f"x{i}", sp1) for i in range(n))
        objective = {
            f"x{i}": HermitianOperator(sp1, [[complex(c[i])]]) for i in range(n)
        }
        cmap = ConstraintMap([BlockMap(0, m, a[:, i, None, None]) for i in range(n)], b)
        prob = SdpProblem(blocks=blocks, objective=objective, constraint_map=cmap)
        rep = solve(prob, 1e-8)
        assert rep.status == "optimal"
        assert rep.primal_value == pytest.approx(best, abs=1e-6)


def test_infeasible_certified():
    sp = space(("A", 2))
    eye = identity(sp)
    prob = SdpProblem(
        blocks=(("B", sp),),
        objective={"B": eye},
        constraint_map=ConstraintMap([BlockMap(0, 2, [eye.entries] * 2)], [1.0, 2.0]),
    )
    rep = solve(prob, 1e-8)
    assert rep.status == "infeasible"


def test_problem_rejects_malformed_constraint_map():
    sp = space(("A", 2))
    eye = identity(sp).entries

    def problem(G, b=(1.0,)):
        cmap = ConstraintMap([BlockMap(0, 1, [G])], b)
        return SdpProblem(blocks=(("B", sp),), objective={}, constraint_map=cmap)

    assert problem(eye).constraint_map.m == 1
    with pytest.raises(SpaceError, match="do not match the problem blocks"):
        problem(np.eye(3))
    with pytest.raises(ValidationError, match="constraint 0 has non-finite rhs"):
        problem(eye, (np.inf,))
    with pytest.raises(ValidationError, match="constraint 0 block 'B' is not Hermitian"):
        problem(np.array([[1.0, 1e-6], [0.0, 1.0]]))
    with pytest.raises(ValidationError, match="constraint 0 block 'B' has non-finite"):
        problem(np.array([[1.0, np.nan], [np.nan, 1.0]]))


# ------------------------------------------------------------------------ duals


def test_compiled_dual_matches_primal(hedging):
    rep_p = solve(compile_primal(hedging, hedging.outcomes[1]), 1e-8)
    rep_d = solve(compile_dual(hedging, hedging.outcomes[1]), 1e-8)
    assert rep_d.status == "optimal"
    assert -rep_d.primal_value == pytest.approx(rep_p.primal_value, abs=1e-6)


def test_compiled_dual_nonpsd_objective(hedging):
    # Subtracting 0.3 I shifts every feasible value by 0.3 Tr(X) = 0.6.
    obj = hedging.outcomes[1] - 0.3 * identity(hedging.spaces)
    rep_p = solve(compile_primal(hedging, obj), 1e-8)
    rep_d = solve(compile_dual(hedging, obj), 1e-8)
    assert -rep_d.primal_value == pytest.approx(rep_p.primal_value, abs=1e-6)
    assert rep_p.primal_value == pytest.approx(P - 0.6, abs=1e-6)


def test_strong_duality_on_compiled_pairs(rng):
    g = make_random_game(rng)
    for obj in (g.outcomes[1], value_objective(g, (0.25, 0.75), 1)):
        rp = solve(compile_primal(g, obj), 1e-8)
        rd = solve(compile_dual(g, obj), 1e-8)
        assert rp.status == rd.status == "optimal"
        assert abs(rp.primal_value - rp.dual_value) <= 1e-8 * max(1, abs(rp.primal_value)) * 2
        assert rp.primal_value == pytest.approx(-rd.primal_value, abs=1e-6)


# ---------------------------------------------------------------- slater points


def test_slater_primal_strictly_feasible(hedging):
    primal, chain = slater_points(hedging, hedging.outcomes[1])
    x = primal["X"]
    assert min_eigenvalue(x) == pytest.approx(0.5)
    cmap = compile_primal(hedging, hedging.outcomes[1]).constraint_map
    assert_allclose(cmap.apply([x.entries]), cmap.b, rtol=0, atol=1e-12)


def test_slater_dual_margin_at_least_one(hedging):
    _, chain = slater_points(hedging, hedging.outcomes[1])
    w = DualWitness(Y=chain[0])
    feas = check_dual_feasibility(hedging, hedging.outcomes[1], w, 1e-9)
    assert feas.feasible
    assert min(feas.constraint_min_eigenvalues) >= 1.0


def test_slater_cascade_scaling_r2(rng):
    g1, g2, stacked = make_r2_product_game(rng)
    obj = stacked.outcomes[3]
    _, chain = slater_points(stacked, obj)
    norm = float(np.linalg.norm(obj.entries, 2))
    # level r uses |objective| + 1; the earlier level doubles per traced
    # question dimension (here dim X2 = 2).
    assert chain[1].entries[0, 0].real == pytest.approx(norm + 1.0)
    assert chain[0].entries[0, 0].real == pytest.approx(4 * (norm + 1.0))
    w = DualWitness(Y=chain[0], Y_blocks=(chain[1],))
    feas = check_dual_feasibility(stacked, obj, w, 1e-9)
    assert feas.feasible
    assert min(feas.constraint_min_eigenvalues) >= 1.0


# ----------------------------------------------------------- multi-round games


def test_dual_witness_from_report_refuses_other_problems(hedging):
    objective = hedging.outcomes[1]
    dual = compile_dual(hedging, objective)
    with pytest.raises(DomainError):
        dual_witness_from_report(hedging, dual, solve(dual, 1e-8))
    doubled = compile_primal(parallel_rounds(hedging, 2), threshold_objective(hedging, 2, 1))
    with pytest.raises(DomainError):
        dual_witness_from_report(hedging, doubled, solve(doubled, 1e-8))
    _, _, stacked = make_r2_product_game(np.random.default_rng(1))
    two_rounds = compile_primal(stacked, stacked.outcomes[3])
    with pytest.raises(DomainError):
        dual_witness_from_report(hedging, two_rounds, solve(two_rounds, 1e-8))


def test_r2_product_game_end_to_end(rng):
    g1, g2, stacked = make_r2_product_game(rng)
    p1 = solve(compile_primal(g1, g1.outcomes[1]), 1e-8).primal_value
    p2 = solve(compile_primal(g2, g2.outcomes[1]), 1e-8).primal_value
    obj = stacked.outcomes[3]  # win both rounds
    prob = compile_primal(stacked, obj)
    assert prob.block_names == ("X1", "X")
    # one family of dim(W_j)^2 scalar equalities per chain link:
    # W_1 = X1 (dim 2), W_2 = Y1 x X1 x X2 (dim 8)
    assert prob.constraint_map.m == 2**2 + 8**2
    rep = solve(prob, 1e-8)
    assert rep.status == "optimal"
    assert rep.primal_value == pytest.approx(p1 * p2, abs=1e-5)
    rep_d = solve(compile_dual(stacked, obj), 1e-8)
    assert -rep_d.primal_value == pytest.approx(rep.primal_value, abs=1e-5)
    w = repair_witness(stacked, obj, dual_witness_from_report(stacked, prob, rep))
    feas = check_dual_feasibility(stacked, obj, w, 1e-9)
    assert feas.feasible
    assert feas.value == pytest.approx(rep.primal_value, abs=1e-6)


# ------------------------------------------------------------------ weak duality


def test_weak_duality_on_solution(hedging):
    prob = compile_primal(hedging, hedging.outcomes[1])
    rep = solve(prob, 1e-8)
    pv, dv = check_weak_duality(prob, rep.primal_blocks, rep.dual_multipliers)
    assert pv <= dv + 1e-7
    assert pv == pytest.approx(dv, abs=1e-6)


def test_weak_duality_on_slater_pair(hedging):
    prob = compile_primal(hedging, hedging.outcomes[1])
    primal, _ = slater_points(hedging, hedging.outcomes[1])
    pv, dv = check_weak_duality(prob, primal, prob.dual_start)
    assert pv <= dv + 1e-7
    assert dv - pv > 0.1  # crude pair leaves a visible gap


def test_weak_duality_rejects_infeasible_point(hedging):
    prob = compile_primal(hedging, hedging.outcomes[1])
    bad = {"X": identity(prob.block_space("X"))}  # trace constraint violated
    with pytest.raises(ValidationError, match="constraint"):
        check_weak_duality(prob, bad, prob.dual_start)


def test_weak_duality_rejects_negative_dual_slack(hedging):
    # y = 0 leaves the slack -C, whose smallest eigenvalue is -1/2
    prob = compile_primal(hedging, hedging.outcomes[1])
    primal, _ = slater_points(hedging, hedging.outcomes[1])
    y = np.zeros(prob.constraint_map.m)
    with pytest.raises(ValidationError, match=r"negative slack on block 'X': min eigenvalue -5\.000e-01"):
        check_weak_duality(prob, primal, y)


def test_weak_duality_on_the_compiled_dual(hedging):
    prob = compile_dual(hedging, hedging.outcomes[1])
    rep = solve(prob, 1e-8)
    pv, dv = check_weak_duality(prob, rep.primal_blocks, rep.dual_multipliers)
    assert pv == pytest.approx(rep.primal_value, abs=1e-12)
    assert dv == pytest.approx(rep.dual_value, abs=1e-12)
    assert -pv == pytest.approx(P, abs=1e-6)


# -------------------------------------------------------------- witness checking


def test_tensor_power_witness_value(hedging):
    from hedgekit import witness_tensor_power

    w = witness_tensor_power(hedging_optimal_witness(), 2, hedging)
    pg = parallel_game(hedging, 2)
    feas = check_dual_feasibility(pg, threshold_objective(hedging, 2, 2), w, 1e-9)
    assert feas.feasible
    assert feas.value == pytest.approx(P**2, abs=1e-12)


def test_conjecture_style_witness_is_infeasible(hedging):
    # Summing (rho - Y) / Y words gives the independent-play tail value
    # 1 - (1 - p)^2 ~ 0.9786 < 1, so by weak duality it cannot be feasible.
    from hedgekit.games import repetitions, word_sum

    w0 = hedging_optimal_witness()
    f0 = hedging.rho - w0.Y
    y = word_sum(f0, w0.Y, repetitions(2), lambda ones: ones >= 1)
    w = DualWitness(Y=y)
    pg = parallel_game(hedging, 2)
    feas = check_dual_feasibility(pg, threshold_objective(hedging, 2, 1), w, 1e-9)
    assert not feas.feasible
    assert feas.value == pytest.approx(1 - (1 - P) ** 2, abs=1e-12)


def test_snk_witness_value(hedging):
    from hedgekit import witness_recursive_snk

    w = witness_recursive_snk(hedging_optimal_witness(), hedging, 2, 1)
    pg = parallel_game(hedging, 2)
    feas = check_dual_feasibility(pg, threshold_objective(hedging, 2, 1), w, 1e-9)
    assert feas.feasible
    assert feas.value == pytest.approx(2 * P, abs=1e-12)


def test_witness_space_mismatch(hedging):
    w = hedging_optimal_witness()
    pg = parallel_game(hedging, 2)
    from hedgekit.errors import SpaceError

    with pytest.raises(SpaceError):
        check_dual_feasibility(pg, threshold_objective(hedging, 2, 1), w, 1e-9)


# -------------------------------------------------- classical binomial behaviour


def test_dephased_threshold_matches_binomial(rng):
    from hedgekit.error_reduction import binomial_tail

    g = dephase_game(make_random_game(rng))
    pc = solve(compile_primal(g, g.outcomes[1]), 1e-8).primal_value
    pg = parallel_game(g, 2)
    rep = solve(compile_primal(pg, threshold_objective(g, 2, 1)), 1e-8)
    assert rep.primal_value == pytest.approx(binomial_tail(pc, 2, 1), abs=1e-6)


def test_dephased_hedging_classical_value(hedging):
    dg = dephase_game(hedging)
    rep = solve(compile_primal(dg, dg.outcomes[1]), 1e-8)
    assert rep.primal_value == pytest.approx(classical_optimum(dg), abs=1e-6)
    assert rep.primal_value == pytest.approx(0.5, abs=1e-6)


# --------------------------------------------------------- average-value v = v'


def test_average_value_parallel_repetition(rng):
    g = make_random_game(rng, outcomes=3)
    values = tuple(float(v) for v in rng.random(3))
    v1 = solve(compile_primal(g, value_objective(g, values, 1)), 1e-8).primal_value
    pg = parallel_game(g, 2)
    v2 = solve(compile_primal(pg, value_objective(g, values, 2)), 1e-8).primal_value
    assert v2 == pytest.approx(v1, abs=1e-5)
