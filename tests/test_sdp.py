import re
import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose

from hedgekit import (
    DualWitness,
    HermitianOperator,
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
from hedgekit import sdp, solver, symmetry
from hedgekit.sdp import check_weak_duality, compile_dual, hermitian_basis, slater_points
from hedgekit.solver import BlockMap, ConstraintMap
from hedgekit.witnesses import classical_optimum

from conftest import PARALLEL_CASES, make_r2_product_game, make_random_game, parallel_base

P = WIN_PROBABILITY


def spectral_norm(objective):
    """The norm ``compile_primal`` starts a dense problem from."""
    return float(np.max(np.abs(np.linalg.eigvalsh(objective.entries))))


# ------------------------------------------------------------------ compilation


def test_compile_primal_shape_single_round(hedging):
    prob = compile_primal(hedging, hedging.outcomes[1])
    assert prob.block_names == ("X",)
    assert dict(prob.blocks)["X"].dim == 4
    assert prob.constraint_map.m == 4


def test_compile_primal_shape_two_copies(hedging):
    pg = parallel_game(hedging, 2)
    prob = compile_primal(pg, threshold_objective(hedging, 2, 1))
    assert dict(prob.blocks)["X"].dim == 16
    assert prob.constraint_map.m == 16


def _problem_bytes(prob):
    out = [prob.blocks, prob.offset, prob.constraint_map.b.tobytes(),
           prob.dual_start.tobytes()]
    for bm in prob.constraint_map.blocks:
        perm = None if bm.perm is None else bm.perm.tobytes()
        rows = bm.rows()
        out += [bm.start, bm.stop, bm.pad, rows.dtype, rows.shape, rows.tobytes(), perm]
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
    x = identity(dict(prob.blocks)["X"]) * 0.5
    cmap = prob.constraint_map
    assert_allclose(cmap.apply([x.entries]), cmap.b, rtol=0, atol=1e-12)


def test_hermitian_basis_orthonormal():
    basis = list(hermitian_basis(3))
    assert len(basis) == 9
    for i, a in enumerate(basis):
        for j, b in enumerate(basis):
            expect = 1.0 if i == j else 0.0
            assert np.vdot(a, b).real == pytest.approx(expect, abs=1e-12)


def _held(cmap):
    """``cmap`` with every block's rows held as ``G``, as the kernel holds
    them while it iterates."""
    return ConstraintMap(
        [BlockMap(bm.start, bm.stop, bm.rows(), pad=bm.pad, perm=bm.perm) for bm in cmap.blocks],
        cmap.b,
    )


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
    assert_allclose(_held(cmap).schur(X, Zi), dense_m, rtol=0, atol=1e-12 * scale)


def test_hedging_n4_solves_without_dense_constraints(hedging):
    # d = m = 256: the solve never allocates one (m, d, d) stack
    # (256 MB); tracemalloc sees numpy's buffers.
    import tracemalloc

    prob = compile_primal(parallel_game(hedging, 4), threshold_objective(hedging, 4, 2))
    m, d = prob.constraint_map.m, dict(prob.blocks)["X"].dim
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


def _refuse_the_basis(monkeypatch):
    def refuse(dim):
        raise AssertionError(f"a dense Hermitian basis of dimension {dim} was built")

    monkeypatch.setattr(solver, "hermitian_basis", refuse)
    monkeypatch.setattr(sdp, "hermitian_basis", refuse)


def test_last_link_rows_of_seven_copies_hold_no_basis(hedging, monkeypatch):
    # w = 2^7: the dense basis would be a (16384, 128, 128) complex array,
    # 4 GB.  The rows are read and scattered as coordinates instead.
    g = parallel_rounds(hedging, 7)
    _refuse_the_basis(monkeypatch)
    bm = sdp._chain_link_map(g, 1, g.family(1), 0)
    assert (bm.w, bm.pad, bm.stop, bm.G) == (128, 128, 128**2, None)
    rng = np.random.default_rng(5)
    y = rng.standard_normal(bm.stop)
    (s,) = ConstraintMap([bm], np.zeros(bm.stop)).compact_adjoint(y)
    assert np.array_equal(s, s.conj().T)
    # the same rows on a block without the pad factor, through apply
    cmap = ConstraintMap([BlockMap(0, bm.stop, None)], np.zeros(bm.stop))
    assert_allclose(cmap.apply(cmap.compact_adjoint(y)), y, rtol=0, atol=1e-15)
    a = rng.standard_normal((128, 128)) + 1j * rng.standard_normal((128, 128))
    assert_allclose(cmap.adjoint(cmap.apply([a]))[0], (a + a.conj().T) / 2, rtol=0, atol=1e-14)


def test_copy_symmetric_solve_never_builds_the_basis(hedging, monkeypatch):
    g = parallel_rounds(hedging, 3)
    objective = threshold_objective(hedging, 3, 2)
    _refuse_the_basis(monkeypatch)
    prob = compile_primal(g, objective)
    rep = solve(prob, 1e-8)
    assert rep.status == "optimal" and rep.solved_blocks != (64,)
    pv, dv = check_weak_duality(prob, rep.primal_blocks, rep.dual_multipliers)
    assert pv == pytest.approx(rep.primal_value, abs=1e-12)
    witness = dual_witness_from_report(g, prob, rep)
    assert witness.value == pytest.approx(rep.dual_value, abs=1e-12)


@pytest.mark.parametrize("w", [2, 4, 8, 16])
@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_coordinate_rows_match_their_expansion(w, dtype):
    # apply, compact_adjoint and adjoint of coordinate rows (behind a pad
    # factor and a permutation) against the products of the expand() rows,
    # on matrices that need not be Hermitian
    rng = np.random.default_rng(w)
    pad = 3
    bm = BlockMap(0, w * w, None, pad=pad, perm=rng.permutation(pad * w))
    cmap = ConstraintMap([bm], np.zeros(w * w))
    f = bm.expand()
    x = rng.standard_normal((pad * w,) * 2).astype(dtype)
    if dtype is np.complex128:
        x = x + 1j * rng.standard_normal((pad * w,) * 2)
    y = rng.standard_normal(w * w)
    assert_allclose(cmap.apply([x]), np.einsum("iab,ba->i", f, x).real, rtol=0, atol=1e-12)
    assert_allclose(
        cmap.compact_adjoint(y)[0], np.tensordot(y, hermitian_basis(w), 1), rtol=0, atol=1e-15
    )
    assert_allclose(cmap.adjoint(y)[0], np.tensordot(y, f, 1), rtol=0, atol=1e-15)
    with pytest.raises(ValidationError, match="Hermitian basis"):
        BlockMap(0, w * w + 1, None)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_compiled_b_and_dual_start_are_the_dense_rows_products(hedging, n):
    # w = 2^n; the kernel starts from these bits, so they match exactly
    objective = hedging.outcomes[1] if n == 1 else threshold_objective(hedging, n, 1)
    g = parallel_rounds(hedging, n)
    prob = compile_primal(g, objective)
    (bm,) = prob.constraint_map.blocks
    assert bm.G is None
    (working,) = _held(prob.constraint_map).blocks
    assert np.array_equal(working.G, hermitian_basis(2**n))
    (y,) = slater_points(g, spectral_norm(objective))[1]
    assert np.array_equal(prob.constraint_map.b, np.trace(working.G, axis1=1, axis2=2).real)
    assert np.array_equal(prob.dual_start, (working.gflat @ y.entries.T.reshape(-1)).real)


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


@pytest.mark.parametrize("max_iter", [2.5, "3"])
def test_max_iter_must_be_an_integer(hedging, max_iter):
    prob = compile_primal(hedging, hedging.outcomes[1])
    with pytest.raises(ValidationError, match="max_iter"):
        solve(prob, 1e-8, max_iter=max_iter)


@pytest.mark.parametrize("case", ["dense", "reduced"])
def test_solve_calls_the_kernel_once(hedging, monkeypatch, case):
    # the S_n-reduced solve is a change of variables around the one call
    n = 2 if case == "dense" else 3
    prob = compile_primal(parallel_rounds(hedging, n), threshold_objective(hedging, n, 1))
    callers = []
    kernel = solver.interior_point

    def counted(*args, **kwargs):
        frame = sys._getframe(1)
        callers.append((frame.f_globals["__name__"], frame.f_code.co_name))
        return kernel(*args, **kwargs)

    monkeypatch.setattr(solver, "interior_point", counted)
    rep = solve(prob, 1e-8)
    assert rep.status == "optimal"
    assert callers == [("hedgekit.sdp", "solve")]
    assert (rep.solved_blocks == (16,)) == (case == "dense")


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


def _two_by_two_problem(rows, b, objective):
    sp = space(("A", 2))
    return SdpProblem(
        blocks=(("B", sp),),
        objective={"B": HermitianOperator(sp, objective)},
        constraint_map=ConstraintMap([BlockMap(0, len(rows), rows)], b),
    )


def test_optimal_report_gives_no_reason(hedging):
    rep = solve(compile_primal(hedging, hedging.outcomes[1]), 1e-8)
    assert rep.status == "optimal" and rep.reason is None


def test_iteration_limit_report_names_the_limit(hedging):
    rep = solve(compile_primal(hedging, hedging.outcomes[1]), 1e-8, max_iter=1)
    assert rep.status == "iteration-limit"
    number = r"[-+.\de]+"
    assert re.fullmatch(
        rf"iteration limit 1 reached; before the last step relgap {number}, "
        rf"prel {number}, drel {number}",
        rep.reason,
    )


def test_infeasible_report_names_the_farkas_ray():
    # Tr X = 1 and Tr X = 2
    rep = solve(_two_by_two_problem([np.eye(2)] * 2, [1.0, 2.0], np.eye(2)), 1e-8)
    assert rep.status == "infeasible" and rep.farkas_ray is not None
    assert rep.reason == "a Farkas ray certifies the primal infeasible"


def test_unbounded_report_names_the_guard_that_ended_it():
    # max Tr X s.t. <diag(1, -1), X> = 1 has no finite optimum
    rep = solve(_two_by_two_problem([np.diag([1.0, -1.0])], [1.0], np.eye(2)), 1e-8)
    assert rep.status == "numerical-failure"
    assert rep.reason == "search direction is not finite"


def test_downgraded_report_carries_the_recheck_message(hedging, monkeypatch):
    # an "optimal" X that violates the trace constraint by 1 is downgraded,
    # and the report says which constraint the re-check found violated
    kernel = solver.interior_point

    def doubled(*args, **kwargs):
        raw = kernel(*args, **kwargs)
        raw["X"] = [2 * x for x in raw["X"]]
        return raw

    monkeypatch.setattr(solver, "interior_point", doubled)
    rep = solve(compile_primal(hedging, hedging.outcomes[1]), 1e-8)
    assert rep.status == "numerical-failure"
    assert re.fullmatch(r"primal point violates constraint \d+: residual [-+.\de]+", rep.reason)


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
    primal, chain = slater_points(hedging, spectral_norm(hedging.outcomes[1]))
    x = primal["X"]
    assert min_eigenvalue(x) == pytest.approx(0.5)
    cmap = compile_primal(hedging, hedging.outcomes[1]).constraint_map
    assert_allclose(cmap.apply([x.entries]), cmap.b, rtol=0, atol=1e-12)


def test_slater_dual_margin_at_least_one(hedging):
    _, chain = slater_points(hedging, spectral_norm(hedging.outcomes[1]))
    w = DualWitness(Y=chain[0])
    feas = check_dual_feasibility(hedging, hedging.outcomes[1], w, 1e-9)
    assert feas.feasible
    assert min(feas.constraint_min_eigenvalues) >= 1.0


@pytest.mark.parametrize("n, k", [(n, k) for n in (2, 3, 4) for k in range(1, n + 1)])
def test_slater_dual_margin_is_one_up_to_rounding(hedging, n, k):
    # the margin is exactly 1 only in exact arithmetic: the eigensolve reads
    # it a few ulp below 1 on the hedging copies
    g, objective = parallel_rounds(hedging, n), threshold_objective(hedging, n, k)
    _, chain = slater_points(g, spectral_norm(objective))
    feas = check_dual_feasibility(g, objective, DualWitness(Y=chain[0]), 1e-9)
    assert feas.feasible
    assert min(feas.constraint_min_eigenvalues) >= 1.0 - 1e-12


COPY_SYMMETRIC_CASES = [("hedging", n, k) for n in (3, 4) for k in range(1, n + 1)] + [
    ("random", 3, 2),
    ("hedging", 3, "signed"),  # winning pays 1, losing costs 2: lambda_min is the norm
]


@pytest.mark.parametrize("name, n, k", COPY_SYMMETRIC_CASES)
def test_copy_symmetric_dual_start_takes_the_norm_from_the_reduced_blocks(
    hedging, name, n, k, monkeypatch
):
    game = hedging if name == "hedging" else make_random_game(np.random.default_rng(41))
    g = parallel_rounds(game, n)
    if k == "signed":
        objective = value_objective(game, (-2.0, 1.0), n)
    else:
        objective = threshold_objective(game, n, k)
    widths, eigvalsh = [], np.linalg.eigvalsh

    def recorded(a):
        widths.append(a.shape[-1])
        return eigvalsh(a)

    with monkeypatch.context() as patch:  # no spectrum of the dense objective
        patch.setattr(np.linalg, "eigvalsh", recorded)
        prob = compile_primal(g, objective)
    assert widths and max(widths) < 4**n
    assert prob._copy_symmetry is not None
    assert (prob._copy_symmetry.classes is None) == (game is not hedging)
    # the one rule: the largest |eigenvalue| of the blocks the objective is
    # held in, here the reduced blocks, bit for bit
    norm = max(float(np.max(np.abs(eigvalsh(c)))) for c in prob._reduced_objective)
    (y,) = slater_points(g, norm)[1]
    assert np.diag(y.entries).real.tobytes() == np.full(2**n, norm + 1.0).tobytes()
    np.testing.assert_array_max_ulp(prob.dual_start, sdp.hermitian_coordinates(y.entries), 4)
    # the reduced blocks hold the objective's spectrum
    assert abs(norm - spectral_norm(objective)) <= 8 * np.finfo(float).eps * norm
    # the start compile_primal takes is still a Slater dual with margin 1:
    # exactly 1 where the norm is the top eigenvalue, up to the eigensolve
    start = HermitianOperator(g.family(1), solver.hermitian_combination(prob.dual_start))
    feas = check_dual_feasibility(g, objective, DualWitness(Y=start), 1e-9)
    assert feas.feasible
    assert min(feas.constraint_min_eigenvalues) >= 1.0 - 1e-12


def test_dense_signed_objective_starts_from_its_lowest_eigenvalue(hedging):
    # winning pays 1, losing costs 2 at two copies: a dense problem whose
    # spectral norm is |lambda_min|, read off the aligned objective
    g, objective = parallel_rounds(hedging, 2), value_objective(hedging, (-2.0, 1.0), 2)
    prob = compile_primal(g, objective)
    assert prob._copy_symmetry is None
    (aligned,) = prob.objective.values()
    spectrum = np.linalg.eigvalsh(aligned.entries)
    assert -spectrum[0] > spectrum[-1]
    scale = float(np.max(np.abs(spectrum))) + 1.0
    start = HermitianOperator(g.family(1), solver.hermitian_combination(prob.dual_start))
    assert np.diag(start.entries).real.tobytes() == np.full(4, scale).tobytes()
    feas = check_dual_feasibility(g, objective, DualWitness(Y=start), 1e-9)
    assert feas.feasible
    assert min(feas.constraint_min_eigenvalues) >= 1.0 - 1e-12


def test_compile_dual_takes_one_spectrum_of_the_objective(hedging, monkeypatch):
    # the PSD test, the shift |objective| and the Slater norm come from one
    # eigensolve: lambda = -0.3 (three times) and 0.2 here, so the shift is 0.3
    objective = hedging.outcomes[1] - 0.3 * identity(hedging.spaces)
    seen, eigvalsh = [], np.linalg.eigvalsh

    def recorded(a):
        seen.append(a)
        return eigvalsh(a)

    for name in ("norm", "svd"):
        monkeypatch.setattr(np.linalg, name, None)
    monkeypatch.setattr(np.linalg, "eigvalsh", recorded)
    prob = compile_dual(hedging, objective)
    monkeypatch.undo()
    assert [a is objective.entries for a in seen] == [True]
    norm = float(np.max(np.abs(eigvalsh(objective.entries))))
    assert norm == pytest.approx(0.3, abs=1e-15)
    assert prob.offset == norm * 2
    q1 = prob.primal_start["Q1"].entries
    assert np.diag(q1).real.tobytes() == np.full(2, (norm + 1.0) + norm).tobytes()
    rep = solve(prob, 1e-8)
    assert -rep.primal_value == pytest.approx(P - 0.6, abs=1e-6)


@pytest.mark.parametrize("name", ["hedging", "random"])
def test_copy_symmetric_objective_is_compressed_once(hedging, name, monkeypatch):
    # compile_primal compresses the objective for the Slater norm and keeps
    # the blocks; the solve reads them and compresses only its start
    game = hedging if name == "hedging" else make_random_game(np.random.default_rng(41))
    g, objective = parallel_rounds(game, 3), threshold_objective(game, 3, 2)
    compress, args = symmetry.Reduction.compress, []

    def recorded(self, mat):
        args.append(mat)
        return compress(self, mat)

    monkeypatch.setattr(symmetry.Reduction, "compress", recorded)
    prob = compile_primal(g, objective)
    rep = solve(prob, 1e-8)
    assert rep.status == "optimal"
    (aligned,) = prob.objective.values()
    assert sum(a is aligned.entries for a in args) == 1
    red, _ = symmetry.reduction(prob._copy_symmetry)
    for kept, fresh in zip(prob._reduced_objective, compress(red, aligned.entries), strict=True):
        assert kept.tobytes() == fresh.tobytes()


def test_slater_cascade_scaling_r2(rng):
    g1, g2, stacked = make_r2_product_game(rng)
    obj = stacked.outcomes[3]
    norm = spectral_norm(obj)
    _, chain = slater_points(stacked, norm)
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
    primal, _ = slater_points(hedging, spectral_norm(hedging.outcomes[1]))
    pv, dv = check_weak_duality(prob, primal, prob.dual_start)
    assert pv <= dv + 1e-7
    assert dv - pv > 0.1  # crude pair leaves a visible gap


def test_weak_duality_rejects_infeasible_point(hedging):
    prob = compile_primal(hedging, hedging.outcomes[1])
    bad = {"X": identity(dict(prob.blocks)["X"])}  # trace constraint violated
    with pytest.raises(ValidationError, match="constraint"):
        check_weak_duality(prob, bad, prob.dual_start)


def test_weak_duality_rejects_negative_dual_slack(hedging):
    # y = 0 leaves the slack -C, whose smallest eigenvalue is -1/2
    prob = compile_primal(hedging, hedging.outcomes[1])
    primal, _ = slater_points(hedging, spectral_norm(hedging.outcomes[1]))
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


@pytest.mark.parametrize("tol", [np.nan, np.inf, -np.inf, -1.0])
def test_check_dual_feasibility_refuses_an_unusable_tolerance(hedging, tol):
    # the zero witness (smallest eigenvalue -0.25) read feasible at tol=inf,
    # a "certified" bound of 0 on an optimum of 1; NaN and negative values
    # read every witness infeasible
    g = parallel_rounds(hedging, 2)
    zero = DualWitness(Y=identity(g.family(1)) * 0.0)
    with pytest.raises(ValidationError, match="tol"):
        check_dual_feasibility(g, threshold_objective(hedging, 2, 1), zero, tol)


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
