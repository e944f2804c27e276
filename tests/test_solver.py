"""The interior-point kernel: factored step lengths, Z^-1 from the inverse
Cholesky factor, the Newton step's residual identities, and the
constraint-map edge cases the kernel must accept or certify."""
import numpy as np
import pytest
from numpy.testing import assert_allclose

from hedgekit import solver
from hedgekit.errors import NumericalError, ValidationError
from hedgekit.solver import BlockMap, ConstraintMap, interior_point


def random_pd(rng, d):
    b = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return b @ b.conj().T / d + 0.1 * np.eye(d)


def random_hermitian(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (a + a.conj().T) / 2


def reference_step(s, direction):
    """Largest alpha with s + alpha * direction >= 0, from S^-1/2 by eigh."""
    w, v = np.linalg.eigh(s)
    root_inv = (v / np.sqrt(w)) @ v.conj().T
    lam = np.linalg.eigvalsh(root_inv @ direction @ root_inv)[0]
    return np.inf if lam >= 0 else -1.0 / lam


@pytest.mark.parametrize("d", [4, 16, 64])
def test_max_step_matches_eigh_reference(d):
    rng = np.random.default_rng(600 + d)
    s = random_pd(rng, d)
    li = solver._inv_chol(s)
    for _ in range(3):
        direction = random_hermitian(rng, d)
        alpha = solver._max_step(li, direction)
        assert alpha == pytest.approx(reference_step(s, direction), rel=1e-10)
        assert np.linalg.eigvalsh(s + alpha * direction)[0] == pytest.approx(0.0, abs=1e-9)
    psd = random_pd(rng, d) - 0.1 * np.eye(d)
    assert solver._max_step(li, psd) == np.inf


@pytest.mark.parametrize("d", [4, 16, 64])
def test_inverse_cholesky_factor_gives_inverse(d):
    z = random_pd(np.random.default_rng(700 + d), d)
    li = solver._inv_chol(z)
    assert_allclose(li.conj().T @ li, np.linalg.inv(z), rtol=0, atol=1e-10 * np.abs(np.linalg.inv(z)).max())


def test_inverse_cholesky_rejects_indefinite_and_non_finite():
    with pytest.raises(NumericalError, match="Cholesky"):
        solver._inv_chol(np.diag([1.0, -1.0]).astype(complex))
    with pytest.raises(NumericalError):
        solver._inv_chol(np.array([[1.0, np.nan], [np.nan, 1.0]], dtype=complex))


def random_problem(rng):
    """A feasible, bounded problem with a pad-1 block and a pad-2 Kronecker
    block behind a permutation: row 0 fixes the trace, the rest are random."""
    m, w = 6, 3
    g1 = [np.eye(2)] + [random_hermitian(rng, 2) for _ in range(m - 1)]
    g2 = [np.eye(w)] + [random_hermitian(rng, w) for _ in range(m - 1)]
    blocks = [BlockMap(0, m, g1), BlockMap(0, m, g2, pad=2, perm=rng.permutation(2 * w))]
    feasible = ConstraintMap(blocks, np.zeros(m)).apply([random_pd(rng, 2), random_pd(rng, 2 * w)])
    c = [random_hermitian(rng, 2), random_hermitian(rng, 2 * w)]
    return c, ConstraintMap(blocks, feasible)


def test_each_step_shrinks_the_residuals_along_themselves():
    # From an infeasible start, A(dX) = b - A(X) and A*(dy) - dZ = Rd hold for
    # the corrector step, so each step scales both residuals by 1 - alpha.
    c, A = random_problem(np.random.default_rng(11))
    iterates = [interior_point(c, A, max_iter=k) for k in range(4)]

    def residuals(it):
        rp = A.b - A.apply(it["X"])
        rd = np.concatenate(
            [(ci - az + z).ravel() for ci, az, z in zip(c, A.adjoint(it["y"]), it["Z"])]
        )
        return rp, rd

    ref = [np.linalg.norm(r) for r in residuals(iterates[0])]
    partial_steps = 0
    for prev, cur in zip(iterates, iterates[1:]):
        for r0, r1, size in zip(residuals(prev), residuals(cur), ref):
            scale = 0.0
            if np.linalg.norm(r0) > 1e-9 * size:
                scale = np.vdot(r0, r1).real / np.vdot(r0, r0).real
                assert -1e-12 <= scale <= 1.0
                partial_steps += scale > 1e-3
            assert np.linalg.norm(r1 - scale * r0) <= 1e-9 * size
    assert partial_steps >= 1


def test_factored_kernel_matches_the_optimum_of_its_dual():
    c, A = random_problem(np.random.default_rng(12))
    res = interior_point(c, A, tol=1e-9)
    assert res["status"] == solver.STATUS_OPTIMAL
    assert res["primal_value"] == pytest.approx(res["dual_value"], abs=1e-7)


def test_indefinite_iterate_ends_in_numerical_failure(monkeypatch):
    c, A = random_problem(np.random.default_rng(13))
    chol = solver._chol
    calls = []

    def chol_flipped_from_third_iteration(mat):
        calls.append(None)
        # two stacks, each factoring its X and Z in one call
        return chol(mat if len(calls) <= 4 else -mat)

    monkeypatch.setattr(solver, "_chol", chol_flipped_from_third_iteration)
    res = interior_point(c, A)
    assert res["status"] == solver.STATUS_NUMERICAL
    assert res["iterations"] == 3


def test_start_that_overflows_falls_back_to_the_default_start():
    """``1e308 I`` symmetrizes to an infinite matrix, whose eigenvalues are
    NaN: no positive definite start, so the default start is taken."""
    A = ConstraintMap([BlockMap(0, 1, [np.eye(2)])], [1.0])
    res = interior_point([np.diag([1.0, 0.0])], A, x_start=[1e308 * np.eye(2)])
    assert res["status"] == solver.STATUS_OPTIMAL
    assert np.isfinite(res["X"][0]).all()
    assert res["primal_value"] == pytest.approx(1.0, abs=1e-7)


def test_unbounded_problem_ends_numerical_with_a_finite_iterate():
    """max Tr X s.t. <diag(1, -1), X> = 1 is unbounded; the kernel has no
    status for that, and it ends on a named guard with the last finite
    iterate rather than a non-finite one."""
    A = ConstraintMap([BlockMap(0, 1, [np.diag([1.0, -1.0])])], [1.0])
    res = interior_point([np.eye(2)], A)
    assert res["status"] == solver.STATUS_NUMERICAL
    for part in (res["X"][0], res["y"], res["Z"][0]):
        assert np.isfinite(part).all()
    assert np.isfinite(res["primal_value"])


@pytest.mark.parametrize("scale, b2", [(1.0, 2.0), (0.7, 1.5), (1.7, 1.5), (3.0, 3.0), (5.0, 2.0)])
def test_dependent_rows_with_inconsistent_rhs_are_infeasible(scale, b2):
    # Two copies of one row make the Schur matrix singular; b outside the
    # range of A must be certified whatever the rounding of its LU pivots.
    row = scale * np.eye(2)
    A = ConstraintMap([BlockMap(0, 2, [row, row])], [1.0, b2])
    res = interior_point([np.eye(2)], A)
    assert res["status"] == solver.STATUS_INFEASIBLE
    u = res["farkas"]
    assert A.b @ u < 0
    assert np.linalg.eigvalsh(A.adjoint(u)[0])[0] >= -1e-12


def test_dependent_rows_with_consistent_rhs_solve():
    sz = np.diag([1.0, -1.0])
    A = ConstraintMap([BlockMap(0, 3, [np.eye(2), sz, np.eye(2) + sz])], [1.0, 0.2, 1.2])
    res = interior_point([-np.eye(2)], A)
    assert res["status"] == solver.STATUS_OPTIMAL
    assert res["primal_value"] == pytest.approx(-1.0, abs=1e-7)


@pytest.mark.parametrize("pad", [1, 2])
def test_block_without_rows_is_legal(pad):
    empty = BlockMap(0, 0, np.zeros((0, 2, 2)), pad=pad)
    assert empty.expand().shape == (0, 2 * pad, 2 * pad)
    A = ConstraintMap([BlockMap(0, 1, [np.eye(1)]), empty], [1.0])
    eye = [np.eye(1), np.eye(2 * pad)]
    assert_allclose(A.apply(eye), [1.0])
    assert_allclose(A.adjoint(np.ones(1))[1], np.zeros((2 * pad, 2 * pad)))
    assert_allclose(A.schur(eye, eye), [[1.0]])
    assert A.max_row_norm() == 1.0
    res = interior_point([np.eye(1), -np.eye(2 * pad)], A)
    assert res["status"] == solver.STATUS_OPTIMAL
    assert res["primal_value"] == pytest.approx(1.0, abs=1e-7)


def stacked_problem(widths=(3, 2, 3)):
    """Blocks of the given widths (by default two of width 3 and one of
    width 2) on the same three rows (trace one in total, two random), and
    the same problem written as one block-diagonal block."""
    rng = np.random.default_rng(14)
    m = 3
    rows = [[np.eye(w)] + [random_hermitian(rng, w) for _ in range(m - 1)] for w in widths]
    c = [random_hermitian(rng, w) for w in widths]
    b = np.array([1.0, 0.1, -0.1])
    stacked = ConstraintMap([BlockMap(0, m, g) for g in rows], b)

    def diag(mats):
        out = np.zeros((sum(widths), sum(widths)), dtype=complex)
        for mat, start in zip(mats, np.cumsum((0,) + widths)):
            out[start : start + len(mat), start : start + len(mat)] = mat
        return out

    merged = ConstraintMap([BlockMap(0, m, [diag(g) for g in zip(*rows)])], b)
    return c, stacked, [diag(c)], merged


def test_equal_width_blocks_iterate_as_one_stack(monkeypatch):
    c, A, merged_c, merged = stacked_problem()
    assert solver._stacks(A) == [[(0,), (2,)], [(1,)]]
    seen = []
    iterate = solver._iterate

    def recorded(C, A, *args):
        seen.append([x.shape for x in C])
        return iterate(C, A, *args)

    monkeypatch.setattr(solver, "_iterate", recorded)
    res = interior_point(c, A, tol=1e-10)
    assert seen == [[(2, 3, 3), (1, 2, 2)]]
    oracle = interior_point(merged_c, merged, tol=1e-10)
    assert res["status"] == oracle["status"] == solver.STATUS_OPTIMAL
    assert abs(res["primal_value"] - oracle["primal_value"]) <= 1e-9
    assert abs(res["dual_value"] - oracle["dual_value"]) <= 1e-9
    # X, Z and the block dimensions come back per block, in block order
    assert res["blocks"] == (3, 2, 3)
    assert [x.shape for x in res["X"]] == [x.shape for x in res["Z"]] == [(3, 3), (2, 2), (3, 3)]
    assert_allclose(A.apply(res["X"]), A.b, rtol=0, atol=1e-9)
    assert sum(np.vdot(ci, x).real for ci, x in zip(c, res["X"])) == pytest.approx(
        res["primal_value"], abs=1e-12
    )
    for z, ci, az in zip(res["Z"], c, A.adjoint(res["y"])):
        assert_allclose(z, az - ci, rtol=0, atol=1e-8)


def test_blocks_that_fill_the_widest_width_iterate_as_one_slot(monkeypatch):
    # widths 3, 2, 1, 3 on shared rows: the 2 and the 1 fill a bin of width
    # 3, so the kernel iterates on three slots of width 3, one stack
    widths = (3, 2, 1, 3)
    c, A, merged_c, merged = stacked_problem(widths)
    assert solver._stacks(A) == [[(0,), (1, 2), (3,)]]
    seen, iterates, cnorms = [], [], []
    iterate = solver._iterate

    def recorded(C, A, cnorm, *args):
        seen.append([x.shape for x in C])
        cnorms.append(cnorm)
        out = iterate(C, A, cnorm, *args)
        iterates.append({key: out[key] for key in ("X", "Z")})
        return out

    monkeypatch.setattr(solver, "_iterate", recorded)
    res = interior_point(c, A, tol=1e-10)
    assert seen == [[(3, 3, 3)]]
    # the dual residual is scaled by the largest block, not by the whole
    # stack, so packing leaves drel as it is
    assert cnorms == [max(1.0, max(float(np.linalg.norm(ci)) for ci in c))]
    oracle = interior_point(merged_c, merged, tol=1e-10)
    assert res["status"] == oracle["status"] == solver.STATUS_OPTIMAL
    assert abs(res["primal_value"] - oracle["primal_value"]) <= 1e-9
    assert abs(res["dual_value"] - oracle["dual_value"]) <= 1e-9
    # the slot is a direct sum: nothing outside the two windows
    for key in ("X", "Z"):
        (stack,) = iterates[0][key]
        assert not stack[1][:2, 2:].any() and not stack[1][2:, :2].any()
    # X, Z and the block dimensions come back per block, in block order
    assert res["blocks"] == widths
    shapes = [(w, w) for w in widths]
    assert [x.shape for x in res["X"]] == [z.shape for z in res["Z"]] == shapes
    (xs,), (zs,) = iterates[0]["X"], iterates[0]["Z"]
    assert res["X"][1].tobytes() == xs[1][:2, :2].tobytes()
    assert res["Z"][2].tobytes() == zs[1][2:, 2:].tobytes()
    assert res["X"][3].tobytes() == xs[2].tobytes()
    assert_allclose(A.apply(res["X"]), A.b, rtol=0, atol=1e-9)
    assert sum(np.vdot(ci, x).real for ci, x in zip(c, res["X"])) == pytest.approx(
        res["primal_value"], abs=1e-12
    )
    for z, ci, az in zip(res["Z"], c, A.adjoint(res["y"])):
        assert_allclose(z, az - ci, rtol=0, atol=1e-8)


def test_kernel_lays_out_its_stacks_once_per_solve(monkeypatch):
    c, A, _, _ = stacked_problem((3, 2, 1, 3))
    calls = []
    stacks = solver._stacks
    monkeypatch.setattr(solver, "_stacks", lambda cmap: calls.append(cmap) or stacks(cmap))
    assert interior_point(c, A, tol=1e-10)["status"] == solver.STATUS_OPTIMAL
    assert calls == [A]


@pytest.mark.parametrize("shared", [False, True])
def test_kernel_refuses_a_block_of_width_zero(shared):
    # on the rows of the width-1 block, or on a row range of its own
    empty = BlockMap(0, 1, np.zeros((1, 0, 0))) if shared else BlockMap(1, 1, np.zeros((0, 0, 0)))
    A = ConstraintMap([BlockMap(0, 1, np.ones((1, 1, 1))), empty], [1.0])
    with pytest.raises(ValidationError, match="block 1 has dimension 0"):
        interior_point([np.ones((1, 1)), np.zeros((0, 0))], A)


def test_blocks_that_leave_room_keep_their_own_stacks(monkeypatch):
    c, A, _, _ = stacked_problem((3, 2))
    assert solver._stacks(A) == [[(0,)], [(1,)]]
    seen = []
    iterate = solver._iterate

    def recorded(C, A, *args):
        seen.append([x.shape for x in C])
        return iterate(C, A, *args)

    monkeypatch.setattr(solver, "_iterate", recorded)
    assert interior_point(c, A, tol=1e-10)["status"] == solver.STATUS_OPTIMAL
    assert seen == [[(1, 3, 3), (1, 2, 2)]]


def test_only_plain_blocks_of_one_row_range_share_a_slot():
    one, two = [np.eye(1)], [np.eye(2)]
    # a width-1 block on other rows cannot fill the bin of width 2
    A = ConstraintMap([BlockMap(0, 1, two), BlockMap(0, 1, one), BlockMap(1, 2, one)], [1.0, 1.0])
    assert solver._stacks(A) == [[(0,)], [(1,)], [(2,)]]
    # blocks with a pad or a permutation are slots of their own, whatever
    # their dimension: here a 3 and a 1 leave room for the dimension 2
    three = [np.eye(3)]
    A = ConstraintMap(
        [BlockMap(0, 1, three), BlockMap(0, 1, one), BlockMap(0, 1, one, pad=2),
         BlockMap(0, 1, two, perm=[1, 0])],
        [1.0],
    )
    assert solver._stacks(A) == [[(0,)], [(1,)], [(2,)], [(3,)]]
    res = interior_point([np.eye(d) for d in A.dims], A)
    assert res["status"] == solver.STATUS_OPTIMAL
    assert [x.shape for x in res["X"]] == [(d, d) for d in A.dims]


def test_kernel_refuses_a_stacked_block_map():
    A = ConstraintMap([BlockMap(0, 1, np.eye(2)[None, None])], [1.0])
    with pytest.raises(ValidationError, match="stacks"):
        interior_point([np.eye(2)], A)


def test_non_finite_direction_in_one_stacked_block_is_refused():
    rng = np.random.default_rng(15)
    li = solver._inv_chol(np.stack([random_pd(rng, 3) for _ in range(3)]))
    direction = np.stack([random_hermitian(rng, 3) for _ in range(3)])
    assert 0.0 < solver._max_step(li, direction) < np.inf
    direction[1, 0, 2] = np.nan
    with pytest.raises(NumericalError, match="search direction is not finite"):
        solver._max_step(li, direction)


def test_paired_x_and_z_keep_separate_jitter_retries():
    # X's stack holds a singular block, so its plain factorization fails and
    # the pair falls back to factoring each stack apart: Z, which factors,
    # is never shifted, and X gets the retry it gets alone
    rng = np.random.default_rng(16)
    x = np.stack([np.ones((2, 2), dtype=complex), random_pd(rng, 2)])
    z = np.stack([random_pd(rng, 2), random_pd(rng, 2)])
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(x)
    li = solver._inv_chol(np.stack([x, z]))
    assert li.shape == (2, 2, 2, 2)
    assert li[1].tobytes() == np.linalg.inv(np.linalg.cholesky(z)).tobytes()
    assert li[0].tobytes() == solver._inv_chol(x).tobytes()


def test_paired_step_limits_are_each_stacks_own():
    rng = np.random.default_rng(17)
    x = np.stack([random_pd(rng, 3) for _ in range(2)])
    z = np.stack([random_pd(rng, 3) for _ in range(2)])
    dx = np.stack([random_hermitian(rng, 3) for _ in range(2)])
    dz = np.stack([random_hermitian(rng, 3) for _ in range(2)])
    li = solver._inv_chol(np.stack([x, z]))
    assert li[0].tobytes() == solver._inv_chol(x).tobytes()
    assert li[1].tobytes() == solver._inv_chol(z).tobytes()
    limits = solver._max_step(li, np.stack([dx, dz]))
    assert limits == (solver._max_step(li[0], dx), solver._max_step(li[1], dz))
    assert all(0.0 < a < np.inf for a in limits)


def test_unbounded_stacked_problem_ends_on_the_direction_guard():
    # max Tr X1 + Tr X2 s.t. <diag(1, -1), X1> + <diag(1, -1), X2> = 1
    row = [np.diag([1.0, -1.0])]
    A = ConstraintMap([BlockMap(0, 1, row), BlockMap(0, 1, row)], [1.0])
    assert solver._stacks(A) == [[(0,), (1,)]]
    res = interior_point([np.eye(2), np.eye(2)], A)
    assert res["status"] == solver.STATUS_NUMERICAL
    assert res["reason"] == "search direction is not finite"
    assert all(np.isfinite(x).all() for x in res["X"] + res["Z"])
