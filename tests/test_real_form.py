"""The real form of a conjugation-symmetric problem: which problems take
it, that it returns the optimum and certificates of the complex problem,
and that every other problem keeps the complex iteration."""
import gc
import weakref

import numpy as np
import pytest

from hedgekit import (
    HermitianOperator,
    SdpProblem,
    compile_primal,
    parallel_game,
    parallel_rounds,
    solve,
    space,
    threshold_objective,
    value_objective,
)
from hedgekit import solver
from hedgekit.sdp import check_weak_duality
from hedgekit.solver import BlockMap, ConstraintMap, interior_point

from conftest import make_random_diagonal_game

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]])
SZ = np.diag([1.0, -1.0]).astype(complex)
EYE = np.eye(2, dtype=complex)
REAL, COMPLEX = np.dtype(np.float64), np.dtype(np.complex128)


@pytest.fixture
def kernel_dtype(monkeypatch):
    """Call it after a solve: the one dtype every factor and step length
    ran in (an infeasible solve may stop before its first step length)."""
    seen = set()
    max_step, inv_chol = solver._max_step, solver._inv_chol

    def recording_step(li, direction):
        seen.add(li.dtype)
        return max_step(li, direction)

    def recording_factor(mat):
        seen.add(mat.dtype)
        return inv_chol(mat)

    monkeypatch.setattr(solver, "_max_step", recording_step)
    monkeypatch.setattr(solver, "_inv_chol", recording_factor)

    def pop():
        (dtype,) = seen
        seen.clear()
        return dtype

    return pop


def hedging_problems(hedging, up_to=3):
    for n in range(1, up_to + 1):
        g = hedging if n == 1 else parallel_game(hedging, n)
        for k in range(1, n + 1):
            obj = hedging.outcomes[1] if n == 1 else threshold_objective(hedging, n, k)
            yield f"n{n}-k{k}", compile_primal(g, obj)
        yield f"n{n}-value", compile_primal(g, value_objective(hedging, (0.0, 1.0), n))


def diagonal_problems(count):
    for seed in range(count):
        rng = np.random.default_rng(700 + seed)
        g = make_random_diagonal_game(rng, dq=2 + seed % 2, dy=2 + (seed // 2) % 2)
        yield f"diagonal{seed}", compile_primal(g, g.outcomes[1])


def phase_rotated(prob: SdpProblem) -> SdpProblem:
    """``prob`` conjugated by a fixed diagonal unitary of non-real phases,
    ``D = P (I_pad (x) D_w) P^T`` on each block, so every map keeps its
    Kronecker form: ``G_i -> D_w G_i D_w^dag``, and ``C`` and the primal
    start ``-> D . D^dag``.  The optimum and the multipliers do not change."""
    maps, objective, start = [], {}, {}
    for (name, sp), bm in zip(prob.blocks, prob.constraint_map.blocks):
        dw = np.exp(1j * (0.4 + 0.9 * np.arange(bm.w)))
        rows = dw[:, None] * bm.rows() * dw.conj()
        maps.append(BlockMap(bm.start, bm.stop, rows, pad=bm.pad, perm=bm.perm))
        d = np.diag(bm.lift(np.diag(dw)))

        def rotate(op, d=d, sp=sp):
            return HermitianOperator(sp, d[:, None] * op.entries * d.conj())

        if name in prob.objective:
            objective[name] = rotate(prob.objective[name])
        start[name] = rotate(prob.primal_start[name])
    return SdpProblem(
        blocks=prob.blocks,
        objective=objective,
        constraint_map=ConstraintMap(maps, prob.constraint_map.b),
        offset=prob.offset,
        primal_start=start,
        dual_start=prob.dual_start,
    )


# ------------------------------------------------------------ real-form answers


def test_phase_rotation_gives_the_real_form_optimum(hedging, kernel_dtype):
    cases = list(hedging_problems(hedging)) + list(diagonal_problems(10))
    for name, prob in cases:
        tol = 1e-8
        real = solve(prob, tol)
        assert kernel_dtype() == REAL, name
        rotated = solve(phase_rotated(prob), tol)
        assert kernel_dtype() == COMPLEX, name
        assert real.status == rotated.status == "optimal", name
        assert real.primal_value == pytest.approx(rotated.primal_value, abs=tol), name
        assert real.dual_value == pytest.approx(rotated.dual_value, abs=tol), name


def test_real_form_multipliers_are_a_complex_dual_point(hedging, kernel_dtype):
    # check_weak_duality tests the padded multipliers against every row of
    # the complex problem, the dropped imaginary ones included.
    cases = list(hedging_problems(hedging)) + list(diagonal_problems(20))
    for name, prob in cases:
        rep = solve(prob, 1e-8)
        assert kernel_dtype() == REAL, name
        assert rep.status == "optimal" and rep.farkas_ray is None, name
        assert all(x.entries.dtype == REAL for x in rep.primal_blocks.values())
        assert len(rep.dual_multipliers) == prob.constraint_map.m
        pv, dv = check_weak_duality(prob, rep.primal_blocks, rep.dual_multipliers)
        assert pv == pytest.approx(rep.primal_value, abs=1e-12)
        assert dv == pytest.approx(rep.dual_value, abs=1e-12)


def test_real_form_drops_exactly_the_imaginary_rows(hedging):
    prob = compile_primal(parallel_game(hedging, 4), threshold_objective(hedging, 4, 2))
    A = prob.constraint_map
    (name,) = prob.block_names
    c = [prob.objective[name].entries]
    reduced, keep = solver._working_map(
        c, A, solver._stacks(A), [prob.primal_start[name].entries], prob.dual_start
    )
    # the 16 diagonal and 120 symmetric basis elements of the 16-dim W stay
    assert (A.m, keep.sum()) == (256, 136)
    (bm,) = reduced.blocks
    assert bm.G.dtype == REAL and (bm.start, bm.stop) == (0, 136)
    x = np.random.default_rng(3).normal(size=(bm.dim, bm.dim))
    x = x + x.T
    full = A.apply([x.astype(complex)])
    np.testing.assert_allclose(full[~keep], 0.0, atol=1e-12)
    np.testing.assert_allclose(reduced.apply([x]), full[keep], rtol=0, atol=1e-12)


# --------------------------------------------------------------- guard conditions


def solve_2x2(c, rows, b, kernel_dtype, extra=None, **starts):
    blocks = [BlockMap(0, len(rows), rows)]
    C = [c]
    if extra is not None:
        blocks.append(extra[0])
        C.append(extra[1])
    res = interior_point(C, ConstraintMap(blocks, b), tol=1e-9, **starts)
    assert res["status"] == solver.STATUS_OPTIMAL
    assert kernel_dtype() == COMPLEX
    return res["primal_value"]


def test_real_form_iterates_without_the_complex_working_map(hedging, monkeypatch):
    # the kernel materializes the coordinate rows as a complex basis; once
    # the real rows are taken, that basis is not kept alive
    working, alive = [], []
    rows, iterate = BlockMap.rows, solver._iterate

    def recorded_rows(self):
        out = rows(self)
        working.append(weakref.ref(out))
        return out

    def checked_iterate(C, A, *args):
        gc.collect()
        alive.append([ref() is not None for ref in working])
        assert all(c.dtype == REAL for c in C)
        return iterate(C, A, *args)

    monkeypatch.setattr(BlockMap, "rows", recorded_rows)
    monkeypatch.setattr(solver, "_iterate", checked_iterate)
    prob = compile_primal(parallel_game(hedging, 2), threshold_objective(hedging, 2, 1))
    assert solve(prob, 1e-8).status == "optimal"
    assert alive == [[False]]


@pytest.mark.parametrize("n, k, reduced", [(2, 1, False), (4, 2, True)])
def test_real_form_rows_are_contiguous_float64(hedging, monkeypatch, n, k, reduced):
    # densely at n = 2, in the S_n-reduced blocks at n = 4: every working
    # row array the kernel iterates on is contiguous float64, and no
    # complex array sits behind it as the base of a view
    found, iterate = [], solver._iterate

    def checked_iterate(C, A, *args):
        for bm in A.blocks:
            for a in (bm.G, bm.gflat):
                found.append(a.flags.c_contiguous and a.dtype == REAL)
                while a is not None:
                    found.append(a.dtype != COMPLEX)
                    a = a.base
        return iterate(C, A, *args)

    monkeypatch.setattr(solver, "_iterate", checked_iterate)
    prob = compile_primal(parallel_rounds(hedging, n), threshold_objective(hedging, n, k))
    rep = solve(prob, 1e-8)
    assert rep.status == "optimal"
    assert (rep.solved_blocks != (4**n,)) == reduced
    assert found and all(found)


def test_imaginary_row_with_nonzero_rhs_stays_complex(kernel_dtype):
    # <sigma_y, X> = 1/2 is out of reach of every real X
    value = solve_2x2(SX, [EYE, SY], [1.0, 0.5], kernel_dtype)
    assert value == pytest.approx(np.sqrt(3) / 2, abs=1e-7)


def test_row_mixing_real_and_imaginary_parts_stays_complex(kernel_dtype):
    # r_x + r_y = 0 leaves r_x at most 1/sqrt(2); without the row it is 1
    value = solve_2x2(SX, [EYE, SX + SY], [1.0, 0.0], kernel_dtype)
    assert value == pytest.approx(1 / np.sqrt(2), abs=1e-7)


def test_row_real_on_one_block_and_imaginary_on_another_stays_complex(kernel_dtype):
    # r1_x + r2_y = 0 with both traces 1: r1_x + r2_z peaks at sqrt(2), and
    # at 2 without the row
    zero = np.zeros((2, 2))
    A = ConstraintMap(
        [BlockMap(0, 3, [EYE, zero, SX]), BlockMap(0, 3, [zero, EYE, SY])], [1.0, 1.0, 0.0]
    )
    res = interior_point([SX, SZ], A, tol=1e-9)
    assert res["status"] == solver.STATUS_OPTIMAL
    assert kernel_dtype() == COMPLEX
    assert res["primal_value"] == pytest.approx(np.sqrt(2), abs=1e-7)


def test_complex_primal_start_stays_complex(kernel_dtype):
    value = solve_2x2(SZ, [EYE], [1.0], kernel_dtype, x_start=[(EYE + 0.5 * SY) / 2])
    assert value == pytest.approx(1.0, abs=1e-7)


def test_dual_start_on_an_imaginary_row_stays_complex(kernel_dtype):
    # 2I + sigma_y / 2 - sigma_z > 0, so the kernel starts from this y
    value = solve_2x2(SZ, [EYE, SY], [1.0, 0.0], kernel_dtype, y_start=[2.0, 0.5])
    assert value == pytest.approx(1.0, abs=1e-7)


def test_block_without_rows_and_complex_objective_stays_complex(kernel_dtype):
    # the free block must be driven to 0 along -(I + sigma_y / 2) < 0
    empty = (BlockMap(0, 0, np.zeros((0, 2, 2))), -(EYE + 0.5 * SY))
    value = solve_2x2(SZ, [EYE], [1.0], kernel_dtype, extra=empty)
    assert value == pytest.approx(1.0, abs=1e-7)


# ------------------------------------------------------------------ Farkas rays


def ray_problem(rows, b, objective):
    sp = space(("A", 2))
    return SdpProblem(
        blocks=(("B", sp),),
        objective={"B": HermitianOperator(sp, objective)},
        constraint_map=ConstraintMap([BlockMap(0, len(rows), rows)], b),
    )


@pytest.mark.parametrize(
    "rows, b, objective, dtype",
    [
        ([EYE, EYE], [1.0, 2.0], EYE, REAL),  # Tr X = 1 and Tr X = 2
        ([EYE, SY], [1.0, 2.0], SY, COMPLEX),  # <sigma_y, X> <= Tr X
    ],
)
def test_infeasible_report_carries_a_checkable_farkas_ray(rows, b, objective, dtype, kernel_dtype):
    prob = ray_problem(rows, b, objective)
    rep = solve(prob, 1e-8)
    assert kernel_dtype() == dtype
    assert rep.status == "infeasible"
    u = np.asarray(rep.farkas_ray)
    assert u.shape == (prob.constraint_map.m,)
    assert prob.constraint_map.b @ u < 0
    (slack,) = prob.constraint_map.adjoint(u)
    assert np.linalg.eigvalsh(slack)[0] >= -1e-12 * np.abs(slack).max()


def test_farkas_ray_is_full_length_with_zeros_at_dropped_rows(kernel_dtype):
    # the imaginary row <sigma_y, X> = 0 is dropped from the real form
    A = ConstraintMap([BlockMap(0, 3, [EYE, SY, EYE])], [1.0, 0.0, 2.0])
    res = interior_point([EYE], A)
    assert kernel_dtype() == REAL
    assert res["status"] == solver.STATUS_INFEASIBLE
    assert res["farkas"].shape == (3,) and res["y"].shape == (3,)
    assert res["farkas"][1] == 0.0 and res["y"][1] == 0.0
    assert all(z.dtype == REAL for z in res["X"] + res["Z"])
