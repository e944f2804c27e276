import numpy as np
import pytest
from numpy.testing import assert_allclose

from hedgekit import (
    DensityOperator,
    HermitianOperator,
    KrausChannel,
    SpaceList,
    apply_channel,
    choi,
    dephase,
    identity,
    inner,
    kron,
    min_eigenvalue,
    partial_trace,
    permute_systems,
    space,
)
from hedgekit.errors import SpaceError, ValidationError
from hedgekit.sampling import random_channel, random_density, random_psd

from conftest import random_hermitian

A2 = space(("A", 2))
B2 = space(("B", 2))
SY = np.array([[0, -1j], [1j, 0]])


def op(label_dims, mat):
    return HermitianOperator(SpaceList(label_dims), mat)


# ---------------------------------------------------------------- construction


def test_hermiticity_drift_symmetrized():
    mat = np.array([[1.0, 1e-14 + 1j * 1e-14], [0.0, 2.0]])
    h = op((("A", 2),), mat)
    assert_allclose(h.entries, h.entries.conj().T)


def test_hermiticity_drift_beyond_tolerance_rejected():
    with pytest.raises(ValidationError):
        op((("A", 2),), np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_desk_cap_enforced():
    with pytest.raises(ValidationError):
        identity(space(("big", 512)))


def test_density_operator_validations():
    with pytest.raises(ValidationError):
        DensityOperator(A2, np.diag([0.75, 0.75]))  # trace 1.5
    with pytest.raises(ValidationError):
        DensityOperator(A2, np.diag([1.5, -0.5]))  # negative eigenvalue


def test_kraus_channel_trace_preservation_checked():
    with pytest.raises(ValidationError):
        KrausChannel(A2, A2, (np.diag([1.0, 0.5]),))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
def test_non_finite_entries_are_refused(bad):
    """A NaN passes every ``drift > tol`` comparison, so the cast refuses
    it before any of them are made; an infinity likewise."""
    mat = np.array([[0.5, 0.0], [0.0, 0.5]], dtype=type(bad))
    mat[0, 0] = bad
    for build in (
        lambda: HermitianOperator(A2, mat),
        lambda: DensityOperator(A2, mat),
        lambda: KrausChannel(A2, A2, (mat,)),
    ):
        with pytest.raises(ValidationError, match="non-finite entries"):
            build()


def test_symmetrization_that_overflows_is_refused():
    """Entries near the largest float are finite, but ``(m + m^dag) / 2``
    overflows to infinity: the stored matrix is checked, not the input."""
    with pytest.raises(ValidationError, match="symmetrized matrix has non-finite entries"):
        HermitianOperator(A2, 1e308 * np.eye(2))
    with pytest.raises(ValidationError, match="drift inf exceeds"):
        HermitianOperator(A2, np.array([[0.0, 1e308], [-1e308, 0.0]]))
    assert HermitianOperator(A2, 8e307 * np.eye(2)).trace() == 1.6e308


def test_operator_without_imaginary_part_is_stored_real():
    real = np.array([[1.0, 0.5], [0.5, 2.0]])
    for mat in (real, real.astype(complex), [[1, 0], [0, 1]]):
        assert op((("A", 2),), mat).entries.dtype == np.float64
    assert_allclose(op((("A", 2),), real.astype(complex)).entries, real, rtol=0, atol=0)


def test_any_imaginary_entry_keeps_complex():
    for mat in (np.array([[1.0, 1e-300j], [-1e-300j, 1.0]]), np.diag([1.0, 2.0]) + 0.25 * SY):
        assert op((("A", 2),), mat).entries.dtype == np.complex128


def test_tensor_algebra_of_real_operators_stays_real(rng):
    a = op((("A", 2),), np.array([[1.0, 0.5], [0.5, 2.0]]))
    b = op((("B", 3),), np.diag([1.0, 2.0, 3.0]))
    ab = kron(a, b)
    assert ab.entries.dtype == np.float64
    assert partial_trace(ab, {"B"}).entries.dtype == np.float64
    assert (ab + identity(ab.spaces) * 0.5).entries.dtype == np.float64
    assert dephase(random_hermitian(rng, A2)).entries.dtype == np.float64


def test_real_channels_stay_real_and_complex_ones_complex(rng):
    from hedgekit.hedging import phase_flip_strategy

    flip = KrausChannel(A2, space(("Y", 2)), (np.diag([-1.0, 1.0]),))
    assert flip.kraus[0].dtype == np.float64
    assert choi(flip).entries.dtype == np.float64
    assert apply_channel(flip, op((("A", 2),), np.diag([0.25, 0.75]))).entries.dtype == np.float64
    rho = random_density(rng, space(("A", 2), ("R", 2)))
    k = np.kron(np.diag([-1.0, 1.0]), np.eye(2))
    assert_allclose(apply_channel(flip, rho).entries, k @ rho.entries @ k.T, atol=1e-13)
    assert phase_flip_strategy().X.entries.dtype == np.float64
    ch = random_channel(rng, A2, space(("Y", 3)))
    assert all(k.dtype == np.complex128 for k in ch.kraus)
    assert choi(ch).entries.dtype == np.complex128


# ---------------------------------------------------------------------- kron


def test_kron_identity_case():
    out = kron(identity(A2), identity(B2))
    assert_allclose(out.entries, np.eye(4))
    assert out.spaces.labels == ("A", "B")


def test_kron_diagonal_case():
    a = op((("A", 2),), np.diag([1.0, 2.0]))
    b = op((("B", 2),), np.diag([3.0, 4.0]))
    assert_allclose(kron(a, b).entries, np.diag([3.0, 4.0, 6.0, 8.0]))


def test_kron_trace_multiplicative(rng):
    for _ in range(10):
        a = random_hermitian(rng, A2)
        b = random_hermitian(rng, space(("B", 3)))
        assert kron(a, b).trace() == pytest.approx(a.trace() * b.trace(), abs=1e-12)


def test_kron_label_collision():
    with pytest.raises(SpaceError):
        kron(identity(A2), identity(A2))


def test_kron_and_identity_refuse_past_the_cap_before_allocating(monkeypatch):
    a, b = identity(space(("A", 16))), identity(space(("B", 32)))

    def refuse(*args, **kwargs):
        raise AssertionError("a past-cap matrix was allocated")

    monkeypatch.setattr(np, "kron", refuse)
    monkeypatch.setattr(np, "eye", refuse)
    with pytest.raises(ValidationError, match="desk-scale cap"):
        kron(a, b)  # 16 * 32 = 512 > 256
    with pytest.raises(ValidationError, match="desk-scale cap"):
        identity(space(("big", 4**8)))  # the block of 8 hedging copies


@pytest.mark.parametrize("da, db", [(1, 1), (1, 4), (2, 2), (4, 4), (8, 2), (64, 4)])
@pytest.mark.parametrize("real_a", [True, False])
@pytest.mark.parametrize("real_b", [True, False])
def test_kron_matches_numpy_kron_bit_for_bit(rng, da, db, real_a, real_b):
    # up to the size of the words of four hedging copies (64 x 64 (x) 4 x 4)
    a, b = random_hermitian(rng, [("A", da)]), random_hermitian(rng, [("B", db)])
    a = op((("A", da),), a.entries.real) if real_a else a
    b = op((("B", db),), b.entries.real) if real_b else b
    out, want = kron(a, b).entries, np.kron(a.entries, b.entries)
    assert out.dtype == want.dtype and out.tobytes() == want.tobytes()


def test_kron_past_the_cap_allocates_nothing_of_its_size():
    import tracemalloc

    a, b = identity(space(("A", 16))), identity(space(("B", 32)))
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError, match="desk-scale cap"):
            kron(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 512 * 512 * 8 // 4


def test_kron_psd_monotonicity(rng):
    # A >= B >= 0 and C >= D >= 0 implies the tensor products stay ordered.
    for _ in range(10):
        b = random_psd(rng, A2)
        d = random_psd(rng, B2)
        a = b + random_psd(rng, A2)
        c = d + random_psd(rng, B2)
        assert min_eigenvalue(kron(a, c) - kron(b, d)) >= -1e-10


# ------------------------------------------------------------- partial trace


def test_partial_trace_factorizes(rng):
    a = random_hermitian(rng, A2)
    b = random_hermitian(rng, space(("B", 3)))
    reduced = partial_trace(kron(a, b), {"B"})
    assert_allclose(reduced.entries, b.trace() * a.entries, atol=1e-12)


def test_partial_trace_of_maximally_entangled():
    u = np.zeros(4)
    u[0] = u[3] = 1 / np.sqrt(2)
    state = DensityOperator(space(("X", 2), ("Z", 2)), np.outer(u, u))
    reduced = partial_trace(state, {"X"})
    assert_allclose(reduced.entries, np.eye(2) / 2, atol=1e-14)


def test_choi_marginal_is_identity_for_channels(rng):
    for _ in range(100):
        ch = random_channel(rng, A2, space(("Y", 3)), kraus_count=2)
        j = choi(ch)
        marginal = partial_trace(j, set(ch.output_spaces.labels))
        assert_allclose(marginal.entries, np.eye(2), atol=1e-10)
        assert min_eigenvalue(j) >= -1e-10


def test_partial_trace_preserves_trace(rng):
    a = random_hermitian(rng, space(("A", 2), ("B", 2), ("C", 3)))
    for labels in ({"A"}, {"B", "C"}, {"A", "B", "C"}):
        assert partial_trace(a, labels).trace() == pytest.approx(a.trace(), abs=1e-12)


def test_partial_trace_stages_commute(rng):
    a = random_hermitian(rng, space(("A", 2), ("B", 2), ("C", 2)))
    two_stage = partial_trace(partial_trace(a, {"A"}), {"C"})
    one_stage = partial_trace(a, {"A", "C"})
    assert_allclose(two_stage.entries, one_stage.entries, atol=1e-13)


def test_partial_trace_unknown_label():
    with pytest.raises(SpaceError):
        partial_trace(identity(A2), {"Q"})


# ----------------------------------------------------------------- permutation


def test_permute_identity_is_noop(rng):
    a = random_hermitian(rng, space(("A", 2), ("B", 3)))
    assert permute_systems(a, ("A", "B")) is a


def test_permute_swap_matches_kron(rng):
    a = random_hermitian(rng, A2)
    b = random_hermitian(rng, space(("B", 3)))
    swapped = permute_systems(kron(a, b), ("B", "A"))
    assert_allclose(swapped.entries, kron(b, a).entries, atol=1e-13)


def test_permute_involution_bit_exact(rng):
    a = random_hermitian(rng, space(("A", 2), ("B", 3), ("C", 2)))
    back = permute_systems(permute_systems(a, ("C", "A", "B")), ("A", "B", "C"))
    assert np.array_equal(back.entries, a.entries)


def test_permute_preserves_spectrum(rng):
    a = random_hermitian(rng, space(("A", 2), ("B", 3)))
    sa = np.linalg.eigvalsh(a.entries)
    sb = np.linalg.eigvalsh(permute_systems(a, ("B", "A")).entries)
    assert_allclose(sa, sb, atol=1e-12)


def test_permute_rejects_non_permutation():
    with pytest.raises(SpaceError):
        permute_systems(identity(A2), ("A", "A"))


# ------------------------------------------------------------------ eigenvalues


def test_min_eigenvalue_examples(rng):
    assert min_eigenvalue(identity(A2)) == pytest.approx(1.0)
    assert min_eigenvalue(op((("A", 2),), np.diag([3.0, -2.0]))) == pytest.approx(-2.0)
    for _ in range(10):
        assert min_eigenvalue(random_psd(rng, space(("A", 3)))) >= -1e-12


# ------------------------------------------------------------------------ choi


def test_choi_identity_channel():
    j = choi(KrausChannel(A2, B2, (np.eye(2),)))
    expect = np.zeros((4, 4))
    for i in range(2):
        for k in range(2):
            expect[2 * i + i, 2 * k + k] = 1.0
    assert_allclose(j.entries, expect)
    assert j.trace() == pytest.approx(2.0)
    assert np.linalg.matrix_rank(j.entries) == 1


def test_choi_dephasing_channel():
    j = choi(KrausChannel(A2, A2, (np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))))
    assert_allclose(j.entries, np.diag([1.0, 0.0, 0.0, 1.0]))


def test_choi_multiplicative_under_tensor(rng):
    x2 = space(("X2", 2))
    y2 = space(("Y2", 2))
    ch1 = random_channel(rng, space(("X1", 2)), space(("Y1", 2)))
    ch2 = random_channel(rng, x2, y2)
    joint = KrausChannel(
        ch1.input_spaces.concat(x2),
        ch1.output_spaces.concat(y2),
        tuple(np.kron(k1, k2) for k1 in ch1.kraus for k2 in ch2.kraus),
    )
    lhs = choi(joint)
    rhs = permute_systems(kron(choi(ch1), choi(ch2)), lhs.spaces.labels)
    assert_allclose(lhs.entries, rhs.entries, atol=1e-12)


# --------------------------------------------------------------- apply_channel


def test_apply_identity_channel(rng):
    rho = random_density(rng, space(("A", 2), ("R", 3)))
    out = apply_channel(KrausChannel(A2, A2, (np.eye(2),)), rho)
    assert_allclose(out.entries, rho.entries, atol=1e-13)
    assert out.spaces.labels == ("A", "R")


def test_apply_dephasing_matches_dephase(rng):
    rho = random_density(rng, A2)
    dephasing = KrausChannel(A2, A2, (np.diag([1.0, 0.0]), np.diag([0.0, 1.0])))
    out = apply_channel(dephasing, rho)
    assert_allclose(out.entries, dephase(rho).entries, atol=1e-13)


def test_apply_channel_preserves_trace_and_positivity(rng):
    rho = random_density(rng, space(("A", 2), ("R", 2)))
    ch = random_channel(rng, A2, space(("Y", 3)))
    out = apply_channel(ch, rho)
    assert out.trace() == pytest.approx(1.0, abs=1e-10)
    assert min_eigenvalue(out) >= -1e-10


def test_phase_flip_on_two_copies_overlap():
    # Two copies of (|00> + |11>)/sqrt(2); flipping the sign of |00> on the
    # two question qubits leaves overlap 1/sqrt(2) with v (x) w.
    c, s = np.cos(np.pi / 8), np.sin(np.pi / 8)
    u = np.zeros(4)
    u[0] = u[3] = 1 / np.sqrt(2)
    one = DensityOperator(space(("X1", 2), ("Z1", 2)), np.outer(u, u))
    two = DensityOperator(space(("X2", 2), ("Z2", 2)), np.outer(u, u))
    state = DensityOperator(one.spaces.concat(two.spaces), np.kron(one.entries, two.entries))
    flip = np.eye(4)
    flip[0, 0] = -1.0
    ch = KrausChannel(space(("X1", 2), ("X2", 2)), space(("Y1", 2), ("Y2", 2)), (flip,))
    out = apply_channel(ch, state)
    v = np.zeros(4)
    v[0], v[3] = c, s
    w = np.zeros(4)
    w[0], w[3] = -s, c
    vw = np.kron(v, w)  # on (Y1, Z1, Y2, Z2)
    aligned = permute_systems(out, ("Y1", "Z1", "Y2", "Z2"))
    overlap_sq = float(np.real(vw @ aligned.entries @ vw))
    assert overlap_sq == pytest.approx(0.5, abs=1e-12)


def test_apply_channel_dimension_mismatch():
    rho = random_density(np.random.default_rng(0), space(("A", 3)))
    with pytest.raises(SpaceError):
        apply_channel(KrausChannel(A2, A2, (np.eye(2),)), rho)


# --------------------------------------------------------------------- dephase


def test_dephase_diagonal_unchanged():
    a = op((("A", 2),), np.diag([1.0, 2.0]))
    assert_allclose(dephase(a).entries, a.entries)


def test_dephase_kills_offdiagonals():
    a = op((("A", 2),), np.array([[1.0, 1j], [-1j, 1.0]]))
    assert_allclose(dephase(a).entries, np.eye(2))


def test_dephase_idempotent(rng):
    a = random_hermitian(rng, space(("A", 3)))
    once = dephase(a)
    assert_allclose(dephase(once).entries, once.entries)
    assert once.trace() == pytest.approx(a.trace(), abs=1e-12)


# ----------------------------------------------------------------------- inner


def test_inner_aligns_by_label(rng):
    a = random_hermitian(rng, space(("A", 2), ("B", 2)))
    b = random_hermitian(rng, space(("B", 2), ("A", 2)))
    direct = inner(a, permute_systems(b, ("A", "B")))
    assert inner(a, b) == pytest.approx(direct, abs=1e-12)
