"""Dense matrix algebra over labeled tensor-product spaces.

Operators are stored as dense matrices tagged with a
:class:`~hedgekit.spaces.SpaceList`: ``float64`` when the symmetrized
matrix has no imaginary part (exactly zero, no tolerance), ``complex128``
otherwise.  Tensor products, partial traces, sums and scalings of real
operators stay real.  No operator past ``DESK_DIM_CAP`` exists: the
constructor refuses one, and :func:`kron` and :func:`identity` refuse it
before allocating.  Only this module decides what a valid matrix is:
one cast refuses non-finite entries, and :func:`hermitian_violation`
serves the constructor and :mod:`hedgekit.sdp`'s constraint rows.
Construction symmetrizes away floating-point drift; drift beyond
tolerance is an error, and so is an overflowing symmetrization, so no
constructed operator holds a NaN or an infinity.  Eigendecomposition
(``numpy.linalg.eigvalsh``) is the single numerical kernel behind
positivity tests.
"""
from __future__ import annotations

import string
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, SpaceError, ValidationError
from .spaces import DESK_DIM_CAP, SpaceList

HERMITICITY_TOL = 1e-12
PSD_TOL = 1e-10
TRACE_PRESERVING_TOL = 1e-10
#: Largest off-diagonal entry of an operator that counts as diagonal.
DIAGONAL_TOL = 1e-12


def _check_cap(spaces: SpaceList):
    if spaces.dim > DESK_DIM_CAP:
        raise ValidationError(
            f"total dimension {spaces.dim} exceeds the desk-scale cap {DESK_DIM_CAP}"
        )


def _as_array(entries, what: str = "matrix") -> np.ndarray:
    """``entries`` as ``float64`` when real and ``complex128`` otherwise;
    a non-finite entry is refused, naming ``what``."""
    arr = np.asarray(entries)
    arr = np.asarray(arr, dtype=np.complex128 if np.iscomplexobj(arr) else np.float64)
    if not np.isfinite(arr).all():
        raise ValidationError(f"{what} has non-finite entries")
    return arr


def hermitian_violation(stack: np.ndarray):
    """``(index, reason)`` for the first matrix of a ``(k, w, w)`` stack
    that has a non-finite entry or drifts from Hermitian by more than
    ``HERMITICITY_TOL * max(1, largest entry)``; None when all pass."""
    with np.errstate(over="ignore", invalid="ignore"):
        drift = np.abs(stack - stack.conj().transpose(0, 2, 1))
    # a non-finite entry makes its drift NaN or infinite, failing this test too
    if drift.max(initial=0.0) <= HERMITICITY_TOL:  # every scale is at least 1
        return None
    finite = np.isfinite(stack).all(axis=(1, 2))
    if not finite.all():
        return int(np.argmin(finite)), "has non-finite entries"
    drift = drift.max(axis=(1, 2))
    bad = np.flatnonzero(drift > HERMITICITY_TOL * np.maximum(1.0, np.abs(stack).max(axis=(1, 2))))
    if bad.size:
        return int(bad[0]), f"is not Hermitian: drift {drift[bad[0]]:.3e} exceeds tolerance"
    return None


@dataclass(frozen=True)
class HermitianOperator:
    """A Hermitian matrix on an ordered list of labeled factors, real
    (``float64``) when it has no imaginary part."""

    spaces: SpaceList
    entries: np.ndarray

    def __init__(self, spaces: SpaceList, entries, *, _trusted: bool = False):
        if not isinstance(spaces, SpaceList):
            spaces = SpaceList(spaces)
        _check_cap(spaces)
        mat = entries if _trusted else _as_array(entries)
        if mat.shape != (spaces.dim,) * 2:
            if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
                raise ValidationError(f"expected a square matrix, got shape {mat.shape}")
            raise SpaceError(
                f"matrix of size {mat.shape[0]} does not match total dimension {spaces.dim}"
            )
        if not _trusted:
            found = hermitian_violation(mat[None])
            if found is not None:
                raise ValidationError(f"matrix {found[1]}")
            with np.errstate(over="ignore"):  # an overflowing sum is refused below
                mat = (mat + mat.conj().T) / 2
            if not np.isfinite(mat).all():
                raise ValidationError("symmetrized matrix has non-finite entries")
            if np.iscomplexobj(mat) and not np.any(mat.imag):
                mat = mat.real
        mat = np.ascontiguousarray(mat)
        mat.setflags(write=False)
        object.__setattr__(self, "spaces", spaces)
        object.__setattr__(self, "entries", mat)

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def _wrap(spaces: SpaceList, entries: np.ndarray) -> "HermitianOperator":
        """Internal fast path for results that are Hermitian by algebra;
        keeps the dtype of ``entries``."""
        return HermitianOperator(spaces, entries, _trusted=True)

    @property
    def dim(self) -> int:
        return self.spaces.dim

    def trace(self) -> float:
        return float(np.trace(self.entries).real)

    def relabel(self, mapping) -> "HermitianOperator":
        return HermitianOperator._wrap(self.spaces.relabel(mapping), self.entries)

    # -- arithmetic (real-linear combinations stay Hermitian) -----------------

    def _check_same_spaces(self, other: "HermitianOperator"):
        if self.spaces != other.spaces:
            raise SpaceError(
                f"operands live on different spaces: {self.spaces.entries} vs "
                f"{other.spaces.entries}"
            )

    def __add__(self, other: "HermitianOperator") -> "HermitianOperator":
        self._check_same_spaces(other)
        return HermitianOperator._wrap(self.spaces, self.entries + other.entries)

    def __sub__(self, other: "HermitianOperator") -> "HermitianOperator":
        self._check_same_spaces(other)
        return HermitianOperator._wrap(self.spaces, self.entries - other.entries)

    def __mul__(self, scalar) -> "HermitianOperator":
        scalar = float(scalar)
        return HermitianOperator._wrap(self.spaces, scalar * self.entries)

    __rmul__ = __mul__

    def __neg__(self) -> "HermitianOperator":
        return HermitianOperator._wrap(self.spaces, -self.entries)


class DensityOperator(HermitianOperator):
    """Positive semidefinite, unit-trace operator."""

    def __init__(self, spaces, entries):
        super().__init__(spaces, entries)
        lo = min_eigenvalue(self)
        if lo < -PSD_TOL:
            raise ValidationError(f"not positive semidefinite: min eigenvalue {lo:.3e}")
        tr = self.trace()
        if abs(tr - 1.0) > PSD_TOL:
            raise ValidationError(f"trace {tr!r} differs from 1 beyond tolerance")


@dataclass(frozen=True)
class KrausChannel:
    """Completely positive trace-preserving map given by Kraus operators,
    each stored as ``float64`` when real and ``complex128`` otherwise."""

    input_spaces: SpaceList
    output_spaces: SpaceList
    kraus: tuple[np.ndarray, ...]

    def __init__(self, input_spaces, output_spaces, kraus):
        if not isinstance(input_spaces, SpaceList):
            input_spaces = SpaceList(input_spaces)
        if not isinstance(output_spaces, SpaceList):
            output_spaces = SpaceList(output_spaces)
        din, dout = input_spaces.dim, output_spaces.dim
        ops = []
        for k, op in enumerate(kraus):
            op = _as_array(op, f"Kraus operator {k}")
            if op.shape != (dout, din):
                raise SpaceError(
                    f"Kraus operator {k} has shape {op.shape}, expected {(dout, din)}"
                )
            op = np.ascontiguousarray(op)
            op.setflags(write=False)
            ops.append(op)
        if not ops:
            raise ValidationError("a channel needs at least one Kraus operator")
        total = sum(op.conj().T @ op for op in ops)
        drift = np.max(np.abs(total - np.eye(din)))
        if not drift <= TRACE_PRESERVING_TOL:  # an overflowing sum is no identity
            raise ValidationError(
                f"channel is not trace preserving: sum of K^dag K deviates from the "
                f"identity by {drift:.3e}"
            )
        object.__setattr__(self, "input_spaces", input_spaces)
        object.__setattr__(self, "output_spaces", output_spaces)
        object.__setattr__(self, "kraus", tuple(ops))


# -- elementary constructors ---------------------------------------------------


def identity(spaces) -> HermitianOperator:
    if not isinstance(spaces, SpaceList):
        spaces = SpaceList(spaces)
    _check_cap(spaces)
    return HermitianOperator._wrap(spaces, np.eye(spaces.dim))


# -- core operations -----------------------------------------------------------


def kron(a: HermitianOperator, b: HermitianOperator) -> HermitianOperator:
    """Tensor product; spaces are concatenated (labels must not collide).
    A product past the desk-scale cap is refused before it is allocated."""
    spaces = a.spaces.concat(b.spaces)
    _check_cap(spaces)
    # np.kron's multiply, without its generic shape handling
    prod = a.entries[:, None, :, None] * b.entries[None, :, None, :]
    return HermitianOperator._wrap(spaces, prod.reshape(spaces.dim, spaces.dim))


def _tensor_view(op: HermitianOperator) -> np.ndarray:
    dims = op.spaces.dims
    return op.entries.reshape(dims + dims)


def partial_trace(a: HermitianOperator, traced_labels) -> HermitianOperator:
    """Trace out the named factors; the remaining factors keep their order."""
    traced = set(traced_labels)
    labels = a.spaces.labels
    unknown = traced - set(labels)
    if unknown:
        raise SpaceError(f"unknown labels {sorted(unknown)}; have {labels}")
    if not traced:
        return a
    n = len(labels)
    letters = string.ascii_letters
    if 2 * n > len(letters):
        raise ValidationError("too many tensor factors")
    row = list(letters[:n])
    col = list(letters[n : 2 * n])
    for i, lab in enumerate(labels):
        if lab in traced:
            col[i] = row[i]
    out = "".join(r for r, lab in zip(row, labels) if lab not in traced) + "".join(
        c for c, lab in zip(col, labels) if lab not in traced
    )
    sub = "".join(row) + "".join(col) + "->" + out
    reduced = np.einsum(sub, _tensor_view(a))
    remaining = a.spaces.drop(traced)
    return HermitianOperator._wrap(remaining, reduced.reshape(remaining.dim, remaining.dim))


def permute_systems(a: HermitianOperator, new_order) -> HermitianOperator:
    """Reorder tensor factors by conjugating with the permutation unitary.

    Pure data movement: permuting back restores the input bit-exactly.
    """
    new_spaces = a.spaces.reorder(new_order)
    if new_spaces == a.spaces:
        return a
    n = len(a.spaces)
    perm = [a.spaces.position(lab) for lab in new_spaces.labels]
    axes = perm + [p + n for p in perm]
    mat = _tensor_view(a).transpose(axes).reshape(a.dim, a.dim)
    return HermitianOperator._wrap(new_spaces, mat)


def align(a: HermitianOperator, spaces: SpaceList) -> HermitianOperator:
    """Permute ``a`` onto the factor order of ``spaces`` (same label set)."""
    if a.spaces == spaces:
        return a
    out = permute_systems(a, spaces.labels)
    if out.spaces != spaces:
        raise SpaceError(
            f"operator factors {a.spaces.entries} do not match target {spaces.entries}"
        )
    return out


def min_eigenvalue(a: HermitianOperator) -> float:
    try:
        return float(np.linalg.eigvalsh(a.entries)[0])
    except np.linalg.LinAlgError as exc:  # pragma: no cover - numpy rarely fails here
        raise NumericalError(f"eigensolver failed: {exc}") from exc


def choi(ch: KrausChannel) -> HermitianOperator:
    """Choi operator of a channel, living on output (x) input spaces.

    For Kraus operators ``K`` this is the sum of ``vec(K) vec(K)^dag``
    with row-major vectorization, which places the output factor first.
    Input labels that collide with output labels get a prime suffix so
    the two copies stay distinguishable.
    """
    dout = ch.output_spaces.dim
    din = ch.input_spaces.dim
    mat = np.zeros((dout * din, dout * din), dtype=np.result_type(*ch.kraus))
    for op in ch.kraus:
        v = op.reshape(-1)
        mat += np.outer(v, v.conj())
    out_labels = set(ch.output_spaces.labels)
    in_spaces = ch.input_spaces.relabel(
        {l: f"{l}'" for l in ch.input_spaces.labels if l in out_labels}
    )
    return HermitianOperator._wrap(ch.output_spaces.concat(in_spaces), mat)


def apply_channel(ch: KrausChannel, rho: HermitianOperator) -> HermitianOperator:
    """Apply ``ch`` to the factors of ``rho`` that carry its input labels
    (the rest untouched).

    The result carries the channel's output factors first, followed by
    the untouched factors in their original order.  Returns a
    :class:`DensityOperator` when the input is one.
    """
    for lab, d in ch.input_spaces:
        if not rho.spaces.has(lab):
            raise SpaceError(f"state does not carry channel input label {lab!r}")
        if rho.spaces.dim_of(lab) != d:
            raise SpaceError(
                f"dimension mismatch on {lab!r}: state {rho.spaces.dim_of(lab)}, "
                f"channel {d}"
            )
    rest = rho.spaces.drop(ch.input_spaces.labels)
    overlap = set(ch.output_spaces.labels) & set(rest.labels)
    if overlap:
        raise SpaceError(f"channel output labels collide with state labels {sorted(overlap)}")
    ordered = permute_systems(rho, ch.input_spaces.labels + rest.labels)
    din, dr = ch.input_spaces.dim, rest.dim
    dout = ch.output_spaces.dim
    blob = ordered.entries.reshape(din, dr, din, dr)
    out = np.zeros((dout, dr, dout, dr), dtype=np.result_type(*ch.kraus, blob))
    for op in ch.kraus:
        out += np.einsum("ai,ibjc,xj->abxc", op, blob, op.conj())
    new_spaces = ch.output_spaces.concat(rest)
    mat = out.reshape(new_spaces.dim, new_spaces.dim)
    if isinstance(rho, DensityOperator):
        return DensityOperator(new_spaces, mat)
    return HermitianOperator(new_spaces, mat)


def dephase(a: HermitianOperator) -> HermitianOperator:
    """Zero all off-diagonal entries (the completely dephasing map)."""
    return HermitianOperator._wrap(a.spaces, np.diag(np.diag(a.entries).real))


def is_diagonal(a: HermitianOperator) -> bool:
    off = a.entries - np.diag(np.diag(a.entries))
    return float(np.max(np.abs(off))) <= DIAGONAL_TOL if off.size else True


def inner(a: HermitianOperator, b: HermitianOperator) -> float:
    """Hilbert-Schmidt inner product of two Hermitian operators (real).

    Factors are aligned by label first, so the operands may carry the
    same factors in different orders.
    """
    if set(a.spaces.labels) != set(b.spaces.labels):
        raise SpaceError(
            f"operands carry different labels: {a.spaces.labels} vs {b.spaces.labels}"
        )
    b = align(b, a.spaces)
    return float(np.vdot(a.entries, b.entries).real)
