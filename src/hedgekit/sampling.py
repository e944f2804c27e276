"""Seeded random instances for property tests and fuzzing.

All generators take an explicit ``numpy.random.Generator`` so every
consumer stays deterministic.  PSD instances are built as ``G^dag G``
with Gaussian ``G`` and rescaled; see the individual helpers for the
shapes needed by the monotone-inequality fuzz.
"""
from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .operators import DensityOperator, HermitianOperator, KrausChannel
from .spaces import SpaceList


def _gaussian(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def random_psd(rng, spaces, scale: float = 1.0) -> HermitianOperator:
    if not isinstance(spaces, SpaceList):
        spaces = SpaceList(spaces)
    g = _gaussian(rng, spaces.dim, spaces.dim)
    mat = g @ g.conj().T
    return HermitianOperator(spaces, scale * mat / spaces.dim)


def random_density(rng, spaces) -> DensityOperator:
    if not isinstance(spaces, SpaceList):
        spaces = SpaceList(spaces)
    g = _gaussian(rng, spaces.dim, spaces.dim)
    mat = g @ g.conj().T
    return DensityOperator(spaces, mat / np.trace(mat).real)


def random_measurement(rng, spaces, outcomes: int) -> tuple[HermitianOperator, ...]:
    """Random POVM: PSD effects summing to the identity."""
    if not isinstance(spaces, SpaceList):
        spaces = SpaceList(spaces)
    d = spaces.dim
    raw = []
    for _ in range(outcomes):
        g = _gaussian(rng, d, d)
        raw.append(g @ g.conj().T + 1e-6 * np.eye(d))
    total = sum(raw)
    vals, vecs = np.linalg.eigh(total)
    inv_sqrt = (vecs / np.sqrt(vals)) @ vecs.conj().T
    return tuple(
        HermitianOperator(spaces, inv_sqrt @ m @ inv_sqrt) for m in raw
    )


def random_channel(rng, input_spaces, output_spaces, kraus_count: int = 2) -> KrausChannel:
    """Random CPTP map from a Haar-ish random isometry (QR of a Gaussian)."""
    if not isinstance(input_spaces, SpaceList):
        input_spaces = SpaceList(input_spaces)
    if not isinstance(output_spaces, SpaceList):
        output_spaces = SpaceList(output_spaces)
    din, dout = input_spaces.dim, output_spaces.dim
    if dout * kraus_count < din:
        raise ValidationError(f"need dout * kraus_count >= din, got {dout} * {kraus_count} < {din}")
    g = _gaussian(rng, dout * kraus_count, din)
    q, r = np.linalg.qr(g)
    q = q * np.sign(np.diag(r).real + 1e-300)
    ops = tuple(q[e * dout : (e + 1) * dout, :] for e in range(kraus_count))
    return KrausChannel(input_spaces, output_spaces, ops)


def random_monotone_instance(rng, dim: int, scale: float = 1.0):
    """PSD quadruple ``(a0, a1, r)`` with ``a1 + r`` and ``a0 - r`` PSD.

    ``r`` is a small multiple of a random PSD operator subtracted from a
    strictly positive ``a0`` so the preconditions hold by construction.
    """
    sp = SpaceList((("Q", dim),))
    a1 = random_psd(rng, sp, scale)
    base = random_psd(rng, sp, scale)
    a0 = base + HermitianOperator(sp, 0.2 * scale * np.eye(dim))
    raw = random_psd(rng, sp, 1.0)
    lo = float(np.linalg.eigvalsh(a0.entries)[0])
    hi = float(np.linalg.eigvalsh(raw.entries)[-1])
    r = raw * (0.5 * lo / max(hi, 1e-12))
    return a0, a1, r
