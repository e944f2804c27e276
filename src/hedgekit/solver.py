"""Dense primal-dual interior-point kernel for Hermitian SDPs.

Solves the standard form

    maximize    <C, X>
    subject to  <F_i, X> = b_i   (i = 1..m)
                X >= 0           (block-diagonal Hermitian)

natively over the complex Hermitian cone with a Mehrotra
predictor-corrector iteration (HKM search direction).  The dual is

    minimize    b . y
    subject to  sum_i y_i F_i - C = Z >= 0.

Primal infeasibility is certified through a Farkas ray (``A*(u) >= 0``
with ``b . u < 0``) and never silently returned as a large value.  The
iteration has one way out besides convergence and the iteration limit:
each guard (the Farkas tests, a non-finite or non-positive ``mu``, a
failed factorization, a non-finite direction, a vanishing step, a
non-finite next iterate) raises, naming itself, and one ``except`` per
status catches it, keeping the message as the result's ``reason``.  A
new iterate is checked finite before it is taken, so ``X``, ``y`` and
``Z`` come back finite.

The constraints come as a :class:`ConstraintMap`: per block, a row range
whose ``F_i`` are ``P (I_pad (x) G_i) P^T``.  ``A``, ``A*`` and the
Schur matrix work on the ``w x w`` matrices ``G_i``, so a Kronecker
block of dimension ``d = pad * w`` costs ``O(pad^2 w^4 + m w^4 + m^2 w^2)``
per Schur assembly instead of ``O(m d^3 + m^2 d^2)``.  A block whose
rows are the whole :func:`hermitian_basis` of the ``w x w`` matrices
holds no ``G`` at all: ``A`` reads the basis coordinates of
``Tr_pad(P^T X P)`` off its entries and ``A*`` scatters them back.  The
kernel builds the one map it iterates on once, at entry, with every
block's rows held as ``G``, so its iterates do not depend on how the
rows were held; a problem solved in its real form (below) holds only its
real rows there, as contiguous ``float64``.

Each iteration factors each block of ``X`` and ``Z`` once, a Cholesky
factor and its inverse, then every step length costs two matmuls and one
``eigvalsh`` and ``Z^-1`` is the product of the inverse factors.  ``X``
and ``Z`` share those calls: each stack's pair, one ``(2, B, d, d)``
array, is factored, inverted and eigensolved in one call, and the
primal and dual step limits are the minima over its two halves.

The working map holds block-diagonal data as a few direct sums, as SDPT3
and SDPA do.  The blocks that share a row range, with pad 1 and no
permutation, are packed into slots as wide as the widest of them (first
fit, widest first); a full slot is the direct sum of its blocks (its
``G``, ``C``, start and iterates), and any other block is a slot of its
own.  Slots that share a row range and a width are one :class:`BlockMap`
whose ``G`` has a leading axis of ``B`` slots, and their iterates one
``(B, w, w)`` array.  Every per-block step (the factors, ``Z^-1``, the
Schur terms, ``A`` and ``A*``, the step lengths, the updates, the Farkas
eigen-check and the start's positive-definiteness test) runs once per
stack, broadcasting over the leading axis; 1 x 1 blocks are a
``(B, 1, 1)`` stack like any other.  Each of those steps keeps a direct
sum a direct sum, zero off its blocks' windows, and a slot's eigenvalues
are its blocks', so no padding enters ``nu``, ``<C, X>`` or ``<X, Z>``
and the step limits read the same minima.  ``X`` and ``Z`` come back per
block, in block order, as the windows of their slots.  A stack of one
block is a view of it and runs its arithmetic bit for bit as before.
The iteration has one shape, and its helpers take only that shape: the
factor and step-length helpers an ``(2, B, d, d)`` pair of ``X`` and
``Z`` stacks (or of their directions), the Schur assembly ``(B, d, d)``
stacks and a stacked map, ``G`` of shape ``(B, m, w, w)``.

Real data are solved in real arithmetic.  A problem is
conjugation-symmetric when every ``C`` block is real, every row is real
or purely imaginary on every block it touches, every imaginary row has
``b_i = 0``, ``x_start`` is real and ``y_start`` is zero on the
imaginary rows.  An imaginary row is ``i`` times a real antisymmetric
matrix and vanishes on every real symmetric ``X``.  For a feasible
``X``, ``Re X`` is feasible with the same objective, and a real dual
slack ``sum_i y_i F_i - C`` is PSD as a Hermitian matrix, so the real
problem has the complex optimum and its multipliers, padded with zeros
at the imaginary rows, are a complex dual point (its Farkas rays
likewise).  Such a problem drops its imaginary rows and iterates in
``float64``; at four hedging copies solved densely 136 of 256 rows
remain, and each Cholesky factor, inverse and ``eigvalsh`` costs about a
quarter of its complex flops.  (:func:`hedgekit.sdp.solve` passes this
kernel those copies' phase-sector problem instead: 22 blocks of widths
1 to 5 and 5 rows, which it iterates on as two stacks, nine slots of
width 5 and one 1 x 1 block.)  The test is
exact, with no tolerance; any other problem iterates in ``complex128``.
The iterates ``X`` and ``Z`` come back in the dtype they were iterated
in, so real data stay real from the operators to the report.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import NumericalError, ValidationError

STATUS_OPTIMAL = "optimal"
STATUS_INFEASIBLE = "infeasible"
STATUS_ITERATION_LIMIT = "iteration-limit"
STATUS_NUMERICAL = "numerical-failure"

_STEP_FRACTION_FLOOR = 0.9
_MIN_STEP = 1e-10
_FARKAS_EIG_TOL = 1e-12
_FARKAS_OBJ_TOL = 1e-6


def _herm(mat: np.ndarray) -> np.ndarray:
    """The Hermitian part of a matrix or of each matrix of a stack."""
    return (mat + mat.conj().swapaxes(-1, -2)) / 2


def _inv_chol(pair: np.ndarray) -> np.ndarray:
    """``L^-1`` for the Cholesky factor ``L L^dag`` of each matrix of a
    ``(2, B, d, d)`` pair of stacks (the kernel's ``X`` and ``Z``), checked
    finite.  The pair is factored in one call, and when that fails each
    stack apart, retried once with every matrix shifted by ``1e-14`` times
    its mean diagonal (at least 1), so that each stack keeps its own retry
    and a stack that factors is never shifted."""

    def factor(stack):
        try:
            return np.linalg.cholesky(stack)
        except np.linalg.LinAlgError:
            d = stack.shape[-1]
            jitter = 1e-14 * np.fmax(1.0, np.trace(stack, axis1=-2, axis2=-1).real / d)
            try:
                return np.linalg.cholesky(stack + jitter[..., None, None] * np.eye(d))
            except np.linalg.LinAlgError as exc:
                raise NumericalError("Cholesky factorization failed") from exc

    try:
        lower = np.linalg.cholesky(pair)
    except np.linalg.LinAlgError:
        lower = np.stack([factor(stack) for stack in pair])
    li = np.linalg.inv(lower)
    if not np.all(np.isfinite(li)):
        raise NumericalError("Cholesky factor inverse is not finite")
    return li


def _lowest(eigenvalues: np.ndarray) -> float:
    """The smallest of the ascending eigenvalues of each matrix of a stack
    (``min`` over the few blocks of a stack costs a fraction of a numpy
    reduction)."""
    return float(min(eigenvalues[..., 0].flat))


def _max_step(li: np.ndarray, pair: np.ndarray) -> tuple:
    """The largest alphas with ``S + alpha * D >= 0`` on each stack of a
    ``(2, B, d, d)`` pair of directions ``D``, given ``li = L^-1`` for
    ``S = L L^dag`` (:func:`_inv_chol`): ``-1 / lambda_min(L^-1 D L^-dag)``,
    each the smallest over its own stack, from one ``eigvalsh`` call."""
    if not np.all(np.isfinite(pair)):
        raise NumericalError("search direction is not finite")
    try:
        eigenvalues = np.linalg.eigvalsh(_herm(li @ pair @ li.conj().swapaxes(-1, -2)))
    except np.linalg.LinAlgError as exc:
        raise NumericalError("step-length eigensolve failed") from exc
    return tuple(np.inf if lam >= -1e-13 else -1.0 / lam for lam in map(_lowest, eigenvalues))


#: The off-diagonal coefficient of the Hermitian basis.
_INV_SQRT2 = 1.0 / math.sqrt(2.0)


def hermitian_basis(dim: int) -> np.ndarray:
    """Orthonormal basis of the Hermitian matrices of a given dimension,
    as one ``(dim^2, dim, dim)`` array.

    Order: diagonal units first, then symmetric and antisymmetric pairs
    in row-major order.  Deterministic, so scalarized constraints can be
    mapped back to operator form.
    """
    out = np.zeros((dim * dim, dim, dim), dtype=np.complex128)
    diag = np.arange(dim)
    out[diag, diag, diag] = 1.0
    rows, cols = np.triu_indices(dim, 1)
    sym = dim + 2 * np.arange(len(rows))
    out[sym, rows, cols] = _INV_SQRT2
    out[sym, cols, rows] = _INV_SQRT2
    out[sym + 1, rows, cols] = -1j * _INV_SQRT2
    out[sym + 1, cols, rows] = 1j * _INV_SQRT2
    return out


def hermitian_coordinates(s: np.ndarray) -> np.ndarray:
    """``Re Tr(H_k s)`` for every element ``H_k`` of
    :func:`hermitian_basis`, read off the entries of a ``w x w`` ``s``
    (which need not be Hermitian): ``s_ii``, then ``c s_ji + c s_ij`` and
    ``c Im s_ji - c Im s_ij`` per pair ``i < j``, ``c = 1/sqrt(2)``."""
    w = s.shape[0]
    rows, cols = np.triu_indices(w, 1)
    lo, hi = s[cols, rows], s[rows, cols]
    out = np.empty(w * w)
    out[:w] = s.diagonal().real
    out[w::2] = (_INV_SQRT2 * lo + _INV_SQRT2 * hi).real
    out[w + 1 :: 2] = (_INV_SQRT2 * lo - _INV_SQRT2 * hi).imag
    return out


def hermitian_combination(y) -> np.ndarray:
    """``sum_k y_k H_k`` over the elements ``H_k`` of
    :func:`hermitian_basis`, for real coordinates ``y``, as a complex
    ``w x w`` matrix with ``w^2 = len(y)``."""
    y = np.asarray(y, dtype=float)
    w = math.isqrt(len(y))
    rows, cols = np.triu_indices(w, 1)
    sym, anti = _INV_SQRT2 * y[w::2], _INV_SQRT2 * y[w + 1 :: 2]
    out = np.zeros((w, w), dtype=np.complex128)
    out[np.arange(w), np.arange(w)] = y[:w]
    out[rows, cols] = sym - 1j * anti
    out[cols, rows] = sym + 1j * anti
    return out


class BlockMap:
    """The constraint rows ``start:stop`` restricted to one PSD block.

    Row ``i`` acts on the block as ``F_i = P (I_pad (x) G[i - start]) P^T``,
    so ``G`` has shape ``(stop - start, w, w)`` and the block dimension is
    ``pad * w``.  ``perm[k]`` is the block index of natural-order index
    ``k`` (the pad factor first); ``perm=None`` means ``P = I``.  A real
    ``G`` is kept as ``float64``, any other as ``complex128``.
    ``G=None`` stands for the rows ``hermitian_basis(w)``, ``w^2 = stop -
    start``, held as coordinates: :meth:`read` and :meth:`scatter` work
    on the matrix entries and :meth:`rows` builds the basis on demand.

    A ``G`` of shape ``(B, stop - start, w, w)`` is a stack: ``B`` blocks
    of one shape that share the rows ``start:stop``, each with its own
    ``G``.  Its methods take and return ``(B, ., .)`` stacks of block
    matrices, and :meth:`read` and :meth:`schur` sum the blocks' terms.
    ``gflat`` holds each row over the whole stack, flattened, so
    :meth:`read` and :meth:`scatter` are one product whatever ``B``.
    :meth:`schur` takes only a stack, as the kernel's working map holds
    every block.

    The Schur contribution ``Re Tr(F_i X F_j Z^-1)`` of the block is
    assembled by whichever of two formulas needs fewer flops for its
    shape: the Kronecker contraction, which never forms an ``F_i``, or
    the batched ``X F_j Z^-1`` products over the expanded ``F_i``.  The
    map holds only ``G``; each assembly forms the ``G_i^T`` or the
    ``F_i`` it reads (with pad 1 and no permutation the ``F_i`` are ``G``).
    """

    def __init__(self, start: int, stop: int, G, pad: int = 1, perm=None):
        count = stop - start
        if G is None:
            w = math.isqrt(max(count, 0))
            fits = w * w == count
        else:
            G = np.asarray(G)
            G = np.asarray(G, dtype=np.complex128 if np.iscomplexobj(G) else np.float64)
            w = G.shape[-1] if G.ndim in (3, 4) else -1
            fits = G.shape[-3:] == (count, w, w)
        if count < 0 or not fits:
            shape = "the Hermitian basis" if G is None else f"a G of shape {G.shape}"
            raise ValidationError(f"block map rows {start}:{stop} do not match {shape}")
        if pad < 1:
            raise ValidationError("pad dimension must be positive")
        self.start, self.stop, self.pad, self.G, self.w = start, stop, pad, G, w
        self.dim = pad * w
        self.perm = None if perm is None else np.asarray(perm, dtype=np.intp)
        self.inv = None if perm is None else np.argsort(self.perm)
        w2 = w * w
        self._eye = np.eye(pad)[:, None, :, None]
        kron_flops = pad * pad * w2 * w2 + count * w2 * w2 + count * count * w2
        batched_flops = 2 * count * self.dim**3 + count * count * self.dim**2
        self.kron_schur = kron_flops < batched_flops
        self.gflat = None
        if G is not None:
            rows = G if G.ndim == 3 else G.swapaxes(0, 1)
            self.gflat = np.ascontiguousarray(rows.reshape(count, math.prod(rows.shape[1:])))

    def rows(self) -> np.ndarray:
        """The ``(stop - start, w, w)`` stack of the ``G_i``."""
        return hermitian_basis(self.w) if self.G is None else self.G

    def expand(self) -> np.ndarray:
        """Dense ``(stop - start, dim, dim)`` stack of the ``F_i``, block order."""
        return self.lift(self.rows())

    def read(self, s: np.ndarray) -> np.ndarray:
        """``Re Tr(G_i s)`` over this block's rows, for a ``w x w`` ``s``."""
        if self.G is None:
            return hermitian_coordinates(s)
        return (self.gflat @ s.swapaxes(-1, -2).reshape(-1)).real

    def scatter(self, y: np.ndarray) -> np.ndarray:
        """``sum_i y_i G_i`` for one coefficient per row of this block."""
        if self.G is None:
            return hermitian_combination(y)
        return (y @ self.gflat).reshape(*self.G.shape[:-3], self.w, self.w)

    def natural(self, a: np.ndarray) -> np.ndarray:
        """``P^T a P``: a block matrix in natural (pad-first) order."""
        return a if self.perm is None else a[..., self.perm[:, None], self.perm]

    def lift(self, s: np.ndarray) -> np.ndarray:
        """``P (I_pad (x) s) P^T`` for a ``w x w`` matrix ``s``."""
        if self.pad == 1:
            full = s
        else:
            full = (self._eye * s[..., None, :, None, :]).reshape(*s.shape[:-2], self.dim, self.dim)
        return full if self.inv is None else full[..., self.inv[:, None], self.inv]

    def pad_trace(self, a: np.ndarray) -> np.ndarray:
        """``Tr_pad(P^T a P)``, so that ``Tr(F_i a) = Tr(G_i pad_trace(a))``."""
        a = self.natural(a)
        if self.pad == 1:
            return a
        p, w = self.pad, self.w
        return np.trace(a.reshape(*a.shape[:-2], p, w, p, w), axis1=-4, axis2=-2)

    def schur(self, x: np.ndarray, zi: np.ndarray) -> np.ndarray:
        """``Re Tr(F_i x F_j zi)`` over this block's rows, summed over the
        blocks of a stack, for ``(B, dim, dim)`` stacks ``x`` and ``zi``; the
        map must hold its rows as a stacked ``G`` of shape ``(B, stop - start,
        w, w)``, as the kernel's working map does."""
        if self.kron_schur:
            # K[(b,a),(c,e)] = sum_{y,z} x[yb, zc] zi[ze, ya], then M = G^T K G
            B, p, w = len(x), self.pad, self.w
            x4 = self.natural(x).reshape(B, p, w, p, w)
            z4 = self.natural(zi).reshape(B, p, w, p, w)
            xs = x4.transpose(0, 2, 4, 1, 3).reshape(B, w * w, p * p)
            zs = z4.transpose(0, 3, 1, 4, 2).reshape(B, p * p, w * w)
            kk = (xs @ zs).reshape(B, w, w, w, w)
            kk = kk.transpose(0, 1, 3, 2, 4).reshape(B, w * w, w * w)
            g = self.G.reshape(*self.G.shape[:-2], w * w)
            gt = self.G.swapaxes(-1, -2).reshape(g.shape)
            return (gt @ kk @ g.swapaxes(-1, -2)).real.sum(axis=0)
        # one product over the stack: row i is F_i on every block
        f = self.expand()
        t = (x[:, None] @ f @ zi[:, None]).swapaxes(-1, -2)
        f, t = f.swapaxes(0, 1), t.swapaxes(0, 1)
        size = math.prod(f.shape[1:])
        return (f.reshape(-1, size) @ t.reshape(-1, size).T).real


class ConstraintMap:
    """The constraints ``<F_i, X> = b_i`` of a standard-form problem: one
    :class:`BlockMap` per PSD block, in block order, and the right-hand
    side ``b``."""

    def __init__(self, blocks, b):
        self.blocks = tuple(blocks)
        self.b = np.asarray(b, dtype=float)
        self.m = len(self.b)
        self.dims = [bm.dim for bm in self.blocks]
        for bm in self.blocks:
            if bm.stop > self.m:
                raise ValidationError(f"block map rows {bm.start}:{bm.stop} exceed m={self.m}")

    def apply(self, mats) -> np.ndarray:
        """A(X): the vector of ``Re Tr(F_i X)`` (``X`` need not be Hermitian)."""
        out = np.zeros(self.m)
        for bm, a in zip(self.blocks, mats):
            out[bm.start : bm.stop] += bm.read(bm.pad_trace(a))
        return out

    def compact_adjoint(self, y: np.ndarray):
        """Per block ``sum_i y_i G_i``; ``A*(y)`` is its lift."""
        return [bm.scatter(y[bm.start : bm.stop]) for bm in self.blocks]

    def adjoint(self, y: np.ndarray):
        """A*(y): block list of ``sum_i y_i F_i``."""
        return [bm.lift(s) for bm, s in zip(self.blocks, self.compact_adjoint(y))]

    def schur(self, X, Zi) -> np.ndarray:
        """The HKM Schur matrix ``M_ij = Re Tr(F_i X F_j Z^-1)``, for
        ``(B, d, d)`` stacks ``X`` and ``Zi`` on a map of stacked ``G``, like
        the kernel's working map."""
        M = np.zeros((self.m, self.m))
        for bm, x, zi in zip(self.blocks, X, Zi):
            M[bm.start : bm.stop, bm.start : bm.stop] += bm.schur(x, zi)
        return M

    def max_row_norm(self) -> float:
        """Largest Frobenius norm of one constraint restricted to one block
        (of a map that holds its rows, like :meth:`schur`)."""
        return max(
            (
                float(np.sqrt(bm.pad) * np.max(np.linalg.norm(bm.G.reshape(*bm.G.shape[:-2], -1), axis=-1)))
                for bm in self.blocks
                if bm.stop > bm.start
            ),
            default=0.0,
        )


class _FarkasRay(Exception):
    """:func:`_farkas_certificate` found the infeasibility ray ``args[0]``."""


def _ip(a_blocks, b_blocks) -> float:
    return float(sum(np.vdot(a, b).real for a, b in zip(a_blocks, b_blocks)))


def interior_point(
    c_blocks,
    constraints: ConstraintMap,
    tol: float = 1e-8,
    max_iter: int = 200,
    x_start=None,
    y_start=None,
):
    """Run the predictor-corrector iteration; returns a plain result dict.

    A conjugation-symmetric problem is solved in its real form (module
    docstring); ``y`` and ``farkas`` come back full length, with zeros at
    the dropped rows, and ``X`` and ``Z`` as ``float64``; any other problem
    returns them as ``complex128``.  ``X`` and ``Z`` list one matrix per
    block in block order, whatever slots and stacks the kernel iterated
    on; ``blocks`` lists the block dimensions, and ``reason`` says why a
    run is not optimal (None when it is).
    """
    C = [np.asarray(c, dtype=np.complex128) for c in c_blocks]
    if constraints.m == 0:
        raise ValidationError("problem has no constraints")
    if any(bm.G is not None and bm.G.ndim == 4 for bm in constraints.blocks):
        raise ValidationError("a problem's block map holds one block; the kernel stacks them")
    if 0 in constraints.dims:
        raise ValidationError(f"block {constraints.dims.index(0)} has dimension 0")
    groups = _stacks(constraints)
    A, keep = _working_map(C, constraints, groups, x_start, y_start)
    if keep is not None:
        C = [c.real for c in C]
        x_start = None if x_start is None else [np.asarray(x).real for x in x_start]
        y_start = None if y_start is None else np.asarray(y_start, dtype=float)[keep]
    x_start = None if x_start is None else _stacked(groups, [np.asarray(x) for x in x_start])
    # per block, so that how the blocks are packed leaves drel as it is
    cnorm = max(1.0, max(float(np.linalg.norm(c)) for c in C))
    out = _iterate(_stacked(groups, C), A, cnorm, tol, max_iter, x_start, y_start)
    place = {
        k: (s, j, window)
        for s, stack in enumerate(groups)
        for j, slot in enumerate(stack)
        for k, window in zip(slot, _windows([constraints.dims[k] for k in slot]))
    }
    for key in ("X", "Z"):
        out[key] = [out[key][s][j][w, w] for s, j, w in (place[k] for k in range(len(C)))]
    out["blocks"] = tuple(constraints.dims)
    if keep is not None:
        for key in ("y", "farkas"):
            if out[key] is not None:
                full = np.zeros(constraints.m)
                full[keep] = out[key]
                out[key] = full
    return out


def _stacks(constraints: ConstraintMap) -> list:
    """The stacks the kernel iterates on, each a list of slots and each
    slot a tuple of blocks, in order of their first block.

    The blocks that share a row range, with pad 1 and no permutation, are
    packed first fit, widest first (ties by block index), into bins as
    wide as the widest of them; a bin that comes out exactly that wide is
    one slot, the direct sum of its blocks, and every other block is a
    slot of its own, as is any block with a pad or a permutation.  Slots
    that share a row range and a width are one stack.
    """
    ranges = {}
    for k, bm in enumerate(constraints.blocks):
        plain = bm.pad == 1 and bm.perm is None
        ranges.setdefault((bm.start, bm.stop) if plain else k, []).append(k)
    dims = constraints.dims
    stacks = {}
    for key, members in ranges.items():
        for slot in _pack(members, dims):
            stacks.setdefault((key, sum(dims[k] for k in slot)), []).append(slot)
    return sorted((sorted(stack, key=min) for stack in stacks.values()), key=lambda s: min(s[0]))


def _pack(members, dims) -> list:
    """The slots of the blocks ``members`` of one row range (:func:`_stacks`)."""
    width = max(dims[k] for k in members)
    bins = []  # [room left, blocks]
    for k in sorted(members, key=lambda k: (-dims[k], k)):
        fit = next((b for b in bins if b[0] >= dims[k]), None)
        if fit is None:
            fit = [width, []]
            bins.append(fit)
        fit[0] -= dims[k]
        fit[1].append(k)
    slots = []
    for room, ks in bins:
        slots += [tuple(ks)] if room == 0 else [(k,) for k in ks]
    return slots


def _windows(widths):
    """The diagonal windows of a direct sum of blocks of these widths."""
    start = 0
    for w in widths:
        yield slice(start, start + w)
        start += w


def _direct_sum(mats) -> np.ndarray:
    """The block-diagonal matrix of ``mats`` (of each of their leading
    indices); one matrix is itself."""
    if len(mats) == 1:
        return mats[0]
    widths = [a.shape[-1] for a in mats]
    out = np.zeros((*mats[0].shape[:-2], sum(widths), sum(widths)), dtype=np.result_type(*mats))
    for a, window in zip(mats, _windows(widths)):
        out[..., window, window] = a
    return out


def _stacked(groups, mats) -> list:
    """Per-block ``mats`` as one ``(B, ., .)`` array per stack of
    :func:`_stacks`, each slot the direct sum of its blocks'.  A stack of
    one block is a view of its matrix, which keeps its memory layout, so it
    iterates bit for bit as the block alone did."""
    slots = [[_direct_sum([mats[k] for k in slot]) for slot in stack] for stack in groups]
    return [s[0][None] if len(s) == 1 else np.stack(s) for s in slots]


def _working_map(C, constraints: ConstraintMap, groups, x_start, y_start):
    """The map the kernel iterates on, one stacked :class:`BlockMap` per
    stack of ``groups`` (:func:`_stacks`), with every block's rows held as ``G``
    (:meth:`BlockMap.rows`, built once here) and each slot's the direct
    sum of its blocks', and the mask of the rows it keeps.  A conjugation-symmetric problem (module docstring) keeps the
    rows that are not imaginary, renumbered in order, as one contiguous
    ``float64`` copy of their real parts per stack, so no complex row
    array outlives this call; any other problem keeps every row, and the
    mask is None."""
    rows = [bm.rows() for bm in constraints.blocks]
    b, keep = constraints.b, None
    real = np.zeros(constraints.m, dtype=bool)
    imag = np.zeros(constraints.m, dtype=bool)
    for bm, G in zip(constraints.blocks, rows):
        real[bm.start : bm.stop] |= np.any(G.real, axis=(1, 2))
        imag[bm.start : bm.stop] |= np.any(G.imag, axis=(1, 2))
    if not (
        any(np.any(c.imag) for c in C)
        or (x_start is not None and any(np.any(np.asarray(x).imag) for x in x_start))
        or np.any(real & imag)
        or np.any(b[imag])
        or (y_start is not None and np.any(np.asarray(y_start, dtype=float)[imag]))
    ):
        keep, b = ~imag, b[~imag]
        rows = [G.real[keep[bm.start : bm.stop]] for bm, G in zip(constraints.blocks, rows)]
    pos = np.arange(constraints.m + 1) if keep is None else np.cumsum(np.r_[0, keep])
    maps = []
    for stack, G in zip(groups, _stacked(groups, rows)):
        bm = constraints.blocks[stack[0][0]]
        maps.append(BlockMap(pos[bm.start], pos[bm.stop], G, pad=bm.pad, perm=bm.perm))
    return ConstraintMap(maps, b), keep


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _iterate(C, A: ConstraintMap, cnorm: float, tol: float, max_iter: int, x_start, y_start):
    """The iteration in the dtype of ``C``, on stacks: ``C``, ``x_start``
    and the iterates hold one ``(B, d, d)`` array per stacked block map of
    ``A``.  A real ``C`` needs a real ``A``.  ``cnorm`` scales the dual
    residual: the largest norm of one block of ``C``, at least 1."""
    dtype = np.result_type(*C)
    m, nu, b = A.m, sum(c.shape[0] * c.shape[-1] for c in C), A.b

    fnorm = max(1.0, A.max_row_norm())
    bnorm = max(1.0, float(np.max(np.abs(b))))

    status = STATUS_ITERATION_LIMIT
    iterations = 0
    farkas = reason = None
    relgap = prel = drel = math.nan  # as measured before the last step

    # a start is kept only if positive definite; a NaN eigenvalue is not
    X = None if x_start is None else [_herm(np.asarray(x, dtype=dtype)) for x in x_start]
    if X is None or not all(_positive_definite(x) for x in X):
        xi = max(10.0, np.sqrt(nu), nu * bnorm / fnorm)
        X = [xi * _eyes(c) for c in C]
    y = None if y_start is None else np.asarray(y_start, dtype=float).copy()
    Z = None if y is None else [_herm(az - c) for az, c in zip(A.adjoint(y), C)]
    if Z is None or not all(_positive_definite(z) for z in Z):
        eta = max(10.0, np.sqrt(nu), (cnorm + fnorm) / np.sqrt(nu))
        y = np.zeros(m)
        Z = [eta * _eyes(c) for c in C]

    try:
        for iterations in range(1, max_iter + 1):
            rp = b - A.apply(X)
            Rd = [_herm(c - az + z) for c, az, z in zip(C, A.adjoint(y), Z)]
            pobj = _ip(C, X)
            dobj = float(b @ y)
            gap = abs(pobj - dobj)
            relgap = gap / max(1.0, (abs(pobj) + abs(dobj)) / 2)
            prel = float(np.max(np.abs(rp))) / bnorm
            drel = max(float(np.max(np.abs(r))) for r in Rd) / cnorm

            if relgap <= tol and prel <= tol and drel <= tol:
                status = STATUS_OPTIMAL
                break

            _farkas_certificate(A, y)

            mu = _ip(X, Z) / nu
            if not 0.0 < mu < np.inf:
                raise NumericalError(f"duality measure mu = {mu!r} is not finite and positive")

            # one factorization per stack for X and Z together: L[s] holds
            # the inverse factors of X[s] and Z[s] as a (2, B, d, d) pair
            L = [_inv_chol(np.stack([x, z])) for x, z in zip(X, Z)]
            Zi = [_herm(li[1].conj().swapaxes(-1, -2) @ li[1]) for li in L]

            M = A.schur(X, Zi)

            def solve_m(rhs):
                try:
                    return np.linalg.solve(M, rhs)
                except np.linalg.LinAlgError:
                    dy = np.linalg.lstsq(M, rhs, rcond=None)[0]
                    # rhs is A(.) - b and null(M) = null(A*), so the part of
                    # rhs that M cannot reach is a ray u with A*(u) = 0, b.u < 0
                    _farkas_certificate(A, rhs - M @ dy)
                    return dy

            xrz = [x @ rd @ zi for x, rd, zi in zip(X, Rd, Zi)]

            def directions(mu_target, second_order):
                # second_order[k] is dXa dZa Z^-1 on block k (zero in the predictor)
                dy = solve_m(
                    A.apply([mu_target * zi + g - s for zi, g, s in zip(Zi, xrz, second_order)])
                    - b
                )
                dZ = [_herm(az - rd) for az, rd in zip(A.adjoint(dy), Rd)]
                dX = [
                    _herm(mu_target * zi - x - x @ dz @ zi - s)
                    for x, zi, dz, s in zip(X, Zi, dZ, second_order)
                ]
                return dX, dy, dZ

            def step_limits(dX, dZ):
                # per stack one eigensolve, split into the X and Z limits
                return zip(*[_max_step(li, np.stack([dx, dz])) for li, dx, dz in zip(L, dX, dZ)])

            dXa, dya, dZa = directions(0.0, [0.0] * len(X))
            xlim, zlim = step_limits(dXa, dZa)
            ap, ad = min(1.0, *xlim), min(1.0, *zlim)
            mu_aff = max(
                0.0,
                _ip(
                    [x + ap * d for x, d in zip(X, dXa)],
                    [z + ad * d for z, d in zip(Z, dZa)],
                )
                / nu,
            )
            sigma = min(1.0, max(1e-8, (mu_aff / mu) ** 3))
            cross = [dx @ dz @ zi for dx, dz, zi in zip(dXa, dZa, Zi)]
            dX, dy, dZ = directions(sigma * mu, cross)

            gamma = _STEP_FRACTION_FLOOR + 0.09 * min(1.0, ap, ad)
            xlim, zlim = step_limits(dX, dZ)
            ap = min(1.0, gamma * min(1.0e30, *xlim))
            ad = min(1.0, gamma * min(1.0e30, *zlim))
            if not (np.isfinite(ap) and np.isfinite(ad)) or max(ap, ad) < _MIN_STEP:
                raise NumericalError(f"step lengths {ap!r}, {ad!r} not finite or below {_MIN_STEP}")

            X_next = [_herm(x + ap * d) for x, d in zip(X, dX)]
            y_next = y + ad * dy
            Z_next = [_herm(z + ad * d) for z, d in zip(Z, dZ)]
            if not all(np.isfinite(a).all() for a in (*X_next, y_next, *Z_next)):
                raise NumericalError("the next iterate is not finite")
            X, y, Z = X_next, y_next, Z_next
        else:
            _farkas_certificate(A, y)
            reason = (
                f"iteration limit {max_iter} reached; before the last step relgap "
                f"{relgap:.3e}, prel {prel:.3e}, drel {drel:.3e}"
            )
    except _FarkasRay as exc:
        status, farkas = STATUS_INFEASIBLE, exc.args[0]
        reason = "a Farkas ray certifies the primal infeasible"
    except (NumericalError, np.linalg.LinAlgError) as exc:
        status, reason = STATUS_NUMERICAL, str(exc)

    return {
        "status": status,
        "X": X,
        "y": y,
        "Z": Z,
        "primal_value": _ip(C, X),
        "dual_value": float(b @ y),
        "iterations": iterations,
        "farkas": farkas,
        "reason": reason,
    }


def _positive_definite(stack: np.ndarray) -> bool:
    """Whether every matrix of a stack has a positive smallest eigenvalue
    (a NaN eigenvalue is not)."""
    return bool((np.linalg.eigvalsh(stack)[..., 0] > 0.0).all())


def _eyes(like: np.ndarray) -> np.ndarray:
    """A stack of identities of the shape and dtype of ``like``."""
    return np.eye(like.shape[-1], dtype=like.dtype)[None].repeat(len(like), axis=0)


def _farkas_certificate(A: ConstraintMap, y: np.ndarray):
    """Raise :class:`_FarkasRay` with a normalized infeasibility ray if
    ``y`` certifies one.

    Primal infeasibility: a ray ``u`` with ``A*(u) >= 0`` (within a tight
    tolerance) and ``b . u < 0`` proves no feasible ``X`` exists.  The
    ray is sup-normalized and the margins are asymmetric (loose on the
    objective, tight on the eigenvalue) so a feasible problem cannot
    trip the test at desk scale: it would need a feasible point of trace
    beyond their ratio.  ``P (I (x) S) P^T`` has the entries and the
    spectrum of ``S``, so the compact adjoint suffices.
    """
    scale = float(np.max(np.abs(y))) if y.size else 0.0
    if scale <= 0.0:
        return
    u = y / scale
    if float(A.b @ u) > -_FARKAS_OBJ_TOL:
        return
    blocks = A.compact_adjoint(u)
    mag = max(1.0, max(float(np.max(np.abs(s))) for s in blocks))
    lo = min(_lowest(np.linalg.eigvalsh(_herm(s))) for s in blocks)
    if lo >= -_FARKAS_EIG_TOL * mag:
        raise _FarkasRay(u)
