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
with ``b . u < 0``) and never silently returned as a large value.

The constraints come as a :class:`ConstraintMap`: per block, a row range
whose ``F_i`` are ``P (I_pad (x) G_i) P^T``.  ``A``, ``A*`` and the
Schur matrix work on the ``w x w`` matrices ``G_i``, so a Kronecker
block of dimension ``d = pad * w`` costs ``O(pad^2 w^4 + m w^4 + m^2 w^2)``
per Schur assembly instead of ``O(m d^3 + m^2 d^2)``.

Each iteration factors each block of ``X`` and ``Z`` once, a Cholesky
factor and its inverse, then every step length costs two matmuls and one
``eigvalsh`` and ``Z^-1`` is the product of the inverse factors.

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
quarter of its complex flops.  (:mod:`hedgekit.sdp` solves those copies
in their ``S_n``-reduced blocks, through this same kernel.)  The test is
exact, with no tolerance; any other problem iterates in ``complex128``.
"""
from __future__ import annotations

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
    return (mat + mat.conj().T) / 2


def _chol(mat: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.cholesky(mat)
    except np.linalg.LinAlgError:
        jitter = 1e-14 * max(1.0, float(np.trace(mat).real) / mat.shape[0])
        try:
            return np.linalg.cholesky(mat + jitter * np.eye(mat.shape[0]))
        except np.linalg.LinAlgError as exc:
            raise NumericalError("Cholesky factorization failed") from exc


def _inv_chol(mat: np.ndarray) -> np.ndarray:
    """``L^-1`` for the Cholesky factor ``mat = L L^dag``, checked finite."""
    li = np.linalg.inv(_chol(mat))
    if not np.all(np.isfinite(li)):
        raise NumericalError("Cholesky factor inverse is not finite")
    return li


def _max_step(li: np.ndarray, direction: np.ndarray) -> float:
    """Largest alpha with S + alpha * direction >= 0, given ``li = L^-1``
    for S = L L^dag: ``-1 / lambda_min(L^-1 direction L^-dag)``."""
    if not np.all(np.isfinite(direction)):
        raise NumericalError("search direction is not finite")
    try:
        lam = float(np.linalg.eigvalsh(_herm(li @ direction @ li.conj().T))[0])
    except np.linalg.LinAlgError as exc:
        raise NumericalError("step-length eigensolve failed") from exc
    if lam >= -1e-13:
        return np.inf
    return -1.0 / lam


class BlockMap:
    """The constraint rows ``start:stop`` restricted to one PSD block.

    Row ``i`` acts on the block as ``F_i = P (I_pad (x) G[i - start]) P^T``,
    so ``G`` has shape ``(stop - start, w, w)`` and the block dimension is
    ``pad * w``.  ``perm[k]`` is the block index of natural-order index
    ``k`` (the pad factor first); ``perm=None`` means ``P = I``.  A real
    ``G`` is kept as ``float64``, any other as ``complex128``.

    The Schur contribution ``Re Tr(F_i X F_j Z^-1)`` of the block is
    assembled by whichever of two formulas needs fewer flops for its
    shape: the Kronecker contraction, which never forms an ``F_i``, or
    the batched ``X F_j Z^-1`` products over the expanded ``F_i``.
    """

    def __init__(self, start: int, stop: int, G, pad: int = 1, perm=None):
        G = np.asarray(G)
        G = np.asarray(G, dtype=np.complex128 if np.iscomplexobj(G) else np.float64)
        count = stop - start
        if count < 0 or G.ndim != 3 or G.shape[0] != count or G.shape[1] != G.shape[2]:
            raise ValidationError(
                f"block map rows {start}:{stop} do not match a G of shape {G.shape}"
            )
        if pad < 1:
            raise ValidationError("pad dimension must be positive")
        self.start, self.stop, self.pad, self.G = start, stop, pad, G
        self.w = G.shape[1]
        self.dim = pad * self.w
        self.perm = None if perm is None else np.asarray(perm, dtype=np.intp)
        self.inv = None if perm is None else np.argsort(self.perm)
        w2 = self.w * self.w
        self.gflat = G.reshape(count, w2)
        self._eye = np.eye(pad)[:, None, :, None]
        kron_flops = pad * pad * w2 * w2 + count * w2 * w2 + count * count * w2
        batched_flops = 2 * count * self.dim**3 + count * count * self.dim**2
        self.kron_schur = kron_flops < batched_flops
        if self.kron_schur:
            self._gt = G.transpose(0, 2, 1).reshape(count, w2)
        else:
            self._f = self.expand()
            self._fflat = self._f.reshape(count, self.dim * self.dim)

    def expand(self) -> np.ndarray:
        """Dense ``(stop - start, dim, dim)`` stack of the ``F_i``, block order."""
        f = self.G if self.pad == 1 else np.kron(np.eye(self.pad), self.G)
        return f if self.inv is None else f[:, self.inv[:, None], self.inv]

    def natural(self, a: np.ndarray) -> np.ndarray:
        """``P^T a P``: a block matrix in natural (pad-first) order."""
        return a if self.perm is None else a[self.perm[:, None], self.perm]

    def lift(self, s: np.ndarray) -> np.ndarray:
        """``P (I_pad (x) s) P^T`` for a ``w x w`` matrix ``s``."""
        if self.pad == 1:
            full = s
        else:
            full = (self._eye * s[None, :, None, :]).reshape(self.dim, self.dim)
        return full if self.inv is None else full[self.inv[:, None], self.inv]

    def pad_trace(self, a: np.ndarray) -> np.ndarray:
        """``Tr_pad(P^T a P)``, so that ``Tr(F_i a) = Tr(G_i pad_trace(a))``."""
        a = self.natural(a)
        if self.pad == 1:
            return a
        p, w = self.pad, self.w
        return np.trace(a.reshape(p, w, p, w), axis1=0, axis2=2)

    def schur(self, x: np.ndarray, zi: np.ndarray) -> np.ndarray:
        """``Re Tr(F_i x F_j zi)`` over this block's rows."""
        count = self.stop - self.start
        if self.kron_schur:
            # K[(b,a),(c,e)] = sum_{y,z} x[yb, zc] zi[ze, ya], then M = G^T K G
            p, w = self.pad, self.w
            x4 = self.natural(x).reshape(p, w, p, w)
            z4 = self.natural(zi).reshape(p, w, p, w)
            xs = x4.transpose(1, 3, 0, 2).reshape(w * w, p * p)
            zs = z4.transpose(2, 0, 3, 1).reshape(p * p, w * w)
            k = (xs @ zs).reshape(w, w, w, w).transpose(0, 2, 1, 3).reshape(w * w, w * w)
            return (self._gt @ k @ self.gflat.T).real
        t = x[None] @ self._f @ zi[None]
        return (self._fflat @ t.transpose(0, 2, 1).reshape(count, self.dim * self.dim).T).real


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
            out[bm.start : bm.stop] += (bm.gflat @ bm.pad_trace(a).T.reshape(-1)).real
        return out

    def compact_adjoint(self, y: np.ndarray):
        """Per block ``sum_i y_i G_i``; ``A*(y)`` is its lift."""
        return [(y[bm.start : bm.stop] @ bm.gflat).reshape(bm.w, bm.w) for bm in self.blocks]

    def adjoint(self, y: np.ndarray):
        """A*(y): block list of ``sum_i y_i F_i``."""
        return [bm.lift(s) for bm, s in zip(self.blocks, self.compact_adjoint(y))]

    def schur(self, X, Zi) -> np.ndarray:
        """The HKM Schur matrix ``M_ij = Re Tr(F_i X F_j Z^-1)``."""
        M = np.zeros((self.m, self.m))
        for bm, x, zi in zip(self.blocks, X, Zi):
            M[bm.start : bm.stop, bm.start : bm.stop] += bm.schur(x, zi)
        return M

    def max_row_norm(self) -> float:
        """Largest Frobenius norm of one constraint restricted to one block."""
        return max(
            (
                float(np.sqrt(bm.pad) * np.max(np.linalg.norm(bm.gflat, axis=1)))
                for bm in self.blocks
                if bm.stop > bm.start
            ),
            default=0.0,
        )


class _FarkasRay(Exception):
    """A singular Schur system exposed the infeasibility ray ``args[0]``."""


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
    the dropped rows, and ``X`` and ``Z`` as ``complex128``.  ``blocks``
    lists the block dimensions.
    """
    A = constraints
    C = [np.asarray(c, dtype=np.complex128) for c in c_blocks]
    if A.m == 0:
        raise ValidationError("problem has no constraints")
    keep = _real_rows(C, A, x_start, y_start)
    if keep is None:
        return _iterate(C, A, tol, max_iter, x_start, y_start)
    out = _iterate(
        [c.real for c in C],
        _real_map(A, keep),
        tol,
        max_iter,
        None if x_start is None else [np.asarray(x).real for x in x_start],
        None if y_start is None else np.asarray(y_start, dtype=float)[keep],
    )
    for key in ("y", "farkas"):
        if out[key] is not None:
            full = np.zeros(A.m)
            full[keep] = out[key]
            out[key] = full
    for key in ("X", "Z"):
        out[key] = [a.astype(np.complex128) for a in out[key]]
    return out


def _real_rows(C, A: ConstraintMap, x_start, y_start):
    """The mask of the rows that are not imaginary, or None when the
    problem is not conjugation-symmetric (module docstring)."""
    if any(np.any(c.imag) for c in C):
        return None
    if x_start is not None and any(np.any(np.asarray(x).imag) for x in x_start):
        return None
    real = np.zeros(A.m, dtype=bool)
    imag = np.zeros(A.m, dtype=bool)
    for bm in A.blocks:
        real[bm.start : bm.stop] |= np.any(bm.gflat.real, axis=1)
        imag[bm.start : bm.stop] |= np.any(bm.gflat.imag, axis=1)
    if np.any(real & imag) or np.any(A.b[imag]):
        return None
    if y_start is not None and np.any(np.asarray(y_start, dtype=float)[imag]):
        return None
    return ~imag


def _real_map(A: ConstraintMap, keep: np.ndarray) -> ConstraintMap:
    """The rows ``keep`` of ``A`` with real ``G``, renumbered in order."""
    pos = np.concatenate([[0], np.cumsum(keep)])
    return ConstraintMap(
        [
            BlockMap(
                pos[bm.start],
                pos[bm.stop],
                bm.G[keep[bm.start : bm.stop]].real,
                pad=bm.pad,
                perm=bm.perm,
            )
            for bm in A.blocks
        ],
        A.b[keep],
    )


def _iterate(C, A: ConstraintMap, tol: float, max_iter: int, x_start, y_start):
    """The iteration in the dtype of ``C``; a real ``C`` needs a real ``A``."""
    dtype = np.result_type(*C)
    m, nu, b = A.m, sum(A.dims), A.b

    fnorm = max(1.0, A.max_row_norm())
    cnorm = max(1.0, max(float(np.linalg.norm(c)) for c in C))
    bnorm = max(1.0, float(np.max(np.abs(b))))

    X = None
    if x_start is not None:
        X = [_herm(np.asarray(x, dtype=dtype)) for x in x_start]
        if any(float(np.linalg.eigvalsh(x)[0]) <= 0.0 for x in X):
            X = None
    if X is None:
        xi = max(10.0, np.sqrt(nu), nu * bnorm / fnorm)
        X = [xi * np.eye(d, dtype=dtype) for d in A.dims]

    y = None
    if y_start is not None:
        y = np.asarray(y_start, dtype=float).copy()
        Z = [_herm(az - c) for az, c in zip(A.adjoint(y), C)]
        if any(float(np.linalg.eigvalsh(z)[0]) <= 0.0 for z in Z):
            y = None
    if y is None:
        eta = max(10.0, np.sqrt(nu), (cnorm + fnorm) / np.sqrt(nu))
        y = np.zeros(m)
        Z = [eta * np.eye(d, dtype=dtype) for d in A.dims]

    status = STATUS_ITERATION_LIMIT
    iterations = 0
    farkas = None

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
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

            cert = _farkas_certificate(A, y)
            if cert is not None:
                status = STATUS_INFEASIBLE
                farkas = cert
                break

            mu = _ip(X, Z) / nu
            if not np.isfinite(mu) or mu <= 0.0:
                status = STATUS_NUMERICAL
                break

            try:
                Lxi = [_inv_chol(x) for x in X]
                Lzi = [_inv_chol(z) for z in Z]
                Zi = [_herm(li.conj().T @ li) for li in Lzi]

                M = A.schur(X, Zi)

                def solve_m(rhs):
                    try:
                        return np.linalg.solve(M, rhs)
                    except np.linalg.LinAlgError:
                        dy = np.linalg.lstsq(M, rhs, rcond=None)[0]
                        # rhs is A(.) - b and null(M) = null(A*), so the part of
                        # rhs that M cannot reach is a ray u with A*(u) = 0, b.u < 0
                        ray = _farkas_certificate(A, rhs - M @ dy)
                        if ray is not None:
                            raise _FarkasRay(ray)
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

                dXa, dya, dZa = directions(0.0, [0.0] * len(X))
                ap = min(1.0, *[_max_step(li, d) for li, d in zip(Lxi, dXa)])
                ad = min(1.0, *[_max_step(li, d) for li, d in zip(Lzi, dZa)])
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
                ap = min(1.0, gamma * min(1.0e30, *[_max_step(li, d) for li, d in zip(Lxi, dX)]))
                ad = min(1.0, gamma * min(1.0e30, *[_max_step(li, d) for li, d in zip(Lzi, dZ)]))
            except _FarkasRay as exc:
                status = STATUS_INFEASIBLE
                farkas = exc.args[0]
                break
            except (NumericalError, np.linalg.LinAlgError, FloatingPointError):
                status = STATUS_NUMERICAL
                break

            if not (np.isfinite(ap) and np.isfinite(ad)) or max(ap, ad) < _MIN_STEP:
                status = STATUS_NUMERICAL
                break

            X = [_herm(x + ap * d) for x, d in zip(X, dX)]
            y = y + ad * dy
            Z = [_herm(z + ad * d) for z, d in zip(Z, dZ)]

            if any(not np.all(np.isfinite(x)) for x in X) or not np.all(np.isfinite(y)):
                status = STATUS_NUMERICAL
                break

    if status == STATUS_ITERATION_LIMIT:
        cert = _farkas_certificate(A, y)
        if cert is not None:
            status = STATUS_INFEASIBLE
            farkas = cert

    return {
        "status": status,
        "X": X,
        "y": y,
        "Z": Z,
        "primal_value": _ip(C, X),
        "dual_value": float(b @ y),
        "iterations": iterations,
        "farkas": farkas,
        "blocks": tuple(A.dims),
    }


def _farkas_certificate(A: ConstraintMap, y: np.ndarray):
    """Return a normalized infeasibility ray if ``y`` certifies one.

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
        return None
    u = y / scale
    if float(A.b @ u) > -_FARKAS_OBJ_TOL:
        return None
    blocks = A.compact_adjoint(u)
    mag = max(1.0, max(float(np.max(np.abs(s))) for s in blocks))
    lo = min(float(np.linalg.eigvalsh(_herm(s))[0]) for s in blocks)
    if lo >= -_FARKAS_EIG_TOL * mag:
        return u
    return None
