"""Copy symmetry of n-fold strategy SDPs: the S_n-reduced blocks.

The strategy block of ``n`` identical copies of a single-round game is
``(C^dy)^(x)n (x) (C^dx)^(x)n``, indexed ``(y_1 .. y_n, x_1 .. x_n)``, and
the symmetric group ``S_n`` acts on it by permuting the copies.  When the
objective ``C`` is invariant, so are the constraints ``Tr_{Y^n} X = I``,
and twirling a strategy keeps it feasible with the same value, so an
optimal ``X`` lies in the commutant of ``S_n``.  By Schur-Weyl duality,
with ``D = dy dx``,

    X = sum_lambda sum_T U_T X_lambda U_T^T,

one block ``X_lambda`` of size ``s_lambda = dim W_lambda(GL_D)`` per
partition ``lambda`` of ``n`` with at most ``D`` rows, repeated once per
standard tableau ``T`` of shape ``lambda`` (``f_lambda`` of them).  The
real orthonormal columns ``U_T`` span the joint eigenspace ``E_T`` of the
Jucys-Murphy elements ``J_k = sum_{j<k} (j k)``, on which ``J_k`` acts as
the content of ``k`` in ``T``.  The reduced problem

    maximize    sum_lambda <f_lambda U^T C U, X_lambda>
    subject to  sum_lambda <f_lambda U^T (I_Y (x) K_a) U, X_lambda> = Tr K_a

(``U = U_{T_0}``, the first tableau of each shape) has one row per
element ``K_a`` of an orthonormal basis of the ``S_n``-invariant Hermitian
operators on ``X^(x)n``.  Its optimum is the dense optimum: the dense
rows outside that span vanish on invariant ``X``.  The kernel needs only
the dense objective ``C``: the rows are fixed by ``(n, dy, dx)``.  Its
solution lifts back: ``X`` as the ``S_n`` average of ``sum_lambda f_lambda
U X_lambda U^T``, which by Schur's lemma is the sum above (the Reynolds
operator of the group), and ``y`` and any Farkas ray as the
operator ``Y = sum_a y_a K_a`` on ``X^(x)n``, whose dense dual slack
``I_Y (x) Y - C`` restricts to ``f_lambda`` copies of each reduced slack.
Any basis of dense rows reads its multipliers off ``Y``.

Nothing here enumerates ``S_n``.  One ``eigh`` of ``sum_k w_k J_k``,
``w_k = 3 * 5 * .. * (2k - 3)``, gives every ``E_T``: each eigenvalue is
an integer whose balanced mixed-radix digits, ``c_k`` in ``[-(k-1), k-1]``
for the entry ``k``, are the contents of ``T``.  The smallest radices
that decode uniquely keep ``||sum_k w_k J_k||`` small (about ``1e6`` at
``n = 8``), so ``eigh`` resolves each ``E_T`` to well below the
feasibility tolerance.  Only the first tableau's eigenvectors are kept,
and any orthonormal basis of ``E_{T_0}`` serves: the average needs no
other tableau's basis aligned with it.  It runs coset by coset over the
``n(n-1)/2`` transpositions ``(j k)`` that build the ``J_k``.  The
invariant basis comes from the orbits of index pairs, which are
multisets of per-copy pairs.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import solver as _solver
from .errors import NumericalError, ValidationError


@dataclass(frozen=True)
class CopySymmetry:
    """``S_n`` permuting ``n`` copies of a ``(dy, dx)`` strategy block whose
    factors are ordered ``(y_1 .. y_n, x_1 .. x_n)``."""

    n: int
    dy: int
    dx: int

    @property
    def dim(self) -> int:
        return (self.dy * self.dx) ** self.n

    def transposition(self, i: int, j: int) -> np.ndarray:
        """Index permutation ``p`` of copies ``i`` and ``j`` (from 0):
        ``(P v)[a] = v[p[a]]``, and ``p`` is its own inverse."""
        n = self.n
        axes = list(range(2 * n))
        axes[i], axes[j], axes[n + i], axes[n + j] = j, i, n + j, n + i
        shape = (self.dy,) * n + (self.dx,) * n
        return np.arange(self.dim).reshape(shape).transpose(axes).reshape(-1)

    def is_invariant(self, mat: np.ndarray, tol: float) -> bool:
        """Whether every adjacent copy transposition fixes ``mat``
        entrywise within ``tol`` times its largest entry (at least 1)."""
        bound = tol * max(1.0, float(np.max(np.abs(mat))))
        for i in range(self.n - 1):
            p = self.transposition(i, i + 1)
            if np.max(np.abs(mat[p[:, None], p] - mat)) > bound:
                return False
        return True

    def interior_point(self, c, tol, max_iter, x_start=None, y_start=None):
        """:func:`~hedgekit.solver.interior_point` on the reduced strategy
        SDP whose dense objective block is ``c``: maximize ``<c, X>``
        subject to ``Tr_{Y^n} X = I``.  ``x_start`` is a dense strategy and
        ``y_start`` a dual operator on ``X^(x)n``; ``X`` comes back lifted,
        ``y`` and ``farkas`` as operators ``sum_a y_a K_a`` on ``X^(x)n``,
        ``Z`` is left out, and ``blocks`` lists the reduced block
        dimensions.  Raises :class:`~hedgekit.errors.ValidationError` when
        ``c`` is not a ``dim x dim`` block."""
        if np.shape(c) != (self.dim, self.dim):
            raise ValidationError(
                f"objective of shape {np.shape(c)} is not a block of dimension {self.dim}"
            )
        red, reduced = _reduction(self)
        out = _solver.interior_point(
            [f * cb for f, cb in zip(red.multiplicities, red.compress(c))],
            reduced,
            tol=tol,
            max_iter=max_iter,
            x_start=None if x_start is None else red.compress(x_start),
            y_start=None if y_start is None else red.coordinates(y_start),
        )
        lifted = dict(out, X=[red.lift(out["X"])], y=red.operator(out["y"]), blocks=red.dims)
        del lifted["Z"]
        if out["farkas"] is not None:
            lifted["farkas"] = red.operator(out["farkas"])
        return lifted


# -- tableaux --------------------------------------------------------------------------


def _weights(n: int) -> list:
    """``w_k`` for the entries ``k = 2 .. n`` (listed from entry 1, whose
    content is always 0): the place values of the mixed radix whose digit
    at entry ``k`` is its content, in ``[-(k-1), k-1]``."""
    out = [0, 1]
    for k in range(2, n):
        out.append(out[-1] * (2 * k - 1))
    return out[:n]


def _contents(key: int, n: int) -> list:
    """The contents of ``1 .. n`` from ``sum_k w_k c_k``."""
    out = [0]
    for k in range(1, n):
        c = (key + k) % (2 * k + 1) - k
        out.append(c)
        key = (key - c) // (2 * k + 1)
    return out


def _tableau(contents) -> tuple:
    """The standard tableau with these contents, as the ``(row, column)``
    of each entry; raises when no tableau has them."""
    lengths = []
    pos = []
    for c in contents:
        for r in range(len(lengths) + 1):
            length = lengths[r] if r < len(lengths) else 0
            if length - r == c and (r == 0 or lengths[r - 1] > length):
                break
        else:
            raise NumericalError("Jucys-Murphy eigenvalues do not decode to a tableau")
        if r == len(lengths):
            lengths.append(0)
        pos.append((r, lengths[r]))
        lengths[r] += 1
    return tuple(pos)


def _shape(tableau) -> tuple:
    rows = [r for r, _ in tableau]
    return tuple(rows.count(r) for r in range(max(rows) + 1))


def _key(tableau, n: int) -> int:
    return sum(w * (c - r) for w, (r, c) in zip(_weights(n), tableau))


def _row_reading(shape) -> tuple:
    return tuple((r, c) for r, length in enumerate(shape) for c in range(length))


class Reduction:
    """The reduced blocks of a :class:`CopySymmetry` and the invariant
    basis of its question space.

    ``shapes``, ``dims`` and ``multiplicities`` list ``lambda``,
    ``s_lambda`` and ``f_lambda`` per block, in decreasing shape order;
    each block keeps the one basis ``U``, of shape ``(d, s_lambda)``, of
    its first tableau's eigenspace, and ``f_lambda`` is the number of
    tableaux whose eigenvalues decoded to the shape.
    """

    def __init__(self, sym: CopySymmetry):
        self.sym = sym
        n = sym.n
        d = sym.dim
        # the transpositions (j k), j < k, grouped by k = 2 .. n
        self._swaps = [[sym.transposition(j, k) for j in range(k)] for k in range(1, n)]
        weighted = np.zeros((d, d))
        for w, swaps in zip(_weights(n)[1:], self._swaps):
            for p in swaps:
                weighted[np.arange(d), p] += float(w)
        evals, evecs = np.linalg.eigh(weighted)
        keys = np.rint(evals).astype(np.int64)
        shapes = {}
        for key in set(keys.tolist()):
            shape = _shape(_tableau(_contents(key, n)))
            shapes[shape] = shapes.get(shape, 0) + 1
        self.shapes = tuple(sorted(shapes, reverse=True))
        self.multiplicities = tuple(shapes[shape] for shape in self.shapes)
        self._bases = [evecs[:, keys == _key(_row_reading(shape), n)] for shape in self.shapes]
        self.dims = tuple(u.shape[1] for u in self._bases)
        if sum(f * s for f, s in zip(self.multiplicities, self.dims)) != d:
            raise NumericalError("tableau eigenspaces do not span the block")
        self._orbits()

    def _orbits(self):
        """The orbits of index pairs ``(i, j)`` of ``X^(x)n``: ``orbit``
        numbers each pair (row-major), and row ``a`` of the invariant basis
        is ``K_a = alpha_a E_{o_a} + beta_a E_{t_a}``, ``E_o`` the orbit's
        indicator and ``t_a`` the orbit of the transposed pairs."""
        n, dx = self.sym.n, self.sym.dx
        w = dx**n
        self.w = w
        digits = (np.arange(w)[:, None] // dx ** np.arange(n - 1, -1, -1)) % dx
        pairs = np.sort(digits[:, None, :] * dx + digits[None, :, :], axis=2)
        codes = pairs @ (dx * dx) ** np.arange(n)
        _, first, orbit = np.unique(codes.reshape(-1), return_index=True, return_inverse=True)
        self.orbit = orbit.reshape(-1)
        self.orbits = len(first)
        sizes = np.bincount(self.orbit)
        self._order = np.argsort(self.orbit, kind="stable")
        self._starts = np.cumsum(sizes) - sizes
        transposed = self.orbit[(first % w) * w + first // w]
        rows = []  # (o, t, alpha, beta)
        for a in range(self.orbits):
            b = int(transposed[a])
            if b == a:
                rows.append((a, a, 1 / math.sqrt(sizes[a]), 0.0))
            elif a < b:
                norm = 1 / math.sqrt(2 * sizes[a])
                rows += [(a, b, norm, norm), (a, b, 1j * norm, -1j * norm)]
        o, t, alpha, beta = zip(*rows)
        self._o, self._t = np.array(o), np.array(t)
        self._alpha, self._beta = np.array(alpha), np.array(beta)

    def compress(self, mat: np.ndarray):
        """``U^T mat U`` per block."""
        return [u.T @ mat @ u for u in self._bases]

    def lift(self, blocks) -> np.ndarray:
        """``sum_lambda sum_T U_T X_lambda U_T^T``, the ``S_n`` average of
        ``A = sum_lambda f_lambda U X_lambda U^T``, taken coset by coset:
        ``A <- (A + sum_{j<k} P_(j k) A P_(j k)^T) / k`` for ``k = 2 .. n``."""
        a = sum(f * (u @ x @ u.T) for f, u, x in zip(self.multiplicities, self._bases, blocks))
        for k, swaps in enumerate(self._swaps, start=2):
            a = (a + sum(a[p[:, None], p] for p in swaps)) / k
        return a

    def _orbit_sums(self, flat: np.ndarray) -> np.ndarray:
        """Sums of ``flat`` (one entry or row per index pair, row-major)
        over each orbit."""
        return np.add.reduceat(flat[self._order], self._starts, axis=0)

    def coordinates(self, op: np.ndarray) -> np.ndarray:
        """``Re Tr(K_a op)`` for every row ``a``."""
        r = self._orbit_sums(op.T.reshape(-1))
        return (self._alpha * r[self._o] + self._beta * r[self._t]).real

    def operator(self, coords) -> np.ndarray:
        """``sum_a coords_a K_a`` on ``X^(x)n``."""
        coef = np.zeros(self.orbits, dtype=np.complex128)
        np.add.at(coef, self._o, coords * self._alpha)
        np.add.at(coef, self._t, coords * self._beta)
        return coef[self.orbit].reshape(self.w, self.w)

    def constraints(self) -> _solver.ConstraintMap:
        """The reduced rows ``f_lambda U^T (I_Y (x) K_a) U`` on every block,
        from ``U^T (I_Y (x) E_o) U = sum_{(i, j) in o} sum_y U_{yi}^T U_{yj}``
        per orbit ``o``, ``U_{yi}`` the row of ``U`` at ``(y, i)``."""
        m = len(self._o)
        pairs = np.split(self._order, self._starts[1:])
        maps = []
        for f, basis in zip(self.multiplicities, self._bases):
            s = basis.shape[1]
            u = basis.reshape(-1, self.w, s).transpose(1, 0, 2)
            sums = np.stack([
                u[flat // self.w].reshape(-1, s).T @ u[flat % self.w].reshape(-1, s)
                for flat in pairs
            ])
            rows = np.empty((m, s, s), dtype=np.complex128)
            for part, alpha, beta in (
                (rows.real, self._alpha.real, self._beta.real),
                (rows.imag, self._alpha.imag, self._beta.imag),
            ):
                part[:] = f * (
                    alpha[:, None, None] * sums[self._o] + beta[:, None, None] * sums[self._t]
                )
            maps.append(_solver.BlockMap(0, m, rows))
        return _solver.ConstraintMap(maps, self.coordinates(np.eye(self.w)))


@functools.cache
def _reduction(sym: CopySymmetry) -> tuple:
    """The :class:`Reduction` of ``sym`` and its reduced constraints, built
    once per ``(n, dy, dx)`` and shared by every solve, which only reads
    them.  :func:`~hedgekit.sdp.compile_primal` attaches a symmetry only
    to ``n >= 3`` copies of a block of at most ``DESK_DIM_CAP``, so few
    keys arise."""
    red = Reduction(sym)
    return red, red.constraints()
