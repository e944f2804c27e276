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
rows outside that span vanish on invariant ``X``.  The reduced rows are
fixed by ``(n, dy, dx)`` (:func:`reduction`); this module builds them and
the maps between the two problems, and :func:`~hedgekit.sdp.solve` runs
the kernel on the reduced one.  Its solution lifts back: ``X`` as the
``S_n`` average of ``sum_lambda f_lambda U X_lambda U^T``, which by
Schur's lemma is the sum above (the Reynolds operator of the group), and
``y`` and any Farkas ray as the operator ``Y = sum_a y_a K_a`` on
``X^(x)n``, whose dense dual slack ``I_Y (x) Y - C`` restricts to
``f_lambda`` copies of each reduced slack.  Any basis of dense rows
reads its multipliers off ``Y``.

Nothing here enumerates ``S_n`` or its tableaux: the shapes are the
partitions of ``n`` with at most ``D`` rows, ``f_lambda`` is the hook
length formula, and ``U`` spans the eigenspace of ``sum_k w_k J_k``,
``w_k = 3 * 5 * .. * (2k - 3)``, whose integer eigenvalue has the
contents of ``T_0`` (the row-reading tableau) as balanced mixed-radix
digits, which no other tableau shares.  Every ``J_k`` permutes copies,
keeping an index's weight (the multiset of its per-copy letters
``(y_i, x_i)``), so one small ``eigh`` per weight class (at most 180
indices at ``n = 6``) gives that class's rows of ``U``; any orthonormal
basis serves, as the average needs no other tableau's basis aligned with
it.  The average runs coset by coset over the ``n(n-1)/2`` transpositions
that build the ``J_k``; the invariant basis comes from the orbits of
index pairs, which are multisets of per-copy pairs.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import solver as _solver
from .errors import NumericalError


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


# -- tableaux --------------------------------------------------------------------------


def _weights(n: int) -> list:
    """``w_k`` for the entries ``k = 2 .. n`` (listed from entry 1, whose
    content is always 0): the place values of the mixed radix whose digit
    at entry ``k`` is its content, in ``[-(k-1), k-1]``."""
    out = [0, 1]
    for k in range(2, n):
        out.append(out[-1] * (2 * k - 1))
    return out[:n]


def _key(shape, n: int) -> int:
    """``sum_k w_k c_k`` over the contents of the row-reading tableau of
    ``shape``, the eigenvalue of ``sum_k w_k J_k`` on its eigenspace."""
    contents = [c - r for r, length in enumerate(shape) for c in range(length)]
    return sum(w * c for w, c in zip(_weights(n), contents))


def _partitions(n: int, largest: int) -> list:
    """The partitions of ``n`` into parts of at most ``largest``, decreasing."""
    if n == 0:
        return [()]
    parts = range(min(n, largest), 0, -1)
    return [(first,) + rest for first in parts for rest in _partitions(n - first, first)]


def _tableaux(shape) -> int:
    """``f_lambda``, the number of standard tableaux of ``shape``, by the
    hook length formula."""
    cols = [sum(1 for length in shape if length > c) for c in range(shape[0])]
    hooks = [length - c + cols[c] - r - 1 for r, length in enumerate(shape) for c in range(length)]
    return math.factorial(sum(shape)) // math.prod(hooks)


def _digits(values: np.ndarray, base: int, n: int) -> np.ndarray:
    """The ``n`` base-``base`` digits of each of ``values``, highest first."""
    return (values[:, None] // base ** np.arange(n - 1, -1, -1)) % base


def _multisets(letters: np.ndarray, base: int) -> tuple:
    """Number the rows of ``letters`` (shape ``(..., n)``, entries below
    ``base``) by the multiset of their entries: the flat position of each
    multiset's first row, and each row's number, flattened row-major."""
    codes = np.sort(letters, axis=-1) @ base ** np.arange(letters.shape[-1])
    _, first, inverse = np.unique(codes.reshape(-1), return_index=True, return_inverse=True)
    return first, inverse.reshape(-1)


class Reduction:
    """The reduced blocks of a :class:`CopySymmetry` and the invariant
    basis of its question space.

    ``shapes``, ``dims`` and ``multiplicities`` list ``lambda``,
    ``s_lambda`` and ``f_lambda`` per block: the partitions of ``n`` with
    at most ``dy dx`` rows in decreasing order, the dimension of the first
    tableau's eigenspace, whose basis ``U`` of shape ``(d, s_lambda)`` each
    block keeps, and the hook length formula's tableau count.
    """

    def __init__(self, sym: CopySymmetry):
        self.sym = sym
        n, dy, dx, d = sym.n, sym.dy, sym.dx, sym.dim
        # the transpositions (j k), j < k, grouped by k = 2 .. n
        self._swaps = [[sym.transposition(j, k) for j in range(k)] for k in range(1, n)]
        self.shapes = tuple(shape for shape in _partitions(n, n) if len(shape) <= dy * dx)
        self.multiplicities = tuple(_tableaux(shape) for shape in self.shapes)
        keys = [_key(shape, n) for shape in self.shapes]
        # one block of sum_k w_k J_k per weight class, indices sorted for searchsorted
        index = np.arange(d)
        letters = _digits(index // dx**n, dy, n) * dx + _digits(index % dx**n, dx, n)
        _, weight = _multisets(letters, dy * dx)
        columns = [[] for _ in self.shapes]
        classes = np.split(np.argsort(weight, kind="stable"), np.cumsum(np.bincount(weight))[:-1])
        for members in classes:
            size = len(members)
            weighted = np.zeros((size, size))
            for w, swaps in zip(_weights(n)[1:], self._swaps):
                for p in swaps:
                    weighted[np.arange(size), np.searchsorted(members, p[members])] += float(w)
            evals, evecs = np.linalg.eigh(weighted)
            found = np.rint(evals).astype(np.int64)
            for cols, key in zip(columns, keys):
                cols.append((members, evecs[:, found == key]))
        self._bases = []
        for cols in columns:
            widths = [vecs.shape[1] for _, vecs in cols]
            u = np.zeros((d, sum(widths)))
            for (members, vecs), start in zip(cols, np.cumsum([0] + widths)):
                u[members, start : start + vecs.shape[1]] = vecs
            self._bases.append(u)
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
        digits = _digits(np.arange(w), dx, n)
        first, self.orbit = _multisets(digits[:, None, :] * dx + digits[None, :, :], dx * dx)
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
        alpha, beta = self._alpha[:, None, None], self._beta[:, None, None]
        maps = []
        for f, basis in zip(self.multiplicities, self._bases):
            s = basis.shape[1]
            u = basis.reshape(-1, self.w, s).transpose(1, 0, 2)
            sums = np.stack([
                u[flat // self.w].reshape(-1, s).T @ u[flat % self.w].reshape(-1, s)
                for flat in pairs
            ])
            rows = f * (alpha * sums[self._o] + beta * sums[self._t])
            maps.append(_solver.BlockMap(0, m, rows))
        return _solver.ConstraintMap(maps, self.coordinates(np.eye(self.w)))


@functools.cache
def reduction(sym: CopySymmetry) -> tuple:
    """The :class:`Reduction` of ``sym`` and its reduced constraints, built
    once per ``(n, dy, dx)`` and shared by every solve, which only reads
    them.  :func:`~hedgekit.sdp.compile_primal` attaches a symmetry only
    to ``n >= 3`` copies (:func:`~hedgekit.games.copy_split`) of a block
    within the desk cap, so few keys arise."""
    red = Reduction(sym)
    return red, red.constraints()
