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
fixed by ``(n, dy, dx)`` and the letter classes below
(:func:`reduction`); this module builds them and the maps between the
two problems, and :func:`~hedgekit.sdp.solve` runs
the kernel on the reduced one.  Its solution lifts back: ``X`` as the
``S_n`` average of ``sum_lambda f_lambda U X_lambda U^T``, which by
Schur's lemma is the sum above (the Reynolds operator of the group), and
``y`` and any Farkas ray as the operator ``Y = sum_a y_a K_a`` on
``X^(x)n``, whose dense dual slack ``I_Y (x) Y - C`` restricts to
``f_lambda`` copies of each reduced slack.  Any basis of dense rows
reads its multipliers off ``Y``.  With orthonormal ``U`` (checked to
``ORTHONORMALITY_TOL``) the lifted ``X`` has the union of the blocks'
spectra, each repeated ``f_lambda`` times, and meets each row ``I_Y (x)
K_a`` as the blocks meet its reduced row, so the solve re-checks an
optimal ``X`` in the blocks and lifts it only when the report's
``primal_blocks`` is read (Gatermann and Parrilo 2004; de Klerk,
Pasechnik and Schrijver 2007).

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

Per-copy phases cut the blocks further.  A phase ``V = diag(e^{i
alpha_y}) (x) diag(e^{i beta_x})`` on one copy keeps ``Tr_Y X = I``
(``Tr_Y(V X V^dag)`` is ``Tr_Y X`` conjugated by the ``beta`` part), and
it fixes ``C`` when every entry joins, in every copy, letters ``(y, x)``
of equal charge ``alpha_y + beta_x``.  :func:`phase_classes` reads the
classes of letters that every such phase charges alike off the nonzero
pattern of ``C`` (the bundled hedging game: ``{00, 11}``, ``{01}``,
``{10}``).  Twirling over the phases of each copy, an optimal ``X`` is
block diagonal in the string of per-copy classes, and with ``S_n`` one
string per sector, a count ``a_c`` of copies per class, at its canonical
arrangement (the copies in class order) stands for the ``n! / prod
a_c!`` arrangements.  The sector's symmetry is ``prod_c S_{a_c}``, so
its blocks are Kronecker products over the classes of the ``S_n``
blocks of ``a_c`` copies of the class's ``m_c`` letters: width ``prod
s_mu``, multiplicity ``n! / prod a_c! * prod f_mu``.  ``X`` lifts by the
same coset average of ``sum f U X U^T``.  The dual operator ``Y`` is
invariant under the ``beta`` phases too, so only the rows ``K_a`` whose
per-copy question pairs lie in one ``beta`` class stay (for hedging,
the ``n + 1`` Hamming weights).  One class is the one sector of ``n``
copies, whose blocks are the ``S_n`` blocks above, so every reduction is
built sector by sector, and each block is held once: its sector's index
window and the rows of ``U`` there.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import solver as _solver
from .errors import NumericalError

#: Largest entry of ``U^T U - I`` that a reduced block's basis may carry:
#: the reduced problem stands for the dense one, and its re-check for the
#: dense re-check, only as far as the bases are orthonormal.  The
#: bases built here read at most a few ulp (4e-15 for hedging through
#: n = 8).
ORTHONORMALITY_TOL = 1e-12


@dataclass(frozen=True)
class CopySymmetry:
    """``S_n`` permuting ``n`` copies of a ``(dy, dx)`` strategy block whose
    factors are ordered ``(y_1 .. y_n, x_1 .. x_n)``, with the per-copy
    phases' letter classes of :func:`phase_classes` (None: one class)."""

    n: int
    dy: int
    dx: int
    classes: tuple | None = None
    xclasses: tuple | None = None

    @property
    def dim(self) -> int:
        return (self.dy * self.dx) ** self.n

    def _swapped_axes(self, i: int, j: int) -> tuple:
        """The ``(dy,)*n + (dx,)*n`` tensor shape of an index and its axes
        with copies ``i`` and ``j`` swapped."""
        n = self.n
        axes = list(range(2 * n))
        axes[i], axes[j], axes[n + i], axes[n + j] = j, i, n + j, n + i
        return (self.dy,) * n + (self.dx,) * n, axes

    def transposition(self, i: int, j: int) -> np.ndarray:
        """Index permutation ``p`` of copies ``i`` and ``j`` (from 0):
        ``(P v)[a] = v[p[a]]``, and ``p`` is its own inverse."""
        shape, axes = self._swapped_axes(i, j)
        return np.arange(self.dim).reshape(shape).transpose(axes).reshape(-1)

    def swap(self, mat: np.ndarray, i: int, j: int) -> np.ndarray:
        """``P mat P^T`` for the transposition ``P`` of copies ``i`` and
        ``j``, as the transpose of ``mat``'s tensor view that swaps both
        copies' axes in the rows and in the columns: the entries of
        ``mat[p[:, None], p]``, ``p = transposition(i, j)``, with no gather."""
        shape, axes = self._swapped_axes(i, j)
        columns = [len(axes) + a for a in axes]
        return mat.reshape(shape + shape).transpose(axes + columns).reshape(mat.shape)

    def is_invariant(self, mat: np.ndarray, tol: float) -> bool:
        """Whether every adjacent copy transposition fixes ``mat``
        entrywise within ``tol`` times its largest entry (at least 1)."""
        bound = tol * max(1.0, float(np.max(np.abs(mat))))
        for i in range(self.n - 1):
            if np.max(np.abs(self.swap(mat, i, i + 1) - mat)) > bound:
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


def _letters(sym: CopySymmetry) -> np.ndarray:
    """The letter ``y_k dx + x_k`` of every copy ``k`` of every index of
    the strategy block, shape ``(dim, n)``."""
    n, dy, dx = sym.n, sym.dy, sym.dx
    index = np.arange(sym.dim)
    return _digits(index // dx**n, dy, n) * dx + _digits(index % dx**n, dx, n)


def phase_classes(mat: np.ndarray, sym: CopySymmetry, tol: float) -> tuple:
    """The letter classes of the per-copy phases that fix ``mat``:
    ``(classes, xclasses)``, the class of each letter ``(y, x)``
    (numbered ``y dx + x``) and of each question letter ``x``, numbered in
    order of first letter, or ``(None, None)`` when all letters share one.

    A phase ``diag(e^{i alpha_y}) (x) diag(e^{i beta_x})`` on one copy
    keeps ``Tr_Y X = I`` and fixes ``mat`` when every entry above ``tol``
    times the largest joins, in every copy, letters of equal charge
    ``alpha_y + beta_x``.  Two letters share a class when every such
    phase gives them equal charge, two question letters when it gives
    them equal ``beta``: the solutions are the null space of the charge
    differences of the letter pairs that the entries join."""
    dy, dx = sym.dy, sym.dx
    d = dy * dx
    mag = np.abs(mat)
    i, j = np.nonzero(mag > tol * np.max(mag))
    letters = _letters(sym)
    joined = np.bincount((letters[i] * d + letters[j]).reshape(-1), minlength=d * d)
    pairs = np.flatnonzero(joined)
    charge = np.zeros((d, dy + dx))
    charge[np.arange(d), np.arange(d) // dx] = 1.0
    charge[np.arange(d), dy + np.arange(d) % dx] = 1.0
    equations = charge[pairs // d] - charge[pairs % d]
    evals, evecs = np.linalg.eigh(equations.T @ equations)
    free = evecs[:, evals <= 1e-9 * max(1.0, evals[-1])]

    def classes(q):
        same = np.max(np.abs(q[:, None] - q[None]), axis=-1) <= 1e-9
        return tuple(int(c) for c in np.unique(np.argmax(same, axis=1), return_inverse=True)[1])

    letter = classes(charge @ free)
    if max(letter) == 0:
        return None, None
    return letter, classes(free[dy:])


@functools.cache
def _class_blocks(copies: int, letters: int) -> tuple:
    """``(shape, f, U)`` per ``S_n`` block of ``copies`` copies of one class
    of ``letters`` letters (a single 1 x 1 block for no copies): ``U`` of
    shape ``(letters^copies, s_lambda)``, its rows indexed by the copies'
    letters, highest first, from one small ``eigh`` of ``sum_k w_k J_k``
    per weight class."""
    if copies == 0:
        return (((), 1, np.ones((1, 1))),)
    sym = CopySymmetry(copies, 1, letters)
    shapes = tuple(shape for shape in _partitions(copies, copies) if len(shape) <= letters)
    keys = [_key(shape, copies) for shape in shapes]
    # the transpositions (j k), j < k, grouped by k = 2 .. n
    swaps = [[sym.transposition(j, k) for j in range(k)] for k in range(1, copies)]
    # one block of sum_k w_k J_k per weight class, indices sorted for searchsorted
    _, weight = _multisets(_letters(sym), letters)
    columns = [[] for _ in shapes]
    classes = np.split(np.argsort(weight, kind="stable"), np.cumsum(np.bincount(weight))[:-1])
    for members in classes:
        size = len(members)
        weighted = np.zeros((size, size))
        for w, group in zip(_weights(copies)[1:], swaps):
            for p in group:
                weighted[np.arange(size), np.searchsorted(members, p[members])] += float(w)
        evals, evecs = np.linalg.eigh(weighted)
        found = np.rint(evals).astype(np.int64)
        for cols, key in zip(columns, keys):
            cols.append((members, evecs[:, found == key]))
    blocks = []
    for shape, cols in zip(shapes, columns):
        widths = [vecs.shape[1] for _, vecs in cols]
        u = np.zeros((sym.dim, sum(widths)))
        for (members, vecs), start in zip(cols, np.cumsum([0] + widths)):
            u[members, start : start + vecs.shape[1]] = vecs
        blocks.append((shape, _tableaux(shape), u))
    return tuple(blocks)


def _compositions(n: int, parts: int) -> list:
    """The tuples of ``parts`` counts that sum to ``n``, largest first."""
    if parts == 1:
        return [(n,)]
    return [(a,) + rest for a in range(n, -1, -1) for rest in _compositions(n - a, parts - 1)]


def _sector_bases(sym: CopySymmetry) -> tuple:
    """The blocks of ``sym``'s phase sectors (one sector of ``n`` copies
    when its letters form one class): ``(shapes, multiplicities,
    blocks)``, with one shape per class in each block's shape, and per
    block ``(index, U)``, the index window of its sector's canonical
    arrangement and the rows of ``U`` there, the only nonzero ones."""
    n, dy, dx = sym.n, sym.dy, sym.dx
    labels = np.array(sym.classes or (0,) * dy * dx)
    members = [np.flatnonzero(labels == c) for c in range(labels.max() + 1)]
    shapes, multiplicities, blocks = [], [], []
    for counts in _compositions(n, len(members)):
        # the canonical arrangement: the copies in class order
        index = np.zeros(1, dtype=np.int64)
        for k, c in enumerate(np.repeat(np.arange(len(members)), counts)):
            y, x = np.divmod(members[c], dx)
            place = y * dy ** (n - 1 - k) * dx**n + x * dx ** (n - 1 - k)
            index = (index[:, None] + place).reshape(-1)
        arrangements = math.factorial(n) // math.prod(math.factorial(a) for a in counts)
        factors = [_class_blocks(a, len(m)) for a, m in zip(counts, members)]
        for combo in itertools.product(*factors):
            shapes.append(tuple(block[0] for block in combo))
            multiplicities.append(arrangements * math.prod(block[1] for block in combo))
            blocks.append((index, functools.reduce(np.kron, [block[2] for block in combo])))
    return tuple(shapes), tuple(multiplicities), blocks


class Reduction:
    """The reduced blocks of a :class:`CopySymmetry` and the invariant
    basis of its question space.

    The blocks are those of the phase sectors, sector by sector (counts
    of copies per class, largest first); one letter class is the one
    sector of ``n`` copies, whose blocks are the ``S_n`` ones.
    ``shapes``, ``dims`` and ``multiplicities`` list per block its shape,
    one partition ``mu`` of each class's count of copies with at most as
    many rows as the class has letters (in decreasing order); its width,
    the product of the classes' ``s_mu``; and its multiplicity, the
    product of their hook length tableau counts ``f_mu`` times the
    sector's arrangements.  Each block is held once, as its sector's
    index window and the rows ``U`` of its first tableau's basis there.
    A basis whose ``U^T U`` is further than ``ORTHONORMALITY_TOL`` from
    the identity is refused.
    """

    def __init__(self, sym: CopySymmetry):
        self.sym = sym
        self.shapes, self.multiplicities, self._blocks = _sector_bases(sym)
        self.dims = tuple(u.shape[1] for _, u in self._blocks)
        if sum(f * s for f, s in zip(self.multiplicities, self.dims)) != sym.dim:
            raise NumericalError("tableau eigenspaces do not span the block")
        drift = max(float(np.max(np.abs(u.T @ u - np.eye(u.shape[1])))) for _, u in self._blocks)
        if drift > ORTHONORMALITY_TOL:
            raise NumericalError(f"reduced block bases are not orthonormal: drift {drift:.3e}")
        self._orbits()

    def _orbits(self):
        """The orbits of index pairs ``(i, j)`` of ``X^(x)n``: ``orbit``
        numbers each pair (row-major), and row ``a`` of the invariant basis
        is ``K_a = alpha_a E_{o_a} + beta_a E_{t_a}``, ``E_o`` the orbit's
        indicator and ``t_a`` the orbit of the transposed pairs.  With
        question classes, only the orbits whose pairs join letters of one
        class in every copy give rows."""
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
        # the orbits whose pairs join question letters of one class in every copy
        kept = np.ones(self.orbits, dtype=bool)
        if self.sym.xclasses is not None:
            xc = np.array(self.sym.xclasses)
            kept = np.all(xc[digits[first // w]] == xc[digits[first % w]], axis=1)
        rows = []  # (o, t, alpha, beta)
        for a in np.flatnonzero(kept):
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
        return [u.T @ mat[np.ix_(index, index)] @ u for index, u in self._blocks]

    def lift(self, blocks) -> np.ndarray:
        """``sum_lambda sum_T U_T X_lambda U_T^T``, the ``S_n`` average of
        ``A = sum_lambda f_lambda U X_lambda U^T``, taken coset by coset:
        ``A <- (A + sum_{j<k} P_(j k) A P_(j k)^T) / k`` for ``k = 2 .. n``."""
        a = np.zeros((self.sym.dim,) * 2, dtype=np.result_type(*blocks))
        for f, (index, u), x in zip(self.multiplicities, self._blocks, blocks):
            a[np.ix_(index, index)] += f * (u @ x @ u.T)
        for k in range(2, self.sym.n + 1):
            a = (a + sum(self.sym.swap(a, j, k - 1) for j in range(k - 1))) / k
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
        used, at = np.unique(np.concatenate([self._o, self._t]), return_inverse=True)
        o, t = np.split(at, 2)
        alpha, beta = self._alpha[:, None, None], self._beta[:, None, None]
        maps = []
        for f, (index, u) in zip(self.multiplicities, self._blocks):
            s = u.shape[1]
            # the block's (dim, s) basis, held only while its orbit sums form
            basis = np.zeros((self.sym.dim, s))
            basis[index] = u
            u = basis.reshape(-1, self.w, s).transpose(1, 0, 2)
            sums = np.stack([
                u[pairs[a] // self.w].reshape(-1, s).T @ u[pairs[a] % self.w].reshape(-1, s)
                for a in used
            ])
            rows = f * (alpha * sums[o] + beta * sums[t])
            maps.append(_solver.BlockMap(0, m, rows))
        return _solver.ConstraintMap(maps, self.coordinates(np.eye(self.w)))


@functools.cache
def reduction(sym: CopySymmetry) -> tuple:
    """The :class:`Reduction` of ``sym`` and its reduced constraints, built
    once per ``(n, dy, dx)`` and letter classes and shared by every solve,
    which only reads them.  :func:`~hedgekit.sdp.compile_primal` attaches
    a symmetry only to ``n >= 3`` copies
    (:func:`~hedgekit.games.copy_split`) of a block within the desk cap,
    so few keys arise."""
    red = Reduction(sym)
    return red, red.constraints()
