"""Standard-form Hermitian SDPs: compilation from games, Slater points,
solving and duality checks.

The prover's optimization for a game is

    maximize    <objective, X>
    subject to  Tr_{Y_1}(X_1) = I,  Tr_{Y_j}(X_j) = X_{j-1} (x) I,  X_j >= 0

and its dual minimizes ``Tr(Y)`` over a chain of operator inequalities;
:func:`compile_dual` states it as maximize ``-Tr(Y)``, whose optimum is
minus the dual optimum.  Both are compiled to one scalarized standard
form: every partial-trace equality is expanded against an orthonormal
Hermitian basis of the constrained space, giving ``dim^2`` scalar
equations per chain link.
A problem holds its equations only as a
:class:`~hedgekit.solver.ConstraintMap`.  For the primal, the last link
acts on the last chain block as ``I_{Y_r} (x) H_k`` up to a fixed factor
permutation, and its ``H_k`` are the whole basis
(:func:`~hedgekit.solver.hermitian_basis`), so the map holds them as
coordinates, not as a dense ``(w^2, w, w)`` array: ``b``, the dual
start, the feasibility re-checks, the witness read-back and the
copy-symmetric solve read and scatter the basis coordinates off matrix
entries.  At ``w = 2^n`` copies' questions that array would be 16 MB,
256 MB and 4 GB at ``n = 5``, 6 and 7.  Only the dense kernel builds
the basis, once per solve, into the map it iterates on; earlier chain
blocks hold their rows expanded (pad 1), since each carries the partial
trace of the next link's basis too, and the dual's rows are built as
operators and stacked with pad 1.

Compilation and the witness checks read a game only through its
:class:`~hedgekit.games.Rounds` and take a game or a bare ``Rounds``,
such as :func:`~hedgekit.games.parallel_rounds`, alike.

A compiled single-round game of ``n >= 3`` identical copies whose
objective is invariant under permuting them carries its
:class:`~hedgekit.symmetry.CopySymmetry`, with the letter classes of the
per-copy phases that fix the objective; :func:`solve` then passes the
kernel the reduced problem (``S_n`` blocks, or the phase sectors when
there is more than one class) in place of the dense one, a change
of variables around its one kernel call, and lifts the solution back,
so the report and its checks stay those of the dense problem.
"""
from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field

import numpy as np

from . import solver as _solver
from .errors import DomainError, SpaceError, ValidationError
from .games import Rounds, copy_split
from .operators import (
    HermitianOperator,
    align,
    hermitian_violation,
    identity,
    inner,
    kron,
    min_eigenvalue,
    partial_trace,
)
from .solver import hermitian_basis, hermitian_combination, hermitian_coordinates
from .spaces import SpaceList
from .symmetry import CopySymmetry, phase_classes, reduction

FEASIBILITY_TOL = 1e-8
WEAK_DUALITY_SLACK = 1e-7
#: Slack every chain inequality of a repaired witness holds with.
REPAIR_MARGIN = 1e-11
#: Entrywise drift, relative to the largest entry, up to which an
#: objective counts as invariant under permuting the copies.
COPY_INVARIANCE_TOL = 1e-12


# -- problem containers ------------------------------------------------------------


class SdpProblem:
    """A standard-form Hermitian SDP over the PSD blocks ``blocks``:

        maximize    ``sum_b <objective_b, X_b> + offset``
        subject to ``sum_b <F_ib, X_b> = b_i`` and ``X_b >= 0``.

    The equalities are the :class:`~hedgekit.solver.ConstraintMap`
    ``constraint_map``, one block map per entry of ``blocks``.  Compilers
    pass Kronecker-structured maps; a hand-built problem stacks its rows'
    matrices with pad dimension 1.  Every held ``G_i`` must pass
    :func:`~hedgekit.operators.hermitian_violation`, the test a
    :class:`~hedgekit.operators.HermitianOperator` passes, and every
    ``b_i`` must be finite; coordinate rows (``G=None``) are the Hermitian
    basis and need no check.
    """

    def __init__(
        self,
        blocks,
        objective,
        constraint_map,
        offset=0.0,
        primal_start=None,
        dual_start=None,
    ):
        self.blocks = tuple(blocks)
        self.objective = objective
        self.constraint_map = constraint_map
        self.offset = offset
        self.primal_start = primal_start
        self.dual_start = dual_start
        #: set by :func:`compile_primal` on a copy-symmetric problem, with
        #: the objective compressed into the reduced blocks
        self._copy_symmetry = None
        self._reduced_objective = None
        names = [name for name, _ in self.blocks]
        if len(set(names)) != len(names):
            raise ValidationError("duplicate block names")
        spaces = dict(self.blocks)
        for name, op in self.objective.items():
            if name not in spaces:
                raise ValidationError(f"objective references unknown block {name!r}")
            if op.spaces != spaces[name]:
                raise SpaceError(f"objective block {name!r} has mismatched spaces")
        if [bm.dim for bm in constraint_map.blocks] != [sp.dim for _, sp in self.blocks]:
            raise SpaceError("constraint map blocks do not match the problem blocks")
        bad = np.flatnonzero(~np.isfinite(constraint_map.b))
        if bad.size:
            raise ValidationError(f"constraint {bad[0]} has non-finite rhs")
        for name, bm in zip(names, constraint_map.blocks):
            if bm.G is not None:  # coordinate rows are a Hermitian basis
                _check_rows(name, bm)

    @property
    def block_names(self):
        return tuple(name for name, _ in self.blocks)


def _check_rows(name: str, bm: _solver.BlockMap):
    """Refuse the first ``G_i`` that
    :func:`~hedgekit.operators.hermitian_violation` refuses, naming its
    constraint and block."""
    found = hermitian_violation(bm.G)
    if found is not None:
        k, reason = found
        raise ValidationError(f"constraint {bm.start + k} block {name!r} {reason}")


@dataclass(frozen=True)
class SolveReport:
    status: str
    primal_value: float
    dual_value: float
    gap: float
    primal_blocks: dict
    dual_multipliers: tuple
    iterations: int
    #: ``u`` with ``A*(u) >= 0`` and ``b . u < 0``; None unless infeasible
    farkas_ray: tuple | None = None
    #: dimensions of the PSD blocks the interior-point kernel iterated on
    solved_blocks: tuple = ()
    #: why the solve is not optimal (the guard that ended it); None if optimal
    reason: str | None = None


@dataclass(frozen=True)
class DualWitness:
    """Candidate dual solution ``(Y, {Y_j})`` for a game's chain dual.

    Feasibility is checked by :func:`check_dual_feasibility`, never
    assumed; ``meta`` records the construction and its parameters.
    """

    Y: HermitianOperator
    Y_blocks: tuple = ()
    meta: dict = field(default_factory=dict)

    @property
    def rounds(self) -> int:
        return len(self.Y_blocks) + 1

    @property
    def value(self) -> float:
        return self.Y.trace()

    def chain(self):
        return (self.Y,) + tuple(self.Y_blocks)


@dataclass(frozen=True)
class FeasibilityReport:
    feasible: bool
    constraint_min_eigenvalues: tuple
    value: float


def _block_name(g: Rounds, j: int) -> str:
    return "X" if j == g.rounds else f"X{j}"


def _check_objective(g: Rounds, objective: HermitianOperator):
    if sorted(objective.spaces.labels) != sorted(g.spaces.labels):
        raise SpaceError(
            f"objective labels {sorted(objective.spaces.labels)} do not match the "
            f"game space {sorted(g.spaces.labels)}"
        )


# -- compilation -------------------------------------------------------------------


def compile_primal(g: Rounds, objective: HermitianOperator) -> SdpProblem:
    """Compile the prover's maximization over strategies.

    One PSD block per chain level; the partial-trace chain becomes
    ``dim(W_j)^2`` scalar equalities per level ``j`` against an
    orthonormal Hermitian basis ``H_k`` of the constrained space ``W_j``.
    On block ``X_j`` they read ``<I_{Y_j} (x) H_k, X_j>``; for ``j > 1``
    they also carry ``-<Tr_{X_j}(H_k), X_{j-1}>``.  The last block keeps
    the Kronecker form (pad ``dim Y_r``) with its ``H_k`` held as
    coordinates, never as a dense basis; earlier blocks, which carry
    two links, hold their rows expanded (pad 1).

    A single-round game of ``n >= 3`` copies labelled by
    :func:`~hedgekit.games.repetitions`, with the same factors in every
    copy, whose objective is invariant under permuting the copies, gets
    its :class:`~hedgekit.symmetry.CopySymmetry` recorded on the problem,
    with the letter classes of :func:`~hedgekit.symmetry.phase_classes`,
    and the objective compressed into the reduced blocks of
    :func:`~hedgekit.symmetry.reduction`, which the solve reuses.  The
    dual start is :func:`slater_points`' at the largest ``|eigenvalue|``
    of the blocks the objective is held in, dense or reduced.
    """
    _check_objective(g, objective)
    r = g.rounds
    blocks = tuple((_block_name(g, j), g.block(j)) for j in range(1, r + 1))
    families = [g.family(j) for j in range(1, r + 1)]
    offsets = [0, *itertools.accumulate(w.dim**2 for w in families)]
    maps = []
    for j, w in enumerate(families, start=1):
        link = _chain_link_map(g, j, w, offsets[j - 1])
        if j < r:
            d = blocks[j - 1][1].dim
            x = g.question(j + 1).dim
            basis = hermitian_basis(families[j].dim)
            coupling = -np.trace(basis.reshape(-1, d, x, d, x), axis1=2, axis2=4)
            link = _solver.BlockMap(
                offsets[j - 1], offsets[j + 1], np.concatenate([link.expand(), coupling])
            )
        maps.append(link)
    b = np.zeros(offsets[-1])
    b[: offsets[1]] = hermitian_coordinates(np.eye(families[0].dim))  # the Tr H_k
    aligned = align(objective, dict(blocks)[_block_name(g, r)])
    symmetry = _copy_symmetry(g, aligned.entries)
    reduced = None if symmetry is None else reduction(symmetry)[0].compress(aligned.entries)
    held = [aligned.entries] if reduced is None else reduced
    norm = max(float(np.max(np.abs(np.linalg.eigvalsh(c)))) for c in held)
    primal_point, dual_chain = slater_points(g, norm)
    dual_start = np.concatenate([hermitian_coordinates(yop.entries) for yop in dual_chain])
    problem = SdpProblem(
        blocks=blocks,
        objective={_block_name(g, r): aligned},
        constraint_map=_solver.ConstraintMap(maps, b),
        primal_start=primal_point,
        dual_start=dual_start,
    )
    problem._copy_symmetry, problem._reduced_objective = symmetry, reduced
    return problem


def _copy_symmetry(g: Rounds, objective: np.ndarray) -> CopySymmetry | None:
    """The copy symmetry of a single-round game of ``n >= 3`` copies whose
    objective (on ``g.block(1)``) it fixes, with the objective's phase
    classes, else None."""
    if g.rounds != 1:
        return None
    (n, dy), (nx, dx) = (copy_split(g.spaces, labels) for labels in (g.y_rounds[0], g.x_rounds[0]))
    if n != nx or n < 3:
        return None
    sym = CopySymmetry(n, dy, dx)
    if not sym.is_invariant(objective, COPY_INVARIANCE_TOL):
        return None
    return CopySymmetry(n, dy, dx, *phase_classes(objective, sym, COPY_INVARIANCE_TOL))


def _chain_link_map(g: Rounds, j: int, w: SpaceList, start: int):
    """Link ``j``'s rows on block ``X_j``, from row ``start``:
    ``P (I_{Y_j} (x) H_k) P^T``, where ``P`` moves the factors from
    ``Y_j, W_j`` order to the block's (``w = W_j``) and the ``H_k`` are
    held as coordinates."""
    block = g.block(j)
    natural = tuple(g.y_rounds[j - 1]) + w.labels
    perm = None
    if natural != block.labels:
        axes = [block.position(label) for label in natural]
        perm = np.arange(block.dim).reshape(block.dims).transpose(axes).reshape(-1)
    pad = g.answer(j).dim
    return _solver.BlockMap(start, start + w.dim**2, None, pad=pad, perm=perm)


def compile_dual(g: Rounds, objective: HermitianOperator) -> SdpProblem:
    """Compile the chain dual to standard form as maximize ``-Tr(Y)``;
    its optimum is minus the dual optimum.

    For a PSD objective every feasible chain block is itself PSD (the
    last inequality dominates a PSD operator and feasibility propagates
    up the chain), so the blocks enter the cone directly.  A non-PSD
    objective forces ``Y_j >= -K_j I`` with the cascade constants
    ``K_r = |objective|``, ``K_{j} = K_{j+1} dim(X_{j+1})``; the blocks
    are shifted by those identity multiples and the report carries the
    trace offset, so the compiled optimum is still minus the dual optimum.
    """
    _check_objective(g, objective)
    r = g.rounds
    spectrum = np.linalg.eigvalsh(objective.entries)
    norm = float(np.max(np.abs(spectrum)))
    shifts = [0.0] * r
    if spectrum[0] < -1e-12:
        shifts[r - 1] = norm
        for j in range(r - 1, 0, -1):
            shifts[j - 1] = shifts[j] * g.question(j + 1).dim
    blocks = []
    for j in range(1, r + 1):
        blocks.append((f"Q{j}", g.family(j)))
        blocks.append((f"S{j}", g.block(j)))
    blocks = tuple(blocks)
    spaces = dict(blocks)
    rows = {name: [] for name, _ in blocks}
    first = {}
    b = []
    for j in range(1, r + 1):
        v = g.block(j)
        obj_aligned = align(objective, v) if j == r else None
        if j < r:
            const = shifts[j - 1] - shifts[j] * g.question(j + 1).dim
        else:
            const = shifts[j - 1]
        for h in hermitian_basis(v.dim):
            hop = HermitianOperator(v, h)
            reduced = partial_trace(hop, set(g.y_rounds[j - 1]))
            coeffs = {f"Q{j}": reduced, f"S{j}": hop * -1.0}
            rhs = const * float(np.trace(h).real)
            if j < r:
                lifted = align(
                    kron(hop, identity(g.question(j + 1))),
                    spaces[f"Q{j + 1}"],
                )
                coeffs[f"Q{j + 1}"] = lifted * -1.0
            else:
                rhs += inner(hop, obj_aligned)
            for name, op in coeffs.items():
                first.setdefault(name, len(b))
                rows[name].append(op.entries)
            b.append(rhs)
    # S_j spans family j, Q_1 family 1 and Q_{j+1} families j and j + 1
    maps = [
        _solver.BlockMap(first[name], first[name] + len(rows[name]), np.stack(rows[name]))
        for name, _ in blocks
    ]
    _, dual_chain = slater_points(g, norm)
    primal_start = {}
    for j in range(1, r + 1):
        primal_start[f"Q{j}"] = dual_chain[j - 1] + identity(spaces[f"Q{j}"]) * shifts[j - 1]
        primal_start[f"S{j}"] = _chain_inequality(g, objective, dual_chain, j)
    return SdpProblem(
        blocks=blocks,
        objective={"Q1": identity(spaces["Q1"]) * -1.0},
        constraint_map=_solver.ConstraintMap(maps, b),
        offset=shifts[0] * spaces["Q1"].dim,
        primal_start=primal_start,
        dual_start=None,
    )


def slater_points(g: Rounds, norm: float):
    """Strictly feasible points for the compiled primal and the chain dual
    of an objective of spectral norm ``norm``.

    Primal: each chain block a multiple of the identity,
    ``X_j = I / dim(Y_1 ... Y_j)``.  Dual: a cascade of identity
    multiples, ``Y_r = (norm + 1) I`` and each earlier level scaled up by
    twice the traced-out question dimension, which leaves every
    inequality satisfied with margin at least one in exact arithmetic;
    computed, a margin of exactly one can read a few ulp below it
    (``0.9999999999999976`` at four hedging copies).
    """
    r = g.rounds
    primal = {}
    denom = 1
    for j in range(1, r + 1):
        denom *= g.answer(j).dim
        primal[_block_name(g, j)] = identity(g.block(j)) * (1.0 / denom)
    scale = norm + 1.0
    chain = [None] * r
    for j in range(r, 0, -1):
        chain[j - 1] = identity(g.family(j)) * scale
        if j > 1:
            scale *= 2 * g.question(j).dim
    return primal, tuple(chain)


# -- solving -----------------------------------------------------------------------


def solve(problem: SdpProblem, tol: float = 1e-8, max_iter: int = 200) -> SolveReport:
    """Solve a standard-form problem with the embedded interior-point kernel.

    The kernel runs once.  A problem that :func:`compile_primal` found
    copy-symmetric hands it the reduced problem
    (:func:`~hedgekit.symmetry.reduction`): the objective as compressed
    into the reduced blocks by :func:`compile_primal`, the starting points
    compressed likewise, and the reduced rows.  The report is the dense
    problem's all the same: ``X`` lifted back and re-checked against the
    dense constraints, the multipliers and any Farkas ray read back in the
    dense rows, and ``solved_blocks`` naming the reduced blocks (the
    kernel may iterate on several of them as one slot, their direct sum).
    """
    if not 1e-10 <= tol <= 1e-2:
        raise ValidationError(f"tol must lie in [1e-10, 1e-2], got {tol!r}")
    try:
        max_iter = operator.index(max_iter)
    except TypeError:
        raise ValidationError(f"max_iter must be an integer, got {max_iter!r}") from None
    if max_iter < 1:
        raise ValidationError("max_iter must be positive")
    names = problem.block_names
    spaces = dict(problem.blocks)
    c_blocks = [
        problem.objective[n].entries if n in problem.objective
        else np.zeros((spaces[n].dim,) * 2)
        for n in names
    ]
    x_start = None
    if problem.primal_start is not None:
        x_start = [problem.primal_start[n].entries for n in names]
    cmap, y_start, symmetry = problem.constraint_map, problem.dual_start, problem._copy_symmetry
    if symmetry is not None:
        # compile_primal's rows are an orthonormal Hermitian basis G_k of
        # the question space: a dual point y is the operator Y = sum_k y_k G_k
        # there, and the reduced rows read its coordinates off Y
        (rows,) = cmap.blocks
        red, cmap = reduction(symmetry)
        c_blocks = [f * c for f, c in zip(red.multiplicities, problem._reduced_objective)]
        x_start = None if x_start is None else red.compress(x_start[0])
        y_start = None if y_start is None else red.coordinates(rows.scatter(y_start))
    raw = _solver.interior_point(
        c_blocks, cmap, tol=tol, max_iter=max_iter, x_start=x_start, y_start=y_start
    )
    if symmetry is not None:
        raw["X"] = [red.lift(raw["X"])]
        raw["y"] = rows.read(red.operator(raw["y"]))
        if raw["farkas"] is not None:
            ray = rows.read(red.operator(raw["farkas"]))
            raw["farkas"] = ray / np.max(np.abs(ray))
    primal_blocks = {
        n: HermitianOperator(spaces[n], x) for n, x in zip(names, raw["X"])
    }
    pval = raw["primal_value"] + problem.offset
    dval = raw["dual_value"] + problem.offset
    mults = tuple(float(v) for v in raw["y"])
    status, reason = raw["status"], raw["reason"]
    ray = None if raw["farkas"] is None else tuple(float(v) for v in raw["farkas"])
    # re-verify the optimal-status contract; downgrade on violation
    if status == _solver.STATUS_OPTIMAL:
        reason = _primal_violation(problem, [primal_blocks[n] for n in names])
        if reason:
            status = _solver.STATUS_NUMERICAL
    return SolveReport(
        status=status,
        primal_value=pval,
        dual_value=dval,
        gap=abs(pval - dval),
        primal_blocks=primal_blocks,
        dual_multipliers=mults,
        iterations=raw["iterations"],
        farkas_ray=ray,
        solved_blocks=raw["blocks"],
        reason=reason,
    )


def _primal_violation(problem: SdpProblem, x_blocks) -> str | None:
    """Why block operators (in problem block order, aligned) are not
    primal feasible beyond ``FEASIBILITY_TOL``, or None when they are."""
    for n, x in zip(problem.block_names, x_blocks):
        lo = min_eigenvalue(x)
        if lo < -FEASIBILITY_TOL:
            return f"primal block {n!r} is not PSD: min eigenvalue {lo:.3e}"
    cmap = problem.constraint_map
    resid = np.abs(cmap.apply([x.entries for x in x_blocks]) - cmap.b)
    bad = np.flatnonzero(resid > FEASIBILITY_TOL * np.maximum(1.0, np.abs(cmap.b)))
    if bad.size:
        k = int(bad[0])
        return f"primal point violates constraint {k}: residual {resid[k]:.3e}"
    return None


# -- duality checks ----------------------------------------------------------------


def check_weak_duality(problem: SdpProblem, primal_blocks: dict, dual_multipliers):
    """Evaluate a feasible primal/dual pair and assert weak duality.

    Returns ``(primal objective, dual objective)``.  Raises with the
    offending constraint or block when either point is infeasible
    beyond ``1e-8``.
    """
    spaces = dict(problem.blocks)
    for n in problem.block_names:
        if n not in primal_blocks:
            raise ValidationError(f"primal point is missing block {n!r}")
    violation = _primal_violation(
        problem, [align(primal_blocks[n], spaces[n]) for n in problem.block_names]
    )
    if violation:
        raise ValidationError(violation)
    cmap = problem.constraint_map
    y = np.asarray(dual_multipliers, dtype=float)
    if y.shape != (cmap.m,):
        raise ValidationError("dual multiplier count does not match the constraints")
    for n, slack in zip(problem.block_names, cmap.adjoint(y)):
        cop = problem.objective.get(n)
        if cop is not None:
            slack = slack - cop.entries
        lo = float(np.linalg.eigvalsh((slack + slack.conj().T) / 2)[0])
        if lo < -FEASIBILITY_TOL:
            raise ValidationError(
                f"dual point has negative slack on block {n!r}: min eigenvalue {lo:.3e}"
            )
    pval = (
        sum(inner(op, primal_blocks[n]) for n, op in problem.objective.items())
        + problem.offset
    )
    dval = float(y @ cmap.b) + problem.offset
    if pval > dval + WEAK_DUALITY_SLACK:
        raise ValidationError(f"weak duality violated: primal {pval!r} > dual {dval!r}")
    return pval, dval


def _chain_inequality(g: Rounds, objective: HermitianOperator, chain, j: int):
    """Level ``j`` of the chain dual on the block space: ``Y_j (x) I``
    minus ``Tr_{X_{j+1}}(Y_{j+1})``, or minus the objective at the last
    level."""
    expr = align(kron(chain[j - 1], identity(g.answer(j))), g.block(j))
    if j < g.rounds:
        return expr - align(partial_trace(chain[j], set(g.x_rounds[j])), expr.spaces)
    return expr - align(objective, expr.spaces)


def check_dual_feasibility(
    g: Rounds,
    objective: HermitianOperator,
    w: DualWitness,
    tol: float = 1e-9,
) -> FeasibilityReport:
    """Evaluate every chain inequality of a dual witness.

    Returns the per-constraint minimum eigenvalues; the witness is
    feasible iff all are at least ``-tol``.  ``Tr(Y)`` is an upper bound
    on the primal optimum by weak duality only when every minimum
    eigenvalue is at least 0, up to rounding; at ``tol > 0`` a feasible
    witness can read below the optimum.  A ``tol`` that is not finite
    and non-negative is refused.
    """
    if not 0.0 <= tol < np.inf:
        raise ValidationError(f"tol must be finite and non-negative, got {tol!r}")
    _check_objective(g, objective)
    if w.rounds != g.rounds:
        raise SpaceError(f"witness has {w.rounds} rounds, game has {g.rounds}")
    chain = w.chain()
    for j, block in enumerate(chain, start=1):
        want = sorted(g.family(j).labels)
        if sorted(block.spaces.labels) != want:
            raise SpaceError(
                f"witness block {j} labels {sorted(block.spaces.labels)} do not match "
                f"the chain space {want}"
            )
    eigs = [
        min_eigenvalue(_chain_inequality(g, objective, chain, j))
        for j in range(1, g.rounds + 1)
    ]
    feasible = all(e >= -tol for e in eigs)
    return FeasibilityReport(
        feasible=feasible,
        constraint_min_eigenvalues=tuple(eigs),
        value=w.value,
    )


def dual_witness_from_report(
    g: Rounds, problem: SdpProblem, report: SolveReport, meta=None
) -> DualWitness:
    """Reconstruct chain-form dual blocks from a solved
    ``compile_primal(g, ...)``: link ``j`` owns the next
    ``family(j).dim^2`` multipliers, in Hermitian-basis order."""
    spaces = [g.family(j) for j in range(1, g.rounds + 1)]
    counts = [w.dim**2 for w in spaces]
    blocks = tuple((_block_name(g, j), g.block(j)) for j in range(1, g.rounds + 1))
    if problem.blocks != blocks or problem.constraint_map.m != sum(counts):
        raise DomainError("problem is not the compiled primal of this game")
    y = np.asarray(report.dual_multipliers, dtype=float)
    chain = [
        HermitianOperator(w, hermitian_combination(coeffs))
        for w, coeffs in zip(spaces, np.split(y, np.cumsum(counts)[:-1]))
    ]
    return DualWitness(Y=chain[0], Y_blocks=tuple(chain[1:]), meta=dict(meta or {}))


def repair_witness(g: Rounds, objective: HermitianOperator, w: DualWitness) -> DualWitness:
    """Shift chain blocks by identity multiples until every inequality
    holds with at least ``REPAIR_MARGIN`` slack (solver output is feasible
    only up to its tolerance; tensor constructions need a strict input)."""
    chain = list(w.chain())
    for j in range(g.rounds, 0, -1):
        lo = min_eigenvalue(_chain_inequality(g, objective, chain, j))
        if lo < REPAIR_MARGIN:
            chain[j - 1] = chain[j - 1] + identity(chain[j - 1].spaces) * (REPAIR_MARGIN - lo)
    return DualWitness(Y=chain[0], Y_blocks=tuple(chain[1:]), meta=dict(w.meta))
