"""Explicit dual witnesses for parallel-repetition problems.

Each construction turns a feasible single-round dual solution into a
candidate for the n-fold dual and is checked, never assumed, via
:func:`hedgekit.sdp.check_dual_feasibility`:

* ``witness_average``      - value problems; trace stays ``Tr(Y)``.
* ``witness_tensor_power`` - threshold ``k = n``; trace ``Tr(Y)^n``.
* ``witness_naive``        - any threshold; trace ``sum_t C(n,t) Tr(Y)^t``.
* ``witness_recursive_snk``- any threshold; trace ``Tr(Y)^k C(n,k)``.
* ``witness_classical_binomial`` - diagonal games only; the dephase +
  entrywise-clamp reduction whose trace is the binomial tail.

Every n-fold block is a tensor word or a word sum from the builder in
:mod:`hedgekit.games` (:func:`~hedgekit.games.repetitions`,
:func:`~hedgekit.games.tensor_word`, :func:`~hedgekit.games.word_sum`), so
the witnesses carry the labels of :func:`~hedgekit.games.parallel_game`
for every ``n``, a single copy included.

The positivity engine behind the threshold constructions is the
monotone-set operator inequality checked by
:func:`verify_monotone_inequality`.
"""
from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import DomainError, NumericalError, ValidationError
from .games import (
    OutcomeOperators,
    is_diagonal_game,
    repetitions,
    tensor_word,
    value_objective,
    word_sum,
)
from .operators import (
    HermitianOperator,
    dephase,
    is_diagonal,
    kron,
    min_eigenvalue,
    permute_systems,
)
from .sdp import (
    DualWitness,
    check_dual_feasibility,
    compile_primal,
    dual_witness_from_report,
    repair_witness,
    solve,
)

INPUT_FEASIBILITY_TOL = 1e-9


# -- obtaining and validating single-round witnesses -------------------------------


def single_round_witness(
    g: OutcomeOperators,
    objective: HermitianOperator,
    tol: float = 1e-9,
    meta=None,
) -> DualWitness:
    """Solve the single-round problem and extract a strictly feasible
    dual witness (solver output is repaired up to an identity shift of
    order ``1e-11`` so tensor constructions inherit feasibility)."""
    problem = compile_primal(g, objective)
    report = solve(problem, tol=max(1e-10, tol))
    if report.status == "infeasible":
        raise DomainError("single-round problem is infeasible")
    if report.status != "optimal":
        raise NumericalError(
            f"single-round solve did not reach optimality: {report.status}"
        )
    w = dual_witness_from_report(g, problem, report, meta=meta)
    return repair_witness(g, objective, w)


def _require_two_outcomes(g: OutcomeOperators):
    if g.outcome_count != 2:
        raise ValidationError(
            f"threshold constructions need a two-outcome game, got {g.outcome_count}"
        )


def _verify_input(w: DualWitness, g: OutcomeOperators, objective: HermitianOperator):
    report = check_dual_feasibility(g, objective, w, INPUT_FEASIBILITY_TOL)
    if not report.feasible:
        raise DomainError(
            "input witness is infeasible for the single-round problem "
            f"(constraint min eigenvalues {report.constraint_min_eigenvalues})"
        )


def _game_chain(g: OutcomeOperators):
    """Game-side chain blocks (rho, R_2, ..., R_r) matching the witness chain."""
    return (g.rho,) + tuple(g.r_blocks)


# -- constructions ------------------------------------------------------------------


def witness_average(
    w: DualWitness, g: OutcomeOperators, n: int, values=None
) -> DualWitness:
    """Symmetrized witness for the n-fold average-value dual: one ``Y``
    factor and ``n - 1`` game-consistency factors per term, averaged.
    Its trace equals ``Tr(Y)`` exactly (the consistency blocks have unit
    trace)."""
    reps = repetitions(n)
    if values is None:
        values = w.meta.get("values")
    if values is not None:
        _verify_input(w, g, value_objective(g, values, 1))
    game_chain = _game_chain(g)
    chain = []
    for yop, rop in zip(w.chain(), game_chain):
        total = None
        for slot in range(n):
            word = tensor_word([yop if pos == slot else rop for pos in range(n)], reps)
            total = word if total is None else total + word
        chain.append(total * (1.0 / n))
    meta = dict(w.meta)
    meta.update({"construction": "average", "n": n})
    if values is not None:
        meta["values"] = [float(v) for v in values]
    return DualWitness(rounds=g.rounds, Y=chain[0], Y_blocks=tuple(chain[1:]), meta=meta)


def witness_tensor_power(w: DualWitness, n: int, g: OutcomeOperators | None = None) -> DualWitness:
    """Tensor-power witness for the threshold ``k = n``; trace ``Tr(Y)^n``."""
    reps = repetitions(n)
    if g is not None:
        _require_two_outcomes(g)
        _verify_input(w, g, g.outcomes[1])
    chain = [tensor_word([yop] * n, reps) for yop in w.chain()]
    meta = dict(w.meta)
    meta.update({"construction": "tensor-power", "n": n, "k": n})
    return DualWitness(rounds=w.rounds, Y=chain[0], Y_blocks=tuple(chain[1:]), meta=meta)


def witness_naive(w: DualWitness, g: OutcomeOperators, n: int, k: int) -> DualWitness:
    """Sum of tensor words with the game's consistency blocks in the
    losing slots; trace ``sum_{t >= k} C(n,t) Tr(Y)^t``."""
    if not 0 <= k <= n:
        raise ValidationError(f"threshold {k} out of range 0..{n}")
    _require_two_outcomes(g)
    _verify_input(w, g, g.outcomes[1])
    reps = repetitions(n)
    chain = [
        word_sum(rop, yop, reps, lambda ones: ones >= k)
        for yop, rop in zip(w.chain(), _game_chain(g))
    ]
    meta = dict(w.meta)
    meta.update({"construction": "naive", "n": n, "k": k})
    return DualWitness(rounds=g.rounds, Y=chain[0], Y_blocks=tuple(chain[1:]), meta=meta)


def witness_recursive_snk(w: DualWitness, g: OutcomeOperators, n: int, k: int) -> DualWitness:
    """Recursive threshold witness: a fresh repetition either carries the
    consistency block against the sub-solution for the same threshold, or
    the witness block against all words with exactly ``k - 1`` remaining
    wins.  Trace ``Tr(Y)^k C(n,k)``."""
    if not 0 <= k <= n:
        raise ValidationError(f"threshold {k} out of range 0..{n}")
    _require_two_outcomes(g)
    _verify_input(w, g, g.outcomes[1])
    game_chain = _game_chain(g)
    levels = list(zip(game_chain, w.chain()))

    def build(reps, kk):
        m = len(reps)
        if kk == 0:
            return [tensor_word([f0] * m, reps) for f0, _ in levels]
        if kk == m:
            return [tensor_word([f1] * m, reps) for _, f1 in levels]
        first, rest = reps[:1], reps[1:]
        sub = build(rest, kk)
        out = []
        for (f0, f1), sub_level in zip(levels, sub):
            tail = word_sum(f0, f1, rest, lambda ones: ones == kk - 1)
            out.append(
                kron(tensor_word([f0], first), sub_level) + kron(tensor_word([f1], first), tail)
            )
        return out

    chain = build(repetitions(n), k)
    meta = dict(w.meta)
    meta.update({"construction": "snk", "n": n, "k": k})
    return DualWitness(rounds=g.rounds, Y=chain[0], Y_blocks=tuple(chain[1:]), meta=meta)


# -- classical (diagonal) reduction -------------------------------------------------


def elementwise_min(a: HermitianOperator, b: HermitianOperator) -> HermitianOperator:
    """Entrywise minimum of two diagonal operators, generalized to
    commuting pairs by clamping eigenvalues in a shared eigenbasis.
    Refuses non-commuting inputs."""
    if a.spaces.dim != b.spaces.dim:
        raise ValidationError("operands must have equal dimension")
    if is_diagonal(a) and is_diagonal(b):
        mat = np.diag(np.minimum(np.diag(a.entries).real, np.diag(b.entries).real))
        return HermitianOperator(a.spaces, mat.astype(np.complex128))
    comm = a.entries @ b.entries - b.entries @ a.entries
    scale = max(1.0, float(np.max(np.abs(a.entries))), float(np.max(np.abs(b.entries))))
    if float(np.max(np.abs(comm))) > 1e-10 * scale:
        raise DomainError("operators neither diagonal nor commuting; refusing to clamp")
    _, basis = np.linalg.eigh(a.entries + math.sqrt(2.0) * b.entries)
    da = basis.conj().T @ a.entries @ basis
    db = basis.conj().T @ b.entries @ basis
    for name, mat in (("first", da), ("second", db)):
        off = mat - np.diag(np.diag(mat))
        if float(np.max(np.abs(off))) > 1e-8 * scale:
            raise DomainError(f"shared eigenbasis failed to diagonalize the {name} operand")
    mind = np.minimum(np.diag(da).real, np.diag(db).real)
    return HermitianOperator(a.spaces, basis @ np.diag(mind).astype(np.complex128) @ basis.conj().T)


def witness_classical_binomial(
    w: DualWitness, g: OutcomeOperators, n: int, k: int
) -> DualWitness:
    """Diagonal-game witness: dephase the input, clamp each block below
    the matching consistency block, then sum losing/winning words.  The
    trace is the binomial tail at ``p~ = Tr(min(Y, rho))``."""
    if not 0 <= k <= n:
        raise ValidationError(f"threshold {k} out of range 0..{n}")
    _require_two_outcomes(g)
    if not is_diagonal_game(g):
        raise DomainError("classical binomial witness requires a diagonal game")
    _verify_input(w, g, g.outcomes[1])
    game_chain = _game_chain(g)
    clamped = [
        elementwise_min(dephase(yop), rop)
        for yop, rop in zip(w.chain(), game_chain)
    ]
    p_clamped = clamped[0].trace()
    reps = repetitions(n)
    chain = []
    for rop, yop in zip(game_chain, clamped):
        f0 = rop - yop
        lo = min_eigenvalue(f0)
        if lo < -1e-10:
            raise DomainError(f"clamped block exceeds its consistency block ({lo:.3e})")
        chain.append(word_sum(f0, yop, reps, lambda ones: ones >= k))
    meta = dict(w.meta)
    meta.update(
        {"construction": "classical-binomial", "n": n, "k": k, "p_clamped": p_clamped}
    )
    return DualWitness(rounds=g.rounds, Y=chain[0], Y_blocks=tuple(chain[1:]), meta=meta)


# -- the monotone-set operator inequality -------------------------------------------


def _is_monotone(indices, n: int) -> bool:
    index_set = set(indices)
    for bits in index_set:
        if len(bits) != n or any(b not in (0, 1) for b in bits):
            return False
        for i, b in enumerate(bits):
            if b == 0:
                flipped = bits[:i] + (1,) + bits[i + 1 :]
                if flipped not in index_set:
                    return False
    return True


def verify_monotone_inequality(
    a0: HermitianOperator,
    a1: HermitianOperator,
    r: HermitianOperator,
    n: int,
    k: int,
    indices=None,
):
    """Check the positivity transfer across a monotone index set.

    With ``b1 = a1 + r`` and ``b0 = a0 - r`` (all five operators PSD),
    the sum of ``b``-words over any monotone subset of ``{0,1}^n``
    dominates the sum of ``a``-words.  Returns ``(holds, min_eig)`` for
    the difference; preconditions are checked and the failing operator
    is named.
    """
    if n < 1:
        raise ValidationError("n must be >= 1")
    b1 = a1 + r
    b0 = a0 - r
    for name, op in (("a0", a0), ("a1", a1), ("r", r), ("a1 + r", b1), ("a0 - r", b0)):
        lo = min_eigenvalue(op)
        if lo < -1e-10:
            raise DomainError(f"precondition failed: {name} has min eigenvalue {lo:.3e}")
    if indices is None:
        if not 0 <= k <= n:
            raise ValidationError(f"threshold {k} out of range 0..{n}")
        indices = tuple(bits for bits in itertools.product((0, 1), repeat=n) if sum(bits) >= k)
    else:
        indices = tuple(tuple(bits) for bits in indices)
        if not _is_monotone(indices, n):
            raise ValidationError("index set is not monotone under 0 -> 1 flips")
    diff = None
    pairs = {0: (b0.entries, a0.entries), 1: (b1.entries, a1.entries)}
    for bits in indices:
        left = right = np.ones((1, 1), dtype=np.complex128)
        for b in bits:
            left = np.kron(left, pairs[b][0])
            right = np.kron(right, pairs[b][1])
        term = left - right
        diff = term if diff is None else diff + term
    if diff is None:
        return True, 0.0
    lo = float(np.linalg.eigvalsh((diff + diff.conj().T) / 2)[0])
    return lo >= -1e-9, lo


# -- classical enumeration oracle ----------------------------------------------------


def classical_optimum(g: OutcomeOperators) -> float:
    """Exhaustive deterministic-strategy optimum of a diagonal two-outcome
    single-round game; independent of the SDP machinery."""
    _require_two_outcomes(g)
    if g.rounds != 1:
        raise ValidationError("the enumeration oracle handles single-round games only")
    if not is_diagonal_game(g):
        raise DomainError("the enumeration oracle requires a diagonal game")
    ordered = g.spaces.restrict(g.y_rounds[0]).concat(g.spaces.restrict(g.x_rounds[0]))
    p1 = permute_systems(g.outcomes[1], ordered.labels)
    dy = g.spaces.restrict(g.y_rounds[0]).dim
    dx = g.spaces.restrict(g.x_rounds[0]).dim
    if dy**dx > 2_000_000:
        raise ValidationError("response-function alphabet exceeds desk scale")
    table = np.diag(p1.entries).real.reshape(dy, dx)
    best = -np.inf
    for f in itertools.product(range(dy), repeat=dx):
        val = sum(table[f[j], j] for j in range(dx))
        best = max(best, val)
    return float(best)
