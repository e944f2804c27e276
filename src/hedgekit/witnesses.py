"""Explicit dual witnesses for parallel-repetition problems.

Each construction turns a feasible single-round dual solution into a
candidate for the n-fold dual and is checked, never assumed, via
:func:`hedgekit.sdp.check_dual_feasibility`.  Each is one word sum per
chain level: level ``j`` sums the tensor words over the bit strings ``b``
in ``{0,1}^n`` whose count of ones ``|b|`` passes the construction's
predicate, with the witness block ``Y_j`` where ``b`` has a one and the
game's consistency block (``rho``, ``R_j``) where it has a zero:

* ``witness_average``      - ``|b| = 1``, divided by ``n``; value problems;
  trace ``Tr(Y)``.
* ``witness_tensor_power`` - ``|b| = n``, the naive witness at ``k = n``;
  trace ``Tr(Y)^n``.
* ``witness_naive``        - ``|b| >= k``; trace ``sum_{t>=k} C(n,t) Tr(Y)^t``.
* ``witness_recursive_snk``- ``|b| = k``; trace ``Tr(Y)^k C(n,k)``.
* ``witness_classical_binomial`` - ``|b| >= k`` on the clamped pair
  ``(R - C, C)`` with ``C = min(dephase(Y), R)`` entrywise; diagonal games
  only; trace the binomial tail at ``Tr(C_1)``.

The words come from the builder in :mod:`hedgekit.games`
(:func:`~hedgekit.games.repetitions`, :func:`~hedgekit.games.word_sum`), so
the witnesses carry the labels of :func:`~hedgekit.games.parallel_rounds`
for every ``n``, a single copy included.

The positivity engine behind the threshold constructions is the
monotone-set operator inequality checked by
:func:`verify_monotone_inequality`, on words of the same builder's
:func:`~hedgekit.games.tensor_word`, which leaves the desk cap to ``kron``.
"""
from __future__ import annotations

import itertools

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
#: Solver tolerance of the single-round problem behind a witness.
SINGLE_ROUND_TOL = 1e-9


# -- obtaining and validating single-round witnesses -------------------------------


def single_round_witness(
    g: OutcomeOperators, objective: HermitianOperator, meta=None
) -> DualWitness:
    """Solve the single-round problem to ``SINGLE_ROUND_TOL`` and extract
    a strictly feasible dual witness (solver output is repaired up to an
    identity shift of order ``1e-11`` so tensor constructions inherit
    feasibility)."""
    problem = compile_primal(g, objective)
    report = solve(problem, tol=SINGLE_ROUND_TOL)
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


def _check_threshold(w: DualWitness, g: OutcomeOperators, n: int, k: int):
    repetitions(n)  # names the repetition count before the threshold
    if not 0 <= k <= n:
        raise ValidationError(f"threshold {k} out of range 0..{n}")
    _require_two_outcomes(g)
    _verify_input(w, g, g.outcomes[1])


def _game_chain(g: OutcomeOperators):
    """Game-side chain blocks (rho, R_2, ..., R_r) matching the witness chain."""
    return (g.rho,) + tuple(g.r_blocks)


def _word_witness(
    w: DualWitness, g: OutcomeOperators, n: int, passes, construction: str,
    pairs=None, mean=False, **meta,
) -> DualWitness:
    """The n-fold witness whose chain level ``j`` is the
    :func:`~hedgekit.games.word_sum` of the level-``j`` pair ``(f0, f1)``
    over the bit strings whose count of ones passes ``passes``, divided by
    ``n`` if ``mean``.  The pairs default to (consistency block, witness
    block); ``meta`` follows ``construction`` and ``n`` in the input's
    metadata."""
    reps = repetitions(n)
    if pairs is None:
        pairs = zip(_game_chain(g), w.chain())
    chain = [word_sum(f0, f1, reps, passes) for f0, f1 in pairs]
    if mean:
        chain = [level * (1.0 / n) for level in chain]
    meta = {**w.meta, "construction": construction, "n": n, **meta}
    return DualWitness(Y=chain[0], Y_blocks=tuple(chain[1:]), meta=meta)


# -- constructions ------------------------------------------------------------------


def witness_average(
    w: DualWitness, g: OutcomeOperators, n: int, values=None
) -> DualWitness:
    """Symmetrized witness for the n-fold average-value dual: the words
    with exactly one ``Y`` factor and ``n - 1`` game-consistency factors,
    averaged.  Its trace equals ``Tr(Y)`` exactly (the consistency blocks
    have unit trace).  The outcome values come from ``values`` or else
    from the input's metadata, and the input is verified against them;
    without either the witness is refused."""
    if values is None:
        values = w.meta.get("values")
    if values is None:
        raise ValidationError("witness_average needs values, as an argument or in the meta")
    _verify_input(w, g, value_objective(g, values, 1))
    values = [float(v) for v in values]
    return _word_witness(w, g, n, lambda ones: ones == 1, "average", mean=True, values=values)


def witness_tensor_power(w: DualWitness, n: int, g: OutcomeOperators) -> DualWitness:
    """Tensor-power witness for the threshold ``k = n``: the naive witness
    at ``k = n``, whose one word is ``Y^(x)n``; trace ``Tr(Y)^n``."""
    _check_threshold(w, g, n, n)
    return _word_witness(w, g, n, lambda ones: ones >= n, "tensor-power", k=n)


def witness_naive(w: DualWitness, g: OutcomeOperators, n: int, k: int) -> DualWitness:
    """Sum of tensor words with the game's consistency blocks in the
    losing slots, over the words with at least ``k`` witness factors;
    trace ``sum_{t >= k} C(n,t) Tr(Y)^t``."""
    _check_threshold(w, g, n, k)
    return _word_witness(w, g, n, lambda ones: ones >= k, "naive", k=k)


def witness_recursive_snk(w: DualWitness, g: OutcomeOperators, n: int, k: int) -> DualWitness:
    """Recursive threshold witness ``S(n,k) = F0 (x) S(n-1,k) + F1 (x)
    E(n-1,k-1)``: a fresh repetition carries the consistency block ``F0``
    against the sub-solution, or the witness block ``F1`` against ``E``,
    the words with exactly ``k - 1`` witness factors.  It telescopes to
    the words with exactly ``k`` witness factors, which are summed here.
    Trace ``Tr(Y)^k C(n,k)``."""
    _check_threshold(w, g, n, k)
    return _word_witness(w, g, n, lambda ones: ones == k, "snk", k=k)


# -- classical (diagonal) reduction -------------------------------------------------


def elementwise_min(a: HermitianOperator, b: HermitianOperator) -> HermitianOperator:
    """Entrywise minimum of two diagonal operators; refuses any other pair."""
    if a.spaces.dim != b.spaces.dim:
        raise ValidationError("operands must have equal dimension")
    if not (is_diagonal(a) and is_diagonal(b)):
        raise DomainError("operators are not both diagonal; refusing to clamp")
    mat = np.diag(np.minimum(np.diag(a.entries).real, np.diag(b.entries).real))
    return HermitianOperator(a.spaces, mat)


def witness_classical_binomial(
    w: DualWitness, g: OutcomeOperators, n: int, k: int
) -> DualWitness:
    """Diagonal-game witness: dephase the input, clamp each block below
    the matching consistency block, then sum losing/winning words.  The
    trace is the binomial tail at ``p~ = Tr(min(Y, rho))``."""
    _check_threshold(w, g, n, k)
    if not is_diagonal_game(g):
        raise DomainError("classical binomial witness requires a diagonal game")
    pairs = []
    for rop, yop in zip(_game_chain(g), w.chain()):
        clamped = elementwise_min(dephase(yop), rop)
        f0 = rop - clamped
        lo = min_eigenvalue(f0)
        if lo < -1e-10:
            raise DomainError(f"clamped block exceeds its consistency block ({lo:.3e})")
        pairs.append((f0, clamped))
    return _word_witness(
        w, g, n, lambda ones: ones >= k, "classical-binomial", pairs,
        k=k, p_clamped=pairs[0][1].trace(),
    )


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
    is named.  Words past the desk-scale cap are refused.
    """
    reps = repetitions(n)
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
    for bits in indices:
        left = tensor_word([(b0, b1)[b] for b in bits], reps)
        right = tensor_word([(a0, a1)[b] for b in bits], reps)
        term = left - right
        diff = term if diff is None else diff + term
    if diff is None:
        return True, 0.0
    lo = min_eigenvalue(diff)
    return lo >= -1e-9, lo


# -- classical oracle ---------------------------------------------------------------


def classical_optimum(g: OutcomeOperators) -> float:
    """Deterministic-strategy optimum of a diagonal two-outcome
    single-round game, independent of the SDP machinery: the best answer
    to each question, summed (bit for bit the enumerated maximum)."""
    _require_two_outcomes(g)
    if g.rounds != 1:
        raise ValidationError("the classical oracle handles single-round games only")
    if not is_diagonal_game(g):
        raise DomainError("the classical oracle requires a diagonal game")
    p1 = permute_systems(g.outcomes[1], g.answer(1).concat(g.question(1)).labels)
    table = np.diag(p1.entries).real.reshape(g.answer(1).dim, g.question(1).dim)
    return float(sum(table.max(axis=0)))
