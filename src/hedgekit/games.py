"""Interactions in SDP-ready form.

An interaction with ``r`` question/answer rounds and ``t`` outcomes is
represented by outcome operators ``P_0 ... P_{t-1}`` on the joint
answer/question space, together with the consistency data ``rho`` (the
r=1 marginal) and the chain blocks ``R_2 ... R_r``.  The probability of
outcome ``i`` against a prover strategy ``X`` is the Hilbert-Schmidt
inner product of ``P_i`` with ``X``.

Multi-round games are ingested directly as outcome operators (the data
is validated, not compiled), while single-round games are compiled here
from a concrete description: an initial question/memory state and a
final measurement.
"""
from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass

import numpy as np

from .errors import SpaceError, ValidationError
from .operators import (
    DensityOperator,
    HermitianOperator,
    KrausChannel,
    align,
    choi,
    apply_channel,
    dephase,
    identity,
    inner,
    kron,
    min_eigenvalue,
    partial_trace,
    permute_systems,
)
from .sampling import random_channel
from .spaces import DESK_DIM_CAP, SpaceList

CONSISTENCY_TOL = 1e-9
MEASUREMENT_TOL = 1e-10
CHAIN_TOL = 1e-9
PROBABILITY_TOL = 1e-9


def _max_abs_diff(a: HermitianOperator, b: HermitianOperator) -> float:
    b = align(b, a.spaces)
    return float(np.max(np.abs(a.entries - b.entries)))


@dataclass(frozen=True)
class SingleRoundGameSpec:
    """One-round interaction: initial state on question (x) memory and a
    measurement on answer (x) memory.

    The factor roles are inferred from the labels: shared labels are the
    memory, state-only labels the question, measurement-only labels the
    answer.
    """

    sigma: DensityOperator
    measurement: tuple[HermitianOperator, ...]

    def __post_init__(self):
        if len(self.measurement) < 2:
            raise ValidationError("a game needs at least two outcomes")
        m_spaces = self.measurement[0].spaces
        for q in self.measurement:
            if q.spaces != m_spaces:
                raise SpaceError("all measurement operators must share one space list")
            if min_eigenvalue(q) < -MEASUREMENT_TOL:
                raise ValidationError("measurement operator is not PSD")
        total = self.measurement[0]
        for q in self.measurement[1:]:
            total = total + q
        drift = float(np.max(np.abs(total.entries - np.eye(total.dim))))
        if drift > MEASUREMENT_TOL:
            raise ValidationError(
                f"measurement is incomplete: sum deviates from identity by {drift:.3e}"
            )
        if not self.question_labels:
            raise SpaceError("state carries no question factor (no label outside the measurement)")
        if not self.answer_labels:
            raise SpaceError("measurement carries no answer factor (no label outside the state)")

    @property
    def memory_labels(self) -> tuple[str, ...]:
        m = set(self.measurement[0].spaces.labels)
        return tuple(l for l in self.sigma.spaces.labels if l in m)

    @property
    def question_labels(self) -> tuple[str, ...]:
        m = set(self.measurement[0].spaces.labels)
        return tuple(l for l in self.sigma.spaces.labels if l not in m)

    @property
    def answer_labels(self) -> tuple[str, ...]:
        s = set(self.sigma.spaces.labels)
        return tuple(l for l in self.measurement[0].spaces.labels if l not in s)


@dataclass(frozen=True)
class OutcomeOperators:
    """A game in SDP-ready form.

    ``x_rounds[j]`` / ``y_rounds[j]`` list the question / answer labels of
    round ``j+1``; a round may span several labels (parallel repetition
    produces one label per repetition).
    """

    rounds: int
    spaces: SpaceList
    x_rounds: tuple[tuple[str, ...], ...]
    y_rounds: tuple[tuple[str, ...], ...]
    outcomes: tuple[HermitianOperator, ...]
    rho: DensityOperator
    r_blocks: tuple[HermitianOperator, ...] = ()
    outcome_keys: tuple = ()

    def __post_init__(self):
        self._validate()

    def _validate(self, outcome_min_eigenvalues=None):
        """Structure, PSD and consistency checks.  The smallest outcome
        eigenvalues are computed here unless the caller derived them
        exactly (see :func:`parallel_game`)."""
        r = self.rounds
        if r < 1:
            raise ValidationError("rounds must be >= 1")
        if len(self.x_rounds) != r or len(self.y_rounds) != r:
            raise ValidationError("round label groups must match the round count")
        if len(self.r_blocks) != r - 1:
            raise ValidationError("expected R_2..R_r consistency blocks")
        if not self.outcome_keys:
            object.__setattr__(self, "outcome_keys", tuple(range(len(self.outcomes))))
        if len(self.outcome_keys) != len(self.outcomes):
            raise ValidationError("outcome keys must match the outcome operators")
        declared = [l for grp in zip(self.y_rounds, self.x_rounds) for part in grp for l in part]
        if sorted(declared) != sorted(self.spaces.labels):
            raise SpaceError("round label groups must partition the game space")
        if sorted(self.rho.spaces.labels) != sorted(self.x_rounds[0]):
            raise SpaceError("rho must live on the first-round question space")
        for k, p in enumerate(self.outcomes):
            if sorted(p.spaces.labels) != sorted(self.spaces.labels):
                raise SpaceError("outcome operator labels must match the game space")
            if outcome_min_eigenvalues is None:
                lo = min_eigenvalue(p)
            else:
                lo = outcome_min_eigenvalues[k]
            if lo < -CONSISTENCY_TOL:
                raise ValidationError("outcome operator is not PSD")
        self._check_consistency()

    def _check_consistency(self):
        total = self.outcomes[0]
        for p in self.outcomes[1:]:
            total = total + p
        last = self.rho if self.rounds == 1 else self.r_blocks[-1]
        expect = kron(identity(self.spaces.restrict(self.y_rounds[-1])), last)
        drift = _max_abs_diff(align(total, self.spaces), align(expect, self.spaces))
        if drift > CONSISTENCY_TOL:
            raise ValidationError(
                f"outcome operators violate the consistency sum by {drift:.3e}"
            )
        # Telescoped chain reachable from the supplied data: the partial
        # trace of each R block must reproduce the previous level.
        for j in range(2, self.rounds + 1):
            rj = self.r_blocks[j - 2]
            reduced = partial_trace(rj, set(self.x_rounds[j - 1]))
            prev = self.rho if j == 2 else self.r_blocks[j - 3]
            expect = kron(identity(self.spaces.restrict(self.y_rounds[j - 2])), prev)
            drift = _max_abs_diff(align(reduced, expect.spaces), expect)
            if drift > CONSISTENCY_TOL:
                raise ValidationError(
                    f"consistency block R_{j} violates the chain by {drift:.3e}"
                )

    @property
    def outcome_count(self) -> int:
        return len(self.outcomes)

    def x_labels(self, upto: int | None = None) -> tuple[str, ...]:
        upto = self.rounds if upto is None else upto
        return tuple(l for grp in self.x_rounds[:upto] for l in grp)

    def y_labels(self, upto: int | None = None) -> tuple[str, ...]:
        upto = self.rounds if upto is None else upto
        return tuple(l for grp in self.y_rounds[:upto] for l in grp)


@dataclass(frozen=True)
class StrategyChoi:
    """A prover strategy: the Choi-style block ``X`` with its intermediates,
    satisfying the causality chain of partial-trace constraints."""

    rounds: int
    X: HermitianOperator
    intermediates: tuple[HermitianOperator, ...] = ()
    x_rounds: tuple[tuple[str, ...], ...] = ()
    y_rounds: tuple[tuple[str, ...], ...] = ()

    def __post_init__(self):
        if len(self.intermediates) != self.rounds - 1:
            raise ValidationError("expected X_1..X_{r-1} intermediate blocks")
        if len(self.x_rounds) != self.rounds or len(self.y_rounds) != self.rounds:
            raise ValidationError("round label groups must match the round count")
        blocks = self.intermediates + (self.X,)
        for b in blocks:
            if min_eigenvalue(b) < -CHAIN_TOL:
                raise ValidationError("strategy block is not PSD")
        for j in range(1, self.rounds + 1):
            xj = blocks[j - 1]
            reduced = partial_trace(xj, set(l for l in self.y_rounds[j - 1]))
            if j == 1:
                expect = identity(xj.spaces.restrict(self.x_rounds[0]))
            else:
                expect = kron(
                    blocks[j - 2],
                    identity(xj.spaces.restrict(self.x_rounds[j - 1])),
                )
            drift = _max_abs_diff(align(reduced, expect.spaces), expect)
            if drift > CHAIN_TOL:
                raise ValidationError(
                    f"strategy violates the causality chain at round {j} by {drift:.3e}"
                )


# -- single-round compilation ---------------------------------------------------


def outcome_operators_single_round(
    g: SingleRoundGameSpec, verify: bool = True
) -> OutcomeOperators:
    """Compile a one-round description into outcome operators.

    ``P_k`` is the unique operator whose inner product with the Choi
    operator of any prover channel equals the probability of outcome
    ``k``.  In index form, with the state on (question, memory) and the
    measurement on (answer, memory):

        P_k[(y, j), (y', i)] = sum_{a,b} sigma[(i, a), (j, b)] Q_k[(y, b), (y', a)]

    which makes the first-round marginal the transpose of the traced-out
    state.  The defining property is re-verified here against direct
    channel simulation on seeded random channels.
    """
    q_labels = g.question_labels
    m_labels = g.memory_labels
    a_labels = g.answer_labels
    sigma = permute_systems(g.sigma, q_labels + m_labels)
    dq = sigma.spaces.restrict(q_labels).dim
    dz = sigma.spaces.restrict(m_labels).dim if m_labels else 1
    s4 = sigma.entries.reshape(dq, dz, dq, dz)
    out_spaces = g.measurement[0].spaces.restrict(a_labels).concat(
        sigma.spaces.restrict(q_labels)
    )
    dy = out_spaces.restrict(a_labels).dim
    ops = []
    for q in g.measurement:
        q4 = permute_systems(q, a_labels + m_labels).entries.reshape(dy, dz, dy, dz)
        mat = np.einsum("iajb,ybza->yjzi", s4, q4).reshape(out_spaces.dim, out_spaces.dim)
        ops.append(HermitianOperator(out_spaces, mat))
    rho_mat = partial_trace(sigma, set(m_labels)).entries.T if m_labels else sigma.entries.T
    rho = DensityOperator(sigma.spaces.restrict(q_labels), rho_mat)
    game = OutcomeOperators(
        rounds=1,
        spaces=out_spaces,
        x_rounds=(tuple(q_labels),),
        y_rounds=(tuple(a_labels),),
        outcomes=tuple(ops),
        rho=rho,
    )
    if verify:
        _verify_against_simulation(g, game)
    return game


def _verify_against_simulation(g: SingleRoundGameSpec, game: OutcomeOperators):
    """Cross-check <P_k, J(Phi)> against Tr[Q_k (Phi (x) 1)(sigma)]."""
    rng = np.random.default_rng(20110301)
    in_sp = game.spaces.restrict(game.x_rounds[0])
    out_sp = game.spaces.restrict(game.y_rounds[0])
    for _ in range(3):
        ch = random_channel(rng, in_sp, out_sp)
        j = choi(ch)
        final = apply_channel(ch, g.sigma)
        for k, (p, q) in enumerate(zip(game.outcomes, g.measurement)):
            direct = inner(q, final)
            via_ops = inner(p, j)
            if abs(direct - via_ops) > PROBABILITY_TOL:
                raise ValidationError(
                    f"outcome operator {k} fails the defining property: "
                    f"{via_ops!r} vs simulated {direct!r}"
                )


# -- parallel repetition ----------------------------------------------------------


def rep_label(label: str, rep: int) -> str:
    """Deterministic, collision-free per-repetition label."""
    return f"{label}#{rep}"


def _rep_mapping(labels, rep: int) -> dict:
    return {l: rep_label(l, rep) for l in labels}


def parallel_game(g: OutcomeOperators, n: int) -> OutcomeOperators:
    """Tensor ``n`` independent copies of a game.

    Outcomes are indexed by tuples of single-copy outcome keys; the
    operator for a tuple is the tensor word of the per-copy operators.
    The words are checked PSD through their spectra, which are the
    products of the per-copy spectra, not by an eigensolve each.
    """
    if n < 1:
        raise ValidationError("repetition count must be >= 1")
    if g.spaces.dim**n > DESK_DIM_CAP:
        raise ValidationError(
            f"parallel game dimension {g.spaces.dim ** n} exceeds the desk-scale "
            f"cap {DESK_DIM_CAP}"
        )
    copies = [
        {
            "outcomes": [p.relabel(_rep_mapping(g.spaces.labels, m)) for p in g.outcomes],
            "rho": g.rho.relabel(_rep_mapping(g.spaces.labels, m)),
            "r_blocks": [r.relabel(_rep_mapping(g.spaces.labels, m)) for r in g.r_blocks],
        }
        for m in range(1, n + 1)
    ]
    t = g.outcome_count
    ops = []
    keys = []
    for idx in itertools.product(range(t), repeat=n):
        word = copies[0]["outcomes"][idx[0]]
        for m in range(1, n):
            word = kron(word, copies[m]["outcomes"][idx[m]])
        ops.append(word)
        keys.append(tuple(g.outcome_keys[i] for i in idx))
    word_min_eigenvalues = _word_min_eigenvalues(g, n)
    rho = copies[0]["rho"]
    for m in range(1, n):
        rho = kron(rho, copies[m]["rho"])
    rho = DensityOperator(rho.spaces, rho.entries)
    r_blocks = []
    for j in range(g.rounds - 1):
        blk = copies[0]["r_blocks"][j]
        for m in range(1, n):
            blk = kron(blk, copies[m]["r_blocks"][j])
        r_blocks.append(blk)
    spaces = ops[0].spaces
    x_rounds = tuple(
        tuple(rep_label(l, m) for m in range(1, n + 1) for l in grp)
        for grp in g.x_rounds
    )
    y_rounds = tuple(
        tuple(rep_label(l, m) for m in range(1, n + 1) for l in grp)
        for grp in g.y_rounds
    )
    game = object.__new__(OutcomeOperators)
    fields = {
        "rounds": g.rounds,
        "spaces": spaces,
        "x_rounds": x_rounds,
        "y_rounds": y_rounds,
        "outcomes": tuple(ops),
        "rho": rho,
        "r_blocks": tuple(r_blocks),
        "outcome_keys": tuple(keys),
    }
    for f in dataclasses.fields(OutcomeOperators):
        object.__setattr__(game, f.name, fields[f.name])
    game._validate(word_min_eigenvalues)
    return game


def _word_min_eigenvalues(g: OutcomeOperators, n: int) -> list:
    """Smallest eigenvalue of every n-fold outcome word, in
    :func:`parallel_game` order: the spectrum of ``A (x) B`` is the set of
    products ``a_i b_j``."""
    spectra = [np.linalg.eigvalsh(p.entries) for p in g.outcomes]
    out = []
    for idx in itertools.product(range(g.outcome_count), repeat=n):
        s = spectra[idx[0]]
        for i in idx[1:]:
            s = np.multiply.outer(s, spectra[i]).reshape(-1)
        out.append(float(s.min()))
    return out


def group_outcomes(g: OutcomeOperators, winning) -> OutcomeOperators:
    """Collapse a game to two outcomes (0 = lose, 1 = win) by summing the
    outcome operators over a winning key set."""
    winning = set(winning)
    unknown = winning - set(g.outcome_keys)
    if unknown:
        raise ValidationError(f"unknown winning outcomes {sorted(unknown)}")
    if not winning or len(winning) == len(g.outcomes):
        raise ValidationError("winning set must be a proper nonempty subset of outcomes")
    zero = HermitianOperator._wrap(
        g.outcomes[0].spaces, np.zeros_like(g.outcomes[0].entries)
    )
    win, lose = zero, zero
    for key, p in zip(g.outcome_keys, g.outcomes):
        if key in winning:
            win = win + p
        else:
            lose = lose + p
    return OutcomeOperators(
        rounds=g.rounds,
        spaces=g.spaces,
        x_rounds=g.x_rounds,
        y_rounds=g.y_rounds,
        outcomes=(lose, win),
        rho=g.rho,
        r_blocks=g.r_blocks,
        outcome_keys=(0, 1),
    )


def _parallel_word(g: OutcomeOperators, idx) -> HermitianOperator:
    if len(idx) == 1:
        return g.outcomes[idx[0]]
    word = g.outcomes[idx[0]].relabel(_rep_mapping(g.spaces.labels, 1))
    for m, i in enumerate(idx[1:], start=2):
        word = kron(word, g.outcomes[i].relabel(_rep_mapping(g.spaces.labels, m)))
    return word


def threshold_objective(g: OutcomeOperators, n: int, k: int) -> HermitianOperator:
    """Objective for winning at least ``k`` of ``n`` repetitions: the sum of
    all tensor words whose index tuples carry at least ``k`` wins."""
    if g.outcome_count != 2:
        raise ValidationError(
            f"threshold objectives need exactly two outcomes, got {g.outcome_count}"
        )
    if not 0 <= k <= n:
        raise ValidationError(f"threshold {k} out of range 0..{n}")
    if g.spaces.dim**n > DESK_DIM_CAP:
        raise ValidationError("parallel dimension exceeds the desk-scale cap")
    total = None
    for idx in itertools.product((0, 1), repeat=n):
        if sum(idx) < k:
            continue
        word = _parallel_word(g, idx)
        total = word if total is None else total + word
    return total


def value_objective(g: OutcomeOperators, values, n: int) -> HermitianOperator:
    """Objective for the average value per repetition: each tuple of
    outcomes contributes the mean of its per-copy values."""
    values = [float(v) for v in values]
    if len(values) != g.outcome_count:
        raise ValidationError(
            f"need one value per outcome ({g.outcome_count}), got {len(values)}"
        )
    if g.spaces.dim**n > DESK_DIM_CAP:
        raise ValidationError("parallel dimension exceeds the desk-scale cap")
    total = None
    for idx in itertools.product(range(g.outcome_count), repeat=n):
        weight = sum(values[i] for i in idx) / n
        if weight == 0.0:
            continue
        word = _parallel_word(g, idx) * weight
        total = word if total is None else total + word
    if total is None:
        sp = _parallel_word(g, (0,) * n).spaces
        total = HermitianOperator._wrap(sp, np.zeros((sp.dim, sp.dim), dtype=np.complex128))
    return total


# -- strategies -------------------------------------------------------------------


def strategy_from_channel(ch: KrausChannel) -> StrategyChoi:
    """Single-round strategy: the Choi operator of the prover's channel."""
    return StrategyChoi(
        rounds=1,
        X=choi(ch),
        intermediates=(),
        x_rounds=(ch.input_spaces.labels,),
        y_rounds=(ch.output_spaces.labels,),
    )


def outcome_probabilities(g: OutcomeOperators, s: StrategyChoi):
    """Probability of each outcome under a strategy, in outcome-key order."""
    if g.rounds != s.rounds:
        raise SpaceError(f"round mismatch: game has {g.rounds}, strategy {s.rounds}")
    if sorted(g.spaces.labels) != sorted(s.X.spaces.labels):
        raise SpaceError(
            f"space mismatch: game labels {sorted(g.spaces.labels)}, "
            f"strategy labels {sorted(s.X.spaces.labels)}"
        )
    x = align(s.X, g.spaces)
    probs = [inner(p, x) for p in g.outcomes]
    for q in probs:
        if not -PROBABILITY_TOL <= q <= 1 + PROBABILITY_TOL:
            raise ValidationError(f"probability {q!r} outside [0, 1]")
    if abs(sum(probs) - 1.0) > PROBABILITY_TOL:
        raise ValidationError(f"probabilities sum to {sum(probs)!r}, not 1")
    return probs


def dephase_game(g: OutcomeOperators) -> OutcomeOperators:
    """Classicalize a game: dephase every outcome operator and every
    consistency block."""
    return OutcomeOperators(
        rounds=g.rounds,
        spaces=g.spaces,
        x_rounds=g.x_rounds,
        y_rounds=g.y_rounds,
        outcomes=tuple(dephase(p) for p in g.outcomes),
        rho=DensityOperator(g.rho.spaces, dephase(g.rho).entries),
        r_blocks=tuple(dephase(r) for r in g.r_blocks),
        outcome_keys=g.outcome_keys,
    )


def is_diagonal_game(g: OutcomeOperators, tol: float = 1e-12) -> bool:
    from .operators import is_diagonal

    ops = list(g.outcomes) + [g.rho] + list(g.r_blocks)
    return all(is_diagonal(op, tol) for op in ops)
