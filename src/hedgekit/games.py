"""Interactions in SDP-ready form.

An interaction with ``r`` question/answer rounds and ``t`` outcomes is
represented by outcome operators ``P_0 ... P_{t-1}`` on the joint
answer/question space, together with the consistency data ``rho`` (the
r=1 marginal) and the chain blocks ``R_2 ... R_r``.  The probability of
outcome ``i`` against a prover strategy ``X`` is the Hilbert-Schmidt
inner product of ``P_i`` with ``X``.

The strategy SDP reads a game only through its :class:`Rounds`, the
labels of each round and the chain spaces built from them.
:class:`OutcomeOperators` extends it with the operators, and
:func:`parallel_rounds` gives the rounds of ``n`` copies without their
outcome words.

Multi-round games are ingested directly as outcome operators (the data
is validated, not compiled), while single-round games are compiled here
from a concrete description: an initial question/memory state and a
final measurement.

Parallel repetition is one builder: :func:`repetitions` fixes the labels
of the copies (``L#1 ... L#n``, while a single copy keeps ``L``), and
:func:`copy_split`, the one parser of such labels, reads them back.
:func:`tensor_word` tensors per-copy operators under those labels and
:func:`word_sum` sums the words over the bit strings in ``{0,1}^n`` whose
count of ones passes a predicate, one partial sum per count of ones.
:func:`parallel_rounds` and :func:`parallel_game` label their copies with
them, and every n-fold objective and witness is one word sum: the
threshold objective sums ``(P_0, P_1)`` over the counts ``>= k``, the
value objective is ``1/n`` times the words with ``sum_i v_i P_i`` in one
slot and ``sum_i P_i`` in the others, and each witness of
:mod:`hedgekit.witnesses` is one word sum per chain level.  So they pair
for every ``n``.  Every word, the monotone inequality's too, extends the
empty word copy by copy.  :func:`parallel_rounds` holds labels only, so
it checks no cap; :func:`~hedgekit.operators.kron` refuses the first
product past the desk cap, and :func:`parallel_game`, which extends all
of a copy's words as one stack with ``kron``'s products, refuses a copy
level past it before the stack is allocated.
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .errors import SpaceError, ValidationError
from .operators import (
    _check_cap,
    DensityOperator,
    HermitianOperator,
    KrausChannel,
    align,
    choi,
    apply_channel,
    dephase,
    identity,
    inner,
    is_diagonal,
    kron,
    min_eigenvalue,
    partial_trace,
    permute_systems,
)
from .sampling import random_channel
from .spaces import SpaceList

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
class Rounds:
    """The round structure of an interaction: all its strategy SDP reads
    apart from the objective.  ``x_rounds[j]`` / ``y_rounds[j]`` list the
    question / answer labels of round ``j+1`` (parallel repetition gives
    a round one label per copy) and partition ``spaces``.  The methods
    number rounds from 1."""

    rounds: int
    spaces: SpaceList
    x_rounds: tuple[tuple[str, ...], ...]
    y_rounds: tuple[tuple[str, ...], ...]

    def __post_init__(self):
        r = self.rounds
        if r < 1:
            raise ValidationError("rounds must be >= 1")
        if len(self.x_rounds) != r or len(self.y_rounds) != r:
            raise ValidationError("round label groups must match the round count")
        declared = [l for grp in zip(self.y_rounds, self.x_rounds) for part in grp for l in part]
        if sorted(declared) != sorted(self.spaces.labels):
            raise SpaceError("round label groups must partition the game space")

    def question(self, j: int) -> SpaceList:
        """The question space ``X_j``."""
        return self.spaces.restrict(self.x_rounds[j - 1])

    def answer(self, j: int) -> SpaceList:
        """The answer space ``Y_j``."""
        return self.spaces.restrict(self.y_rounds[j - 1])

    def block(self, j: int) -> SpaceList:
        """``Y_1 X_1 ... Y_j X_j``: the space of chain block ``X_j``."""
        labels = [l for m in range(j) for grp in (self.y_rounds[m], self.x_rounds[m]) for l in grp]
        return self.spaces.restrict(labels).reorder(labels)

    def family(self, j: int) -> SpaceList:
        """``block(j - 1)`` then ``X_j``: the space constrained by link ``j``."""
        return self.block(j).drop(self.y_rounds[j - 1])


@dataclass(frozen=True)
class OutcomeOperators(Rounds):
    """A game in SDP-ready form: its :class:`Rounds` with the outcome
    operators on ``spaces`` and the consistency data."""

    outcomes: tuple[HermitianOperator, ...]
    rho: DensityOperator
    r_blocks: tuple[HermitianOperator, ...] = ()
    outcome_keys: tuple = ()

    def __post_init__(self):
        super().__post_init__()
        self._validate()

    def _validate(self, outcome_min_eigenvalues=None, total=None):
        """PSD and consistency checks, with the smallest outcome eigenvalues
        and the outcomes' sum from the caller when it derived them exactly
        (:func:`parallel_game`)."""
        if len(self.r_blocks) != self.rounds - 1:
            raise ValidationError("expected R_2..R_r consistency blocks")
        if not self.outcome_keys:
            object.__setattr__(self, "outcome_keys", tuple(range(len(self.outcomes))))
        if len(self.outcome_keys) != len(self.outcomes):
            raise ValidationError("outcome keys must match the outcome operators")
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
        self._check_consistency(total)

    def _check_consistency(self, total=None):
        if total is None:
            total = self.outcomes[0]
            for p in self.outcomes[1:]:
                total = total + p
        last = self.rho if self.rounds == 1 else self.r_blocks[-1]
        expect = kron(identity(self.answer(self.rounds)), last)
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
            expect = kron(identity(self.answer(j - 1)), prev)
            drift = _max_abs_diff(align(reduced, expect.spaces), expect)
            if drift > CONSISTENCY_TOL:
                raise ValidationError(
                    f"consistency block R_{j} violates the chain by {drift:.3e}"
                )

    @property
    def outcome_count(self) -> int:
        return len(self.outcomes)


@dataclass(frozen=True)
class StrategyChoi:
    """A prover strategy: the Choi-style block ``X`` with its intermediates,
    satisfying the causality chain of partial-trace constraints.  Its round
    groups are checked as the :class:`Rounds` of ``X``'s space."""

    X: HermitianOperator
    x_rounds: tuple[tuple[str, ...], ...]
    y_rounds: tuple[tuple[str, ...], ...]
    intermediates: tuple[HermitianOperator, ...] = ()

    @property
    def rounds(self) -> int:
        return len(self.x_rounds)

    def __post_init__(self):
        structure = Rounds(self.rounds, self.X.spaces, self.x_rounds, self.y_rounds)
        if len(self.intermediates) != self.rounds - 1:
            raise ValidationError("expected X_1..X_{r-1} intermediate blocks")
        blocks = self.intermediates + (self.X,)
        for b in blocks:
            if min_eigenvalue(b) < -CHAIN_TOL:
                raise ValidationError("strategy block is not PSD")
        for j in range(1, self.rounds + 1):
            reduced = partial_trace(blocks[j - 1], set(self.y_rounds[j - 1]))
            expect = identity(structure.question(j))
            if j > 1:
                expect = kron(blocks[j - 2], expect)
            drift = _max_abs_diff(align(reduced, expect.spaces), expect)
            if drift > CHAIN_TOL:
                raise ValidationError(
                    f"strategy violates the causality chain at round {j} by {drift:.3e}"
                )


# -- single-round compilation ---------------------------------------------------


def outcome_operators_single_round(g: SingleRoundGameSpec) -> OutcomeOperators:
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
    _verify_against_simulation(g, game)
    return game


def _verify_against_simulation(g: SingleRoundGameSpec, game: OutcomeOperators):
    """Cross-check <P_k, J(Phi)> against Tr[Q_k (Phi (x) 1)(sigma)]."""
    rng = np.random.default_rng(20110301)
    in_sp, out_sp = game.question(1), game.answer(1)
    kraus_count = max(2, math.ceil(in_sp.dim / out_sp.dim))
    for _ in range(3):
        ch = random_channel(rng, in_sp, out_sp, kraus_count)
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


def repetitions(n: int) -> tuple:
    """Repetition indices of ``n`` copies, the one labelling rule behind
    every n-fold game, objective and witness: copy ``m`` relabels ``L`` to
    ``L#m``, and a single copy (index ``None``) keeps its labels."""
    if n < 1:
        raise ValidationError(f"repetition count must be >= 1, got {n}")
    return (None,) if n == 1 else tuple(range(1, n + 1))


def rep_label(label: str, rep: int | None) -> str:
    """Deterministic, collision-free per-repetition label."""
    return label if rep is None else f"{label}#{rep}"


def copy_split(spaces: SpaceList, labels) -> tuple:
    """The inverse of :func:`repetitions` and :func:`rep_label` on
    ``labels``: ``(n, dimension of one copy)`` when they are ``L#m`` for
    the repetitions ``m`` of ``n >= 2`` copies (outer) and the labels ``L``
    of copy 1 (inner), with equal dimensions in every copy; else
    ``(0, 0)``."""
    base = [l.rpartition("#")[0] for l in labels if l.rpartition("#")[2] == "1"]
    n = len(labels) // max(1, len(base))
    if n < 2 or tuple(labels) != tuple(rep_label(l, m) for m in repetitions(n) for l in base):
        return 0, 0
    dims = [spaces.dim_of(l) for l in labels]
    if dims != dims[: len(base)] * n:
        return 0, 0
    return n, math.prod(dims[: len(base)])


def _extend(word, op) -> HermitianOperator:
    """``word (x) op``, or ``op`` when ``word`` is the empty word (None)."""
    return op if word is None else kron(word, op)


def tensor_word(ops, reps) -> HermitianOperator:
    """The word ``ops[0] (x) ops[1] (x) ...`` with ``ops[m]`` relabelled to
    repetition ``reps[m]``."""
    word = None
    for op, rep in zip(ops, reps):
        if rep is not None:
            op = op.relabel({l: rep_label(l, rep) for l in op.spaces.labels})
        word = _extend(word, op)
    return word


def word_sum(f0, f1, reps, passes) -> HermitianOperator:
    """Sum of the tensor words over the bit strings ``b`` in
    ``{0,1}^len(reps)`` whose count of ones passes ``passes``: slot ``m``
    carries ``f1`` where ``b[m] = 1`` and ``f0`` where it is 0.

    Built by count of ones, not word by word: ``S_c``, the sum of the
    words on the copies so far with ``c`` ones, extends by a copy as
    ``S_c (x) f0 + S_(c-1) (x) f1``, and the last copy folds the passing
    counts into two products,
    ``(sum_{passes(c)} S_c) (x) f0 + (sum_{passes(c+1)} S_c) (x) f1``."""
    *head, last = [(tensor_word([f0], (m,)), tensor_word([f1], (m,))) for m in reps]
    sums = [None]  # S_0 over no copies: the empty word
    for g0, g1 in head:
        ext0 = [_extend(s, g0) for s in sums]
        ext1 = [_extend(s, g1) for s in sums]
        sums = [ext0[0], *(a + b for a, b in zip(ext0[1:], ext1)), ext1[-1]]
    total = None
    for ones, g in enumerate(last):
        group = [s for c, s in enumerate(sums) if passes(c + ones)]
        if group:
            word = _extend(sum(group[1:], group[0]), g)
            total = word if total is None else total + word
    return total


def parallel_rounds(g: Rounds, n: int) -> Rounds:
    """The rounds of ``n`` copies of ``g``, labelled by :func:`repetitions`;
    round ``j`` holds every copy's round ``j``.  It holds labels only, so
    it builds for any ``n``, past the desk cap too."""
    reps = repetitions(n)
    return Rounds(
        rounds=g.rounds,
        spaces=SpaceList(tuple((rep_label(l, m), d) for m in reps for l, d in g.spaces)),
        x_rounds=tuple(tuple(rep_label(l, m) for m in reps for l in grp) for grp in g.x_rounds),
        y_rounds=tuple(tuple(rep_label(l, m) for m in reps for l in grp) for grp in g.y_rounds),
    )


def parallel_game(g: OutcomeOperators, n: int) -> OutcomeOperators:
    """Tensor ``n`` independent copies of a game, with the rounds of
    :func:`parallel_rounds`.

    Built copy by copy as one ``(T, D, D)`` stack of words, from the
    first copy's outcome operators: copy ``m`` extends every word ``w`` by
    each outcome operator ``p`` with one multiply per word, forming
    :func:`~hedgekit.operators.kron`'s entries ``w[i, j] p[k, l]``, so
    outcomes are indexed by tuples of single-copy outcome keys in
    lexicographic order, each word holds the bytes a chain of ``kron``
    calls gives, and a copy level past the desk cap is refused before it
    is allocated.  Each word's spectrum is extended alongside, as the
    products of the per-copy spectra, so the words are checked PSD
    without an eigensolve each, and the consistency sum is the stack's
    sum over its words, which adds them in outcome order.
    """
    rounds = parallel_rounds(g, n)
    dim = g.spaces.dim
    letters = np.stack([p.entries for p in g.outcomes])
    spectra = np.stack([np.linalg.eigvalsh(p.entries) for p in g.outcomes])
    # a word with only real factors is real: in a complex stack it keeps
    # the +0 imaginary part numpy promotes a real operand with
    real = np.array([not np.iscomplexobj(p.entries) for p in g.outcomes])
    words, word_spectra, word_real = letters, spectra, real
    keys = [(key,) for key in g.outcome_keys]
    for m in range(2, n + 1):
        _check_cap(SpaceList(rounds.spaces.entries[: m * len(g.spaces)]))
        # entry (i k, j l) of the word (w, p) is w[i, j] p[k, l]: each
        # entry of w repeated over a p block, times the tiled p's; one word
        # at a time, so no temporary is as large as the stack
        tiled = np.tile(letters, (1, len(words[0]), len(words[0])))
        stack = np.empty((len(words),) + tiled.shape, dtype=tiled.dtype)
        for w, out in zip(words, stack):
            np.multiply(w.repeat(dim, axis=0).repeat(dim, axis=1), tiled, out=out)
        words = stack.reshape(-1, *tiled.shape[1:])
        word_spectra = (word_spectra[:, None, :, None] * spectra[None, :, None, :]).reshape(
            len(words), -1
        )
        word_real = np.logical_and.outer(word_real, real).reshape(-1)
        if np.iscomplexobj(words):
            words.imag[word_real] = 0.0
        keys = [k + (key,) for k in keys for key in g.outcome_keys]
    reps = repetitions(n)
    rho = tensor_word([g.rho] * n, reps)
    game = object.__new__(OutcomeOperators)
    fields = {
        **vars(rounds),
        "outcomes": tuple(
            HermitianOperator._wrap(rounds.spaces, w.real if r else w)
            for w, r in zip(words, word_real)
        ),
        "rho": DensityOperator(rho.spaces, rho.entries),
        "r_blocks": tuple(tensor_word([r] * n, reps) for r in g.r_blocks),
        "outcome_keys": tuple(keys),
    }
    for f in dataclasses.fields(OutcomeOperators):
        object.__setattr__(game, f.name, fields[f.name])
    game._validate(
        [float(s.min()) for s in word_spectra],
        HermitianOperator._wrap(rounds.spaces, words.sum(axis=0)),
    )
    return game


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
    return dataclasses.replace(g, outcomes=(lose, win), outcome_keys=(0, 1))


def threshold_objective(g: OutcomeOperators, n: int, k: int) -> HermitianOperator:
    """Objective for winning at least ``k`` of ``n`` repetitions: the sum of
    all tensor words whose index tuples carry at least ``k`` wins."""
    if g.outcome_count != 2:
        raise ValidationError(
            f"threshold objectives need exactly two outcomes, got {g.outcome_count}"
        )
    reps = repetitions(n)
    if not 0 <= k <= n:
        raise ValidationError(f"threshold {k} out of range 0..{n}")
    return word_sum(g.outcomes[0], g.outcomes[1], reps, lambda ones: ones >= k)


def value_objective(g: OutcomeOperators, values, n: int) -> HermitianOperator:
    """Objective for the average value per repetition: each tuple of
    outcomes contributes the mean of its per-copy values.  Summed over the
    tuples, that is the mean over the copies of the words with the valued
    sum ``sum_i v_i P_i`` in one slot and ``sum_i P_i`` in the others."""
    values = [float(v) for v in values]
    if not all(math.isfinite(v) for v in values):
        raise ValidationError(f"outcome values must be finite, got {values}")
    if len(values) != g.outcome_count:
        raise ValidationError(
            f"need one value per outcome ({g.outcome_count}), got {len(values)}"
        )
    reps = repetitions(n)
    ops = g.outcomes
    total = sum(ops[1:], ops[0])
    valued = sum((p * v for p, v in zip(ops[1:], values[1:])), ops[0] * values[0])
    return word_sum(total, valued, reps, lambda ones: ones == 1) * (1.0 / n)


# -- strategies -------------------------------------------------------------------


def strategy_from_channel(ch: KrausChannel) -> StrategyChoi:
    """Single-round strategy: the Choi operator of the prover's channel."""
    return StrategyChoi(
        X=choi(ch),
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
    return dataclasses.replace(
        g,
        outcomes=tuple(dephase(p) for p in g.outcomes),
        rho=DensityOperator(g.rho.spaces, dephase(g.rho).entries),
        r_blocks=tuple(dephase(r) for r in g.r_blocks),
    )


def is_diagonal_game(g: OutcomeOperators) -> bool:
    ops = list(g.outcomes) + [g.rho] + list(g.r_blocks)
    return all(is_diagonal(op) for op in ops)
