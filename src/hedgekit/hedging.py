"""The bundled two-outcome game with a perfect two-repetition hedge.

A maximally entangled question qubit, a one-qubit answer, and a rank-one
winning measurement pinned at an angle of pi/8.  The single-repetition
optimum is cos^2(pi/8) ~ 0.8536, yet a joint phase flip across two
repetitions wins exactly one of them with certainty, beating the
independent-play probability 1 - (1 - p)^2 ~ 0.9786 of winning at least
once.
"""
from __future__ import annotations

import math

import numpy as np

from .games import (
    OutcomeOperators,
    SingleRoundGameSpec,
    StrategyChoi,
    outcome_operators_single_round,
    rep_label,
    repetitions,
    strategy_from_channel,
)
from .operators import DensityOperator, HermitianOperator, KrausChannel
from .sdp import DualWitness
from .spaces import SpaceList

QUESTION_LABEL = "X1"
ANSWER_LABEL = "Y1"
MEMORY_LABEL = "Z"

#: Optimal single-repetition winning probability, cos^2(pi/8).
WIN_PROBABILITY = math.cos(math.pi / 8) ** 2


def hedging_game_spec() -> SingleRoundGameSpec:
    """Initial state (|00> + |11>)/sqrt(2) on question (x) memory and the
    projective measurement {1 - vv*, vv*} with
    v = cos(pi/8)|00> + sin(pi/8)|11> on answer (x) memory."""
    c, s = math.cos(math.pi / 8), math.sin(math.pi / 8)
    xq = SpaceList(((QUESTION_LABEL, 2),))
    z = SpaceList(((MEMORY_LABEL, 2),))
    ya = SpaceList(((ANSWER_LABEL, 2),))
    u = np.zeros(4)
    u[0] = u[3] = 1.0 / math.sqrt(2.0)
    sigma = DensityOperator(xq.concat(z), np.outer(u, u))
    v = np.zeros(4)
    v[0], v[3] = c, s
    win = HermitianOperator(ya.concat(z), np.outer(v, v))
    lose = HermitianOperator(ya.concat(z), np.eye(4) - np.outer(v, v))
    return SingleRoundGameSpec(sigma, (lose, win))


def hedging_game() -> OutcomeOperators:
    """The bundled game in SDP-ready form (outcome 0 loses, 1 wins)."""
    return outcome_operators_single_round(hedging_game_spec())


def hedging_optimal_witness() -> DualWitness:
    """Closed-form optimal dual solution.

    With c = cos(pi/8), s = sin(pi/8) the winning operator is
    (1/2) vv* on answer (x) question space, and the trace-minimal Y with
    Y (x) I >= (1/2) vv* is diag(c(c+s), s(c+s))/2, of trace
    cos^2(pi/8); the slack is exactly singular.
    """
    c, s = math.cos(math.pi / 8), math.sin(math.pi / 8)
    y = np.diag([c * (c + s) / 2.0, s * (c + s) / 2.0]).astype(np.complex128)
    return DualWitness(
        Y=HermitianOperator(SpaceList(((QUESTION_LABEL, 2),)), y),
        meta={"construction": "closed-form-optimal"},
    )


def phase_flip_channel() -> KrausChannel:
    """Joint unitary on the two received question qubits that flips the
    sign of the all-zeros basis state, labelled as in
    :func:`~hedgekit.games.parallel_game`."""
    reps = repetitions(2)
    in_sp = SpaceList(tuple((rep_label(QUESTION_LABEL, m), 2) for m in reps))
    out_sp = SpaceList(tuple((rep_label(ANSWER_LABEL, m), 2) for m in reps))
    u = np.eye(4)
    u[0, 0] = -1.0
    return KrausChannel(in_sp, out_sp, (u,))


def phase_flip_strategy() -> StrategyChoi:
    """The correlated strategy that hedges perfectly across two copies."""
    return strategy_from_channel(phase_flip_channel())
