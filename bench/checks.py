"""Reference values and output checks computed apart from hedgekit.

Nothing here calls the library: closed forms in p = cos^2(pi/8), a numpy
enumeration of deterministic strategies for diagonal games, binomial
tails, and the dual chain inequality rebuilt from single-copy outcome
operators and tested with ``numpy.linalg.eigvalsh``.

A check raises :class:`Failed` when the program honestly reports a
non-optimal status (the operation did not finish) and :class:`Wrong`
when it returns a result that contradicts the reference.
"""
from __future__ import annotations

import itertools
import math
from functools import reduce

import numpy as np

#: Single-repetition optimum of the bundled hedging game.
P_HEDGE = math.cos(math.pi / 8) ** 2

#: How far a solved value may sit from an exact reference, in units of
#: the solve tolerance (the relative gap and both residuals are each
#: below ``tol``, so the optimum lies within a few ``tol`` of the value).
REFERENCE_SLACK = 10.0

#: Feasibility slack for recomputed chain inequalities: stricter than the
#: CLI's default ``--tol 1e-8``; witnesses are repaired to a +1e-11 margin.
CHAIN_TOL = 1e-9

#: Slack for closed-form witness traces: the single-round witness is
#: solved at tol 1e-9 and shifted by at most ~1e-11 per block.
TRACE_SLACK = 1e-7


class Failed(Exception):
    """The program reported a non-optimal status: counted, not wrong."""


class Wrong(Exception):
    """The program's output contradicts the independent reference."""


# -- closed forms --------------------------------------------------------------------


def binomial_tail(p: float, n: int, k: int) -> float:
    """P[Bin(n, p) >= k]: independent play wins at least k of n."""
    return sum(math.comb(n, t) * p**t * (1.0 - p) ** (n - t) for t in range(k, n + 1))


def hedging_threshold_value(n: int, k: int):
    """Exact optimum of winning at least ``k`` of ``n`` hedging copies,
    or ``None`` where no closed form is known.  Copies paired up by the
    perfect hedge win exactly one of each pair, so 2k <= n wins surely."""
    if k == n:
        return P_HEDGE**n
    if 2 * k <= n:
        return 1.0
    return None


def witness_trace(construction: str, p: float, n: int, k: int) -> float:
    """Trace of each witness construction for a base witness of trace p."""
    if construction == "average":
        return p
    if construction == "tensor-power":
        return p**n
    if construction == "naive":
        return sum(math.comb(n, t) * p**t for t in range(k, n + 1))
    if construction == "snk":
        return math.comb(n, k) * p**k
    raise ValueError(f"no closed-form trace for {construction!r}")


# -- diagonal games ------------------------------------------------------------------


def diagonal_outcomes(sigma_diag: np.ndarray, win_diag: np.ndarray):
    """Single-copy outcome operators (lose, win) on (answer, question) of
    a diagonal game, from sigma(x, z) and the winning weights w(y, z):
    P_win(y, x) = sum_z w(y, z) sigma(x, z)."""
    win = win_diag @ sigma_diag.T
    lose = (1.0 - win_diag) @ sigma_diag.T
    return np.diag(lose.ravel()), np.diag(win.ravel())


def enumerate_classical_optimum(win_table: np.ndarray) -> float:
    """Best deterministic strategy f: x -> y, by enumerating all of them;
    ``win_table[y, x]`` is the winning weight of answer y to question x."""
    dy, dx = win_table.shape
    strategies = np.array(list(itertools.product(range(dy), repeat=dx)))
    return float(win_table[strategies, np.arange(dx)].sum(axis=1).max())


def hedging_outcomes():
    """Closed-form (lose, win) operators of the hedging game on
    (answer, question): P_win = vv^T / 2 with v = c|00> + s|11>."""
    c, s = math.cos(math.pi / 8), math.sin(math.pi / 8)
    v = np.array([c, 0.0, 0.0, s])
    win = np.outer(v, v) / 2.0
    return np.eye(4) / 2.0 - win, win


# -- the dual chain inequality -------------------------------------------------------


def permute_factors(mat: np.ndarray, dims, order) -> np.ndarray:
    """Reorder the tensor factors of a square matrix: factor ``order[i]``
    of the input becomes factor ``i`` of the output."""
    n = len(dims)
    t = mat.reshape(tuple(dims) * 2)
    t = t.transpose(tuple(order) + tuple(n + o for o in order))
    size = mat.shape[0]
    return t.reshape(size, size)


def word_sum(outcomes, n: int, weight) -> np.ndarray:
    """sum over outcome tuples idx of weight(idx) * (P_idx1 (x) ... (x) P_idxn),
    copies interleaved as (answer 1, question 1, answer 2, ...)."""
    total = 0.0
    for idx in itertools.product(range(len(outcomes)), repeat=n):
        w = weight(idx)
        if w:
            total = total + w * reduce(np.kron, [outcomes[i] for i in idx])
    return total


def threshold_weight(k: int):
    return lambda idx: 1.0 if sum(idx) >= k else 0.0


def value_weight(values):
    return lambda idx: sum(values[i] for i in idx) / len(idx)


def chain_min_eigenvalue(y_spaces, y_entries: np.ndarray, outcomes, n: int, weight,
                         question: str = "X1") -> float:
    """Minimum eigenvalue of (I_answers (x) Y) - objective for a one-round
    game repeated ``n`` times, the objective being ``word_sum(outcomes, n,
    weight)``; ``y_spaces`` lists Y's (label, dim) factors, labelled
    ``X1`` (n = 1) or ``X1#m``."""
    labels = [label for label, _ in y_spaces]
    want = [question] if n == 1 else [f"{question}#{m}" for m in range(1, n + 1)]
    if sorted(labels) != sorted(want):
        raise Wrong(f"witness labels {labels} are not {want}")
    ydims = [d for _, d in y_spaces]
    y = permute_factors(np.asarray(y_entries), ydims, [labels.index(l) for l in want])
    qdims = [ydims[labels.index(l)] for l in want]
    answer_dim = outcomes[0].shape[0] // qdims[0]
    lhs = np.kron(np.eye(answer_dim**n), y)
    # factors are (answer 1..n, question 1..n); interleave them per copy
    order = [i for m in range(n) for i in (m, n + m)]
    lhs = permute_factors(lhs, [answer_dim] * n + qdims, order)
    diff = lhs - word_sum(outcomes, n, weight)
    return float(np.linalg.eigvalsh((diff + diff.conj().T) / 2)[0])


# -- solve checks --------------------------------------------------------------------


def check_solve(report, tol: float, reference=None, lower=None, upper=None) -> float:
    """Check a SolveReport; returns its primal value.

    Every optimal solve must satisfy primal <= dual + tol and
    |primal - dual| <= tol (both relative to the objective scale, as the
    solver's stopping rule); ``reference`` is an exact optimum and
    ``lower``/``upper`` are bounds on it.
    """
    if report.status != "optimal":
        raise Failed(report.status)
    p, d = report.primal_value, report.dual_value
    scale = max(1.0, (abs(p) + abs(d)) / 2)
    if p > d + tol * scale:
        raise Wrong(f"primal {p!r} exceeds dual {d!r} beyond tol")
    if abs(p - d) > tol * scale or abs(report.gap - abs(p - d)) > 1e-12 * scale:
        raise Wrong(f"gap {report.gap!r} (primal {p!r}, dual {d!r}) exceeds tol")
    slack = REFERENCE_SLACK * tol * scale
    if reference is not None and abs(p - reference) > slack:
        raise Wrong(f"value {p!r} differs from the reference {reference!r}")
    if lower is not None and p < lower - slack:
        raise Wrong(f"value {p!r} is below the lower bound {lower!r}")
    if upper is not None and p > upper + slack:
        raise Wrong(f"value {p!r} is above the upper bound {upper!r}")
    return p


def check_close(value: float, reference: float, slack: float, what: str) -> None:
    if not abs(value - reference) <= slack:
        raise Wrong(f"{what} {value!r} differs from {reference!r}")
