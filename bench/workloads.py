"""The benchmark's three workloads, each a fixed list of operations.

An operation's ``run`` is the timed call into hedgekit; its ``check``
runs untimed afterwards, compares the output with a reference from
:mod:`checks` (or with earlier results of the same round) and returns
the value to record under the operation's name.  Inputs come from the
workload seed, except the named tol = 1e-10 product games, which are
fixed so that their known failures repeat in every run.
"""
from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from hedgekit import cli, games, sdp
from hedgekit.games import OutcomeOperators, SingleRoundGameSpec
from hedgekit.hedging import hedging_game
from hedgekit.operators import DensityOperator, HermitianOperator, identity, kron
from hedgekit.sampling import random_density, random_measurement
from hedgekit.spaces import SpaceList

import checks
from checks import P_HEDGE, Failed, Wrong

#: Product-game seeds whose tol = 1e-10 solve ends in numerical-failure.
STALLING_SEEDS = (1002, 1020, 1030, 1058)

SMALL_RANDOM_GAMES = 30
SMALL_DIAGONAL_GAMES = 120
SMALL_PRODUCT_GAMES = 15


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object, dict], float]


def warm_up() -> None:
    """One small solve, so lazy imports and BLAS start-up land in set-up."""
    g = hedging_game()
    report = sdp.solve(sdp.compile_primal(g, g.outcomes[1]), tol=1e-8)
    checks.check_solve(report, 1e-8, reference=P_HEDGE)


# -- game construction -----------------------------------------------------------------


def random_game(rng) -> OutcomeOperators:
    """A random qubit single-round game (question, memory, answer all 2)."""
    sigma = random_density(rng, SpaceList((("X1", 2), ("Z", 2))))
    meas = random_measurement(rng, SpaceList((("Y1", 2), ("Z", 2))), 2)
    return games.outcome_operators_single_round(SingleRoundGameSpec(sigma, meas))


def r2_product_game(rng):
    """Two independent single-round games stacked as a two-round game;
    returns ``(round-1 game, round-2 game, stacked game)``.  The same
    draws, in the same order, as ``make_r2_product_game`` in tests/conftest.py."""
    g1 = random_game(rng)
    zb = SpaceList((("Zb", 2),))
    sigma2 = random_density(rng, SpaceList((("X2", 2),)).concat(zb))
    meas2 = random_measurement(rng, SpaceList((("Y2", 2),)).concat(zb), 2)
    g2 = games.outcome_operators_single_round(SingleRoundGameSpec(sigma2, meas2))
    outcomes = tuple(
        kron(g1.outcomes[i], g2.outcomes[j]) for i in range(2) for j in range(2)
    )
    r2_block = kron(kron(identity(SpaceList((("Y1", 2),))), g1.rho), g2.rho)
    stacked = OutcomeOperators(
        rounds=2,
        spaces=outcomes[0].spaces,
        x_rounds=(("X1",), ("X2",)),
        y_rounds=(("Y1",), ("Y2",)),
        outcomes=outcomes,
        rho=g1.rho,
        r_blocks=(r2_block,),
        outcome_keys=((0, 0), (0, 1), (1, 0), (1, 1)),
    )
    return g1, g2, stacked


def diagonal_tables(rng, dq: int = 2, dz: int = 2, dy: int = 2):
    """sigma(x, z), a probability table, and winning weights w(y, z)."""
    sigma = rng.random((dq, dz)) + 1e-3
    sigma /= sigma.sum()
    win = rng.random((dy, dz))
    return sigma, win


def diagonal_spec(sigma: np.ndarray, win: np.ndarray) -> SingleRoundGameSpec:
    dq, dz = sigma.shape
    dy = win.shape[0]
    xz = SpaceList((("X1", dq), ("Z", dz)))
    yz = SpaceList((("Y1", dy), ("Z", dz)))
    rho = DensityOperator(xz, np.diag(sigma.ravel()).astype(np.complex128))
    lose = HermitianOperator(yz, np.diag(1.0 - win.ravel()).astype(np.complex128))
    won = HermitianOperator(yz, np.diag(win.ravel()).astype(np.complex128))
    return SingleRoundGameSpec(rho, (lose, won))


def diagonal_game_json(sigma: np.ndarray, win: np.ndarray) -> dict:
    """The same diagonal game in the CLI's single-round JSON format."""
    def op(labels, diag):
        dims = [[label, d] for label, d in labels]
        return {"spaces": dims,
                "entries": [[float(v), 0.0] for v in np.diag(diag).ravel()]}

    dq, dz = sigma.shape
    dy = win.shape[0]
    yz = (("Y1", dy), ("Z", dz))
    return {
        "type": "single_round",
        "sigma": op((("X1", dq), ("Z", dz)), sigma.ravel()),
        "measurement": [op(yz, 1.0 - win.ravel()), op(yz, win.ravel())],
        "winning": [1],
    }


# -- solve operations -------------------------------------------------------------------


def solve_op(name, game, n, objective, tol, check) -> Op:
    """Build the n-fold game and objective, compile and solve (all timed);
    ``objective`` is called as ``objective(game)``."""
    def run():
        target = game if n == 1 else games.parallel_game(game, n)
        return sdp.solve(sdp.compile_primal(target, objective(game)), tol=tol)

    return Op(name, run, check)


def win(g):
    return g.outcomes[1]


def threshold(n, k):
    return lambda g: games.threshold_objective(g, n, k)


def average(n):
    return lambda g: games.value_objective(g, (0.0, 1.0), n)


def expect(tol, reference=None, lower=None, upper=None):
    return lambda report, _: checks.check_solve(report, tol, reference, lower, upper)


def expect_from(tol, fn):
    """Reference computed from earlier results of the round."""
    return lambda report, results: checks.check_solve(report, tol, fn(results))


def earlier(results: dict, name: str) -> float:
    """An earlier result of the round; it is missing when that operation failed."""
    if name not in results:
        raise Failed(f"its reference {name} failed")
    return results[name]


def hedging_rung(n: int, k: int, tol: float = 1e-8) -> Op:
    exact = checks.hedging_threshold_value(n, k)
    bounds = {} if exact is not None else {
        "lower": checks.binomial_tail(P_HEDGE, n, k),
        "upper": min(1.0, math.comb(n, k) * P_HEDGE**k),
    }
    objective = win if n == 1 else threshold(n, k)
    return solve_op(f"hedging-n{n}-k{k}", hedging_game(), n, objective, tol,
                    expect(tol, exact, **bounds))


def product_ops(tag: str, rng, tol: float):
    """Solve both rounds apart, then the stacked game for winning both;
    its optimum is the product of the two single-round optima."""
    g1, g2, stacked = r2_product_game(rng)
    both = stacked.outcomes[3]
    return [
        solve_op(f"{tag}-round1", g1, 1, win, tol, expect(tol)),
        solve_op(f"{tag}-round2", g2, 1, win, tol, expect(tol)),
        solve_op(f"{tag}-stacked", stacked, 1, lambda _: both, tol, expect_from(
            tol, lambda r: earlier(r, f"{tag}-round1") * earlier(r, f"{tag}-round2"))),
    ]


def small_sweep_ops(seed: int, outdir: str):
    rng = np.random.default_rng(seed)
    tol = 1e-8
    ops = []
    for i in range(SMALL_RANDOM_GAMES):
        g = random_game(rng)
        name = f"random{i}"
        single = lambda r, name=name: earlier(r, name)
        ops += [
            solve_op(name, g, 1, win, tol, expect(tol)),
            solve_op(f"{name}-x2-k2", g, 2, threshold(2, 2), tol,
                     expect_from(tol, lambda r, s=single: s(r) ** 2)),
            solve_op(f"{name}-x2-avg", g, 2, average(2), tol, expect_from(tol, single)),
            solve_op(f"{name}-x2-k1", g, 2, threshold(2, 1), tol,
                     lambda rep, r, s=single: checks.check_solve(
                         rep, tol, lower=checks.binomial_tail(s(r), 2, 1),
                         upper=min(1.0, 2 * s(r)))),
        ]
    for i in range(SMALL_DIAGONAL_GAMES):
        sigma, won = diagonal_tables(rng)
        g = games.outcome_operators_single_round(diagonal_spec(sigma, won))
        optimum = checks.enumerate_classical_optimum(won @ sigma.T)
        ops.append(solve_op(f"diagonal{i}", g, 1, win, tol, expect(tol, optimum)))
    for i in range(SMALL_PRODUCT_GAMES):
        ops += product_ops(f"product{i}", rng, tol)
    ops += [hedging_rung(n, k) for n in (1, 2, 3) for k in sorted({1, (n + 1) // 2, n})]
    hedge = hedging_game()
    ops += [solve_op(f"hedging-n{n}-avg", hedge, n, average(n), tol, expect(tol, P_HEDGE))
            for n in (2, 3)]
    for fixed_tol in (1e-8, 1e-10):
        for s in STALLING_SEEDS:
            ops += product_ops(f"product-seed{s}-tol{fixed_tol:g}",
                               np.random.default_rng(s), fixed_tol)
    return ops


# -- certify operations ---------------------------------------------------------------------


def _matrix(op_json: dict) -> np.ndarray:
    dim = int(np.prod([d for _, d in op_json["spaces"]]))
    pairs = np.asarray(op_json["entries"], dtype=float)
    return (pairs[:, 0] + 1j * pairs[:, 1]).reshape(dim, dim)


def certify_op(outdir: str, name: str, argv, check_results) -> Op:
    """One ``hedgekit`` command through ``cli.main``; the report goes to a
    file, and ``check_results(report results, round results)`` reads it."""
    path = os.path.join(outdir, f"{name}.json")

    def run():
        return cli.main(list(argv) + ["--quiet", "--out", path])

    def check(code, results):
        if code == cli.EXIT_NUMERICAL:
            raise Failed(f"exit code {code}")
        if code != cli.EXIT_OK:
            raise Wrong(f"exit code {code}")
        with open(path, encoding="utf-8") as fh:
            return check_results(json.load(fh)["results"], results)

    return Op(name, run, check)


def witness_value(results: dict, outcomes, n: int, weight) -> float:
    """The certified value, after recomputing the witness's chain
    inequality with eigvalsh."""
    y = results["witness"]["Y"]
    lo = checks.chain_min_eigenvalue(y["spaces"], _matrix(y), outcomes, n, weight)
    if lo < -checks.CHAIN_TOL:
        raise Wrong(f"witness violates its chain inequality: min eigenvalue {lo:.3e}")
    if not results["feasible"]:
        raise Wrong("a feasible witness is reported infeasible")
    return results["witness_value"]["value"]


def hedging_certify(outdir: str, construction: str, n: int, k: int, extra=(),
                    name: str | None = None) -> Op:
    """Certify a construction on the bundled game; the value must equal
    the construction's closed-form trace at p = cos^2(pi/8)."""
    argv = ["certify", "hedging", "--construction", construction, "--reps", str(n)]
    if construction in ("naive", "snk"):
        argv += ["--wins", str(k)]
    weight = (checks.value_weight((0.0, 1.0)) if construction == "average"
              else checks.threshold_weight(k))

    def check(results, _):
        value = witness_value(results, checks.hedging_outcomes(), n, weight)
        checks.check_close(value, checks.witness_trace(construction, P_HEDGE, n, k),
                           checks.TRACE_SLACK, f"{construction} witness value")
        return value

    name = name or f"certify-{construction}-n{n}-k{k}"
    return certify_op(outdir, name, argv + list(extra), check)


def witness_round_trip(outdir: str, n: int = 4, k: int = 2):
    """Emit an snk witness to a file, then certify that file: the verdict
    and the value must repeat."""
    path = os.path.join(outdir, "witness.json")
    emit = hedging_certify(outdir, "snk", n, k, ["--emit-witness", path],
                           name="certify-emit-witness")

    def check(results, round_results):
        if (results["construction"], results["reps"], results["wins"]) != ("snk", n, k):
            raise Wrong("the witness file lost its construction metadata")
        value = witness_value(results, checks.hedging_outcomes(), n,
                              checks.threshold_weight(k))
        checks.check_close(value, earlier(round_results, emit.name), 1e-12,
                           "reloaded witness value")
        return value

    reload = certify_op(outdir, "certify-witness-file", ["certify", "hedging", "--witness",
                        path], check)
    return [emit, reload]


def classical_certify(outdir: str, game_path: str, sigma, won, n: int, k: int) -> Op:
    """classical-binomial on a diagonal game: the certified bound is at
    least the binomial tail at the enumerated classical optimum."""
    outcomes = checks.diagonal_outcomes(sigma, won)
    tail = checks.binomial_tail(checks.enumerate_classical_optimum(won @ sigma.T), n, k)

    def check(results, _):
        value = witness_value(results, outcomes, n, checks.threshold_weight(k))
        if value < tail - checks.TRACE_SLACK:
            raise Wrong(f"classical-binomial value {value!r} is below the tail {tail!r}")
        return value

    argv = ["certify", game_path, "--construction", "classical-binomial",
            "--reps", str(n), "--wins", str(k)]
    return certify_op(outdir, f"certify-classical-binomial-n{n}-k{k}", argv, check)


def hedging_demo(outdir: str) -> Op:
    def check(results, _):
        slack = checks.REFERENCE_SLACK * 1e-8
        checks.check_close(results["single_rep_optimum"]["value"], P_HEDGE, slack,
                           "single-repetition optimum")
        checks.check_close(results["two_rep_win_at_least_once"]["value"], 1.0, slack,
                           "two-repetition hedge")
        checks.check_close(results["phase_flip_lose_both"]["value"], 0.0, 1e-12,
                           "phase-flip probability of losing both")
        checks.check_close(results["independent_play_tail"]["value"],
                           checks.binomial_tail(P_HEDGE, 2, 1), 1e-12,
                           "independent-play tail")
        return results["two_rep_win_at_least_once"]["value"]

    return certify_op(outdir, "hedging-demo", ["hedging-demo"], check)


def hedge_n4_ops(seed: int, outdir: str):
    """Winning at least k = 2 of n = 4 hedging copies (d = m = 256);
    fixed input, so the seed is unused."""
    return [hedging_rung(4, 2)]


def certify_ladder_ops(seed: int, outdir: str):
    rng = np.random.default_rng(seed)
    sigma, won = diagonal_tables(rng)
    game_path = os.path.join(outdir, "diagonal-game.json")
    with open(game_path, "w", encoding="utf-8") as fh:
        json.dump(diagonal_game_json(sigma, won), fh)
    ops = []
    for n in range(1, 5):
        ops.append(hedging_certify(outdir, "average", n, 1))
        ops.append(hedging_certify(outdir, "tensor-power", n, n))
        for k in range(1, n + 1):
            ops.append(hedging_certify(outdir, "naive", n, k))
            ops.append(hedging_certify(outdir, "snk", n, k))
    ops += [classical_certify(outdir, game_path, sigma, won, n, k)
            for n in range(1, 4) for k in range(1, n + 1)]
    ops += witness_round_trip(outdir)
    ops.append(hedging_demo(outdir))
    return ops


WORKLOADS = {
    "hedge-n4": hedge_n4_ops,
    "small-sweep": small_sweep_ops,
    "certify-ladder": certify_ladder_ops,
}
