"""Command-line front end.

Commands: ``solve``, ``certify``, ``hedging-demo``, ``error-reduction``,
``plot-entropy``.  Every run but ``plot-entropy``, which writes the curve
as CSV, emits a JSON report whose numeric results carry the tolerance
they were computed under.  A ``solve`` report lists the PSD block
dimensions the solver iterated on as ``solved_blocks``, and why a
solve is not optimal as ``reason`` (null when it is).

Exit codes: 0 success, 1 malformed input (``SpaceError``,
``ValidationError``), 2 domain-negative outcome (infeasible problem or
witness, failed threshold condition, refused reduction: ``DomainError``),
3 numerical failure (``NumericalError`` or a stalled solve).
Every command takes ``--out`` and ``--quiet``; ``--tol`` only where a
tolerance is read (``solve``, ``certify``, ``hedging-demo``), and
``--max-iter`` only where the solver runs (``solve``, ``hedging-demo``),
and ``--wins`` and ``--values`` only where the chosen objective or
construction reads them.
Commands are deterministic for fixed
inputs: the solver starts from a fixed point and no command path draws
unseeded randomness.
"""
from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import sys
import time
from importlib import resources

from . import __version__
from .errors import DomainError, HedgekitError, NumericalError, SpaceError, ValidationError
from .error_reduction import binomial_tail, entropy_curve, plan_rounds
from .games import (
    group_outcomes,
    outcome_probabilities,
    parallel_game,
    parallel_rounds,
    threshold_objective,
    value_objective,
)
from .hedging import WIN_PROBABILITY, hedging_game, phase_flip_strategy
from .sdp import check_dual_feasibility, compile_primal, solve
from .serialize import (
    dump_json,
    game_from_json,
    load_json,
    witness_from_json,
    witness_to_json,
)
from .witnesses import (
    single_round_witness,
    witness_average,
    witness_classical_binomial,
    witness_naive,
    witness_recursive_snk,
    witness_tensor_power,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_DOMAIN = 2
EXIT_NUMERICAL = 3

_STATUS_EXITS = {
    "optimal": EXIT_OK,
    "infeasible": EXIT_DOMAIN,
    "iteration-limit": EXIT_NUMERICAL,
    "numerical-failure": EXIT_NUMERICAL,
}

_CONSTRUCTIONS = ("average", "tensor-power", "naive", "snk", "classical-binomial")


class _Parser(argparse.ArgumentParser):
    """argparse variant that reports usage problems as exit code 1."""

    def error(self, message):
        raise ValidationError(message)


def _tolerance(value: float) -> dict:
    return {"tol": value}


def _digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class _Run:
    def __init__(self, command: str):
        self.command = command
        self.inputs = {}
        self.timings = {}
        self._marks = {"start": time.perf_counter()}

    def note_input(self, path: str):
        self.inputs[path] = _digest(path)

    def phase(self, name: str, start: float):
        self.timings[f"{name}_ms"] = round(1000.0 * (time.perf_counter() - start), 3)

    def report(self, results: dict) -> dict:
        self.timings["total_ms"] = round(
            1000.0 * (time.perf_counter() - self._marks["start"]), 3
        )
        return {
            "command": self.command,
            "toolkit_version": __version__,
            "inputs": self.inputs,
            "results": results,
            "timings": self.timings,
        }


def _emit(report: dict, args) -> None:
    if getattr(args, "out", None):
        dump_json(report, args.out)
    if not getattr(args, "quiet", False):
        json.dump(report, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")


def _read_json(run: _Run, path: str, what: str):
    """Load the JSON file at ``path``, noted as an input of ``run``; an
    unreadable or malformed ``what`` file is an input error."""
    try:
        run.note_input(path)
        return load_json(path)
    except OSError as exc:
        raise ValidationError(f"cannot read {what} file {path!r}: {exc}")
    except json.JSONDecodeError as exc:
        raise ValidationError(f"malformed JSON in {path!r}: line {exc.lineno}")


def _load_game(run: _Run, name: str):
    if name == "hedging":
        # through the package, not the data directory, which is not a
        # package and so cannot be found inside a zipped install
        with resources.as_file(resources.files("hedgekit") / "data" / "hedging_game.json") as path:
            data = _read_json(run, str(path), "game")
    else:
        data = _read_json(run, name, "game")
    try:
        return game_from_json(data)
    except HedgekitError as exc:
        raise ValidationError(f"invalid game description: {exc}")


def _grouped(game, winning):
    if game.outcome_count == 2 and not winning:
        return game
    if not winning:
        raise ValidationError(
            "game has more than two outcomes and no 'winning' set to group by"
        )
    try:
        return group_outcomes(game, winning)
    except HedgekitError as exc:
        raise ValidationError(f"cannot group outcomes: {exc}")


def _win_values(game, winning):
    """Value 1 on the outcomes :func:`_grouped` counts as a win, 0 elsewhere."""
    won = set(winning) or {game.outcome_keys[1]}
    return tuple(float(key in won) for key in game.outcome_keys)


def _parse_values(text: str):
    try:
        return tuple(float(v) for v in text.split(","))
    except ValueError as exc:
        raise ValidationError(f"malformed value list {text!r}: {exc}")


def _refuse_unread(args, reads, chosen: str):
    """Refuse ``--wins`` or ``--values`` unless ``reads`` names it: the
    objective or construction ``chosen`` reads only those."""
    for flag in ("wins", "values"):
        if getattr(args, flag) is not None and flag not in reads:
            raise ValidationError(f"{chosen} does not read --{flag}")


# -- solve ---------------------------------------------------------------------------


def cmd_solve(args) -> int:
    _refuse_unread(
        args, {"win": (), "threshold": ("wins",), "value": ("values",)}[args.objective],
        f"--objective {args.objective}",
    )
    run = _Run("solve")
    game, winning = _load_game(run, args.game)
    n = args.reps
    t0 = time.perf_counter()
    if args.objective == "win":
        if n != 1:
            raise ValidationError(
                "--objective win solves one copy; use --objective threshold --wins N"
            )
        base = _grouped(game, winning)
        objective = base.outcomes[1]
        detail = {"objective": "win"}
    elif args.objective == "threshold":
        if args.wins is None:
            raise ValidationError("threshold objective needs --wins")
        base = _grouped(game, winning)
        objective = threshold_objective(base, n, args.wins)
        detail = {"objective": "threshold", "reps": n, "wins": args.wins}
    else:
        if args.values is None:
            raise ValidationError("value objective needs --values")
        values = _parse_values(args.values)
        if len(values) != game.outcome_count:
            raise ValidationError(f"{len(values)} values for {game.outcome_count} outcomes")
        base = game
        objective = value_objective(game, values, n)
        detail = {"objective": "value", "reps": n, "values": list(values)}
    try:
        problem = compile_primal(parallel_rounds(base, n), objective)
    except HedgekitError as exc:
        raise ValidationError(f"cannot compile the program: {exc}")
    run.phase("compile", t0)
    t0 = time.perf_counter()
    report = solve(problem, tol=args.tol, max_iter=args.max_iter)
    run.phase("solve", t0)
    results = dict(detail)
    results.update(
        {
            "status": report.status,
            "primal_value": {"value": report.primal_value, **_tolerance(args.tol)},
            "dual_value": {"value": report.dual_value, **_tolerance(args.tol)},
            "gap": {"value": report.gap, **_tolerance(args.tol)},
            "iterations": report.iterations,
            "solved_blocks": list(report.solved_blocks),
            "reason": report.reason,
        }
    )
    _emit(run.report(results), args)
    return _STATUS_EXITS[report.status]


# -- certify -------------------------------------------------------------------------


def _build_witness(run: _Run, args, game, winning):
    """Returns (witness, n, k-or-None, objective kind)."""
    n = 1 if args.reps is None else args.reps
    if args.witness is not None:
        data = _read_json(run, args.witness, "witness")
        try:
            w = witness_from_json(data)
        except HedgekitError as exc:
            raise ValidationError(f"invalid witness: {exc}")
        file_n, file_k = w.meta.get("n"), w.meta.get("k")
        for value, flag in ((file_n, "reps"), (file_k, "wins")):
            if value is not None and getattr(args, flag) is not None:
                raise ValidationError(f"the witness file sets --{flag} to {value}; drop the flag")
        n = n if file_n is None else file_n
        k = args.wins if file_k is None else file_k
        kind = "value" if w.meta.get("values") is not None else "threshold"
        return w, n, k, kind
    name = args.construction
    if name == "average":
        if args.values:
            values = _parse_values(args.values)
        else:
            _grouped(game, winning)  # refuses a game with no winning set to read
            values = _win_values(game, winning)
        base = single_round_witness(
            game, value_objective(game, values, 1), meta={"values": list(values)}
        )
        return witness_average(base, game, n), n, None, "value"
    g2 = _grouped(game, winning)
    base = single_round_witness(g2, g2.outcomes[1])
    if name == "tensor-power":
        return witness_tensor_power(base, n, g2), n, n, "threshold"
    if args.wins is None:
        raise ValidationError(f"construction {name!r} needs --wins")
    k = args.wins
    if name == "naive":
        return witness_naive(base, g2, n, k), n, k, "threshold"
    if name == "snk":
        return witness_recursive_snk(base, g2, n, k), n, k, "threshold"
    if name == "classical-binomial":
        return witness_classical_binomial(base, g2, n, k), n, k, "threshold"
    raise ValidationError(f"unknown construction {name!r}")


def cmd_certify(args) -> int:
    if args.witness is not None:
        _refuse_unread(args, ("wins",), "--witness")
    else:
        reads = {"average": ("values",), "tensor-power": ()}.get(args.construction, ("wins",))
        _refuse_unread(args, reads, f"--construction {args.construction}")
    if not (math.isfinite(args.tol) and args.tol >= 0.0):
        raise ValidationError(f"--tol must be finite and non-negative, got {args.tol!r}")
    run = _Run("certify")
    game, winning = _load_game(run, args.game)
    t0 = time.perf_counter()
    witness, n, k, kind = _build_witness(run, args, game, winning)
    run.phase("construct", t0)
    t0 = time.perf_counter()
    if kind == "value":
        values = tuple(witness.meta["values"])
        base = game if len(values) == game.outcome_count else _grouped(game, winning)
        objective = value_objective(base, values, n)
    else:
        base = _grouped(game, winning)
        if k is None:
            raise ValidationError("certification needs --wins (or witness metadata)")
        objective = threshold_objective(base, n, k)
    try:
        feas = check_dual_feasibility(parallel_rounds(base, n), objective, witness, tol=args.tol)
    except HedgekitError as exc:
        raise ValidationError(f"cannot check the witness: {exc}")
    run.phase("check", t0)
    results = {
        "feasible": feas.feasible,
        "witness_value": {"value": feas.value, **_tolerance(args.tol)},
        "constraint_min_eigenvalues": [
            {"value": e, **_tolerance(args.tol)} for e in feas.constraint_min_eigenvalues
        ],
        "construction": witness.meta.get("construction", "custom"),
        "reps": n,
        "wins": k,
        "witness": witness_to_json(witness),
    }
    if args.emit_witness:
        dump_json(witness_to_json(witness), args.emit_witness)
    _emit(run.report(results), args)
    return EXIT_OK if feas.feasible else EXIT_DOMAIN


# -- hedging demo ---------------------------------------------------------------------


def cmd_hedging_demo(args) -> int:
    run = _Run("hedging-demo")
    game = hedging_game()
    t0 = time.perf_counter()
    single = solve(compile_primal(game, game.outcomes[1]), tol=args.tol, max_iter=args.max_iter)
    run.phase("single_rep_solve", t0)
    t0 = time.perf_counter()
    threshold = solve(
        compile_primal(parallel_rounds(game, 2), threshold_objective(game, 2, 1)),
        tol=args.tol,
        max_iter=args.max_iter,
    )
    run.phase("two_rep_solve", t0)
    solves = {"single_rep_solve": single, "two_rep_solve": threshold}
    failed = [rep.status for rep in solves.values() if rep.status != "optimal"]
    if failed:
        results = {
            name: {"status": rep.status, "iterations": rep.iterations}
            for name, rep in solves.items()
        }
        _emit(run.report(results), args)
        return _STATUS_EXITS[failed[0]]
    t0 = time.perf_counter()
    doubled = parallel_game(game, 2)
    probs = outcome_probabilities(doubled, phase_flip_strategy())
    dist = {
        "".join(map(str, key)): prob for key, prob in zip(doubled.outcome_keys, probs)
    }
    run.phase("strategy_eval", t0)
    results = {
        "single_rep_optimum": {"value": single.primal_value, **_tolerance(args.tol)},
        "two_rep_win_at_least_once": {
            "value": threshold.primal_value,
            **_tolerance(args.tol),
        },
        "phase_flip_distribution": {
            key: {"value": prob, "tol": 1e-12} for key, prob in dist.items()
        },
        "phase_flip_lose_both": {"value": dist["00"], "tol": 1e-12},
        "independent_play_tail": {
            "value": binomial_tail(WIN_PROBABILITY, 2, 1),
            "tol": 1e-9,
        },
    }
    _emit(run.report(results), args)
    return EXIT_OK


# -- error reduction ------------------------------------------------------------------


def cmd_error_reduction(args) -> int:
    run = _Run("error-reduction")
    t0 = time.perf_counter()
    plan = plan_rounds(args.alpha, args.beta, args.epsilon)
    run.phase("plan", t0)
    results = {
        "alpha": plan.alpha,
        "beta": plan.beta,
        "epsilon": plan.epsilon,
        "threshold_fraction": {
            "numerator": plan.c_numerator,
            "denominator": plan.c_denominator,
            "value": plan.c,
        },
        "rounds": plan.n,
        "threshold": plan.k,
        "completeness_bound": {"value": plan.completeness_bound, "tol": plan.epsilon},
        "soundness_bound": {"value": plan.soundness_bound, "tol": plan.epsilon},
        "satisfied": plan.satisfied,
    }
    _emit(run.report(results), args)
    return EXIT_OK


def cmd_plot_entropy(args) -> int:
    run = _Run("plot-entropy")
    points = entropy_curve(args.min, args.max, args.step)
    lines = ["x,y"] + [f"{x:.12g},{y:.12g}" for x, y in points]
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        if not args.quiet:
            print(f"wrote {len(points)} samples to {args.out}")
    elif not args.quiet:
        sys.stdout.write(text)
    return EXIT_OK


# -- wiring --------------------------------------------------------------------------


def _add_common(sub, tol=False, max_iter=False):
    """``--out`` and ``--quiet``, and ``--tol`` or ``--max-iter`` where the
    command reads them."""
    if tol:
        sub.add_argument("--tol", type=float, default=1e-8, help="numerical tolerance")
    if max_iter:
        sub.add_argument("--max-iter", type=int, default=200, help="solver iteration cap")
    sub.add_argument("--out", help="write the JSON report to this path")
    sub.add_argument("--quiet", action="store_true", help="suppress stdout output")


@functools.cache
def build_parser() -> _Parser:
    """The command-line parser, built once per process; every parse
    returns a fresh namespace, and the ``cmd_*`` functions look up what
    they call at call time."""
    parser = _Parser(prog="hedgekit", description=__doc__)
    parser.add_argument("--version", action="version", version=f"hedgekit {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    ps = subs.add_parser("solve", help="solve a game's strategy SDP")
    ps.add_argument("game", help="game JSON file, or 'hedging' for the bundled game")
    ps.add_argument(
        "--objective", choices=("win", "value", "threshold"), default="win"
    )
    ps.add_argument("--values", help="comma-separated outcome values (value objective)")
    ps.add_argument("--reps", type=int, default=1, help="parallel repetitions")
    ps.add_argument("--wins", type=int, help="threshold k (threshold objective)")
    _add_common(ps, tol=True, max_iter=True)
    ps.set_defaults(func=cmd_solve)

    pc = subs.add_parser("certify", help="check a dual witness against a game")
    pc.add_argument("game", help="game JSON file, or 'hedging'")
    src = pc.add_mutually_exclusive_group(required=True)
    src.add_argument("--witness", help="witness JSON file")
    src.add_argument("--construction", choices=_CONSTRUCTIONS)
    pc.add_argument("--reps", type=int, help="parallel repetitions (default 1)")
    pc.add_argument("--wins", type=int)
    pc.add_argument("--values", help="comma-separated values (average construction, default 1 on a win)")
    pc.add_argument("--emit-witness", help="also write the witness JSON here")
    _add_common(pc, tol=True)
    pc.set_defaults(func=cmd_certify)

    pd = subs.add_parser("hedging-demo", help="reproduce the perfect-hedge example")
    _add_common(pd, tol=True, max_iter=True)
    pd.set_defaults(func=cmd_hedging_demo)

    pe = subs.add_parser("error-reduction", help="plan repetition-based error reduction")
    pe.add_argument("--alpha", type=float, required=True, help="completeness")
    pe.add_argument("--beta", type=float, required=True, help="soundness")
    pe.add_argument("--epsilon", type=float, required=True, help="target error")
    _add_common(pe)
    pe.set_defaults(func=cmd_error_reduction)

    pp = subs.add_parser("plot-entropy", help="emit the threshold curve as CSV")
    pp.add_argument("--min", type=float, required=True)
    pp.add_argument("--max", type=float, required=True)
    pp.add_argument("--step", type=float, required=True)
    _add_common(pp)
    pp.set_defaults(func=cmd_plot_entropy)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (SpaceError, ValidationError) as exc:
        print(f"hedgekit: error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except DomainError as exc:
        print(f"hedgekit: error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except NumericalError as exc:
        print(f"hedgekit: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
