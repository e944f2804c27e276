"""JSON serialization for operators, games and witnesses.

Number format: every complex number is a ``[re, im]`` pair and every
matrix a row-major array of such pairs.  Operators carry their space
list as ``[[label, dim], ...]``.
"""
from __future__ import annotations

import json

import numpy as np

from .errors import ValidationError
from .games import OutcomeOperators, SingleRoundGameSpec, outcome_operators_single_round
from .operators import DensityOperator, HermitianOperator
from .sdp import DualWitness
from .spaces import SpaceList


def _matrix_to_pairs(mat: np.ndarray):
    flat = np.asarray(mat, dtype=np.complex128).reshape(-1)
    return [[float(z.real), float(z.imag)] for z in flat]


def _pairs_to_matrix(pairs, rows: int, cols: int) -> np.ndarray:
    arr = np.asarray(pairs, dtype=float)
    if arr.shape != (rows * cols, 2):
        raise ValidationError(
            f"expected {rows * cols} [re, im] pairs, got shape {tuple(arr.shape)}"
        )
    return (arr[:, 0] + 1j * arr[:, 1]).reshape(rows, cols)


def _spaces_to_json(spaces: SpaceList):
    return [[label, dim] for label, dim in spaces]


def _spaces_from_json(data) -> SpaceList:
    try:
        return SpaceList(tuple((str(l), int(d)) for l, d in data))
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"malformed space list {data!r}") from exc


def operator_to_json(op: HermitianOperator) -> dict:
    return {"spaces": _spaces_to_json(op.spaces), "entries": _matrix_to_pairs(op.entries)}


def operator_from_json(data, density: bool = False) -> HermitianOperator:
    if not isinstance(data, dict) or "spaces" not in data or "entries" not in data:
        raise ValidationError("operator JSON needs 'spaces' and 'entries' fields")
    spaces = _spaces_from_json(data["spaces"])
    mat = _pairs_to_matrix(data["entries"], spaces.dim, spaces.dim)
    cls = DensityOperator if density else HermitianOperator
    return cls(spaces, mat)


# -- games -------------------------------------------------------------------------


def game_to_json(g: OutcomeOperators, winning=None) -> dict:
    data = {
        "type": "operators",
        "r": g.rounds,
        "P": [operator_to_json(p) for p in g.outcomes],
        "rho": operator_to_json(g.rho),
        "R": [operator_to_json(r) for r in g.r_blocks],
        "x_rounds": [list(grp) for grp in g.x_rounds],
        "y_rounds": [list(grp) for grp in g.y_rounds],
    }
    if winning is not None:
        data["winning"] = sorted(winning)
    return data


def single_round_game_to_json(sigma, measurement, winning) -> dict:
    return {
        "type": "single_round",
        "sigma": operator_to_json(sigma),
        "measurement": [operator_to_json(q) for q in measurement],
        "winning": sorted(winning),
    }


def game_from_json(data) -> tuple[OutcomeOperators, tuple]:
    """Load a game description; returns ``(game, winning outcome keys)``."""
    if not isinstance(data, dict) or "type" not in data:
        raise ValidationError("game JSON needs a 'type' field")
    kind = data["type"]
    if kind == "single_round":
        sigma = operator_from_json(data["sigma"], density=True)
        measurement = tuple(operator_from_json(q) for q in data["measurement"])
        spec = SingleRoundGameSpec(sigma, measurement)
        game = outcome_operators_single_round(spec)
        winning = tuple(data.get("winning", ()))
        return game, winning
    if kind == "operators":
        rounds = int(data["r"])
        outcomes = tuple(operator_from_json(p) for p in data["P"])
        rho = operator_from_json(data["rho"], density=True)
        r_blocks = tuple(operator_from_json(r) for r in data.get("R", ()))
        spaces = outcomes[0].spaces
        if "x_rounds" in data and "y_rounds" in data:
            x_rounds = tuple(tuple(grp) for grp in data["x_rounds"])
            y_rounds = tuple(tuple(grp) for grp in data["y_rounds"])
        elif rounds == 1:
            x_rounds = (tuple(rho.spaces.labels),)
            y_rounds = (tuple(l for l in spaces.labels if l not in rho.spaces.labels),)
        else:
            raise ValidationError(
                "multi-round operator games need explicit 'x_rounds' and 'y_rounds'"
            )
        game = OutcomeOperators(
            rounds=rounds,
            spaces=spaces,
            x_rounds=x_rounds,
            y_rounds=y_rounds,
            outcomes=outcomes,
            rho=rho,
            r_blocks=r_blocks,
        )
        winning = tuple(data.get("winning", ()))
        return game, winning
    raise ValidationError(f"unknown game type {kind!r}")


# -- witnesses ----------------------------------------------------------------------


def witness_to_json(w: DualWitness) -> dict:
    meta = {k: v for k, v in w.meta.items()}
    return {
        "construction": meta.pop("construction", "custom"),
        "n": meta.pop("n", None),
        "k": meta.pop("k", None),
        "Y": operator_to_json(w.Y),
        "Y_blocks": [operator_to_json(b) for b in w.Y_blocks],
        "value": w.value,
        "meta": meta,
    }


def witness_from_json(data) -> DualWitness:
    if "Y" not in data:
        raise ValidationError("witness JSON needs a 'Y' field")
    y = operator_from_json(data["Y"])
    blocks = tuple(operator_from_json(b) for b in data.get("Y_blocks", ()))
    meta = dict(data.get("meta", {}))
    for key in ("construction", "n", "k"):
        if data.get(key) is not None:
            meta[key] = data[key]
    w = DualWitness(rounds=len(blocks) + 1, Y=y, Y_blocks=blocks, meta=meta)
    declared = data.get("value")
    if declared is not None and abs(float(declared) - w.value) > 1e-8 * max(
        1.0, abs(w.value)
    ):
        raise ValidationError(
            f"declared witness value {declared!r} does not match Tr(Y) = {w.value!r}"
        )
    return w


# -- files -------------------------------------------------------------------------


def dump_json(data, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
