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


_REQUIRED = object()
_KINDS = {dict: "an object", list: "an array", int: "an integer", str: "a string",
          (int, float): "a number"}


def _is(value, kind) -> bool:
    """Whether a JSON value is a ``kind``; a bool is no number."""
    return isinstance(value, kind) and not isinstance(value, bool)


def _field(data: dict, key: str, kind, where: str, default=_REQUIRED):
    """``data[key]``, which must be a ``kind``; ``default`` when the field
    is absent, or null where ``default`` is None.  Raises
    :class:`ValidationError` naming the field otherwise."""
    if key not in data or data[key] is None and default is None:
        if default is _REQUIRED:
            raise ValidationError(f"{where} needs a {key!r} field")
        return default
    value = data[key]
    if not _is(value, kind):
        raise ValidationError(
            f"{where} field {key!r} must be {_KINDS[kind]}, got {type(value).__name__}"
        )
    return value


def _matrix_to_pairs(mat: np.ndarray):
    flat = np.asarray(mat, dtype=np.complex128).reshape(-1)
    return [[float(z.real), float(z.imag)] for z in flat]


def _pairs_to_matrix(pairs, rows: int, cols: int) -> np.ndarray:
    try:
        arr = np.asarray(pairs, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"operator field 'entries' must hold [re, im] number pairs: {exc}")
    if arr.shape != (rows * cols, 2):
        raise ValidationError(
            f"expected {rows * cols} [re, im] pairs, got shape {tuple(arr.shape)}"
        )
    with np.errstate(invalid="ignore"):  # 1j * inf; the operator refuses what is not finite
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
    if not isinstance(data, dict):
        raise ValidationError(f"operator JSON must be an object, got {type(data).__name__}")
    spaces = _spaces_from_json(_field(data, "spaces", list, "operator JSON"))
    mat = _pairs_to_matrix(_field(data, "entries", list, "operator JSON"), spaces.dim, spaces.dim)
    cls = DensityOperator if density else HermitianOperator
    return cls(spaces, mat)


# -- games -------------------------------------------------------------------------


def game_to_json(g: OutcomeOperators, winning=None) -> dict:
    """The operator form of ``g``.  ``winning`` lists outcome keys of
    ``g``; an entry that is no key is read as a position in ``g.outcomes``.
    Both are written as positions, which is how :func:`game_from_json`
    numbers the outcomes."""
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
        data["winning"] = sorted(_outcome_position(g, key) for key in winning)
    return data


def _outcome_position(g: OutcomeOperators, key) -> int:
    if key in g.outcome_keys:
        return g.outcome_keys.index(key)
    if _is(key, int) and 0 <= key < len(g.outcomes):
        return key
    raise ValidationError(f"unknown winning outcome {key!r}")


def _operators(data: dict, key: str, where: str, default=_REQUIRED) -> tuple:
    return tuple(operator_from_json(op) for op in _field(data, key, list, where, default))


def _winning(data: dict) -> tuple:
    winning = tuple(_field(data, "winning", list, "game JSON", ()))
    if not all(_is(key, int) for key in winning):
        raise ValidationError("game JSON field 'winning' must list outcome indices")
    return winning


def _round_labels(data: dict, key: str) -> tuple:
    groups = _field(data, key, list, "game JSON")
    if not all(isinstance(grp, list) and all(isinstance(l, str) for l in grp) for grp in groups):
        raise ValidationError(f"game JSON field {key!r} must list one array of labels per round")
    return tuple(tuple(grp) for grp in groups)


def game_from_json(data) -> tuple[OutcomeOperators, tuple]:
    """Load a game description; returns ``(game, winning outcome keys)``."""
    if not isinstance(data, dict) or "type" not in data:
        raise ValidationError("game JSON needs a 'type' field")
    kind = data["type"]
    if kind == "single_round":
        sigma = operator_from_json(_field(data, "sigma", dict, "game JSON"), density=True)
        measurement = _operators(data, "measurement", "game JSON")
        spec = SingleRoundGameSpec(sigma, measurement)
        game = outcome_operators_single_round(spec)
        return game, _winning(data)
    if kind == "operators":
        rounds = _field(data, "r", int, "game JSON")
        outcomes = _operators(data, "P", "game JSON")
        if not outcomes:
            raise ValidationError("game JSON field 'P' lists no outcome operators")
        rho = operator_from_json(_field(data, "rho", dict, "game JSON"), density=True)
        r_blocks = _operators(data, "R", "game JSON", ())
        spaces = outcomes[0].spaces
        if "x_rounds" in data and "y_rounds" in data:
            x_rounds = _round_labels(data, "x_rounds")
            y_rounds = _round_labels(data, "y_rounds")
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
        return game, _winning(data)
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
    if not isinstance(data, dict):
        raise ValidationError(f"witness JSON must be an object, got {type(data).__name__}")
    y = operator_from_json(_field(data, "Y", dict, "witness JSON"))
    blocks = _operators(data, "Y_blocks", "witness JSON", ())
    meta = dict(_field(data, "meta", dict, "witness JSON", {}))
    for key, kind in (("construction", str), ("n", int), ("k", int)):
        _field(meta, key, kind, "witness JSON 'meta'", None)
        value = _field(data, key, kind, "witness JSON", None)
        if value is not None:
            meta[key] = value
    values = _field(meta, "values", list, "witness JSON 'meta'", None) or ()
    if not all(_is(v, (int, float)) for v in values):
        raise ValidationError("witness JSON 'meta' field 'values' must list numbers")
    w = DualWitness(Y=y, Y_blocks=blocks, meta=meta)
    declared = _field(data, "value", (int, float), "witness JSON", None)  # json reads NaN
    if declared is not None and not abs(declared - w.value) <= 1e-8 * max(1.0, abs(w.value)):
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
