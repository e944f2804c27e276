import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from hedgekit import space
from hedgekit.errors import ValidationError
from hedgekit.hedging import hedging_game, hedging_optimal_witness
from hedgekit.sampling import random_density
from hedgekit.serialize import (
    game_from_json,
    game_to_json,
    operator_from_json,
    operator_to_json,
    witness_from_json,
    witness_to_json,
)
from hedgekit.witnesses import single_round_witness

from conftest import make_r2_product_game, random_hermitian


def test_operator_round_trip(rng):
    op = random_hermitian(rng, space(("A", 2), ("B", 3)))
    back = operator_from_json(operator_to_json(op))
    assert back.spaces == op.spaces
    assert_allclose(back.entries, op.entries, atol=1e-15)


def test_operator_number_format(rng):
    op = random_hermitian(rng, space(("A", 2)))
    data = operator_to_json(op)
    assert data["spaces"] == [["A", 2]]
    assert len(data["entries"]) == 4
    assert all(len(pair) == 2 for pair in data["entries"])
    # row-major: entry [0][1] is the (0, 1) matrix element
    assert data["entries"][1][0] == pytest.approx(op.entries[0, 1].real)
    assert data["entries"][1][1] == pytest.approx(op.entries[0, 1].imag)


def test_density_round_trip_validates(rng):
    rho = random_density(rng, space(("A", 2)))
    data = operator_to_json(rho)
    back = operator_from_json(data, density=True)
    assert back.trace() == pytest.approx(1.0, abs=1e-10)
    data["entries"][0] = [5.0, 0.0]
    with pytest.raises(ValidationError):
        operator_from_json(data, density=True)


def test_malformed_operator_rejected():
    with pytest.raises(ValidationError):
        operator_from_json({"spaces": [["A", 2]], "entries": [[1.0, 0.0]]})
    with pytest.raises(ValidationError):
        operator_from_json({"entries": []})


def test_game_round_trip_operators_form(hedging):
    data = game_to_json(hedging, winning=(1,))
    game, winning = game_from_json(data)
    assert winning == (1,)
    assert game.rounds == 1
    for a, b in zip(game.outcomes, hedging.outcomes):
        assert_allclose(a.entries, b.entries, atol=1e-15)


def test_single_round_operator_game_infers_its_rounds_from_rho(hedging):
    data = game_to_json(hedging, winning=(1,))
    del data["x_rounds"], data["y_rounds"]
    game, winning = game_from_json(data)
    assert winning == (1,)
    assert game.x_rounds == hedging.x_rounds and game.y_rounds == hedging.y_rounds
    assert game.spaces == hedging.spaces
    for a, b in zip(game.outcomes, hedging.outcomes):
        np.testing.assert_array_equal(a.entries, b.entries)
    np.testing.assert_array_equal(game.rho.entries, hedging.rho.entries)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_operator_with_a_non_finite_entry_is_refused(bad):
    data = operator_to_json(hedging_optimal_witness().Y)
    data["entries"][1][1] = bad
    with pytest.raises(ValidationError, match="non-finite entries"):
        operator_from_json(json.loads(json.dumps(data)))


def test_game_round_trip_with_tuple_outcome_keys():
    # winning is written as positions in outcome_keys, which game_from_json reads
    game = make_r2_product_game(np.random.default_rng(1))[2]
    back, winning = game_from_json(json.loads(json.dumps(game_to_json(game, winning=[(1, 1)]))))
    assert winning == (3,)
    assert back.outcome_keys == (0, 1, 2, 3)
    for a, b in zip(back.outcomes, game.outcomes):
        np.testing.assert_array_equal(a.entries, b.entries)
    with pytest.raises(ValidationError):
        game_to_json(game, winning=[(2, 2)])


def test_real_witness_round_trips_with_identical_entries(hedging):
    w = single_round_witness(hedging, hedging.outcomes[1])
    assert w.Y.entries.dtype == np.float64
    back = witness_from_json(json.loads(json.dumps(witness_to_json(w))))
    assert back.Y.entries.dtype == np.float64
    np.testing.assert_array_equal(back.Y.entries, w.Y.entries)


def test_game_single_round_form():
    from hedgekit.hedging import hedging_game_spec

    spec = hedging_game_spec()
    data = {
        "type": "single_round",
        "sigma": operator_to_json(spec.sigma),
        "measurement": [operator_to_json(q) for q in spec.measurement],
        "winning": [1],
    }
    game, winning = game_from_json(data)
    direct = hedging_game()
    for a, b in zip(game.outcomes, direct.outcomes):
        assert_allclose(a.entries, b.entries, atol=1e-12)


def test_game_requires_type():
    with pytest.raises(ValidationError):
        game_from_json({"P": []})


def test_two_round_game_round_trip(rng):
    from conftest import make_r2_product_game, random_hermitian

    _, _, stacked = make_r2_product_game(rng)
    data = game_to_json(stacked, winning=(3,))  # winning holds P-list indices
    assert data["x_rounds"] == [["X1"], ["X2"]]
    back, winning = game_from_json(data)
    assert winning == (3,)
    assert back.rounds == 2
    assert back.x_rounds == (("X1",), ("X2",))
    for a, b in zip(back.outcomes, stacked.outcomes):
        assert_allclose(a.entries, b.entries, atol=1e-15)
    assert_allclose(back.r_blocks[0].entries, stacked.r_blocks[0].entries, atol=1e-15)


def test_multi_round_game_needs_round_groups(rng):
    from conftest import make_r2_product_game, random_hermitian

    _, _, stacked = make_r2_product_game(rng)
    data = game_to_json(stacked)
    del data["x_rounds"]
    with pytest.raises(ValidationError):
        game_from_json(data)


def test_witness_round_trip():
    w = hedging_optimal_witness()
    data = witness_to_json(w)
    assert data["value"] == pytest.approx(w.value)
    back = witness_from_json(data)
    assert_allclose(back.Y.entries, w.Y.entries, atol=1e-15)
    assert back.meta["construction"] == "closed-form-optimal"


def test_witness_value_mismatch_rejected():
    data = witness_to_json(hedging_optimal_witness())
    data["value"] = 0.5
    with pytest.raises(ValidationError):
        witness_from_json(data)


@pytest.mark.parametrize("declared", ["NaN", "Infinity"])
def test_non_finite_declared_witness_value_rejected(declared):
    # json reads NaN, which no `difference > tolerance` test catches
    data = {**witness_to_json(hedging_optimal_witness()), "value": json.loads(declared)}
    with pytest.raises(ValidationError, match="declared witness value"):
        witness_from_json(data)

