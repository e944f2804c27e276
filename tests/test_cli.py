import math

import numpy as np
import pytest

from hedgekit.cli import main
from hedgekit.serialize import dump_json, game_to_json, load_json

from conftest import make_random_game

P = math.cos(math.pi / 8) ** 2


def read(path):
    return load_json(path)


def run(*argv):
    return main(list(argv))


def test_solve_bundled_win(tmp_path):
    out = tmp_path / "r.json"
    code = run("solve", "hedging", "--quiet", "--out", str(out))
    assert code == 0
    rep = read(out)
    assert rep["results"]["status"] == "optimal"
    assert rep["results"]["primal_value"]["value"] == pytest.approx(P, abs=1e-6)
    assert rep["results"]["primal_value"]["tol"] == 1e-8
    assert rep["command"] == "solve"
    assert rep["inputs"]  # digest of the bundled file recorded


def test_solve_threshold(tmp_path):
    out = tmp_path / "r.json"
    code = run(
        "solve", "hedging", "--objective", "threshold", "--reps", "2", "--wins", "1",
        "--quiet", "--out", str(out),
    )
    assert code == 0
    assert read(out)["results"]["primal_value"]["value"] == pytest.approx(1.0, abs=1e-6)


def test_solve_value_objective(tmp_path):
    out = tmp_path / "r.json"
    code = run(
        "solve", "hedging", "--objective", "value", "--values", "0,1", "--reps", "2",
        "--quiet", "--out", str(out),
    )
    assert code == 0
    assert read(out)["results"]["primal_value"]["value"] == pytest.approx(P, abs=1e-5)


def test_solve_malformed_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    out = tmp_path / "r.json"
    code = run("solve", str(bad), "--quiet", "--out", str(out))
    assert code == 1
    assert not out.exists()


def test_solve_missing_game(tmp_path):
    assert run("solve", str(tmp_path / "nope.json"), "--quiet") == 1


def test_certify_snk(tmp_path):
    out = tmp_path / "r.json"
    code = run(
        "certify", "hedging", "--construction", "snk", "--reps", "2", "--wins", "1",
        "--quiet", "--out", str(out),
    )
    assert code == 0
    rep = read(out)
    assert rep["results"]["feasible"] is True
    assert rep["results"]["witness_value"]["value"] == pytest.approx(2 * P, abs=1e-6)


def test_certify_tensor_power(tmp_path):
    out = tmp_path / "r.json"
    code = run(
        "certify", "hedging", "--construction", "tensor-power", "--reps", "2",
        "--quiet", "--out", str(out),
    )
    assert code == 0
    assert read(out)["results"]["witness_value"]["value"] == pytest.approx(P**2, abs=1e-6)


def test_certify_average_scores_the_winning_set(tmp_path):
    # The bundled game with its outcomes reversed wins on outcome 0; without
    # --values the averaged witness is built and checked for that win rate.
    from importlib import resources

    with resources.as_file(
        resources.files("hedgekit.data").joinpath("hedging_game.json")
    ) as path:
        data = load_json(path)
    data["measurement"] = data["measurement"][::-1]
    data["winning"] = [0]
    game = tmp_path / "reversed.json"
    dump_json(data, game)
    out, wfile, again = tmp_path / "r.json", tmp_path / "w.json", tmp_path / "r2.json"
    code = run(
        "certify", str(game), "--construction", "average", "--reps", "2",
        "--emit-witness", str(wfile), "--quiet", "--out", str(out),
    )
    assert code == 0
    res = read(out)["results"]
    assert res["feasible"] is True
    assert res["witness_value"]["value"] == pytest.approx(P, abs=1e-8)
    code = run("certify", str(game), "--witness", str(wfile), "--quiet", "--out", str(again))
    assert code == 0
    assert read(again)["results"]["feasible"] is True
    assert read(again)["results"]["witness_value"]["value"] == pytest.approx(
        res["witness_value"]["value"], abs=1e-12
    )


def test_certify_average_with_values_needs_no_winning_set(tmp_path, capsys):
    # a three-outcome game with no 'winning' set: the value objective reads
    # --values alone, so certify accepts the game that solve accepts
    game = tmp_path / "three.json"
    dump_json(game_to_json(make_random_game(np.random.default_rng(7), outcomes=3)), game)
    values = ("--values", "0.2,0.5,1", "--reps", "2", "--quiet")
    solved, checked = tmp_path / "s.json", tmp_path / "c.json"
    assert run("solve", str(game), "--objective", "value", *values, "--out", str(solved)) == 0
    code = run("certify", str(game), "--construction", "average", *values, "--out", str(checked))
    assert code == 0
    res = read(checked)["results"]
    assert res["feasible"] is True
    assert res["witness_value"]["value"] >= read(solved)["results"]["primal_value"]["value"]
    # without --values the default reads the winning set, which is missing
    code = run("certify", str(game), "--construction", "average", "--reps", "2", "--quiet")
    assert code == 1
    assert "no 'winning' set" in capsys.readouterr().err


def test_certify_classical_binomial_refused_on_quantum_game(capsys):
    code = run(
        "certify", "hedging", "--construction", "classical-binomial",
        "--reps", "2", "--wins", "1", "--quiet",
    )
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("certify", "hedging", "--construction", "naive", "--reps", "0", "--wins", "0"),
        ("certify", "hedging", "--construction", "snk", "--reps", "0", "--wins", "0"),
        ("certify", "hedging", "--construction", "tensor-power", "--reps", "0"),
        ("solve", "hedging", "--objective", "threshold", "--reps", "0", "--wins", "0"),
        ("solve", "hedging", "--objective", "value", "--values", "0,1", "--reps", "0"),
        # the win objective is one copy: --reps 4 must not solve it silently
        ("solve", "hedging", "--reps", "4"),
    ],
    ids=["naive", "snk", "tensor-power", "threshold", "value", "win-reps"],
)
def test_zero_repetitions_is_input_error(argv, capsys):
    assert run(*argv, "--quiet") == 1
    err = capsys.readouterr().err
    assert "hedgekit: error:" in err
    assert "Traceback" not in err


def test_solve_and_certify_build_no_parallel_game(tmp_path, monkeypatch):
    # The strategy SDP reads only the rounds, so solve and certify compile
    # and check against parallel_rounds; the demo still evaluates a
    # strategy on the outcome words of parallel_game.
    from hedgekit import cli
    from hedgekit.sampling import random_diagonal_density, random_diagonal_measurement
    from hedgekit.serialize import single_round_game_to_json
    from hedgekit.spaces import space

    rng = np.random.default_rng(3)
    sigma = random_diagonal_density(rng, space(("X1", 2), ("Z", 2)))
    meas = random_diagonal_measurement(rng, space(("Y1", 2), ("Z", 2)), 2)
    diagonal = tmp_path / "diagonal.json"
    dump_json(single_round_game_to_json(sigma, meas, [1]), diagonal)

    def refuse(*args):
        raise AssertionError("parallel_game was called")

    monkeypatch.setattr(cli, "parallel_game", refuse)
    runs = [
        ("solve", "hedging", "--objective", "threshold", "--wins", "2"),
        ("solve", "hedging", "--objective", "value", "--values", "0,1"),
        ("certify", "hedging", "--construction", "average"),
        ("certify", "hedging", "--construction", "tensor-power"),
        ("certify", "hedging", "--construction", "naive", "--wins", "2"),
        ("certify", "hedging", "--construction", "snk", "--wins", "2"),
        ("certify", str(diagonal), "--construction", "classical-binomial", "--wins", "2"),
    ]
    for argv in runs:
        assert run(*argv, "--reps", "4", "--quiet") == 0, argv
    with pytest.raises(AssertionError, match="parallel_game"):
        run("hedging-demo", "--quiet")


def test_certify_witness_round_trip(tmp_path):
    wfile = tmp_path / "w.json"
    first = tmp_path / "r1.json"
    code = run(
        "certify", "hedging", "--construction", "naive", "--reps", "2", "--wins", "1",
        "--quiet", "--out", str(first), "--emit-witness", str(wfile),
    )
    assert code == 0
    second = tmp_path / "r2.json"
    code = run(
        "certify", "hedging", "--witness", str(wfile), "--quiet", "--out", str(second)
    )
    assert code == 0
    a, b = read(first)["results"], read(second)["results"]
    assert a["feasible"] == b["feasible"] is True
    assert b["witness_value"]["value"] == pytest.approx(
        a["witness_value"]["value"], abs=1e-12
    )


def test_certify_infeasible_witness(tmp_path):
    # a too-small scaled witness cannot dominate the threshold objective
    from hedgekit.hedging import hedging_game, hedging_optimal_witness
    from hedgekit.serialize import witness_to_json
    from hedgekit import DualWitness
    from hedgekit.witnesses import witness_tensor_power

    w = witness_tensor_power(hedging_optimal_witness(), 2, hedging_game())
    shrunk = DualWitness(Y=0.5 * w.Y, meta={"n": 2, "k": 2})
    wfile = tmp_path / "w.json"
    dump_json(witness_to_json(shrunk), wfile)
    code = run("certify", "hedging", "--witness", str(wfile), "--quiet")
    assert code == 2


def test_hedging_demo(tmp_path):
    out = tmp_path / "demo.json"
    code = run("hedging-demo", "--quiet", "--out", str(out))
    assert code == 0
    res = read(out)["results"]
    assert res["single_rep_optimum"]["value"] == pytest.approx(P, abs=1e-6)
    assert res["two_rep_win_at_least_once"]["value"] == pytest.approx(1.0, abs=1e-6)
    assert abs(res["phase_flip_lose_both"]["value"]) <= 1e-12
    assert res["independent_play_tail"]["value"] == pytest.approx(
        1 - (1 - P) ** 2, abs=1e-9
    )


def test_hedging_demo_reports_a_stalled_solve(tmp_path):
    out = tmp_path / "demo.json"
    assert run("hedging-demo", "--max-iter", "2", "--quiet", "--out", str(out)) == 3
    res = read(out)["results"]
    assert res["single_rep_solve"] == {"status": "iteration-limit", "iterations": 2}
    assert res["two_rep_solve"]["status"] == "iteration-limit"


def test_error_reduction_plan(tmp_path):
    out = tmp_path / "plan.json"
    code = run(
        "error-reduction", "--alpha", "0.9", "--beta", "0.05", "--epsilon", "1e-3",
        "--quiet", "--out", str(out),
    )
    assert code == 0
    res = read(out)["results"]
    assert res["satisfied"] is True
    assert res["completeness_bound"]["value"] <= 1e-3
    assert res["soundness_bound"]["value"] <= 1e-3


def test_error_reduction_condition_fails(capsys):
    code = run(
        "error-reduction", "--alpha", "0.6", "--beta", "0.59", "--epsilon", "1e-3",
        "--quiet",
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "0.3257" in err  # diagnostic carries the computed threshold


def test_error_reduction_refused_plan_is_domain_outcome(capsys):
    # the threshold condition holds, but no threshold fraction below alpha
    # makes the soundness bound decay: a refused reduction, not bad input
    code = run(
        "error-reduction", "--alpha", "0.9", "--beta", "0.69", "--epsilon", "1e-3",
        "--quiet",
    )
    assert code == 2
    assert "no admissible threshold fraction" in capsys.readouterr().err


def test_error_reduction_epsilon_out_of_range():
    code = run(
        "error-reduction", "--alpha", "0.9", "--beta", "0.05", "--epsilon", "0.6",
        "--quiet",
    )
    assert code == 1


def test_plot_entropy_csv(tmp_path):
    out = tmp_path / "curve.csv"
    code = run(
        "plot-entropy", "--min", "0.25", "--max", "1.0", "--step", "0.25",
        "--quiet", "--out", str(out),
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "x,y"
    assert len(lines) == 5
    last_x, last_y = (float(v) for v in lines[-1].split(","))
    assert last_x == 1.0 and last_y == pytest.approx(1.0)
    # 12 significant digits survive in the CSV
    x, y = (float(v) for v in lines[1].split(","))
    import math as _m

    expect = 2.0 ** (-((-0.25 * _m.log2(0.25) - 0.75 * _m.log2(0.75)) / 0.25))
    assert y == pytest.approx(expect, rel=1e-11)


def test_plot_entropy_bad_range():
    assert run("plot-entropy", "--min", "0.9", "--max", "0.5", "--step", "0.1", "--quiet") == 1


def test_reports_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run("solve", "hedging", "--quiet", "--out", str(a)) == 0
    assert run("solve", "hedging", "--quiet", "--out", str(b)) == 0
    ra, rb = read(a), read(b)
    assert ra["results"] == rb["results"]
    assert ra["inputs"] == rb["inputs"]


def test_unknown_command_is_input_error():
    assert run("frobnicate") == 1
