import math
import os
import subprocess
import sys
import zipfile
from pathlib import Path

import numpy as np
import pytest

from hedgekit import cli
from hedgekit.cli import main
from hedgekit.errors import DomainError, NumericalError, SpaceError, ValidationError
from hedgekit.serialize import dump_json, game_to_json, load_json

from conftest import make_random_game, random_diagonal_density, random_diagonal_measurement

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


def test_solve_report_names_why_a_solve_is_not_optimal(tmp_path):
    out = tmp_path / "r.json"
    assert run("solve", "hedging", "--quiet", "--out", str(out)) == 0
    assert read(out)["results"]["reason"] is None
    assert run("solve", "hedging", "--max-iter", "1", "--quiet", "--out", str(out)) == 3
    results = read(out)["results"]
    assert results["status"] == "iteration-limit"
    assert results["reason"].startswith("iteration limit 1 reached; before the last step relgap ")


def test_bundled_game_loads_from_a_zipped_install(tmp_path):
    # a zip archive holds no directory for data/ to be found as a package,
    # so the bundled game is found through the hedgekit package itself
    package = Path(cli.__file__).parent
    archive = tmp_path / "hedgekit.zip"
    with zipfile.ZipFile(archive, "w") as zf:
        for path in sorted(package.rglob("*.py")) + sorted(package.rglob("*.json")):
            zf.write(path, path.relative_to(package.parent))
    script = (
        f"import sys; sys.path.insert(0, {str(archive)!r}); from hedgekit import cli; "
        "sys.exit(cli.main(['certify', 'hedging', '--construction', 'snk', '--reps', '2', "
        "'--wins', '1', '--quiet']))"
    )
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "-c", script], cwd=tmp_path, env=env, capture_output=True,
        text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr


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


def test_certify_missing_witness(tmp_path, capsys):
    assert run("certify", "hedging", "--witness", str(tmp_path / "nope.json"), "--quiet") == 1
    assert "cannot read witness file" in capsys.readouterr().err


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


@pytest.mark.parametrize(
    "argv",
    [
        ("solve", "hedging", "--objective", "threshold", "--reps", "-1", "--wins", "0"),
        ("certify", "hedging", "--construction", "naive", "--reps", "-2", "--wins", "0"),
    ],
    ids=["solve-threshold", "certify-naive"],
)
def test_negative_repetitions_are_named_before_the_threshold(argv, capsys):
    # the threshold's range 0..n is read only once n is a repetition count
    assert run(*argv, "--quiet") == 1
    err = capsys.readouterr().err
    assert "repetition count" in err and "Traceback" not in err


def snk_witness(tmp_path):
    path = tmp_path / "snk.json"
    code = run(
        "certify", "hedging", "--construction", "snk", "--reps", "2", "--wins", "1",
        "--quiet", "--emit-witness", str(path),
    )
    assert code == 0
    return load_json(path)


@pytest.mark.parametrize(
    "kind, edit",
    [
        ("game", lambda _: {"type": "operators"}),
        ("game", lambda _: {"type": "single_round"}),
        ("game", lambda _: {"type": "operators", "r": "x"}),
        ("witness", lambda w: {**w, "Y_blocks": 5}),
        ("witness", lambda w: {**w, "meta": [1]}),
        ("witness", lambda w: {**w, "value": "abc"}),
        ("witness", lambda w: {**w, "n": "2"}),
        ("witness", lambda w: {**w, "Y": {**w["Y"], "entries": "abc"}}),
    ],
    ids=["operators-no-r", "single-round-no-sigma", "text-r", "Y_blocks", "meta", "value",
         "text-n", "entries"],
)
def test_malformed_files_are_input_errors(kind, edit, tmp_path, capsys):
    path = tmp_path / f"{kind}.json"
    dump_json(edit(snk_witness(tmp_path) if kind == "witness" else None), path)
    if kind == "game":
        code = run("solve", str(path), "--quiet")
    else:
        code = run("certify", "hedging", "--witness", str(path), "--quiet")
    assert code == 1
    err = capsys.readouterr().err
    assert "hedgekit: error:" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("solve", "hedging", "--objective", "win", "--wins", "3"), "--wins"),
        (("solve", "hedging", "--objective", "threshold", "--reps", "2", "--wins", "1",
          "--values", "0,1"), "--values"),
        (("solve", "hedging", "--objective", "value", "--values", "0,1", "--reps", "2",
          "--wins", "1"), "--wins"),
        (("certify", "hedging", "--construction", "average", "--reps", "2", "--wins", "1"),
         "--wins"),
        (("certify", "hedging", "--construction", "naive", "--reps", "2", "--wins", "1",
          "--values", "0,1"), "--values"),
        (("certify", "hedging", "--construction", "tensor-power", "--reps", "2", "--wins", "2"),
         "--wins"),
        (("certify", "hedging", "--witness", "w.json", "--values", "0,1"), "--values"),
    ],
    ids=["win-wins", "threshold-values", "value-wins", "average-wins", "naive-values",
         "tensor-power-wins", "witness-values"],
)
def test_objectives_and_constructions_refuse_flags_they_do_not_read(argv, flag, capsys):
    assert run(*argv, "--quiet") == 1
    assert f"does not read {flag}" in capsys.readouterr().err


def test_certify_witness_falls_back_to_wins(tmp_path, capsys):
    path = tmp_path / "w.json"
    dump_json({**snk_witness(tmp_path), "k": None}, path)
    out = tmp_path / "r.json"
    code = run("certify", "hedging", "--witness", str(path), "--wins", "1", "--quiet",
               "--out", str(out))
    assert code == 0
    assert read(out)["results"]["wins"] == 1
    assert run("certify", "hedging", "--witness", str(path), "--quiet") == 1
    assert "needs --wins" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [("--reps", "3"), ("--wins", "2")])
def test_certify_witness_refuses_flags_the_file_overrides(flag, value, tmp_path, capsys):
    # the snk witness file carries n = 2, k = 1
    path = tmp_path / "w.json"
    dump_json(snk_witness(tmp_path), path)
    assert run("certify", "hedging", "--witness", str(path), flag, value, "--quiet") == 1
    err = capsys.readouterr().err
    assert f"hedgekit: error: the witness file sets {flag}" in err
    out = tmp_path / "r.json"
    assert run("certify", "hedging", "--witness", str(path), "--quiet", "--out", str(out)) == 0
    results = read(out)["results"]
    assert (results["reps"], results["wins"]) == (2, 1)


def test_solve_and_certify_build_no_parallel_game(tmp_path, monkeypatch):
    # The strategy SDP reads only the rounds, so solve and certify compile
    # and check against parallel_rounds; the demo still evaluates a
    # strategy on the outcome words of parallel_game.
    from hedgekit import cli
    from hedgekit.serialize import operator_to_json
    from hedgekit.spaces import space

    rng = np.random.default_rng(3)
    sigma = random_diagonal_density(rng, space(("X1", 2), ("Z", 2)))
    meas = random_diagonal_measurement(rng, space(("Y1", 2), ("Z", 2)), 2)
    diagonal = tmp_path / "diagonal.json"
    game = {
        "type": "single_round",
        "sigma": operator_to_json(sigma),
        "measurement": [operator_to_json(q) for q in meas],
        "winning": [1],
    }
    dump_json(game, diagonal)

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


def test_certify_witness_with_a_nan_value_is_refused(tmp_path, capsys):
    wfile = tmp_path / "w.json"
    dump_json({**snk_witness(tmp_path), "value": float("nan")}, wfile)
    assert run("certify", "hedging", "--witness", str(wfile), "--quiet") == 1
    assert "declared witness value nan" in capsys.readouterr().err


def bundled_game_data():
    from importlib import resources

    with resources.as_file(
        resources.files("hedgekit.data").joinpath("hedging_game.json")
    ) as path:
        return load_json(path)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_game_with_a_non_finite_entry_names_it(bad, tmp_path, capsys):
    # a NaN measurement entry used to be reported as "measurement operator is not PSD"
    data = bundled_game_data()
    data["measurement"][0]["entries"][0][0] = bad
    game = tmp_path / "nan.json"
    dump_json(data, game)
    assert run("solve", str(game), "--quiet") == 1
    err = capsys.readouterr().err
    assert "non-finite entries" in err and "PSD" not in err


def test_two_outcome_game_without_a_winning_set_wins_on_outcome_one(tmp_path):
    g = make_random_game(np.random.default_rng(3))
    game, out = tmp_path / "g.json", tmp_path / "r.json"
    dump_json(game_to_json(g), game)
    assert run("solve", str(game), "--quiet", "--out", str(out)) == 0
    from hedgekit import compile_primal, solve

    expect = solve(compile_primal(g, g.outcomes[1])).primal_value
    assert read(out)["results"]["primal_value"]["value"] == expect


@pytest.mark.parametrize(
    "values, message", [(None, "needs --values"), ("0,1,2", "3 values for 2 outcomes")]
)
def test_value_objective_needs_one_value_per_outcome(values, message, capsys):
    argv = ["solve", "hedging", "--objective", "value", "--quiet"]
    assert run(*argv, *([] if values is None else ["--values", values])) == 1
    assert message in capsys.readouterr().err


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


def test_plot_entropy_writes_to_stdout_or_names_its_file(tmp_path, capsys):
    argv = ["plot-entropy", "--min", "0.25", "--max", "1.0", "--step", "0.25"]
    assert run(*argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "x,y" and len(lines) == 5
    out = tmp_path / "curve.csv"
    assert run(*argv, "--out", str(out)) == 0
    assert capsys.readouterr().out == f"wrote 4 samples to {out}\n"
    assert out.read_text().splitlines() == lines


def test_plot_entropy_bad_range():
    assert run("plot-entropy", "--min", "0.9", "--max", "0.5", "--step", "0.1", "--quiet") == 1


@pytest.mark.parametrize("step", ["nan", "1e-320", "1e-12"])
def test_plot_entropy_unusable_step_is_input_error(step, capsys):
    assert run("plot-entropy", "--min", "0.1", "--max", "0.9", "--step", step, "--quiet") == 1
    assert "step" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ("solve", "hedging", "--objective", "value", "--values", "nan,1"),
        ("solve", "hedging", "--objective", "value", "--values", "0,-inf", "--reps", "2"),
        ("certify", "hedging", "--construction", "average", "--values", "1,inf"),
        ("certify", "hedging", "--construction", "average", "--values", "nan,1", "--reps", "2"),
    ],
    ids=["solve-nan", "solve-inf", "certify-inf", "certify-nan"],
)
def test_non_finite_values_are_input_errors(argv, capsys):
    assert run(*argv, "--quiet") == 1
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "-1"])
def test_certify_refuses_an_unusable_tolerance(tol, tmp_path, capsys):
    # a NaN or negative tolerance read every witness as infeasible, and
    # an infinite one passed any witness
    out = tmp_path / "r.json"
    code = run(
        "certify", "hedging", "--construction", "naive", "--reps", "2", "--wins", "1",
        f"--tol={tol}", "--quiet", "--out", str(out),
    )
    assert code == 1
    err = capsys.readouterr().err
    assert "--tol" in err and "Traceback" not in err
    assert not out.exists()


def test_main_runs_repeatedly_in_one_process(tmp_path, capsys):
    # the parser is built once and every call parses afresh
    out = tmp_path / "r.json"
    assert run("solve", "hedging", "--quiet", "--out", str(out)) == 0
    assert read(out)["results"]["status"] == "optimal"
    assert run("solve", "hedging", "--objective", "threshold", "--reps", "2", "--quiet") == 1
    assert "--wins" in capsys.readouterr().err
    assert run(
        "certify", "hedging", "--construction", "naive", "--reps", "2", "--wins", "1",
        "--quiet", "--out", str(out),
    ) == 0
    assert read(out)["results"]["feasible"] is True
    assert cli.build_parser() is cli.build_parser()


def test_reports_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run("solve", "hedging", "--quiet", "--out", str(a)) == 0
    assert run("solve", "hedging", "--quiet", "--out", str(b)) == 0
    ra, rb = read(a), read(b)
    assert ra["results"] == rb["results"]
    assert ra["inputs"] == rb["inputs"]


def test_unknown_command_is_input_error():
    assert run("frobnicate") == 1


@pytest.mark.parametrize(
    "error, code",
    [(SpaceError, 1), (ValidationError, 1), (DomainError, 2), (NumericalError, 3)],
)
def test_library_errors_map_to_one_exit_table(error, code, monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise error("raised in the solve")

    monkeypatch.setattr(cli, "solve", fail)
    assert run("solve", "hedging", "--quiet") == code
    err = capsys.readouterr().err
    assert err.startswith("hedgekit:") and "raised in the solve" in err
    assert "Traceback" not in err


def test_commands_refuse_flags_they_do_not_read():
    assert run(
        "error-reduction", "--alpha", "0.9", "--beta", "0.05", "--epsilon", "1e-3",
        "--tol", "1e-3", "--quiet",
    ) == 1
    assert run(
        "certify", "hedging", "--construction", "naive", "--reps", "2", "--wins", "1",
        "--max-iter", "5", "--quiet",
    ) == 1
