"""Tests of the benchmark itself: its checks, its failure counting and
its span arithmetic.  Run with ``python -m pytest bench``."""
import dataclasses
import json
import shutil
import subprocess
import sys
import time
import types
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from checks import Failed, Wrong  # noqa: E402

from hedgekit import (  # noqa: E402
    classical_optimum,
    hedging_game,
    witness_recursive_snk,
    witness_tensor_power,
)
from hedgekit.hedging import hedging_optimal_witness  # noqa: E402


def fake_report(primal, dual=None, status="optimal"):
    dual = primal if dual is None else dual
    return types.SimpleNamespace(status=status, primal_value=primal, dual_value=dual,
                                 gap=abs(primal - dual), iterations=7)


# -- references agree with the library's own compilation -----------------------------


def test_hedging_outcomes_match_the_compiled_game():
    g = hedging_game()
    assert [l for l, _ in g.spaces] == ["Y1", "X1"]
    for ours, theirs in zip(checks.hedging_outcomes(), g.outcomes):
        assert np.allclose(ours, theirs.entries, atol=1e-14)


def test_diagonal_outcomes_and_enumeration_match_the_library():
    rng = np.random.default_rng(5)
    for _ in range(5):
        sigma, won = workloads.diagonal_tables(rng)
        g = workloads.games.outcome_operators_single_round(
            workloads.diagonal_spec(sigma, won))
        for ours, theirs in zip(checks.diagonal_outcomes(sigma, won), g.outcomes):
            assert np.allclose(ours, theirs.entries, atol=1e-14)
        assert checks.enumerate_classical_optimum(won @ sigma.T) == pytest.approx(
            classical_optimum(g), abs=1e-14)


def test_enumeration_matches_a_plain_loop():
    table = np.array([[0.1, 0.7, 0.2], [0.5, 0.3, 0.4]])
    best = max(sum(table[f[x], x] for x in range(3))
               for f in [(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)])
    assert checks.enumerate_classical_optimum(table) == pytest.approx(best)


# -- each check rejects a perturbed value ----------------------------------------------


def test_solve_check_accepts_the_reference_and_rejects_perturbations():
    tol = 1e-8
    assert checks.check_solve(fake_report(0.5, 0.5 + 1e-9), tol, reference=0.5) == 0.5
    with pytest.raises(Wrong):
        checks.check_solve(fake_report(0.5 + 1e-6), tol, reference=0.5)
    with pytest.raises(Wrong):
        checks.check_solve(fake_report(0.5 - 1e-6), tol, lower=0.5)
    with pytest.raises(Wrong):
        checks.check_solve(fake_report(0.5 + 1e-6), tol, upper=0.5)
    with pytest.raises(Wrong):
        checks.check_solve(fake_report(0.5, 0.5 + 1e-6), tol)
    with pytest.raises(Wrong):
        checks.check_solve(fake_report(0.5 + 1e-6, 0.5), tol)
    bad_gap = dataclasses.replace(
        workloads.hedging_rung(1, 1).run(), gap=1e-6)
    with pytest.raises(Wrong):
        checks.check_solve(bad_gap, tol)


def test_closed_forms_reject_a_perturbed_p():
    p = checks.P_HEDGE
    for construction, n, k in (("average", 3, 1), ("tensor-power", 3, 3),
                               ("naive", 3, 2), ("snk", 3, 2)):
        exact = checks.witness_trace(construction, p, n, k)
        checks.check_close(exact, exact, checks.TRACE_SLACK, construction)
        with pytest.raises(Wrong):
            checks.check_close(checks.witness_trace(construction, p + 1e-5, n, k), exact,
                               checks.TRACE_SLACK, construction)
    assert checks.binomial_tail(p, 2, 1) == pytest.approx(1 - (1 - p) ** 2)
    assert checks.hedging_threshold_value(3, 3) == pytest.approx(p**3)
    assert checks.hedging_threshold_value(3, 1) == 1.0
    assert checks.hedging_threshold_value(4, 2) == 1.0
    assert checks.hedging_threshold_value(3, 2) is None


@pytest.mark.parametrize("n,k", [(1, 1), (2, 1), (3, 2)])
def test_chain_check_accepts_snk_witnesses_and_rejects_shrunk_ones(n, k):
    g = hedging_game()
    w = witness_recursive_snk(hedging_optimal_witness(), g, n, k)
    spaces = [(l, d) for l, d in w.Y.spaces]
    weight = checks.threshold_weight(k)
    outcomes = checks.hedging_outcomes()
    lo = checks.chain_min_eigenvalue(spaces, w.Y.entries, outcomes, n, weight)
    assert lo >= -1e-12
    # shrinking Y by (slack + 1e-6) I leaves the inequality violated by 1e-6
    shrunk = w.Y.entries - (lo + 1e-6) * np.eye(w.Y.spaces.dim)
    assert checks.chain_min_eigenvalue(spaces, shrunk, outcomes, n, weight) == pytest.approx(
        -1e-6, abs=1e-10)


def test_chain_check_follows_witness_label_order():
    g = hedging_game()
    w = witness_tensor_power(hedging_optimal_witness(), 2, g)
    spaces = [(l, d) for l, d in w.Y.spaces]
    flipped = checks.permute_factors(w.Y.entries, [2, 2], [1, 0])
    outcomes = checks.hedging_outcomes()
    weight = checks.threshold_weight(2)
    a = checks.chain_min_eigenvalue(spaces, w.Y.entries, outcomes, 2, weight)
    b = checks.chain_min_eigenvalue(spaces[::-1], flipped, outcomes, 2, weight)
    assert a == pytest.approx(b, abs=1e-14)
    with pytest.raises(Wrong):
        checks.chain_min_eigenvalue([("X1", 2), ("X2", 2)], w.Y.entries, outcomes, 2, weight)


def test_solve_operation_rejects_a_tampered_report():
    op = workloads.hedging_rung(2, 2)
    report = op.run()
    assert op.check(report, {}) == pytest.approx(checks.P_HEDGE**2, abs=1e-7)
    tampered = dataclasses.replace(report, primal_value=report.primal_value + 1e-6,
                                   dual_value=report.dual_value + 1e-6)
    with pytest.raises(Wrong):
        op.check(tampered, {})


def test_certify_operation_rejects_a_tampered_witness(tmp_path):
    op = workloads.hedging_certify(str(tmp_path), "tensor-power", 2, 2)
    code = op.run()
    assert op.check(code, {}) == pytest.approx(checks.P_HEDGE**2, abs=1e-7)
    path = tmp_path / f"{op.name}.json"
    report = json.loads(path.read_text())
    entries = report["results"]["witness"]["Y"]["entries"]
    diagonal = entries[::5]
    for pair in diagonal:
        pair[0] -= 1e-6
    path.write_text(json.dumps(report))
    with pytest.raises(Wrong):
        op.check(code, {})
    for pair in diagonal:
        pair[0] += 1e-6
    report["results"]["witness_value"]["value"] += 1e-5
    path.write_text(json.dumps(report))
    with pytest.raises(Wrong):
        op.check(code, {})


def test_product_check_uses_the_round_results():
    op = workloads.product_ops("p", np.random.default_rng(3), 1e-8)
    results = {}
    for o in op:
        results[o.name] = o.check(o.run(), results)
    stacked = op[2]
    results["p-round1"] *= 1.0 + 1e-5
    with pytest.raises(Wrong):
        stacked.check(stacked.run(), results)


# -- failures are counted, not judged ---------------------------------------------------


def test_non_optimal_status_counts_as_failed_not_wrong():
    from hedgekit.errors import NumericalError

    def raise_numerical():
        raise NumericalError("Cholesky factorization failed")

    ops = [
        workloads.Op("stalled", lambda: fake_report(0.5, 0.6, "numerical-failure"),
                     workloads.expect(1e-8, 0.5)),
        workloads.Op("raised", raise_numerical, workloads.expect(1e-8)),
        workloads.Op("fine", lambda: fake_report(0.5), workloads.expect(1e-8, 0.5)),
        workloads.Op("wrong", lambda: fake_report(0.4), workloads.expect(1e-8, 0.5)),
        workloads.Op("dependent", lambda: fake_report(0.5), workloads.expect_from(
            1e-8, lambda results: workloads.earlier(results, "stalled"))),
    ]
    r = run.run_round(ops)
    assert [m.split(":")[0] for m in r.failed] == ["stalled", "raised", "dependent"]
    assert [m.split(":")[0] for m in r.wrong] == ["wrong"]
    assert len(r.op_s) == 5


def test_numerical_exit_code_counts_as_failed(tmp_path):
    op = workloads.certify_op(str(tmp_path), "x", [], lambda results, _: 0.0)
    with pytest.raises(Failed):
        op.check(3, {})
    with pytest.raises(Wrong):
        op.check(2, {})


# -- spans --------------------------------------------------------------------------------


def test_self_time_is_span_minus_children():
    tracer = tracing.Tracer()
    inner = tracer.wrap("solver.interior_point", lambda: time.sleep(0.002))

    def outer():
        time.sleep(0.001)
        inner()
        inner()
        return fake_report(0.5)

    tracer.wrap("sdp.solve", outer)()
    solve, first, second = tracer.spans
    assert solve.name == "sdp.solve" and solve.parent is None
    assert first.parent == second.parent == 0
    assert solve.self_time == pytest.approx(
        solve.duration - first.duration - second.duration, abs=1e-12)
    layers = tracing.layer_totals(tracer.spans)
    assert layers["sdp.solve_self_ms"] == pytest.approx(1000 * solve.self_time)
    assert layers["solver.ipm_ms"] == pytest.approx(
        1000 * (first.duration + second.duration))
    assert layers["solver.iterations"] == 7


def test_tracer_patches_callers_and_restores_them():
    from hedgekit import cli, games, sdp

    before = (cli.parallel_game, sdp._solver.interior_point, workloads.sdp.solve)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.parallel_game is games.parallel_game is not before[0]
        assert sdp._solver.interior_point is not before[1]
        workloads.hedging_rung(1, 1).run()
    finally:
        tracer.uninstall()
    assert (cli.parallel_game, sdp._solver.interior_point, workloads.sdp.solve) == before
    names = [s.name for s in tracer.spans]
    assert names == ["sdp.compile_primal", "sdp.solve", "solver.interior_point"]


# -- the entry point ----------------------------------------------------------------------


def test_run_refuses_a_tree_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns(".out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "hedge-n4", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_every_workload_builds_its_operations(tmp_path):
    for name, build in workloads.WORKLOADS.items():
        ops = build(3, str(tmp_path))
        assert len({op.name for op in ops}) == len(ops), name
    stalling = [op.name for op in workloads.small_sweep_ops(3, str(tmp_path))
                if "tol1e-10-stacked" in op.name]
    assert len(stalling) == len(workloads.STALLING_SEEDS)
