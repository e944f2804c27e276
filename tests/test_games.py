import itertools

import numpy as np
import pytest
from numpy.testing import assert_allclose

from hedgekit import (
    KrausChannel,
    Rounds,
    SingleRoundGameSpec,
    StrategyChoi,
    apply_channel,
    choi,
    dephase,
    dephase_game,
    group_outcomes,
    identity,
    inner,
    kron,
    outcome_operators_single_round,
    outcome_probabilities,
    parallel_game,
    parallel_rounds,
    permute_systems,
    space,
    threshold_objective,
    value_objective,
)
from hedgekit.errors import SpaceError, ValidationError
from hedgekit.games import (
    copy_split,
    repetitions,
    strategy_from_channel,
    tensor_word,
    word_sum,
)
from hedgekit.hedging import WIN_PROBABILITY, hedging_game, phase_flip_strategy

from hedgekit.sampling import random_channel, random_density, random_measurement

from conftest import PARALLEL_CASES, make_random_game, parallel_base


# ------------------------------------------------------- single-round compile


def test_hedging_identity_strategy_wins_cos2():
    g = hedging_game()
    ch = KrausChannel(space(("X1", 2)), space(("Y1", 2)), (np.eye(2),))
    assert inner(g.outcomes[1], choi(ch)) == pytest.approx(WIN_PROBABILITY, abs=1e-12)


def test_hedging_consistency_sum_is_half_identity():
    g = hedging_game()
    total = g.outcomes[0] + g.outcomes[1]
    assert_allclose(total.entries, np.eye(4) / 2, atol=1e-12)
    assert_allclose(g.rho.entries, np.eye(2) / 2, atol=1e-12)


def test_defining_property_against_simulation(rng):
    # The operators must reproduce direct channel simulation for every
    # outcome: <P_k, J(Phi)> = Tr[Q_k (Phi (x) 1)(sigma)].
    for _ in range(20):
        dq, dz, dy = (int(d) for d in rng.integers(2, 4, size=3))
        t = int(rng.integers(2, 4))
        xq, z, ya = space(("X1", dq)), space(("Z", dz)), space(("Y1", dy))
        spec = SingleRoundGameSpec(
            random_density(rng, xq.concat(z)),
            random_measurement(rng, ya.concat(z), t),
        )
        game = outcome_operators_single_round(spec)
        for _ in range(20):
            ch = random_channel(rng, xq, ya)
            j = choi(ch)
            final = apply_channel(ch, spec.sigma)
            for p, q in zip(game.outcomes, spec.measurement):
                assert inner(p, j) == pytest.approx(inner(q, final), abs=1e-9)


def test_incomplete_measurement_rejected(rng):
    xq, z, ya = space(("X1", 2)), space(("Z", 2)), space(("Y1", 2))
    sigma = random_density(rng, xq.concat(z))
    q0, q1 = random_measurement(rng, ya.concat(z), 2)
    with pytest.raises(ValidationError):
        SingleRoundGameSpec(sigma, (q0, q1 * 0.5))


@pytest.mark.parametrize("dq,dy", [(5, 2), (3, 1), (9, 4)])
def test_questions_wider_than_two_answers_compile(dq, dy):
    # The simulation cross-check draws enough Kraus operators for an
    # isometry from the question space, so these games compile.
    rng = np.random.default_rng(dq * 10 + dy)
    g = make_random_game(rng, dq=dq, dy=dy)
    assert (g.question(1).dim, g.answer(1).dim) == (dq, dy)
    ch = random_channel(rng, g.question(1), g.answer(1), kraus_count=-(-dq // dy))
    probs = outcome_probabilities(g, strategy_from_channel(ch))
    assert sum(probs) == pytest.approx(1.0, abs=1e-9)


def test_random_channel_refuses_too_few_kraus_operators(rng):
    with pytest.raises(ValidationError, match="kraus_count"):
        random_channel(rng, space(("X1", 5)), space(("Y1", 2)))
    random_channel(rng, space(("X1", 5)), space(("Y1", 2)), kraus_count=3)


# ------------------------------------------------------------------- parallel


def test_parallel_single_copy_keeps_labels(hedging):
    pg = parallel_game(hedging, 1)
    assert pg.spaces == hedging.spaces
    assert (pg.x_rounds, pg.y_rounds) == (hedging.x_rounds, hedging.y_rounds)
    assert pg.outcome_keys == ((0,), (1,))
    for p, q in zip(pg.outcomes, hedging.outcomes):
        assert p.spaces == q.spaces
        assert np.array_equal(p.entries, q.entries)
    assert np.array_equal(pg.rho.entries, hedging.rho.entries)


def test_parallel_two_copies_tensor_words(hedging):
    pg = parallel_game(hedging, 2)
    assert pg.outcome_keys == ((0, 0), (0, 1), (1, 0), (1, 1))
    word = kron(
        hedging.outcomes[0].relabel({"Y1": "Y1#1", "X1": "X1#1"}),
        hedging.outcomes[0].relabel({"Y1": "Y1#2", "X1": "X1#2"}),
    )
    assert_allclose(pg.outcomes[0].entries, word.entries, atol=1e-14)
    assert pg.outcomes[0].trace() == pytest.approx(
        hedging.outcomes[0].trace() ** 2, abs=1e-12
    )


def test_parallel_consistency_sum(rng):
    g = make_random_game(rng, outcomes=3)
    pg = parallel_game(g, 2)
    total = pg.outcomes[0]
    for p in pg.outcomes[1:]:
        total = total + p
    expect = kron(
        identity(pg.spaces.restrict(pg.y_rounds[0])), pg.rho
    )
    aligned = permute_systems(expect, total.spaces.labels)
    assert_allclose(total.entries, aligned.entries, atol=1e-9)


@pytest.mark.parametrize("n", [2, 3])
def test_parallel_word_psd_check_uses_copy_spectra(hedging, monkeypatch, n):
    # The n-fold words are checked PSD from products of the per-copy
    # spectra: no eigensolve runs on a word, and the derived minimum
    # eigenvalues are those of the words.
    from hedgekit import games

    solved, derived = [], []
    original = games.min_eigenvalue
    monkeypatch.setattr(games, "min_eigenvalue", lambda op: solved.append(op) or original(op))
    validate = games.OutcomeOperators._validate
    monkeypatch.setattr(
        games.OutcomeOperators, "_validate",
        lambda self, lows=None: derived.append(lows) or validate(self, lows),
    )
    pg = parallel_game(hedging, n)
    assert solved == []
    expect = [np.linalg.eigvalsh(w.entries)[0] for w in pg.outcomes]
    assert len(derived) == 1
    assert_allclose(derived[0], expect, atol=1e-12)


def test_parallel_cap_enforced(hedging):
    with pytest.raises(ValidationError):
        parallel_game(hedging, 5)  # 4^5 = 1024 > 256


@pytest.mark.parametrize("name,n", PARALLEL_CASES)
def test_parallel_rounds_match_parallel_game(name, n):
    g = parallel_base(name)
    rounds, game = parallel_rounds(g, n), parallel_game(g, n)
    assert type(rounds) is Rounds
    assert rounds.rounds == game.rounds == g.rounds
    assert (rounds.x_rounds, rounds.y_rounds) == (game.x_rounds, game.y_rounds)
    assert sorted(rounds.spaces) == sorted(game.spaces)  # same labels, same dims


def test_rounds_spaces():
    r = Rounds(2, space(("Y1", 3), ("X1", 2), ("X2", 5), ("Y2", 7)), (("X1",), ("X2",)),
               (("Y1",), ("Y2",)))
    assert (r.question(2).dim, r.answer(1).dim) == (5, 3)
    assert r.block(1).labels == ("Y1", "X1")
    assert r.block(2).labels == ("Y1", "X1", "Y2", "X2")
    assert r.family(1).labels == ("X1",)
    assert r.family(2).labels == ("Y1", "X1", "X2")


def test_rounds_validated(hedging):
    # The rounds hold labels only, so they build past the desk cap; the
    # first operator past it is refused where it is built.
    assert parallel_rounds(hedging, 8).block(1).dim == 4**8
    for build in (lambda: threshold_objective(hedging, 5, 2), lambda: parallel_game(hedging, 5)):
        with pytest.raises(ValidationError, match="desk-scale cap"):
            build()
    sp = space(("Y1", 2), ("X1", 2))
    with pytest.raises(ValidationError):
        Rounds(2, sp, (("X1",),), (("Y1",),))  # one group for two rounds
    with pytest.raises(SpaceError):
        Rounds(1, sp, (("X1",),), (("Z",),))  # Y1 missing, Z unknown


def _two_labels_per_round():
    return Rounds(2, space(("Y1", 2), ("A1", 3), ("X1", 2), ("Y2", 1), ("X2", 5)),
                  (("X1",), ("X2",)), (("Y1", "A1"), ("Y2",)))


@pytest.mark.parametrize("n", range(2, 9))
def test_copy_split_inverts_the_repetition_labels(hedging, n):
    r = parallel_rounds(hedging, n)
    assert copy_split(r.spaces, r.y_rounds[0]) == copy_split(r.spaces, r.x_rounds[0]) == (n, 2)
    r = parallel_rounds(_two_labels_per_round(), n)
    assert copy_split(r.spaces, r.y_rounds[0]) == (n, 6)  # two labels per copy
    assert [copy_split(r.spaces, grp) for grp in r.x_rounds] == [(n, 2), (n, 5)]
    assert copy_split(r.spaces, r.y_rounds[1]) == (n, 1)


def test_copy_split_near_misses():
    sp = space(("X#1", 2), ("X#2", 2), ("X#3", 3), ("Y#1", 2), ("Y#2", 2), ("Y#3", 2), ("X", 2))
    for labels in (
        ("X#2", "X#1"),  # copies out of order
        ("X#1", "X#2", "X#3"),  # unequal per-copy dimensions
        ("Y#1", "Y#3"),  # a missing copy
        ("Y#1",),  # n = 1
        ("X",),  # a single copy keeps its label
        ("Y#1", "X#1", "Y#2"),  # a label of copy 1 with no copy 2
    ):
        assert copy_split(sp, labels) == (0, 0), labels
    r = parallel_rounds(_two_labels_per_round(), 3)
    assert copy_split(r.spaces, ("Y1#1", "A1#1", "A1#2", "Y1#2", "Y1#3", "A1#3")) == (0, 0)
    assert copy_split(r.spaces, r.x_rounds[0] + r.x_rounds[1]) == (0, 0)


# ------------------------------------------------------------------ objectives


def test_threshold_objective_enumeration(hedging):
    obj = threshold_objective(hedging, 2, 1)
    p0 = hedging.outcomes[0]
    p1 = hedging.outcomes[1]

    def rep(op, m):
        return op.relabel({"Y1": f"Y1#{m}", "X1": f"X1#{m}"})

    expect = (
        kron(rep(p0, 1), rep(p1, 2))
        + kron(rep(p1, 1), rep(p0, 2))
        + kron(rep(p1, 1), rep(p1, 2))
    )
    assert_allclose(obj.entries, expect.entries, atol=1e-13)


def test_threshold_objective_k0_is_consistency(hedging):
    obj = threshold_objective(hedging, 1, 0)
    expect = kron(identity(space(("Y1", 2))), hedging.rho)
    assert_allclose(obj.entries, permute_systems(expect, obj.spaces.labels).entries)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_word_sum_by_win_count_matches_enumeration(hedging, n):
    complex_game = make_random_game(np.random.default_rng(11))
    reps = repetitions(n)
    for g in (hedging, complex_game):
        f0, f1 = g.outcomes
        for k in range(n + 1):
            for passes in (lambda o: o >= k, lambda o: o == k, lambda o: o == 1):
                words = [
                    tensor_word([f1 if b else f0 for b in bits], reps)
                    for bits in itertools.product((0, 1), repeat=n)
                    if passes(sum(bits))
                ]
                got = word_sum(f0, f1, reps, passes)
                if not words:
                    assert got is None
                    continue
                expect = sum(words[1:], words[0])
                assert got.spaces == expect.spaces
                bound = 1e-15 * max(1.0, np.max(np.abs(expect.entries)))
                assert np.max(np.abs(got.entries - expect.entries)) <= bound


def test_threshold_summand_count():
    # n=3, k=2 keeps C(3,2) + C(3,3) = 4 of the 8 words.
    words = [bits for bits in itertools.product((0, 1), repeat=3) if sum(bits) >= 2]
    assert len(words) == 4


def test_threshold_requires_two_outcomes(rng):
    g = make_random_game(rng, outcomes=3)
    with pytest.raises(ValidationError):
        threshold_objective(g, 2, 1)


def test_value_objective_reduces_at_n1(hedging):
    obj = value_objective(hedging, (0.0, 1.0), 1)
    assert_allclose(obj.entries, hedging.outcomes[1].entries)
    assert obj.spaces == hedging.outcomes[1].spaces


def test_value_objective_two_reps(hedging):
    obj = value_objective(hedging, (0.0, 1.0), 2)
    p0, p1 = hedging.outcomes

    def rep(op, m):
        return op.relabel({"Y1": f"Y1#{m}", "X1": f"X1#{m}"})

    expect = (
        0.5 * kron(rep(p0, 1), rep(p1, 2))
        + 0.5 * kron(rep(p1, 1), rep(p0, 2))
        + kron(rep(p1, 1), rep(p1, 2))
    )
    assert_allclose(obj.entries, expect.entries, atol=1e-13)


def test_value_objective_constant_values(rng):
    g = make_random_game(rng, outcomes=3)
    obj = value_objective(g, (0.7, 0.7, 0.7), 2)
    pg = parallel_game(g, 2)
    expect = 0.7 * kron(identity(pg.spaces.restrict(pg.y_rounds[0])), pg.rho)
    aligned = permute_systems(expect, obj.spaces.labels)
    assert_allclose(obj.entries, aligned.entries, atol=1e-9)


def test_value_objective_length_mismatch(hedging):
    with pytest.raises(ValidationError):
        value_objective(hedging, (0.0, 1.0, 2.0), 1)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_value_objective_refuses_non_finite_values(hedging, bad):
    for values in ((bad, 1.0), (0.0, bad)):
        with pytest.raises(ValidationError, match="finite"):
            value_objective(hedging, values, 2)


# ------------------------------------------------------------------ strategies


def test_strategy_from_identity_channel():
    ch = KrausChannel(space(("X1", 2)), space(("Y1", 2)), (np.eye(2),))
    s = strategy_from_channel(ch)
    expect = np.zeros((4, 4))
    for i in range(2):
        for k in range(2):
            expect[2 * i + i, 2 * k + k] = 1.0
    assert_allclose(s.X.entries, expect)


def test_strategy_chain_from_random_channel(rng):
    ch = random_channel(rng, space(("X1", 3)), space(("Y1", 2)))
    s = strategy_from_channel(ch)
    from hedgekit import partial_trace

    reduced = partial_trace(s.X, {"Y1"})
    assert_allclose(reduced.entries, np.eye(3), atol=1e-10)


def test_phase_flip_strategy_is_valid_16_dim():
    s = phase_flip_strategy()
    assert s.X.dim == 16


def test_invalid_strategy_chain_rejected():
    bad = KrausChannel.__new__(KrausChannel)  # bypass channel validation
    object.__setattr__(bad, "input_spaces", space(("X1", 2)))
    object.__setattr__(bad, "output_spaces", space(("Y1", 2)))
    object.__setattr__(bad, "kraus", (np.diag([1.0, 0.5]),))
    with pytest.raises(ValidationError):
        strategy_from_channel(bad)


# ---------------------------------------------------------------- probabilities


def test_hedging_identity_probabilities():
    g = hedging_game()
    ch = KrausChannel(space(("X1", 2)), space(("Y1", 2)), (np.eye(2),))
    lose, win = outcome_probabilities(g, strategy_from_channel(ch))
    assert win == pytest.approx(WIN_PROBABILITY, abs=1e-12)
    assert lose == pytest.approx(1 - WIN_PROBABILITY, abs=1e-12)


def test_phase_flip_wins_exactly_once(hedging):
    pg = parallel_game(hedging, 2)
    probs = dict(zip(pg.outcome_keys, outcome_probabilities(pg, phase_flip_strategy())))
    assert probs[(0, 0)] == pytest.approx(0.0, abs=1e-12)
    assert probs[(1, 1)] == pytest.approx(0.0, abs=1e-12)
    assert probs[(0, 1)] + probs[(1, 0)] == pytest.approx(1.0, abs=1e-12)


def test_probabilities_match_direct_simulation(rng):
    for _ in range(5):
        spec = SingleRoundGameSpec(
            random_density(rng, space(("X1", 2), ("Z", 2))),
            random_measurement(rng, space(("Y1", 2), ("Z", 2)), 3),
        )
        game = outcome_operators_single_round(spec)
        ch = random_channel(rng, space(("X1", 2)), space(("Y1", 2)))
        probs = outcome_probabilities(game, strategy_from_channel(ch))
        final = apply_channel(ch, spec.sigma)
        for prob, q in zip(probs, spec.measurement):
            assert prob == pytest.approx(inner(q, final), abs=1e-9)
        assert sum(probs) == pytest.approx(1.0, abs=1e-9)


def test_product_strategy_probabilities_factorize(rng):
    g = make_random_game(rng)
    pg = parallel_game(g, 2)
    ch = random_channel(rng, space(("X1", 2)), space(("Y1", 2)))
    single = outcome_probabilities(g, strategy_from_channel(ch))
    joint_channel = KrausChannel(
        space(("X1#1", 2), ("X1#2", 2)),
        space(("Y1#1", 2), ("Y1#2", 2)),
        tuple(np.kron(k1, k2) for k1 in ch.kraus for k2 in ch.kraus),
    )
    joint = outcome_probabilities(pg, strategy_from_channel(joint_channel))
    for key, prob in zip(pg.outcome_keys, joint):
        assert prob == pytest.approx(single[key[0]] * single[key[1]], abs=1e-9)


def test_probabilities_space_mismatch(hedging):
    ch = KrausChannel(space(("X9", 2)), space(("Y9", 2)), (np.eye(2),))
    with pytest.raises(SpaceError):
        outcome_probabilities(hedging, strategy_from_channel(ch))


def test_probabilities_affine_in_strategy(rng):
    g = make_random_game(rng)
    ch1 = random_channel(rng, space(("X1", 2)), space(("Y1", 2)))
    ch2 = random_channel(rng, space(("X1", 2)), space(("Y1", 2)))
    s1 = strategy_from_channel(ch1)
    s2 = strategy_from_channel(ch2)
    mixed = StrategyChoi(
        X=0.5 * s1.X + 0.5 * s2.X,
        x_rounds=s1.x_rounds,
        y_rounds=s1.y_rounds,
    )
    pm = outcome_probabilities(g, mixed)
    p1 = outcome_probabilities(g, s1)
    p2 = outcome_probabilities(g, s2)
    for a, b, c in zip(pm, p1, p2):
        assert a == pytest.approx(0.5 * b + 0.5 * c, abs=1e-12)


def test_strategy_round_groups_must_partition_its_space(rng):
    s = strategy_from_channel(random_channel(rng, space(("X1", 2)), space(("Y1", 2))))
    for x_rounds, y_rounds in (
        ((("X1",),), (("Y1", "X1"),)),  # X1 asked and answered
        ((("X1",),), (("Z",),)),  # Y1 missing, Z unknown
    ):
        with pytest.raises(SpaceError, match="partition"):
            StrategyChoi(X=s.X, x_rounds=x_rounds, y_rounds=y_rounds)


def test_two_round_product_strategy_probabilities(rng):
    from conftest import make_r2_product_game
    from hedgekit import StrategyChoi, choi

    g1, g2, stacked = make_r2_product_game(rng)
    ch1 = random_channel(rng, space(("X1", 2)), space(("Y1", 2)))
    ch2 = random_channel(rng, space(("X2", 2)), space(("Y2", 2)))
    x1 = choi(ch1)
    strategy = StrategyChoi(
        X=kron(x1, choi(ch2)),
        intermediates=(x1,),
        x_rounds=(("X1",), ("X2",)),
        y_rounds=(("Y1",), ("Y2",)),
    )
    joint = outcome_probabilities(stacked, strategy)
    first = outcome_probabilities(g1, strategy_from_channel(ch1))
    second = outcome_probabilities(g2, strategy_from_channel(ch2))
    for key, prob in zip(stacked.outcome_keys, joint):
        assert prob == pytest.approx(first[key[0]] * second[key[1]], abs=1e-9)


# -------------------------------------------------------------------- dephasing


def test_dephase_game_fixes_diagonal(rng):
    from conftest import make_random_diagonal_game

    g = make_random_diagonal_game(rng)
    dg = dephase_game(g)
    for a, b in zip(g.outcomes, dg.outcomes):
        assert_allclose(a.entries, b.entries, atol=1e-12)


def test_dephase_game_idempotent_and_consistent(hedging):
    dg = dephase_game(hedging)
    ddg = dephase_game(dg)
    for a, b in zip(dg.outcomes, ddg.outcomes):
        assert_allclose(a.entries, b.entries)
    total = dg.outcomes[0] + dg.outcomes[1]
    assert_allclose(total.entries, dephase(hedging.outcomes[0] + hedging.outcomes[1]).entries)


# --------------------------------------------------------------------- grouping


def test_group_outcomes(rng):
    g = make_random_game(rng, outcomes=3)
    grouped = group_outcomes(g, {1, 2})
    assert grouped.outcome_count == 2
    expect = g.outcomes[1] + g.outcomes[2]
    assert_allclose(grouped.outcomes[1].entries, expect.entries)
    with pytest.raises(ValidationError):
        group_outcomes(g, {0, 1, 2})
