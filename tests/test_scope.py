import numpy as np
import pytest

from leaguewin import kernels, synth
from leaguewin.baselines.scope import (
    GameResult,
    ScopeConfig,
    ScopeState,
    default_scope_grid,
    elo_expected,
    games_from_records,
    grid_configs,
    mov_multiplier,
    scope_advance,
    scope_evaluate,
    scope_grid_search,
    scope_protocol,
    scope_season_regress,
    scope_update,
)


def g(team, opponent, winner, kill_diff=0, game_id="g"):
    return GameResult(game_id, team, opponent, winner, kill_diff)


def test_expected_equal_ratings():
    assert elo_expected(1500.0, 1500.0) == 0.5


def test_expected_four_hundred_point_rule():
    # 400 points -> 10:1 odds, so 1900 vs 1500 is 10/11.
    assert elo_expected(1900.0, 1500.0) == pytest.approx(10.0 / 11.0, abs=1e-12)


def test_expected_complement_identity():
    rng = np.random.default_rng(0)
    for _ in range(200):
        a, b = rng.uniform(1000, 2000, size=2)
        assert abs(elo_expected(a, b) + elo_expected(b, a) - 1.0) < 1e-15


def test_mov_none_is_one():
    cfg = ScopeConfig(mov_func="none")
    for d in (0, 3, 250):
        assert mov_multiplier(d, cfg) == 1.0


def test_mov_linear_doubles_at_w90():
    cfg = ScopeConfig(mov_func="lin", w90=10.0)
    assert mov_multiplier(10, cfg) == 2.0
    assert mov_multiplier(0, cfg) == 1.0


@pytest.mark.parametrize("func", ["lin", "exp", "log", "sqrt"])
def test_mov_calibration_point(func):
    cfg = ScopeConfig(mov_func=func, w90=200.0)
    assert mov_multiplier(0, cfg) == pytest.approx(1.0, abs=1e-12)
    assert mov_multiplier(200, cfg) == pytest.approx(2.0, abs=1e-12)
    assert mov_multiplier(400, cfg) > mov_multiplier(100, cfg)


def test_mov_requires_positive_w90():
    with pytest.raises(ValueError, match="w90"):
        ScopeConfig(mov_func="lin", w90=0.0)


def test_update_equal_ratings_split_twenty_points():
    cfg = ScopeConfig(base_k=40.0, cutoff=1e9, reduction=0.0, mov_func="none")
    state = scope_update(ScopeState(), g("A", "B", "A"), cfg)
    assert state.ratings["A"] == 1520.0
    assert state.ratings["B"] == 1480.0


def test_update_reduction_above_cutoff_halves_update():
    cfg = ScopeConfig(base_k=40.0, cutoff=1700.0, reduction=0.5, mov_func="none")
    state = ScopeState(ratings={"A": 1800.0, "B": 1500.0})
    after = scope_update(state, g("A", "B", "B"), cfg)
    delta_a = after.ratings["A"] - 1800.0
    delta_b = after.ratings["B"] - 1500.0
    assert abs(delta_a) == pytest.approx(0.5 * abs(delta_b), abs=1e-12)


def test_update_zero_sum_under_symmetric_k():
    cfg = ScopeConfig(base_k=32.0, cutoff=1e9, reduction=0.3, mov_func="lin", w90=5.0)
    state = ScopeState(ratings={"A": 1510.0, "B": 1490.0})
    after = scope_update(state, g("A", "B", "A", kill_diff=7), cfg)
    assert (after.ratings["A"] - 1510.0) + (after.ratings["B"] - 1490.0) == 0.0


def test_unseen_teams_enter_at_initial_rating():
    cfg = ScopeConfig()
    state = scope_update(ScopeState(), g("X", "Y", "X"), cfg)
    assert set(state.ratings) == {"X", "Y"}


def test_repeated_wins_converge_monotonically():
    cfg = ScopeConfig(base_k=40.0, cutoff=1700.0, reduction=0.5, mov_func="none")
    state = ScopeState()
    expectations = []
    for _ in range(400):
        expectations.append(elo_expected(state.rating("A", cfg), state.rating("B", cfg)))
        state = scope_update(state, g("A", "B", "A"), cfg)
    assert all(b >= a for a, b in zip(expectations, expectations[1:]))
    assert expectations[-1] > 0.99


def test_season_regress_values():
    cfg0 = ScopeConfig(regression=0.0)
    cfg1 = ScopeConfig(regression=1.0)
    cfg4 = ScopeConfig(regression=0.4)
    state = ScopeState(ratings={"A": 1700.0, "B": 1400.0})
    assert scope_season_regress(state, cfg0).ratings == {"A": 1700.0, "B": 1400.0}
    assert scope_season_regress(state, cfg1).ratings == {"A": 1500.0, "B": 1500.0}
    assert scope_season_regress(state, cfg4).ratings["A"] == pytest.approx(1620.0, abs=1e-12)


def test_evaluate_dominant_team_converges_to_perfect():
    games = []
    for i in range(60):
        opp = f"T{i % 3}"
        games.append(g("BOSS", opp, "BOSS", kill_diff=5, game_id=f"g{i}"))
    cfg = ScopeConfig(base_k=40.0, cutoff=1e9, reduction=0.0, mov_func="none")
    result = scope_evaluate(games, cfg)
    tail = result.correct[20:]
    assert tail.mean() == 1.0


def test_evaluate_zero_k_predicts_blue_side():
    records = synth.generate_league(synth.SynthConfig(n_teams=6, games_per_pair=4, seed=2, latent_skill_std=0.0))
    games = games_from_records(records)
    cfg = ScopeConfig(base_k=0.0, cutoff=1e9, reduction=0.0)
    result = scope_evaluate(games, cfg)
    blue_wins = np.mean([1 if game.winner == game.team else 0 for game in games])
    assert result.accuracy == pytest.approx(blue_wins, abs=1e-12)
    assert abs(result.accuracy - 0.5) < 0.12


def test_evaluate_empty_span_raises():
    with pytest.raises(ValueError, match="empty test span"):
        scope_evaluate([], ScopeConfig())


def test_evaluate_updates_after_prediction():
    # First meeting of equal teams is a coin flip decided by side; the
    # prediction must not see the update from its own game.
    games = [g("A", "B", "B", game_id="g0"), g("A", "B", "B", game_id="g1")]
    cfg = ScopeConfig(base_k=40.0, cutoff=1e9, reduction=0.0)
    result = scope_evaluate(games, cfg)
    assert result.correct.tolist() == [0, 1]


def test_accuracy_invariant_to_rating_shift():
    records = synth.generate_league(synth.SynthConfig(n_teams=8, games_per_pair=3, seed=4, latent_skill_std=1.0))
    games = games_from_records(records)
    base = ScopeConfig(base_k=30.0, cutoff=1650.0, reduction=0.4, mov_func="lin", w90=10.0)
    shift = 500.0
    shifted = ScopeConfig(
        base_k=30.0, cutoff=1650.0 + shift, reduction=0.4, mov_func="lin", w90=10.0,
        initial_rating=1500.0 + shift,
    )
    r1 = scope_evaluate(games, base)
    r2 = scope_evaluate(games, shifted)
    assert r1.accuracy == r2.accuracy
    assert np.array_equal(r1.correct, r2.correct)


def test_singleton_grid_returns_config():
    records = synth.generate_league(synth.SynthConfig(n_teams=4, games_per_pair=2, seed=1, seasons=2, first_season=2019))
    train = games_from_records([r for r in records if r.season == 2019])
    val = games_from_records([r for r in records if r.season == 2020])
    grid = {"base_k": [40], "cutoff": [1700], "reduction": [0.5], "mov_func": ["none"], "w90": [100], "regression": [0.2]}
    best, table = scope_grid_search(train, val, grid)
    assert best == ScopeConfig(base_k=40, cutoff=1700, reduction=0.5, mov_func="none", w90=100, regression=0.2)
    assert len(table) == 1


def test_default_grid_enumerates_twelve_thousand():
    grid = default_scope_grid()
    assert len(grid_configs(grid)) == 6 * 4 * 5 * 4 * 5 * 5 == 12000


def test_planted_config_recovered():
    # Strong latent skill: a working K always beats a frozen-ratings config.
    records = synth.generate_league(
        synth.SynthConfig(n_teams=8, games_per_pair=3, seasons=2, first_season=2019, seed=6, latent_skill_std=2.0)
    )
    train = games_from_records([r for r in records if r.season == 2019])
    val = games_from_records([r for r in records if r.season == 2020])
    grid = {"base_k": [0, 40], "cutoff": [1700], "reduction": [0.1], "mov_func": ["none"], "w90": [100], "regression": [0]}
    best, table = scope_grid_search(train, val, grid)
    assert best.base_k == 40


def test_grid_search_matches_per_config_protocol():
    # The lattice pass scores every config as if it ran alone through
    # scope_update, scope_season_regress and predict-then-update.
    records = synth.generate_league(
        synth.SynthConfig(n_teams=6, games_per_pair=2, seasons=2, first_season=2019, seed=3, latent_skill_std=1.0)
    )
    train = games_from_records([r for r in records if r.season == 2019])
    val = games_from_records([r for r in records if r.season == 2020])
    grid = {"base_k": [10, 40], "cutoff": [1500, 1750], "reduction": [0.2], "mov_func": ["none", "lin", "sqrt"], "w90": [5], "regression": [0, 0.4]}
    best, table = scope_grid_search(train, val, grid)
    assert [cfg for cfg, _ in table] == grid_configs(grid)
    for cfg, acc in table:
        state = ScopeState()
        for game in train:
            state = scope_update(state, game, cfg)
        state = scope_season_regress(state, cfg)
        hits = 0
        for game in val:
            hits += (elo_expected(state.rating(game.team, cfg), state.rating(game.opponent, cfg)) >= 0.5) == (
                game.winner == game.team
            )
            state = scope_update(state, game, cfg)
        assert acc == hits / len(val), cfg
    accs = [acc for _, acc in table]
    assert best == table[accs.index(max(accs))][0]


def test_games_from_records_margin_and_winner(small_season):
    games = games_from_records(small_season)
    assert len(games) == len(small_season) // 2
    by_id = {r.game_id: r for r in small_season}
    for game in games:
        rec = by_id[game.game_id]
        assert game.kill_diff == abs(rec.kills - rec.opponent_kills)
        winner_rec = rec if rec.won else next(
            r for r in small_season if r.game_id == game.game_id and r.team != rec.team
        )
        assert game.winner == winner_rec.team


def test_protocol_runs_and_scores_test_season():
    records = synth.generate_league(
        synth.SynthConfig(n_teams=8, games_per_pair=2, seasons=3, first_season=2018, seed=9, latent_skill_std=2.0)
    )
    spans = [games_from_records([r for r in records if r.season == s]) for s in (2018, 2019, 2020)]
    grid = {"base_k": [20, 40], "cutoff": [1700], "reduction": [0.3], "mov_func": ["none", "lin"], "w90": [100], "regression": [0, 0.4]}
    result = scope_protocol(*spans, grid=grid)
    assert 0.0 <= result.test_accuracy <= 1.0
    assert result.test_accuracy > 0.6  # strong skill separation is learnable
    assert len(result.table) == 8


def test_protocol_walks_one_lattice_and_matches_the_scalar_chain(monkeypatch):
    # Every config runs initialization and validation on one lattice, and
    # only the winner's column walks the test season, where a team plays
    # that no earlier season saw.  Each figure equals the scalar chain's.
    records = synth.generate_league(
        synth.SynthConfig(n_teams=8, games_per_pair=3, seasons=3, first_season=2018, seed=11, latent_skill_std=1.0)
    )
    spans = [games_from_records([r for r in records if r.season == s]) for s in (2018, 2019, 2020)]
    veterans = sorted({game.team for game in spans[0]})
    spans[2] += [
        g("ROOKIE", veterans[i % 3], "ROOKIE" if i % 2 else veterans[i % 3], 4 * i + 1, f"rookie{i}") for i in range(6)
    ]
    grid = {"base_k": [10, 40], "cutoff": [1500, 1560], "reduction": [0.3], "mov_func": ["none", "lin", "exp", "log", "sqrt"], "w90": [8], "regression": [0.25, 0.5]}
    calls = []
    scope_pass = kernels.scope_pass
    monkeypatch.setattr(kernels, "scope_pass", lambda *args, **kw: calls.append(1) or scope_pass(*args, **kw))
    result = scope_protocol(*spans, grid=grid)
    assert len(calls) == 3

    def validated(cfg):
        return scope_evaluate(spans[1], cfg, scope_season_regress(scope_advance(spans[0], cfg), cfg))

    assert [cfg for cfg, _ in result.table] == grid_configs(grid)
    for cfg, acc in result.table:
        assert acc == validated(cfg).accuracy, cfg
    accs = [acc for _, acc in result.table]
    assert result.best_config == result.table[accs.index(max(accs))][0]
    val = validated(result.best_config)
    test = scope_evaluate(spans[2], result.best_config, scope_season_regress(val.state, result.best_config))
    assert result.validation_accuracy == val.accuracy
    assert result.test_accuracy == test.accuracy


def test_kernel_pass_matches_per_game_updates():
    # The scalar reference threads its state through the single-game op exactly.
    cfg = ScopeConfig(base_k=40.0, cutoff=1550.0, reduction=0.4, mov_func="exp", w90=30.0)
    games = [
        g("A", "B", "A", 12, "g0"),
        g("B", "C", "C", 3, "g1"),
        g("A", "C", "A", 25, "g2"),
        g("B", "A", "A", 8, "g3"),
    ]
    state = ScopeState()
    for game_ in games:
        state = scope_update(state, game_, cfg)
    assert scope_evaluate(games, cfg).state.ratings == state.ratings
    assert scope_advance(games, cfg).ratings == state.ratings


def test_regression_bounds_validated():
    with pytest.raises(ValueError):
        ScopeConfig(regression=1.5)
    with pytest.raises(ValueError):
        ScopeConfig(reduction=1.0)
