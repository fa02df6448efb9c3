import math

import numpy as np
import pytest

from conftest import assert_same_records
from leaguewin import synth
from leaguewin.ingest import REQUIRED_COLUMNS, FeatureSpec, parse_match_csv
from leaguewin.synth import SynthConfig, emit_csv, generate_league, generate_leagues, latent_skills, win_probability


def test_game_and_record_counts():
    records = generate_league(SynthConfig(n_teams=10, games_per_pair=2, seed=0))
    assert len({r.game_id for r in records}) == 90  # 2 * C(10,2)
    assert len(records) == 180


def test_records_validate_and_pair():
    records = generate_league(SynthConfig(n_teams=6, games_per_pair=3, seed=5))
    by_game = {}
    for r in records:
        by_game.setdefault(r.game_id, []).append(r)
    for a, b in by_game.values():
        assert a.team == b.opponent and b.team == a.opponent
        assert a.won != b.won
        assert a.kills == b.opponent_kills and b.kills == a.opponent_kills


def test_symmetric_teams_win_half():
    records = generate_league(SynthConfig(n_teams=4, games_per_pair=350, seed=1, latent_skill_std=0.0))
    assert len({r.game_id for r in records}) >= 2000
    for team in {r.team for r in records}:
        wins = [r.won for r in records if r.team == team]
        assert abs(np.mean(wins) - 0.5) < 0.05


def test_bradley_terry_calibration():
    config = SynthConfig(n_teams=2, games_per_pair=5000, seed=8, latent_skill_std=1.0)
    records = generate_league(config)
    skills = latent_skills(config)
    p = win_probability(skills[0], skills[1])
    team0 = f"{config.league}-T00"
    wins = [r.won for r in records if r.team == team0]
    n = len(wins)
    stderr = math.sqrt(p * (1 - p) / n)
    assert abs(np.mean(wins) - p) <= 3 * stderr


def test_seed_determinism_byte_identical():
    cfg = SynthConfig(n_teams=5, games_per_pair=2, seed=123)
    assert emit_csv(generate_league(cfg)) == emit_csv(generate_league(cfg))
    other = SynthConfig(n_teams=5, games_per_pair=2, seed=124)
    assert emit_csv(generate_league(cfg)) != emit_csv(generate_league(other))


def test_round_trip_thousand_records():
    cfg = SynthConfig(n_teams=12, games_per_pair=8, seed=2)
    records = generate_league(cfg)
    assert len(records) >= 1000
    assert_same_records(parse_match_csv(emit_csv(records)), records)


def test_empty_records_emit_header_only():
    data = emit_csv([])
    lines = data.decode().splitlines()
    assert len(lines) == 1
    for col in REQUIRED_COLUMNS:
        assert col in lines[0].split(",")


def test_emitted_file_matches_column_contract():
    records = generate_league(SynthConfig(n_teams=3, seed=0))
    header = emit_csv(records).decode().splitlines()[0].split(",")
    spec = FeatureSpec.default()
    assert list(REQUIRED_COLUMNS) == header[: len(REQUIRED_COLUMNS)]
    for name in spec.names:
        assert name in header


def test_multi_league_shares_signal_but_not_skills():
    cfg = SynthConfig(n_teams=4, games_per_pair=2, seed=3)
    records = generate_leagues(cfg, ["AAA", "BBB"])
    assert {r.league for r in records} == {"AAA", "BBB"}
    a_teams = {r.team for r in records if r.league == "AAA"}
    assert all(t.startswith("AAA-") for t in a_teams)


def test_multi_season_counts_and_years():
    cfg = SynthConfig(n_teams=4, games_per_pair=1, seasons=3, first_season=2018, seed=0)
    records = generate_league(cfg)
    assert {r.season for r in records} == {2018, 2019, 2020}
    per_season = {s: len([r for r in records if r.season == s]) for s in (2018, 2019, 2020)}
    assert set(per_season.values()) == {12}


def test_kill_margin_tracks_skill_gap():
    cfg = SynthConfig(n_teams=2, games_per_pair=400, seed=4, latent_skill_std=3.0)
    records = generate_league(cfg)
    skills = latent_skills(cfg)
    strong = f"{cfg.league}-T{int(np.argmax(skills)):02d}"
    margins = [r.kills - r.opponent_kills for r in records if r.team == strong]
    assert np.mean(margins) > 1.0


def test_invalid_config_rejected():
    with pytest.raises(ValueError):
        SynthConfig(n_teams=1)
    with pytest.raises(ValueError):
        SynthConfig(latent_skill_std=-1.0)
    with pytest.raises(ValueError):
        SynthConfig.from_json('{"bogus_key": 3}')


def test_noiseless_strong_signal_is_separable_for_rf():
    # Two-team league: the upcoming opponent is known, so a huge skill gap
    # makes outcomes predictable from any past game's delta features.
    from leaguewin.baselines.forest import forest_predict_many, forest_train, lookback_dataset

    cfg = SynthConfig(
        n_teams=2, games_per_pair=30, seasons=2, first_season=2019, seed=3,
        latent_skill_std=8.0, feature_noise_std=0.0,
    )
    records = generate_league(cfg)
    train = [r for r in records if r.season == 2019]
    test = [r for r in records if r.season == 2020]
    x_train, y_train, _ = lookback_dataset(train, 1, "delta")
    x_test, y_test, _ = lookback_dataset(test, 1, "delta")
    forest = forest_train(x_train, y_train, n_trees=50, seed=0)
    acc = float(((forest_predict_many(forest, x_test) > 0.5) == (y_test == 1)).mean())
    assert acc >= 0.95


def test_noiseless_strong_signal_is_separable_for_gcn():
    from leaguewin import experiment, gcn

    cfg = SynthConfig(n_teams=2, games_per_pair=30, seed=12, latent_skill_std=8.0, feature_noise_std=0.0)
    records = generate_leagues(cfg, ["AAA", "BBB", "CCC"])
    plan = experiment.SplitPlan("AAA", "BBB", "CCC", 2020)
    config = gcn.TrainConfig(hidden_dims=[16], dropout=0.1, propagator_kind="gcn-cheby", seed=0)
    row, _, _ = experiment.run_cross_league(records, plan, config, "delta")
    assert row.test_accuracy >= 0.95
