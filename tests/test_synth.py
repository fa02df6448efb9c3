import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import oracles
from conftest import assert_same_records, cross_league
from oracles import latent_skills, win_probability
from leaguewin import synth
from leaguewin.ingest import DEFAULT_FEATURES, REQUIRED_COLUMNS, FeatureSpec, emit_csv, parse_match_csv
from leaguewin.synth import SynthConfig, generate_league, generate_leagues


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


def _blank_cells(records):
    records[0].features[[0, 5]] = np.nan
    records[3].features[:16] = np.nan  # every feature cell before kills, which comes from its own column
    return records


def _extreme_values(records):
    records[1].features[:5] = [-0.0, 1e16, 1e-05, 5e-324, 1.7976931348623157e308]
    records[2].features[-5:] = [-1e16, -1e-05, -5e-324, -1.7976931348623157e308, 0.1]
    return records


def _quoted_names(records):
    # One game's ids and team names hold a comma, a quote, a newline and non-ASCII text.
    names = {"AAA-2020-0000": "AAA,2020\n0", "AAA": 'A"A"A', "AAA-T00": "Équipe, 東京", "AAA-T01": 'T "01"'}
    for r in records:
        if r.game_id == "AAA-2020-0000":
            for field in ("game_id", "league", "team", "opponent"):
                setattr(r, field, names.get(getattr(r, field), getattr(r, field)))
    return records


def _named(names):
    spec = FeatureSpec(names, {n: DEFAULT_FEATURES[n] for n in names})
    cols = [list(DEFAULT_FEATURES).index(n) for n in names]
    return (lambda records: [replace(r, features=r.features[cols]) for r in records]), spec


@pytest.mark.parametrize(
    "edit, spec",
    [
        (_blank_cells, None),
        (_extreme_values, None),
        (_quoted_names, None),
        (lambda records: records, None),  # the default spec names kills
        _named(["kills", "towers", "total_gold"]),
        _named(["towers", "kills"]),  # one feature column left
        _named(["kills"]),  # none left
    ],
    ids=["nan", "extreme-values", "quoted-names", "default-spec", "kills-first", "one-column", "no-column"],
)
def test_emit_csv_writes_the_bytes_csv_writer_does(edit, spec):
    records = edit(generate_leagues(SynthConfig(n_teams=3, games_per_pair=2, seed=6), ["AAA", "BBB"]))
    data = emit_csv(records, spec)
    assert data == oracles.emit_csv(records, spec)
    assert_same_records(parse_match_csv(data, spec), sorted(records, key=synth.record_sort_key))


def test_emit_csv_quotes_a_carriage_return_so_the_file_parses():
    # csv.writer leaves a name holding "\r" unquoted, and the parser rejects
    # such a line; emit_csv quotes it like a name holding "\n".
    records = generate_league(SynthConfig(n_teams=2, games_per_pair=1, seed=6))
    records[0].team = records[1].opponent = "SYN\rT00"
    data = emit_csv(records)
    assert data == oracles.emit_csv(records).replace(b",SYN\rT00,", b',"SYN\rT00",')
    assert data.count(b',"SYN\rT00",') == 2
    assert_same_records(parse_match_csv(data), records)


def test_emit_csv_memory_per_row():
    # Lines are formatted record by record, never from one list of every cell.
    cfg = SynthConfig(n_teams=8, games_per_pair=4, seed=4)
    records = parse_match_csv(emit_csv(generate_leagues(cfg, ["A", "B", "C"])))
    tracemalloc.start()
    try:
        emit_csv(records)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(records) >= 600
    assert peak / len(records) <= 1600


def test_emit_csv_holds_one_copy_of_its_output():
    # Lines are encoded in bounded chunks into one bytes buffer, so the file
    # is never held as text and as bytes at once.
    cfg = SynthConfig(n_teams=12, games_per_pair=8, seed=4)
    records = parse_match_csv(emit_csv(generate_leagues(cfg, ["A", "B", "C"])))
    tracemalloc.start()
    try:
        data = emit_csv(records)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(records) >= 3000
    assert peak <= 1.5 * len(data)
    assert data == oracles.emit_csv(records)  # across every chunk boundary


@pytest.mark.parametrize(
    "field, name", [("league", " AAA"), ("team", "SYN-T00 "), ("opponent", "\tSYN-T01"), ("game_id", "g1\n ")]
)
def test_emit_csv_refuses_a_name_that_reading_would_strip(field, name):
    # parse_match_csv strips every name cell, so such a name would come back changed.
    records = generate_league(SynthConfig(n_teams=2, games_per_pair=1, seed=6))
    setattr(records[1], field, name)
    column = "gameid" if field == "game_id" else field
    message = f"game {records[1].game_id!r}: {column} {name!r} begins or ends with whitespace"
    with pytest.raises(ValueError, match=re.escape(message)):
        emit_csv(records)


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
    row, _, _ = cross_league(records, plan, config, "delta")
    assert row.test_accuracy >= 0.95
