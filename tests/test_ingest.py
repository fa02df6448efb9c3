import math
import tracemalloc
import warnings

import numpy as np
import pytest

from conftest import assert_same_records, make_csv, minimal_row
from leaguewin import synth
from leaguewin.ingest import (
    DEFAULT_FEATURES,
    ColumnStats,
    FeatureSpec,
    PairingError,
    QualityReport,
    SchemaError,
    build_feature_matrix,
    filter_regular_season,
    parse_match_csv,
    standardize,
)


def test_default_spec_has_thirty_features(default_spec):
    assert len(default_spec.names) == 30
    assert set(default_spec.categories.values()) == {
        "objectives",
        "farm",
        "gold_experience",
        "fighting",
        "vision",
    }


def test_minimal_pairing_case(default_spec):
    data = make_csv(
        [
            minimal_row("g1", "A", "B", 1, 10, 5),
            minimal_row("g1", "B", "A", 0, 5, 10),
        ]
    )
    records = parse_match_csv(data, default_spec)
    assert len(records) == 2
    by_team = {r.team: r for r in records}
    assert by_team["A"].won and not by_team["B"].won
    assert by_team["A"].kills == by_team["B"].opponent_kills == 10
    assert by_team["A"].game_index_in_season == 0


def test_unpaired_game_raises(default_spec):
    data = make_csv([minimal_row("g1", "A", "B", 1, 10, 5)])
    with pytest.raises(PairingError) as err:
        parse_match_csv(data, default_spec)
    assert "g1" in str(err.value)
    assert err.value.game_ids == ["g1"]


def test_inconsistent_pair_raises(default_spec):
    data = make_csv(
        [
            minimal_row("g1", "A", "B", 1, 10, 5),
            minimal_row("g1", "B", "A", 1, 5, 10),  # both sides claim a win
        ]
    )
    with pytest.raises(PairingError):
        parse_match_csv(data, default_spec)


def test_missing_column_named(default_spec):
    data = b"gameid,league,season,date,team,opponent,result,kills\n"
    with pytest.raises(SchemaError) as err:
        parse_match_csv(data, default_spec)
    assert "opponent_kills" in str(err.value)


def test_bad_numeric_rows_reported_with_line_numbers(default_spec):
    bad1 = minimal_row("g2", "C", "D", 1, 9, 2).replace("9", "not-a-number", 1)
    bad2 = minimal_row("g2", "D", "C", 0, 2, 9)
    bad2 = bad2.replace("2,9", "oops,9", 1)
    data = make_csv(
        [
            minimal_row("g1", "A", "B", 1, 10, 5),
            minimal_row("g1", "B", "A", 0, 5, 10),
            bad1,
            bad2,
        ]
    )
    report = QualityReport()
    records = parse_match_csv(data, default_spec, report)
    assert len(records) == 2  # the broken game dropped entirely
    assert [line for line, _ in report.row_errors] == [4, 5]


def test_round_trip_through_emitter(default_spec):
    cfg = synth.SynthConfig(n_teams=5, games_per_pair=1, seed=1)
    records = synth.generate_league(cfg)
    assert len(records) == 20  # C(5,2) = 10 games
    again = parse_match_csv(synth.emit_csv(records), default_spec)
    assert_same_records(again, records)


def test_parse_order_is_stable(default_spec):
    data = synth.emit_csv(synth.generate_league(synth.SynthConfig(n_teams=4, seed=3)))
    first = parse_match_csv(data, default_spec)
    second = parse_match_csv(data, default_spec)
    assert_same_records(first, second)


def test_parse_memory_per_row(default_spec):
    # Features live in one float64 matrix, not in a dict of floats per row,
    # and the input is decoded a line at a time, never as one text copy.
    cfg = synth.SynthConfig(n_teams=8, games_per_pair=4, seed=4)
    data = synth.emit_csv(synth.generate_leagues(cfg, ["A", "B", "C"]))
    tracemalloc.start()
    try:
        records = parse_match_csv(data, default_spec)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(records) >= 600
    assert retained / len(records) <= 1200
    assert peak / len(records) <= 1500


@pytest.mark.parametrize(
    "signal",
    [synth.default_signal_map(), {n: 0.5 for n in list(DEFAULT_FEATURES)[::2]} | {"mystery": 2.0}],
    ids=["default", "subset-and-unknown"],
)
def test_generated_records_build_the_matrix_their_csv_does(signal, default_spec):
    # The subset keeps "kills", whose feature column a CSV fills from the kills column.
    cfg = synth.SynthConfig(n_teams=4, games_per_pair=2, seed=9, shared_noise_std=0.5, feature_signal_map=signal)
    records = synth.generate_leagues(cfg, ["LPL", "LCS", "LEC"])
    parsed = parse_match_csv(synth.emit_csv(records), default_spec)
    for mode in ("raw", "delta"):
        made = build_feature_matrix(records, default_spec, mode)
        read = build_feature_matrix(parsed, default_spec, mode)
        assert made.row_keys == read.row_keys
        assert made.values.tobytes() == read.values.tobytes()


def test_feature_width_must_match_spec():
    spec = FeatureSpec(["total_gold", "towers"], {"total_gold": "gold_experience", "towers": "objectives"})
    with pytest.raises(ValueError, match="record feature width 1 differs from the spec's 2 names"):
        build_feature_matrix(_two_record_game(1.0, 2.0), spec, "raw")


def test_filter_partitions_leagues(default_spec):
    cfg = synth.SynthConfig(n_teams=4, games_per_pair=2, seed=0)
    records = synth.generate_leagues(cfg, ["LPL", "LCS"])
    lpl = filter_regular_season(records, "LPL", 2020)
    lcs = filter_regular_season(records, "LCS", 2020)
    assert len(lpl) + len(lcs) == len(records)
    assert {r.league for r in lpl} == {"LPL"}


def test_filter_unknown_league_returns_empty_without_warning(default_spec):
    records = synth.generate_league(synth.SynthConfig(n_teams=4, seed=0, league="LPL"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = filter_regular_season(records, "LEC", 2020)
    assert out == []


def test_filter_drops_non_regular_season(default_spec):
    records = synth.generate_league(synth.SynthConfig(n_teams=4, seed=0, league="LPL"))
    pair = {records[0].game_id}
    for r in records:
        if r.game_id in pair:
            r.is_regular_season = False
    out = filter_regular_season(records, "LPL", 2020)
    assert len(out) == len(records) - 2


def test_delta_mode_antisymmetry():
    spec = FeatureSpec(["total_gold"], {"total_gold": "gold_experience"})
    records = _two_record_game(gold_a=60000.0, gold_b=55000.0)
    matrix = build_feature_matrix(records, spec, "delta")
    rows = dict(zip(matrix.row_keys, matrix.values[:, 0]))
    assert rows[("A", "g1")] == 5000.0
    assert rows[("B", "g1")] == -5000.0


def test_raw_mode_keeps_values():
    spec = FeatureSpec(["total_gold"], {"total_gold": "gold_experience"})
    matrix = build_feature_matrix(_two_record_game(60000.0, 55000.0), spec, "raw")
    assert sorted(matrix.values[:, 0]) == [55000.0, 60000.0]


def test_delta_columns_sum_to_zero_exactly(small_season):
    spec = FeatureSpec.default()
    matrix = build_feature_matrix(small_season, spec, "delta")
    # Antisymmetry implies an exact zero sum: verify by direct summation.
    for j in range(matrix.values.shape[1]):
        assert matrix.values[:, j].sum() == 0.0


def test_imputation_counts_and_keeps_antisymmetry(small_season):
    spec = FeatureSpec.default()
    broken = small_season[3]
    broken.features[spec.names.index("total_gold")] = float("nan")
    report = QualityReport()
    matrix = build_feature_matrix(small_season, spec, "delta", report)
    assert report.imputed == {"total_gold": 1}
    assert not np.isnan(matrix.values).any()
    j = matrix.columns.index("total_gold")
    assert matrix.values[:, j].sum() == pytest.approx(0.0, abs=1e-9)
    row_of = {k: i for i, k in enumerate(matrix.row_keys)}
    a = row_of[(broken.team, broken.game_id)]
    b = row_of[(broken.opponent, broken.game_id)]
    assert matrix.values[a, j] == -matrix.values[b, j]


def test_standardize_hand_oracle():
    spec = FeatureSpec(["towers"], {"towers": "objectives"})
    matrix = _matrix_from_column(spec, [2.0, 4.0, 6.0])
    out = standardize(matrix)
    mean = (2 + 4 + 6) / 3
    pop_std = math.sqrt(((2 - mean) ** 2 + (4 - mean) ** 2 + (6 - mean) ** 2) / 3)
    expected = [(v - mean) / pop_std for v in (2.0, 4.0, 6.0)]
    assert np.allclose(out.values[:, 0], expected, atol=1e-12)
    assert np.allclose(out.values[:, 0], [-1.2247448713915892, 0.0, 1.2247448713915892])
    assert out.standardization_stats.mean[0] == mean


def test_standardize_constant_column_warns():
    spec = FeatureSpec(["towers"], {"towers": "objectives"})
    matrix = _matrix_from_column(spec, [5.0, 5.0, 5.0])
    with pytest.warns(UserWarning, match="zero-variance"):
        out = standardize(matrix)
    assert (out.values[:, 0] == 0.0).all()
    assert out.standardization_stats.std[0] == 1.0


def test_standardize_apply_twice_with_identity_stats():
    spec = FeatureSpec(["towers"], {"towers": "objectives"})
    out = standardize(_matrix_from_column(spec, [1.0, 2.0, 9.0]))
    identity = ColumnStats(mean=np.zeros(1), std=np.ones(1))
    again = standardize(out, identity)
    assert np.array_equal(again.values, out.values)


def test_standardize_with_training_stats():
    spec = FeatureSpec(["towers"], {"towers": "objectives"})
    train = standardize(_matrix_from_column(spec, [0.0, 10.0]))
    test = standardize(_matrix_from_column(spec, [5.0, 15.0]), train.standardization_stats)
    assert np.allclose(test.values[:, 0], [0.0, 2.0])


def _two_record_game(gold_a, gold_b):
    from datetime import datetime, timezone

    from leaguewin.ingest import TeamGameRecord

    ts = datetime(2020, 1, 5, tzinfo=timezone.utc)
    return [
        TeamGameRecord("g1", "LPL", 2020, 0, "A", "B", ts, True, 10, 5, np.array([gold_a])),
        TeamGameRecord("g1", "LPL", 2020, 0, "B", "A", ts, False, 5, 10, np.array([gold_b])),
    ]


def _matrix_from_column(spec, values):
    from leaguewin.ingest import FeatureMatrix

    return FeatureMatrix(
        row_keys=[("T", f"g{i}") for i in range(len(values))],
        columns=list(spec.names),
        values=np.array(values, dtype=np.float64).reshape(-1, 1),
    )
