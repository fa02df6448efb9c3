import math
import tracemalloc
import warnings
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest

from conftest import assert_same_records, make_csv, minimal_row
from leaguewin import synth
from leaguewin.ingest import (
    DEFAULT_FEATURES,
    ColumnStats,
    FeatureSpec,
    MatchLogError,
    PairingError,
    QualityReport,
    SchemaError,
    TeamGameRecord,
    build_feature_matrix,
    emit_csv,
    filter_regular_season,
    parse_match_csv,
    record_sort_key,
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


def test_pair_disagreeing_on_regular_season_raises(default_spec):
    header = (
        "gameid,league,season,date,team,opponent,result,kills,opponent_kills,"
        + ",".join(n for n in default_spec.names if n != "kills")
        + ",is_regular_season"
    )
    # One side calls the game a playoff game, the other a regular-season one.
    rows = [minimal_row("g1", "A", "B", 1, 10, 5) + ",1", minimal_row("g1", "B", "A", 0, 5, 10) + ",0"]
    with pytest.raises(PairingError, match="inconsistent paired rows: g1") as err:
        parse_match_csv(make_csv(rows, header), default_spec)
    assert err.value.game_ids == ["g1"]


def test_missing_column_named(default_spec):
    data = b"gameid,league,season,date,team,opponent,result,kills\n"
    with pytest.raises(SchemaError) as err:
        parse_match_csv(data, default_spec)
    assert "opponent_kills" in str(err.value)


def test_header_column_named_twice_raises(default_spec):
    # Taking either copy would read a value from the wrong column.
    header = make_csv([]).decode().rstrip("\n")
    data = make_csv([minimal_row("g1", "A", "B", 1, 10, 5)], header=header + ",towers,result")
    with pytest.raises(SchemaError, match=r"header columns appear more than once: \['result', 'towers'\]"):
        parse_match_csv(data, default_spec)


def test_bad_numeric_rows_reported_with_line_numbers(default_spec):
    # A bad kills count fails as the row is read; an infinite feature value
    # ("inf", "-inf", or a float literal too large, "1e999") once the
    # feature matrix is built.  Both become row errors in line order.
    for cell, bad_value, message in [
        ("9", "not-a-number", "invalid literal for int() with base 10: 'not-a-number'"),  # kills
        ("1.0", "inf", "towers must be finite, got inf"),  # the first feature cell
        ("1.0", "-inf", "towers must be finite, got -inf"),
        ("1.0", "1e999", "towers must be finite, got inf"),
    ]:
        bad1 = minimal_row("g2", "C", "D", 1, 9, 2).replace(cell, bad_value, 1)
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
        assert report.row_errors[0][1] == message


def _with_cell(row, index, value):
    cells = row.split(",")
    cells[index] = value
    return ",".join(cells)


@pytest.mark.parametrize(
    "index, value, message",
    [(7, "bad", "invalid literal for int() with base 10: 'bad'"), (9, "inf", "towers must be finite, got inf")],
    ids=["bad-kills", "infinite-feature"],
)
def test_row_errors_name_the_line_a_row_starts_on(index, value, message, default_spec):
    # Game "G\nX"'s two rows take lines 2 to 5, so game g3's rows sit on lines 8 and 9.
    data = make_csv(
        [
            minimal_row('"G\nX"', "A", "B", 1, 10, 5),
            minimal_row('"G\nX"', "B", "A", 0, 5, 10),
            minimal_row("g2", "C", "D", 1, 9, 2),
            minimal_row("g2", "D", "C", 0, 2, 9),
            _with_cell(minimal_row("g3", "E", "F", 1, 8, 3), index, value),
            _with_cell(minimal_row("g3", "F", "E", 0, 3, 8), index, value),
        ]
    )
    assert data.split(b"\n")[8].startswith(b"g3,LPL,2020,2020-01-05T10:00:00+00:00,F,E,")
    report = QualityReport()
    records = parse_match_csv(data, default_spec, report)
    assert sorted({r.game_id for r in records}) == ["G\nX", "g2"]
    assert report.row_errors == [(8, message), (9, message)]


def _three_league_csv(quoted: bool):
    """A 3-league CSV, and the league of each line a damaged row starts on:
    in every league both rows of game 0000 have kills -1 and both rows of
    game 0001 an infinite feature.  With ``quoted`` a BBB team's name holds
    a comma and a newline, so the file holds quotes and a row spans two lines."""
    cfg = synth.SynthConfig(n_teams=4, games_per_pair=2, seed=12)
    records = synth.generate_leagues(cfg, ["AAA", "BBB", "CCC"])
    for r in records:
        if quoted:
            r.team, r.opponent = ({"BBB-T01": "BBB, T\n01"}.get(name, name) for name in (r.team, r.opponent))
        if r.game_id.endswith("-0000"):
            r.kills = -1
        if r.game_id.endswith("-0001"):
            r.features[-1] = np.inf
    data = emit_csv(records)
    damaged = {
        n: line[:3].decode()
        for n, line in enumerate(data.split(b"\n"), start=1)
        if line[3:14] in (b"-2020-0000,", b"-2020-0001,")
    }
    assert (b'"' in data) == quoted and len(damaged) == 12
    return data, damaged


@pytest.mark.parametrize("quoted", [False, True], ids=["unquoted", "quoted"])
@pytest.mark.parametrize("leagues", [["CCC"], ["BBB"], ["AAA", "CCC"], ["AAA", "BBB", "CCC"], ["ZZZ"], []])
def test_league_scoped_parse_matches_filtering_the_full_parse(quoted, leagues, default_spec):
    data, damaged = _three_league_csv(quoted)
    full_report, report = QualityReport(), QualityReport()
    full = parse_match_csv(data, default_spec, full_report)
    scoped = parse_match_csv(data, default_spec, report, leagues=leagues)
    assert_same_records(scoped, [r for r in full if r.league in leagues])
    assert sorted(damaged) == [line for line, _ in full_report.row_errors]
    assert report.row_errors == [(line, msg) for line, msg in full_report.row_errors if damaged[line] in leagues]
    assert report.rows_read == len(scoped) + len(report.row_errors)
    assert report.records_parsed == len(scoped)


def test_another_leagues_unpaired_game_is_not_an_error(default_spec):
    data = make_csv(
        [
            minimal_row("g1", "A", "B", 1, 10, 5),
            minimal_row("g1", "B", "A", 0, 5, 10),
            minimal_row("g2", "C", "D", 1, 9, 2, league="LCK"),
        ]
    )
    with pytest.raises(PairingError, match="g2"):
        parse_match_csv(data, default_spec)
    assert [r.game_id for r in parse_match_csv(data, default_spec, leagues={"LPL"})] == ["g1", "g1"]
    with pytest.raises(PairingError, match="g2"):
        parse_match_csv(data, default_spec, leagues={"LCK"})


@pytest.mark.parametrize(
    "damage, message",
    [
        (lambda line: line.replace(b",", b",\r", 3), "line 3: new-line character seen in unquoted field"),
        (lambda line: line.replace(b"C,D", b"C\xff,D"), "line 3: 'utf-8' codec can't decode byte 0xff"),
    ],
    ids=["lone-cr", "bad-utf8"],
)
def test_another_leagues_unreadable_line_fails_only_a_file_with_quotes(damage, message, default_spec):
    # Without a quote in the file each line is a row, and another league's
    # line is skipped unread; with one, every line is decoded and tokenized.
    rows = [
        minimal_row("g1", "A", "B", 1, 10, 5),
        minimal_row("g2", "C", "D", 1, 9, 2, league="LCK"),
        minimal_row("g2", "D", "C", 0, 2, 9, league="LCK"),
        minimal_row("g1", "B", "A", 0, 5, 10),
    ]
    for quote in (b"", b'"'):
        lines = make_csv(rows).split(b"\n")
        lines[2] = damage(lines[2])
        lines[1] = lines[1].replace(b"g1", quote + b"g1" + quote)
        data = b"\n".join(lines)
        for leagues in [None, {"LCK"}, {"LPL"}] if quote else [None, {"LCK"}]:
            with pytest.raises(MatchLogError, match=f"^{message}"):
                parse_match_csv(data, default_spec, leagues=leagues)
        if not quote:
            assert [r.game_id for r in parse_match_csv(data, default_spec, leagues={"LPL"})] == ["g1", "g1"]


def test_round_trip_through_emitter(default_spec):
    cfg = synth.SynthConfig(n_teams=5, games_per_pair=1, seed=1)
    records = synth.generate_league(cfg)
    assert len(records) == 20  # C(5,2) = 10 games
    again = parse_match_csv(emit_csv(records), default_spec)
    assert_same_records(again, records)


def test_emit_csv_writes_a_record_column_the_spec_names_once():
    # The flag column is written from the record's field alone; the parser
    # reads the feature of that name from it, as it reads kills.
    spec = FeatureSpec(["towers", "is_regular_season"], {"towers": "objectives", "is_regular_season": "objectives"})
    records = synth.generate_league(synth.SynthConfig(n_teams=3, seed=2))
    for r in records:
        r.is_regular_season = r.game_id.endswith("0")
        r.features = np.array([r.features[0], float(r.is_regular_season)])
    data = emit_csv(records, spec)
    header = data.split(b"\n", 1)[0].split(b",")
    assert header.count(b"is_regular_season") == 1 and header[-1] == b"towers"
    assert_same_records(parse_match_csv(data, spec), records)


_ODD_TEXT = [",", '"', "\n", "\r", "\r\n", '""', "É", "東京", "\U0001f3c6", " ", "x"]
_ODD_FLOATS = [np.nan, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308, 1e16, -1e16, 0.1]


def _odd_name(rng, prefix):
    # Cells are stripped on parsing, so a name begins and ends with a letter.
    return prefix + "".join(rng.choice(_ODD_TEXT, size=int(rng.integers(0, 6)))) + "z"


@pytest.mark.parametrize("seed", range(5))
def test_emit_csv_round_trips_generated_records(seed):
    rng = np.random.default_rng(seed)
    names = [_odd_name(rng, f"f{k}") for k in range(3)] + ["kills", "towers"]
    spec = FeatureSpec(names, dict.fromkeys(names, "fighting"))
    teams = [_odd_name(rng, f"t{k}") for k in range(4)] + ["plain"]
    leagues = [_odd_name(rng, f"l{k}") for k in range(2)]
    records = []
    for g in range(40):
        a, b = rng.choice(len(teams), size=2, replace=False)
        kills = rng.integers(0, 30, size=2).tolist()
        shared = dict(
            game_id=_odd_name(rng, f"g{g}"),
            league=leagues[g % 2],
            season=2019 + g % 3,
            timestamp=datetime(2020, 1, 1, tzinfo=timezone.utc) + timedelta(hours=g, microseconds=g),
            is_regular_season=bool(rng.integers(2)),
        )
        won = bool(rng.integers(2))
        for side, (team, opp) in enumerate(((a, b), (b, a))):
            odd = rng.random(len(names)) < 0.6
            features = np.where(odd, rng.choice(_ODD_FLOATS, size=len(names)), rng.normal(size=len(names)))
            features[names.index("kills")] = kills[side]
            records.append(TeamGameRecord(
                team=teams[team], opponent=teams[opp], won=won != bool(side),
                kills=kills[side], opponent_kills=kills[1 - side], features=features, **shared,
            ))
    records.sort(key=record_sort_key)
    data = emit_csv(records, spec)
    again = parse_match_csv(data, spec)
    assert_same_records(again, records)
    assert emit_csv(again, spec) == data


def test_parse_order_is_stable(default_spec):
    data = emit_csv(synth.generate_league(synth.SynthConfig(n_teams=4, seed=3)))
    first = parse_match_csv(data, default_spec)
    second = parse_match_csv(data, default_spec)
    assert_same_records(first, second)


def test_parse_memory_per_row(default_spec):
    # Features live in one float64 matrix, not in a dict of floats per row,
    # and the input is decoded a line at a time, never as one text copy.
    # Records use slots and share one object per distinct name and date.
    cfg = synth.SynthConfig(n_teams=8, games_per_pair=4, seed=4)
    data = emit_csv(synth.generate_leagues(cfg, ["A", "B", "C"]))
    tracemalloc.start()
    try:
        records = parse_match_csv(data, default_spec)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(records) >= 600
    assert retained / len(records) <= 720
    assert peak / len(records) <= 800


@pytest.mark.parametrize(
    "signal",
    [synth.default_signal_map(), {n: 0.5 for n in list(DEFAULT_FEATURES)[::2]} | {"mystery": 2.0}],
    ids=["default", "subset-and-unknown"],
)
def test_generated_records_build_the_matrix_their_csv_does(signal, default_spec):
    # The subset keeps "kills", whose feature column a CSV fills from the kills column.
    cfg = synth.SynthConfig(n_teams=4, games_per_pair=2, seed=9, shared_noise_std=0.5, feature_signal_map=signal)
    records = synth.generate_leagues(cfg, ["LPL", "LCS", "LEC"])
    parsed = parse_match_csv(emit_csv(records), default_spec)
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
        TeamGameRecord("g1", "LPL", 2020, "A", "B", ts, True, 10, 5, np.array([gold_a])),
        TeamGameRecord("g1", "LPL", 2020, "B", "A", ts, False, 5, 10, np.array([gold_b])),
    ]


def _matrix_from_column(spec, values):
    from leaguewin.ingest import FeatureMatrix

    return FeatureMatrix(
        row_keys=[("T", f"g{i}") for i in range(len(values))],
        columns=list(spec.names),
        values=np.array(values, dtype=np.float64).reshape(-1, 1),
    )
