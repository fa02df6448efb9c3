"""Tests of the benchmark's own oracles: python3 -m pytest -q perfbench"""

from __future__ import annotations

import csv
import math
import random
from datetime import datetime, timedelta, timezone

import pytest

import oracle

HEADER = ["gameid", "league", "season", "date", "team", "opponent", "result", "kills",
          "opponent_kills", "is_regular_season"]


def write_games(path, games):
    """games: (league, season, team, opponent, team_won, team_kills, opponent_kills, regular)."""
    start = datetime(2018, 1, 1, tzinfo=timezone.utc)
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(HEADER)
        for n, (league, season, team, opp, won, kills, opp_kills, regular) in enumerate(games):
            gameid, date = f"{league}-{season}-{n:04d}", (start + timedelta(hours=n)).isoformat()
            for a, b, a_won, ka, kb in ((team, opp, won, kills, opp_kills), (opp, team, not won, opp_kills, kills)):
                writer.writerow([gameid, league, season, date, a, b, int(a_won), ka, kb, int(regular)])
    return oracle.read_team_games(path)


# --- scalar Elo ----------------------------------------------------------

# Kill margins 4 and 9 with w90 = 10: g(4), g(9) per MoV kind, worked by hand.
MULTIPLIERS = {
    "none": (1.0, 1.0),
    "lin": (1.4, 1.9),
    "exp": (1 + (math.exp(0.4) - 1) / (math.e - 1), 1 + (math.exp(0.9) - 1) / (math.e - 1)),
    "log": (1 + math.log(5) / math.log(11), 1 + math.log(10) / math.log(11)),
    "sqrt": (1 + 2 / math.sqrt(10), 1 + 3 / math.sqrt(10)),
}


@pytest.mark.parametrize("kind", sorted(MULTIPLIERS))
def test_scalar_elo_three_games(kind):
    g1, g2 = MULTIPLIERS[kind]
    cfg = {"base_k": 40, "cutoff": 1510, "reduction": 0.5, "mov_func": kind, "w90": 10, "regression": 0}
    games = [
        oracle.EloGame("A", "B", True, 4),  # even ratings: A predicted, A wins
        oracle.EloGame("A", "C", False, 9),  # A above the cutoff (K halved) is predicted, C wins
        oracle.EloGame("B", "C", True, 0),  # C above the cutoff is predicted, B wins; g(0) = 1
    ]
    # Game 1: E_A = 1/2, K = 40 g1 for both.
    a, b = 1500 + 20 * g1, 1500 - 20 * g1
    # Game 2: E_A = 1 / (1 + 10^((1500 - a) / 400)); K_A = 20 g2, K_C = 40 g2.
    e_a = 1 / (1 + 10 ** ((1500 - a) / 400))
    a, c = a - 20 * g2 * e_a, 1500 + 40 * g2 * e_a
    # Game 3: E_B = 1 / (1 + 10^((c - b) / 400)); K_B = 40, K_C = 20.
    e_b = 1 / (1 + 10 ** ((c - b) / 400))
    b, c = b + 40 * (1 - e_b), c - 20 * (1 - e_b)

    ratings = {}
    assert oracle.elo_pass(games, cfg, ratings, scored=True) == 1
    assert ratings == pytest.approx({"A": a, "B": b, "C": c}, abs=1e-9)
    if kind == "none":
        assert ratings == pytest.approx({"A": 1509.42499, "B": 1502.35777, "C": 1509.97114}, abs=1e-5)


def test_mov_multiplier_doubles_k_at_w90():
    for kind in ("lin", "exp", "log", "sqrt"):
        assert oracle.mov_multiplier(kind, 0, 300) == pytest.approx(1.0)
        assert oracle.mov_multiplier(kind, 300, 300) == pytest.approx(2.0)


def test_regression_pulls_toward_initial_rating():
    assert oracle.regress({"A": 1600.0, "B": 1400.0}, {"regression": 0.25}) == {"A": 1575.0, "B": 1425.0}


# --- counts --------------------------------------------------------------


def test_labelled_nodes_four_team_league(tmp_path):
    # W plays 4 games, X 3, Y 2, Z 3; a playoff game and another league do not count.
    games = [("LLL", 2020, t, o, True, 10, 5, True)
             for t, o in (("W", "X"), ("Y", "Z"), ("W", "Y"), ("X", "Z"), ("W", "Z"), ("W", "X"))]
    games += [("LLL", 2020, "W", "X", True, 10, 5, False), ("MMM", 2020, "W", "X", True, 10, 5, True)]
    rows = write_games(tmp_path / "season.csv", games)
    assert oracle.games_per_team(rows, "LLL", 2020) == {"W": 4, "X": 3, "Y": 2, "Z": 3}
    # One convolution labels game i with game i + 2: W 2, X 1, Y 0, Z 1.
    assert oracle.labelled_nodes(rows, "LLL", 2020, 1) == 4
    assert oracle.labelled_nodes(rows, "LLL", 2020, 2) == 1
    assert oracle.lookback_rows(rows, "LLL", 2020, 2) == 4
    assert oracle.lookback_rows(rows, "LLL", 2020, 5) == 0


def test_elo_games_keep_first_listed_side(tmp_path):
    rows = write_games(tmp_path / "season.csv", [("LLL", 2020, "Y", "X", False, 3, 8, True)])
    assert oracle.elo_games(rows, "LLL", 2020) == [oracle.EloGame("X", "Y", True, 5)]


def test_lattice_enumeration():
    assert oracle.lattice_size() == 12000
    assert oracle.lattice_config(0) == {"base_k": 5, "cutoff": 1600, "reduction": 0.1, "mov_func": "none",
                                        "w90": 100, "regression": 0}
    assert oracle.lattice_config(1)["regression"] == 0.1
    assert oracle.lattice_config(11999)["base_k"] == 50
    assert oracle.lattice_sample(3, 5) == oracle.lattice_sample(3, 5)


# --- the checks reject a report one game off ---------------------------------


@pytest.fixture
def three_leagues(tmp_path):
    rng = random.Random(7)
    teams = ["P", "Q", "R", "S"]
    games = []
    for league in ("AAA", "BBB", "CCC"):
        for season in (2018, 2019, 2020):
            for _ in range(4):
                for i, t in enumerate(teams):
                    for o in teams[i + 1:]:
                        kills, opp_kills = rng.randrange(20), rng.randrange(20)
                        games.append((league, season, league + t, league + o, kills > opp_kills,
                                      kills, opp_kills, True))
    return write_games(tmp_path / "season.csv", games)


PLAN = oracle.Plan("AAA", "BBB", "CCC", 2020)


def scope_report_row(rows, sample):
    spans = [oracle.elo_games(rows, "CCC", s) for s in (2018, 2019, 2020)]
    scores = [oracle.scope_counts(spans[0], spans[1], None, cfg)[0] for cfg in sample]
    best = sample[scores.index(max(scores))]
    val, test = oracle.scope_counts(*spans, best)
    params = dict(best, initial_rating=1500.0)
    return {"model": "scope (elo)", "dataset": "kills", "params": params,
            "val_accuracy": val / len(spans[1]), "test_accuracy": test / len(spans[2])}, len(spans[1]), len(spans[2])


def test_scope_check_rejects_one_game_off(three_leagues):
    sample = oracle.lattice_sample(1, 40)
    row, n_val, n_test = scope_report_row(three_leagues, sample)
    assert oracle.check_scope_row(row, three_leagues, PLAN, sample) == []
    for field, n in (("val_accuracy", n_val), ("test_accuracy", n_test)):
        for step in (1, -1):
            bad = dict(row, **{field: row[field] + step / n})
            if 0 <= bad[field] <= 1:
                assert oracle.check_scope_row(bad, three_leagues, PLAN, sample)


def grid_rows(rows):
    n_val = oracle.labelled_nodes(rows, "BBB", 2020, 1)
    n_test = oracle.labelled_nodes(rows, "CCC", 2020, 1)
    report = []
    for i, k in enumerate((8, 9, 7)):
        report.append({"model": "gcn (1 layer)", "dataset": "delta",
                       "params": {"hidden_dims": [32 * (i + 1)], "dropout": 0.5},
                       "val_accuracy": k / n_val, "test_accuracy": None, "note": ""})
    report[1].update(test_accuracy=10 / n_test, note="winner")
    return report, n_val, n_test


def test_grid_check_rejects_one_game_off(three_leagues):
    report, n_val, n_test = grid_rows(three_leagues)
    assert oracle.check_grid(report, three_leagues, PLAN, cells=3) == []
    # Row 0 one game better ties the winner, and ties go to the first cell.
    for row, step in ((0, 1), (1, -1)):
        bad = [dict(r) for r in report]
        bad[row]["val_accuracy"] += step / n_val
        assert oracle.check_grid(bad, three_leagues, PLAN, cells=3)
    half = [dict(r) for r in report]
    half[1]["test_accuracy"] += 0.5 / n_test
    assert oracle.check_grid(half, three_leagues, PLAN, cells=3)


def test_gcn_row_must_be_whole_games(three_leagues):
    n_val = oracle.labelled_nodes(three_leagues, "BBB", 2020, 2)
    n_test = oracle.labelled_nodes(three_leagues, "CCC", 2020, 2)
    row = {"params": {"hidden_dims": [64, 64]}, "val_accuracy": 2 / n_val, "test_accuracy": 3 / n_test}
    assert oracle.check_gcn_row(row, three_leagues, PLAN, "row") == []
    assert oracle.check_gcn_row(dict(row, test_accuracy=3 / (n_test + 1)), three_leagues, PLAN, "row")
