"""Independent checks of leaguewin job outputs.

Everything here is computed from the season CSV with the standard library
alone and never calls leaguewin, so a check cannot pass because the
program agrees with itself.
"""

from __future__ import annotations

import csv
import json
import math
import random
from collections import Counter
from datetime import datetime
from pathlib import Path
from typing import NamedTuple

INITIAL_RATING = 1500.0

# The SCOPE lattice of 12,000 configurations, in enumeration order.
SCOPE_LATTICE = (
    ("base_k", (5, 10, 20, 30, 40, 50)),
    ("cutoff", (1600, 1650, 1700, 1750)),
    ("reduction", (0.1, 0.2, 0.3, 0.4, 0.5)),
    ("mov_func", ("none", "lin", "exp", "log")),
    ("w90", (100, 200, 300, 400, 500)),
    ("regression", (0, 0.1, 0.2, 0.3, 0.4)),
)

# The six rows of `leaguewin compare`, in table order.
COMPARE_ROWS = (
    ("gcn-cheby (1 layer)", "raw"),
    ("gcn (1 layer)", "delta"),
    ("gcn-cheby (2 layer)", "delta"),
    ("random forest (lookback=5)", "delta"),
    ("scope (elo)", "kills"),
    ("gcn-cheby (1 layer)", "delta"),
)
FOREST_SEEDS = 10
FOREST_LOOKBACK = 5


class TeamGame(NamedTuple):
    league: str
    season: int
    date: datetime
    gameid: str
    team: str
    opponent: str
    won: bool
    kills: int
    opponent_kills: int
    regular: bool


class Plan(NamedTuple):
    train: str
    val: str
    test: str
    season: int


def read_team_games(path: Path) -> list[TeamGame]:
    """The CSV's data rows, one per team per game."""
    rows = []
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.reader(f)
        col = {name: i for i, name in enumerate(next(reader))}
        flag = col.get("is_regular_season")
        for row in reader:
            if not row or all(not c.strip() for c in row):
                continue
            rows.append(
                TeamGame(
                    league=row[col["league"]].strip(),
                    season=int(row[col["season"]]),
                    date=datetime.fromisoformat(row[col["date"]].strip()),
                    gameid=row[col["gameid"]].strip(),
                    team=row[col["team"]].strip(),
                    opponent=row[col["opponent"]].strip(),
                    won=row[col["result"]].strip() == "1",
                    kills=int(row[col["kills"]]),
                    opponent_kills=int(row[col["opponent_kills"]]),
                    regular=flag is None or row[flag].strip() in ("", "1"),
                )
            )
    return rows


def league_season(rows: list[TeamGame], league: str, season: int) -> list[TeamGame]:
    return [r for r in rows if r.league == league and r.season == season and r.regular]


def games_per_team(rows: list[TeamGame], league: str, season: int) -> Counter:
    return Counter(r.team for r in league_season(rows, league, season))


def labelled_nodes(rows: list[TeamGame], league: str, season: int, convolutions: int) -> int:
    """Nodes a c-convolution model is scored on: a team's game i is labelled
    by its game i + c + 1, so each team has max(0, games - c - 1)."""
    return sum(max(0, n - convolutions - 1) for n in games_per_team(rows, league, season).values())


def lookback_rows(rows: list[TeamGame], league: str, season: int, lookback: int) -> int:
    """Forest rows: each team's games after its first ``lookback``."""
    return sum(max(0, n - lookback) for n in games_per_team(rows, league, season).values())


# --- scalar Elo -------------------------------------------------------------


class EloGame(NamedTuple):
    team: str  # first-listed side: earliest (date, gameid, team) row of the game
    opponent: str
    team_won: bool
    kill_diff: int


def elo_games(rows: list[TeamGame], league: str, season: int) -> list[EloGame]:
    """One entry per game, in chronological order."""
    seen = set()
    games = []
    for r in sorted(league_season(rows, league, season), key=lambda r: (r.date, r.gameid, r.team)):
        if r.gameid in seen:
            continue
        seen.add(r.gameid)
        games.append(EloGame(r.team, r.opponent, r.won, abs(r.kills - r.opponent_kills)))
    return games


def mov_multiplier(kind: str, kill_diff: float, w90: float) -> float:
    """g(d) = 1 + f(d) / f(w90): K doubles at a kill margin of w90."""
    if kind == "none":
        return 1.0
    f = {
        "lin": lambda d: d,
        "exp": lambda d: math.exp(d / w90) - 1.0,
        "log": math.log1p,
        "sqrt": math.sqrt,
    }[kind]
    return 1.0 + f(float(kill_diff)) / f(float(w90))


def elo_pass(games: list[EloGame], cfg: dict, ratings: dict[str, float], scored: bool) -> int:
    """Predict-then-update over a span; returns the correct predictions.

    The prediction is the team with expected score >= 0.5, so exact ties go
    to the first-listed side; K is cut by ``reduction`` above ``cutoff``.
    """
    correct = 0
    for team, opp, team_won, kill_diff in games:
        r_t = ratings.get(team, INITIAL_RATING)
        r_o = ratings.get(opp, INITIAL_RATING)
        e_t = 1.0 / (1.0 + 10.0 ** ((r_o - r_t) / 400.0))
        if scored and (e_t >= 0.5) == team_won:
            correct += 1
        g = mov_multiplier(cfg["mov_func"], kill_diff, cfg["w90"])
        k_t = cfg["base_k"] * g * ((1.0 - cfg["reduction"]) if r_t > cfg["cutoff"] else 1.0)
        k_o = cfg["base_k"] * g * ((1.0 - cfg["reduction"]) if r_o > cfg["cutoff"] else 1.0)
        s_t = 1.0 if team_won else 0.0
        ratings[team] = r_t + k_t * (s_t - e_t)
        ratings[opp] = r_o + k_o * ((1.0 - s_t) - (1.0 - e_t))
    return correct


def regress(ratings: dict[str, float], cfg: dict) -> dict[str, float]:
    return {t: r + cfg["regression"] * (INITIAL_RATING - r) for t, r in ratings.items()}


def scope_counts(init: list[EloGame], val: list[EloGame], test: list[EloGame] | None, cfg: dict):
    """Correct predictions on the validation and (optionally) test seasons."""
    ratings: dict[str, float] = {}
    elo_pass(init, cfg, ratings, scored=False)
    ratings = regress(ratings, cfg)
    val_correct = elo_pass(val, cfg, ratings, scored=True)
    if test is None:
        return val_correct, None
    ratings = regress(ratings, cfg)
    return val_correct, elo_pass(test, cfg, ratings, scored=True)


def lattice_config(index: int) -> dict:
    cfg = {}
    for name, values in reversed(SCOPE_LATTICE):
        index, i = divmod(index, len(values))
        cfg[name] = values[i]
    return cfg


def lattice_size() -> int:
    return math.prod(len(v) for _, v in SCOPE_LATTICE)


def lattice_sample(seed: int, n: int) -> list[dict]:
    return [lattice_config(i) for i in sorted(random.Random(seed).sample(range(lattice_size()), n))]


# --- checks: each returns a list of problems, empty when the output holds ---


def check_multiple(value, n: int, what: str) -> list[str]:
    """``value`` must be k / n for a whole k in [0, n]."""
    if not isinstance(value, (int, float)) or n <= 0:
        return [f"{what}: {value!r} over {n} scored items"]
    k = value * n
    if abs(k - round(k)) > 1e-6 or not 0.0 <= value <= 1.0:
        return [f"{what}: {value!r} is not a whole count over {n}"]
    return []


def check_gcn_row(row: dict, rows: list[TeamGame], plan: Plan, what: str, tested: bool = True) -> list[str]:
    c = max(1, len(row["params"]["hidden_dims"]))
    errors = check_multiple(row["val_accuracy"], labelled_nodes(rows, plan.val, plan.season, c), f"{what} val")
    if tested:
        errors += check_multiple(row["test_accuracy"], labelled_nodes(rows, plan.test, plan.season, c), f"{what} test")
    return errors


def check_forest_row(row: dict, rows: list[TeamGame], plan: Plan) -> list[str]:
    # Not pinned to a value: the mean is only required to be a whole
    # number of correct rows summed over the forest seeds.
    if row["params"].get("seeds") != FOREST_SEEDS:
        return [f"forest: {row['params'].get('seeds')!r} seeds, expected {FOREST_SEEDS}"]
    n = FOREST_SEEDS * lookback_rows(rows, plan.test, plan.season, FOREST_LOOKBACK)
    errors = check_multiple(row["test_accuracy"], n, "forest mean test")
    if not isinstance(row["std"], float) or row["std"] < 0:
        errors.append(f"forest std {row['std']!r}")
    return errors


def check_scope_row(row: dict, rows: list[TeamGame], plan: Plan, sample: list[dict]) -> list[str]:
    """Re-score the reported config with the scalar Elo, and ask that no
    sampled lattice config beats it on validation."""
    spans = [elo_games(rows, plan.test, plan.season - k) for k in (2, 1, 0)]
    cfg = {name: row["params"][name] for name, _ in SCOPE_LATTICE}
    val_correct, test_correct = scope_counts(*spans, cfg)
    n_val, n_test = len(spans[1]), len(spans[2])
    errors = []
    if row["val_accuracy"] != val_correct / n_val:
        errors.append(f"scope val {row['val_accuracy']!r}, scalar Elo gives {val_correct}/{n_val}")
    if row["test_accuracy"] != test_correct / n_test:
        errors.append(f"scope test {row['test_accuracy']!r}, scalar Elo gives {test_correct}/{n_test}")
    for other in sample:
        better, _ = scope_counts(spans[0], spans[1], None, other)
        if better > val_correct:
            errors.append(f"scope: sampled config {other} scores {better}/{n_val} > {val_correct}/{n_val}")
            break
    return errors


def check_compare(report: list[dict], rows: list[TeamGame], plan: Plan, sample: list[dict]) -> list[str]:
    got = [(r["model"], r["dataset"]) for r in report]
    if got != list(COMPARE_ROWS):
        return [f"compare rows {got}"]
    errors = []
    for i, row in enumerate(report):
        if row["model"].startswith("gcn"):
            errors += check_gcn_row(row, rows, plan, f"row {i} {row['model']} {row['dataset']}")
    errors += check_forest_row(report[3], rows, plan)
    errors += check_scope_row(report[4], rows, plan, sample)
    return errors


def check_grid(report: list[dict], rows: list[TeamGame], plan: Plan, cells: int) -> list[str]:
    """One winner with the first maximal validation accuracy; only it is tested."""
    if len(report) != cells:
        return [f"grid has {len(report)} rows, expected {cells}"]
    keys = {(json.dumps(r["params"], sort_keys=True), r["model"], r["dataset"]) for r in report}
    if len(keys) != cells:
        return [f"grid has {len(keys)} distinct cells, expected {cells}"]
    winners = [i for i, r in enumerate(report) if r["note"] == "winner"]
    if len(winners) != 1:
        return [f"grid has {len(winners)} winners"]
    vals = [r["val_accuracy"] for r in report]
    first_best = vals.index(max(vals))
    errors = []
    if winners[0] != first_best:
        errors.append(f"winner is row {winners[0]}, first best validation is row {first_best}")
    for i, row in enumerate(report):
        tested = i == winners[0]
        if not tested and row["test_accuracy"] is not None:
            errors.append(f"row {i} was tested but did not win")
        errors += check_gcn_row(row, rows, plan, f"grid row {i}", tested)
    return errors


def check_train_predict(out: Path, data: Path, rows: list[TeamGame], plan: Plan) -> list[str]:
    """Outputs of ingest, then train (gcn-cheby, 1 layer), then predict on the test league."""
    errors = []
    quality = json.loads((out / "ingest" / "quality_report.json").read_text("utf-8"))
    if (quality["rows_read"], quality["records_parsed"], quality["row_errors"]) != (len(rows), len(rows), []):
        errors.append(f"quality report {quality['rows_read']} read, {quality['records_parsed']} parsed, "
                      f"{len(quality['row_errors'])} errors; the CSV has {len(rows)} rows")
    if (out / "ingest" / "records.csv").read_bytes() != data.read_bytes():
        errors.append("records.csv differs from the input CSV")
    model = json.loads((out / "train" / "model.json").read_text("utf-8"))["model"]
    shapes = [[list(map(len, (w, w[0]))) for w in stage] for stage in model["weights"]]
    if model["layer_dims"] != [30, 64, 2] or shapes != [[[30, 64], [30, 64]], [[64, 2]]]:
        errors.append(f"model dims {model['layer_dims']}, weight shapes {shapes}")
    with open(out / "predict" / "predictions.csv", newline="", encoding="utf-8") as f:
        preds = list(csv.DictReader(f))
    keys = [(p["team"], p["game_id"]) for p in preds]
    expected = {(r.team, r.gameid) for r in league_season(rows, plan.test, plan.season)}
    if len(keys) != len(set(keys)) or set(keys) != expected:
        errors.append(f"{len(keys)} predictions for {len(expected)} {plan.test} team-games")
    bad = [p["p_win"] for p in preds if not 0.0 <= float(p["p_win"]) <= 1.0]
    if bad:
        errors.append(f"p_win outside [0, 1]: {bad[:3]}")
    return errors
