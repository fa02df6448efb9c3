"""SCOPE-style Elo: cutoff-reduced K, margin-of-victory scaling, preseason regression.

Ratings start at 1500, updates follow expected-score Elo with an effective K
of base_k * (1 - reduction) above the cutoff, scaled by a margin-of-victory
multiplier g(d) = 1 + f(d)/f(w90) (so K doubles at a margin of w90).  The
margin is the winner's kill count minus the loser's.
"""

from __future__ import annotations

import math
# Unused here; perfbench/spans.py swaps this name for its traced pool.
from concurrent.futures import ThreadPoolExecutor  # noqa: F401
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .. import kernels
from ..ingest import TeamGameRecord, paired_rows

# Each MoV function g(d, w90) = 1 + f(d)/f(w90) by name: g(0) = 1 for
# lin/log/sqrt, g(w90) = 2, so w90 is the margin at which K doubles.
MOV_FUNCTIONS = {
    "none": lambda d, w90: 1.0,
    "lin": lambda d, w90: 1.0 + d / w90,
    "exp": lambda d, w90: 1.0 + (math.exp(d / w90) - 1.0) / (math.e - 1.0),
    "log": lambda d, w90: 1.0 + math.log1p(d) / math.log1p(w90),
    "sqrt": lambda d, w90: 1.0 + math.sqrt(d) / math.sqrt(w90),
}

# Lattice order doubles as the deterministic tie-break order in grid search.
GRID_FIELDS = ("base_k", "cutoff", "reduction", "mov_func", "w90", "regression")


@dataclass(frozen=True)
class ScopeConfig:
    base_k: float = 40.0
    cutoff: float = 1700.0
    reduction: float = 0.5
    mov_func: str = "none"
    w90: float = 100.0
    regression: float = 0.0
    initial_rating: float = 1500.0

    def __post_init__(self):
        if self.base_k < 0:
            raise ValueError("base_k must be >= 0")
        if not 0.0 <= self.reduction < 1.0:
            raise ValueError("reduction must lie in [0, 1)")
        if self.mov_func not in MOV_FUNCTIONS:
            raise ValueError(f"mov_func must be one of {sorted(MOV_FUNCTIONS)}")
        if self.mov_func != "none" and self.w90 <= 0:
            raise ValueError("w90 must be positive when a MoV function is set")
        if not 0.0 <= self.regression <= 1.0:
            raise ValueError("regression must lie in [0, 1]")


@dataclass
class ScopeState:
    ratings: dict[str, float] = field(default_factory=dict)

    def rating(self, team: str, config: ScopeConfig) -> float:
        return self.ratings.get(team, config.initial_rating)


@dataclass(frozen=True)
class GameResult:
    game_id: str
    team: str  # first-listed side, used to break prediction ties
    opponent: str
    winner: str
    kill_diff: int


@dataclass
class ScopeEvalResult:
    accuracy: float
    correct: np.ndarray
    state: ScopeState


def elo_expected(r_a: float, r_b: float) -> float:
    """Win probability of the first team under the 400-point logistic rule."""
    return 1.0 / (1.0 + 10.0 ** ((r_b - r_a) / 400.0))


def mov_multiplier(kill_diff: float, config: ScopeConfig) -> float:
    if kill_diff < 0:
        raise ValueError("kill_diff must be >= 0")
    if config.mov_func != "none" and config.w90 <= 0:
        raise ValueError("w90 must be positive when a MoV function is set")
    return MOV_FUNCTIONS[config.mov_func](float(kill_diff), config.w90)


def scope_update(state: ScopeState, game: GameResult, config: ScopeConfig) -> ScopeState:
    """Apply one game's rating update; teams enter at the initial rating."""
    r_t = state.rating(game.team, config)
    r_o = state.rating(game.opponent, config)
    expected_t = elo_expected(r_t, r_o)
    g = mov_multiplier(game.kill_diff, config)
    k_t = config.base_k * g * ((1.0 - config.reduction) if r_t > config.cutoff else 1.0)
    k_o = config.base_k * g * ((1.0 - config.reduction) if r_o > config.cutoff else 1.0)
    outcome_t = 1.0 if game.winner == game.team else 0.0
    ratings = dict(state.ratings)
    ratings[game.team] = r_t + k_t * (outcome_t - expected_t)
    ratings[game.opponent] = r_o + k_o * ((1.0 - outcome_t) - (1.0 - expected_t))
    return ScopeState(ratings=ratings)


def scope_season_regress(state: ScopeState, config: ScopeConfig) -> ScopeState:
    """Pull every rating toward the initial rating at a season boundary."""
    return ScopeState(
        ratings={
            t: r + config.regression * (config.initial_rating - r)
            for t, r in state.ratings.items()
        }
    )


def games_from_records(records: list[TeamGameRecord]) -> list[GameResult]:
    """One game result per game, in ``paired_rows`` order, from the side
    listed first."""
    return [
        GameResult(
            game_id=r.game_id,
            team=r.team,
            opponent=r.opponent,
            winner=r.team if r.won else r.opponent,
            kill_diff=abs(r.kills - r.opponent_kills),
        )
        for r in paired_rows(records)[::2]
    ]


@dataclass(frozen=True)
class _Lattice:
    """Per-configuration parameters as vectors, one entry per config."""

    base_k: np.ndarray
    cutoff: np.ndarray
    keep: np.ndarray  # 1 - reduction
    regression: np.ndarray
    initial: np.ndarray
    mov_pairs: list[tuple[str, float]]  # distinct (mov_func, w90) pairs
    mov_group: np.ndarray  # each config's index into mov_pairs


def _lattice(configs: list[ScopeConfig]) -> _Lattice:
    pairs: dict[tuple[str, float], int] = {}
    group = [pairs.setdefault((c.mov_func, c.w90), len(pairs)) for c in configs]

    def vector(values) -> np.ndarray:
        return np.array(list(values), dtype=np.float64)

    return _Lattice(
        base_k=vector(c.base_k for c in configs),
        cutoff=vector(c.cutoff for c in configs),
        keep=vector(1.0 - c.reduction for c in configs),
        regression=vector(c.regression for c in configs),
        initial=vector(c.initial_rating for c in configs),
        mov_pairs=list(pairs),
        mov_group=np.array(group, dtype=np.int64),
    )


def _team_index(spans: list[list[GameResult]]) -> dict[str, int]:
    teams: dict[str, int] = {}
    for games in spans:
        for g in games:
            for t in (g.team, g.opponent):
                teams.setdefault(t, len(teams))
    return teams


def _lattice_pass(
    games: list[GameResult],
    teams: dict[str, int],
    lattice: _Lattice,
    ratings: np.ndarray,
    score_from: int,
) -> np.ndarray:
    """Walk ``games`` once for every config; see ``kernels.scope_pass``."""
    team_idx = np.array([teams[g.team] for g in games], dtype=np.int64)
    opp_idx = np.array([teams[g.opponent] for g in games], dtype=np.int64)
    team_won = np.array([1 if g.winner == g.team else 0 for g in games], dtype=np.uint8)
    mov = np.array([[MOV_FUNCTIONS[f](float(g.kill_diff), w90) for f, w90 in lattice.mov_pairs] for g in games])
    return kernels.scope_pass(
        team_idx, opp_idx, team_won, mov, lattice.mov_group, ratings,
        lattice.base_k, lattice.cutoff, lattice.keep, score_from,
    )


def _lattice_regress(ratings: np.ndarray, lattice: _Lattice) -> np.ndarray:
    # Teams not yet seen sit at the initial rating, which regression keeps.
    return ratings + lattice.regression * (lattice.initial - ratings)


def scope_advance(games: list[GameResult], config: ScopeConfig, state: ScopeState | None = None) -> ScopeState:
    """Update ratings over a span without scoring it (initialization seasons).

    This and ``scope_evaluate`` walk one game at a time through
    ``scope_update``: the scalar reference the lattice is tested against.
    """
    if state is None:
        state = ScopeState()
    for game in games:
        state = scope_update(state, game, config)
    return state


def scope_evaluate(
    games: list[GameResult],
    config: ScopeConfig,
    state: ScopeState | None = None,
) -> ScopeEvalResult:
    """Predict-then-update over a chronological span; returns accuracy and hits.

    Prediction is the higher-rated team (expected score >= 0.5); exact
    ties go to the first-listed team.
    """
    if not games:
        raise ValueError("empty test span")
    if state is None:
        state = ScopeState()
    correct = np.zeros(len(games), dtype=np.uint8)
    for i, game in enumerate(games):
        expected = elo_expected(state.rating(game.team, config), state.rating(game.opponent, config))
        correct[i] = (expected >= 0.5) == (game.winner == game.team)
        state = scope_update(state, game, config)
    return ScopeEvalResult(accuracy=int(correct.sum()) / len(games), correct=correct, state=state)


def default_scope_grid() -> dict[str, list]:
    return {
        "base_k": [5, 10, 20, 30, 40, 50],
        "cutoff": [1600, 1650, 1700, 1750],
        "reduction": [0.1, 0.2, 0.3, 0.4, 0.5],
        "mov_func": ["none", "lin", "exp", "log"],
        "w90": [100, 200, 300, 400, 500],
        "regression": [0, 0.1, 0.2, 0.3, 0.4],
    }


def grid_configs(grid: dict[str, list]) -> list[ScopeConfig]:
    defaults = ScopeConfig()
    axes = [grid[f] if f in grid else [getattr(defaults, f)] for f in GRID_FIELDS]
    return [ScopeConfig(**dict(zip(GRID_FIELDS, combo))) for combo in product(*axes)]


def _search(spans: list[list[GameResult]], grid: dict[str, list] | None):
    """``scope_grid_search``'s walk over ``spans[:2]``, with a rating row for
    every team of ``spans``.  Returns the configs, the team index, the
    ratings after validation, each config's validation accuracy and the
    index of the best config.
    """
    init_games, val_games = spans[:2]
    configs = grid_configs(default_scope_grid() if grid is None else grid)
    if not configs:
        raise ValueError("empty grid")
    if not val_games:
        raise ValueError("empty test span")
    teams = _team_index(spans)
    lattice = _lattice(configs)
    ratings = np.tile(lattice.initial, (len(teams), 1))
    _lattice_pass(init_games, teams, lattice, ratings, len(init_games))
    ratings = _lattice_regress(ratings, lattice)
    accs = [c / len(val_games) for c in _lattice_pass(val_games, teams, lattice, ratings, 0).tolist()]
    best = max(range(len(configs)), key=lambda i: accs[i])  # ties -> lowest index
    return configs, teams, ratings, accs, best


def scope_grid_search(
    train_games: list[GameResult],
    val_games: list[GameResult],
    grid: dict[str, list] | None = None,
) -> tuple[ScopeConfig, list[tuple[ScopeConfig, float]]]:
    """Exhaustive lattice search scored on the validation span.

    Each configuration initializes on the training span, regresses at the
    season boundary, then predicts the validation span.  All configurations
    advance together, one pass over each span.  Ties keep the
    lexicographically first configuration (lattice enumeration order).
    """
    configs, _, _, accs, best = _search([train_games, val_games], grid)
    return configs[best], list(zip(configs, accs))


@dataclass
class ScopeProtocolResult:
    best_config: ScopeConfig
    validation_accuracy: float
    test_accuracy: float
    table: list[tuple[ScopeConfig, float]]


def scope_protocol(
    init_games: list[GameResult],
    val_games: list[GameResult],
    test_games: list[GameResult],
    grid: dict[str, list] | None = None,
) -> ScopeProtocolResult:
    """Three-season protocol: initialize, grid-search on validation, score test.

    One lattice walks the first two seasons for every config; only the
    winner's column, regressed again, walks the test season.
    """
    if not test_games:
        raise ValueError("empty test span")
    configs, teams, ratings, accs, best = _search([init_games, val_games, test_games], grid)
    column = _lattice([configs[best]])
    ratings = _lattice_regress(ratings[:, best : best + 1], column)
    n_correct = _lattice_pass(test_games, teams, column, ratings, 0)
    return ScopeProtocolResult(
        best_config=configs[best],
        validation_accuracy=accs[best],
        test_accuracy=int(n_correct[0]) / len(test_games),
        table=list(zip(configs, accs)),
    )
