"""Synthetic multi-league seasons with known latent skill.

Every pipeline stage is tested against data from here, so generation is
fully seeded: identical configs produce byte-identical CSVs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from datetime import datetime, timedelta, timezone
from itertools import combinations

import numpy as np

from .ingest import DEFAULT_FEATURES, TeamGameRecord, record_sort_key
# Unused here; perfbench/spans.py looks the CSV writer up under this name.
from .ingest import emit_csv  # noqa: F401


_COLUMN = {n: j for j, n in enumerate(DEFAULT_FEATURES)}


def default_signal_map() -> dict[str, float]:
    # Uniform unit coefficients; tests override per-feature strengths.
    return {name: 1.0 for name in DEFAULT_FEATURES}


@dataclass
class SynthConfig:
    n_teams: int = 10
    games_per_pair: int = 2
    seasons: int = 1
    latent_skill_std: float = 1.0
    feature_noise_std: float = 1.0
    feature_signal_map: dict[str, float] = field(default_factory=default_signal_map)
    seed: int = 0
    league: str = "SYN"
    first_season: int = 2020
    # Per-game offset shared by both sides; delta features cancel it, raw
    # features keep it, which lets tests separate the two dataset modes.
    shared_noise_std: float = 0.0

    def __post_init__(self):
        if self.n_teams < 2:
            raise ValueError("n_teams must be >= 2")
        for name in ("latent_skill_std", "feature_noise_std", "shared_noise_std"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")


def _sigmoid(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-min(x, 60.0)))
    return 1.0 - _sigmoid(-x)


def team_names(config: SynthConfig) -> list[str]:
    return [f"{config.league}-T{i:02d}" for i in range(config.n_teams)]


def generate_league(config: SynthConfig) -> list[TeamGameRecord]:
    """Simulate round-robin seasons for one league.

    Latent skills are drawn once and held fixed across seasons; winners are
    sampled from the Bradley-Terry curve and features carry
    ``coef * (skill difference + outcome) + noise`` per the signal map.
    """
    rng = np.random.default_rng(config.seed)
    teams = team_names(config)
    skills = rng.normal(0.0, config.latent_skill_std, size=config.n_teams)
    names = list(config.feature_signal_map)
    coefs = np.array([config.feature_signal_map[n] for n in names])
    # Draw drawn[m] lands in column slots[m] of a DEFAULT_FEATURES row; names outside it are dropped.
    drawn = np.array([k for k, n in enumerate(names) if n in _COLUMN], dtype=np.intp)
    layout = (drawn, np.array([_COLUMN[names[k]] for k in drawn], dtype=np.intp))

    records: list[TeamGameRecord] = []
    for season_offset in range(config.seasons):
        season = config.first_season + season_offset
        start = datetime(season, 1, 15, tzinfo=timezone.utc)
        pairs = list(combinations(range(config.n_teams), 2))
        game_no = 0
        for meeting in range(config.games_per_pair):
            order = rng.permutation(len(pairs))
            for k in order:
                i, j = pairs[k]
                if meeting % 2 == 1:
                    i, j = j, i  # swap sides between meetings
                records.extend(
                    _simulate_game(
                        rng,
                        config,
                        season,
                        game_no,
                        start + timedelta(hours=6 * game_no),
                        teams,
                        skills,
                        i,
                        j,
                        coefs,
                        layout,
                    )
                )
                game_no += 1
    records.sort(key=record_sort_key)
    return records


def _simulate_game(rng, config, season, game_no, ts, teams, skills, i, j, coefs, layout):
    gap = skills[i] - skills[j]
    won_i = bool(rng.random() < _sigmoid(gap))
    kills = {}
    for side, sign, won in ((i, 1.0, won_i), (j, -1.0, not won_i)):
        mean = 11.0 + 1.8 * sign * gap + (2.5 if won else -2.5)
        kills[side] = max(0, int(round(mean + rng.normal(0.0, 1.5))))
    shared = rng.normal(0.0, config.shared_noise_std, size=len(coefs)) if config.shared_noise_std else None
    game_id = f"{config.league}-{season}-{game_no:04d}"
    drawn, slots = layout
    out = []
    for side, opp, sign, won in ((i, j, 1.0, won_i), (j, i, -1.0, not won_i)):
        signal = sign * gap + (1.0 if won else -1.0)
        vals = coefs * signal + rng.normal(0.0, config.feature_noise_std, size=len(coefs))
        if shared is not None:
            vals = vals + shared
        features = np.full(len(DEFAULT_FEATURES), np.nan)
        features[slots] = vals[drawn]
        if "kills" in config.feature_signal_map:
            features[_COLUMN["kills"]] = kills[side]
        if "deaths" in config.feature_signal_map:
            features[_COLUMN["deaths"]] = kills[opp]
        out.append(
            TeamGameRecord(
                game_id=game_id,
                league=config.league,
                season=season,
                team=teams[side],
                opponent=teams[opp],
                timestamp=ts,
                won=won,
                kills=kills[side],
                opponent_kills=kills[opp],
                features=features,
            )
        )
    return out


def generate_leagues(config: SynthConfig, leagues: list[str]) -> list[TeamGameRecord]:
    """Simulate several leagues sharing one feature-signal map.

    Each league gets its own teams and skill draws from a spawned seed.
    """
    children = np.random.SeedSequence(config.seed).spawn(len(leagues))
    records: list[TeamGameRecord] = []
    for league, child in zip(leagues, children):
        sub = replace(config, league=league, seed=int(child.generate_state(1)[0]))
        records.extend(generate_league(sub))
    return records
