import dataclasses

import numpy as np
import pytest

from leaguewin import synth
from leaguewin.ingest import FeatureSpec


@pytest.fixture
def default_spec():
    return FeatureSpec.default()


@pytest.fixture
def small_season():
    # 4 teams, double round robin: 12 games / 24 records, one season.
    cfg = synth.SynthConfig(n_teams=4, games_per_pair=2, seed=42, latent_skill_std=1.0)
    return synth.generate_league(cfg)


@pytest.fixture
def medium_season():
    cfg = synth.SynthConfig(n_teams=8, games_per_pair=2, seed=7, latent_skill_std=1.5)
    return synth.generate_league(cfg)


def make_csv(rows, header=None):
    """Tiny hand-rolled CSV builder for schema-level tests."""
    if header is None:
        header = (
            "gameid,league,season,date,team,opponent,result,kills,opponent_kills,"
            + ",".join(n for n in FeatureSpec.default().names if n != "kills")
        )
    return ("\n".join([header] + rows) + "\n").encode("utf-8")


def minimal_row(gameid, team, opponent, result, kills, opp_kills, league="LPL", season=2020, date="2020-01-05T10:00:00+00:00"):
    n_features = len([n for n in FeatureSpec.default().names if n != "kills"])
    feats = ",".join(["1.0"] * n_features)
    return f"{gameid},{league},{season},{date},{team},{opponent},{result},{kills},{opp_kills},{feats}"


def assert_same_records(got, want):
    """Field-by-field record equality; features compare as arrays, NaN equal to NaN.

    ``==`` on records cannot be used: dataclass equality on ndarray fields raises.
    """
    assert len(got) == len(want)
    for a, b in zip(got, want):
        for f in dataclasses.fields(a):
            x, y = getattr(a, f.name), getattr(b, f.name)
            if f.name == "features":
                assert np.array_equal(x, y, equal_nan=True), (a.team, a.game_id)
            else:
                assert x == y, (f.name, a.team, a.game_id)
