import numpy as np
import pytest

from leaguewin import synth
from leaguewin.baselines.forest import Forest, forest_predict, forest_predict_many, forest_train, lookback_dataset
from leaguewin.ingest import FeatureSpec


def test_lookback_one_equals_previous_game(small_season):
    spec = FeatureSpec.default()
    x, y, keys = lookback_dataset(small_season, 1, "raw", spec)
    ordered = sorted(small_season, key=lambda r: (r.league, r.timestamp, r.game_id, r.team))
    history = {}
    from leaguewin.ingest import build_feature_matrix

    matrix = build_feature_matrix(small_season, spec, "raw")
    expect = {}
    for i, r in enumerate(ordered):
        if r.team in history:
            expect[(r.team, r.game_id)] = matrix.values[history[r.team]]
        history[r.team] = i
    for key, row in zip(keys, x):
        assert np.array_equal(row, expect[key])


def test_lookback_skips_short_history(small_season):
    # 4 teams x 6 games each; lookback 5 leaves one row per team.
    x, y, keys = lookback_dataset(small_season, 5, "delta")
    assert len(keys) == 4
    games_per_team = 6
    assert len(keys) == 4 * max(0, games_per_team - 5)


def test_lookback_row_count_formula(medium_season):
    for n in (1, 3, 5):
        x, y, keys = lookback_dataset(medium_season, n, "delta")
        games_per_team = 14  # 8 teams, double round robin
        assert x.shape[0] == 8 * max(0, games_per_team - n)


def test_lookback_constant_features_average_to_constant():
    records = [r for r in synth.generate_league(synth.SynthConfig(n_teams=2, games_per_pair=6, seed=0))]
    for r in records:
        r.features = np.array([3.5])
    spec = FeatureSpec(["towers"], {"towers": "objectives"})
    x, y, keys = lookback_dataset(records, 3, "raw", spec)
    assert np.allclose(x, 3.5)


def test_separable_training_data_fits_exactly():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(80, 4))
    y = (x[:, 2] > 0).astype(np.int8)
    forest = forest_train(x, y, n_trees=20, max_depth=6, seed=1)
    pred = forest_predict_many(forest, x) > 0.5
    assert (pred == (y == 1)).all()


def test_single_class_predicts_constant_without_warning():
    # pytest turns any warning into an error, so this also checks none is raised.
    x = np.random.default_rng(0).normal(size=(10, 3))
    y = np.ones(10, dtype=np.int8)
    forest = forest_train(x, y, n_trees=5, seed=0)
    assert all(tree.left == [-1] for tree in forest.trees)
    assert forest_predict(forest, x[0]) == 1.0


def test_deterministic_per_seed():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(60, 5))
    y = (x[:, 0] + rng.normal(size=60) > 0).astype(np.int8)
    f1 = forest_train(x, y, n_trees=15, seed=7)
    f2 = forest_train(x, y, n_trees=15, seed=7)
    probe = rng.normal(size=(20, 5))
    assert np.array_equal(forest_predict_many(f1, probe), forest_predict_many(f2, probe))
    f3 = forest_train(x, y, n_trees=15, seed=8)
    assert not np.array_equal(forest_predict_many(f1, probe), forest_predict_many(f3, probe))


def test_prediction_invariant_to_tree_order():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(50, 4))
    y = (x[:, 1] > 0).astype(np.int8)
    forest = forest_train(x, y, n_trees=9, seed=2)
    row = rng.normal(size=4)
    base = forest_predict(forest, row)
    shuffled = Forest(trees=list(reversed(forest.trees)))
    assert forest_predict(shuffled, row) == pytest.approx(base, abs=1e-12)


def test_min_leaf_respected():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(120, 4))
    y = (x[:, 0] + 0.5 * rng.normal(size=120) > 0).astype(np.int8)
    forest = forest_train(x, y, n_trees=10, min_leaf=5, seed=3)
    for tree in forest.trees:
        for node in range(len(tree.feature)):
            if tree.left[node] == -1 and tree.count[node] < 5:
                # Only the root may fall short, and only if it was unsplittable.
                assert node == 0
    # Leaves produced by actual splits carry at least min_leaf rows.
    for tree in forest.trees:
        for node in range(len(tree.feature)):
            if tree.left[node] != -1:
                assert tree.count[tree.left[node]] >= 5
                assert tree.count[tree.right[node]] >= 5


def test_synthetic_lookback_band_matches_expected_regime():
    # Cross-season evaluation on a fixture tuned to sit in the upper-0.5s.
    cfg = synth.SynthConfig(
        n_teams=10, games_per_pair=4, seasons=2, first_season=2019, seed=13,
        latent_skill_std=1.2, feature_noise_std=1.5,
    )
    records = synth.generate_league(cfg)
    train = [r for r in records if r.season == 2019]
    test = [r for r in records if r.season == 2020]
    x_train, y_train, _ = lookback_dataset(train, 5, "delta")
    x_test, y_test, _ = lookback_dataset(test, 5, "delta")
    accs = []
    for seed in range(5):
        forest = forest_train(x_train, y_train, n_trees=100, seed=seed)
        pred = forest_predict_many(forest, x_test) > 0.5
        accs.append(float((pred == (y_test == 1)).mean()))
    assert 0.55 <= np.mean(accs) <= 0.65


def test_permutation_null_destroys_signal():
    cfg = synth.SynthConfig(
        n_teams=10, games_per_pair=4, seasons=2, first_season=2019, seed=13,
        latent_skill_std=1.2, feature_noise_std=1.5,
    )
    records = synth.generate_league(cfg)
    train = [r for r in records if r.season == 2019]
    test = [r for r in records if r.season == 2020]
    x_train, y_train, _ = lookback_dataset(train, 5, "delta")
    x_test, y_test, _ = lookback_dataset(test, 5, "delta")
    accs = []
    for seed in range(3):
        shuffled = np.random.default_rng(seed).permutation(y_train)
        forest = forest_train(x_train, shuffled, n_trees=100, seed=seed)
        pred = forest_predict_many(forest, x_test) > 0.5
        accs.append(float((pred == (y_test == 1)).mean()))
    assert abs(np.mean(accs) - 0.5) < 0.05


def test_labels_must_be_binary():
    with pytest.raises(ValueError, match="0 or 1"):
        forest_train(np.zeros((3, 2)), np.array([0, 1, 2]))


def test_requires_two_rows():
    with pytest.raises(ValueError, match="at least 2"):
        forest_train(np.zeros((1, 2)), np.zeros(1, dtype=np.int8))
