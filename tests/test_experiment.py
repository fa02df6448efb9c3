import numpy as np
import pytest

from leaguewin import experiment, gcn, synth
from leaguewin.experiment import (
    SplitPlan,
    compare_all,
    default_gcn_grid,
    gcn_grid_cells,
    grid_search_gcn,
    run_cross_league,
)


def three_leagues(seed=200, skill=1.5, noise=1.0, seasons=1, first_season=2020, **kw):
    cfg = synth.SynthConfig(
        n_teams=10, games_per_pair=4, seed=seed, latent_skill_std=skill,
        feature_noise_std=noise, seasons=seasons, first_season=first_season, **kw
    )
    return synth.generate_leagues(cfg, ["AAA", "BBB", "CCC"])


PLAN = SplitPlan("AAA", "BBB", "CCC", 2020)


def test_plan_requires_distinct_leagues():
    with pytest.raises(ValueError, match="distinct"):
        SplitPlan("LPL", "LPL", "LCS", 2020)


def test_missing_league_is_named():
    records = three_leagues()
    with pytest.raises(ValueError, match="ZZZ"):
        run_cross_league(records, SplitPlan("AAA", "BBB", "ZZZ", 2020), gcn.TrainConfig())


def test_transfer_fixture_beats_majority():
    records = three_leagues(seed=100)
    config = gcn.TrainConfig(hidden_dims=[64], dropout=0.1, propagator_kind="gcn-cheby", seed=0)
    row, model, report = run_cross_league(records, PLAN, config, "delta")
    assert row.test_accuracy >= 0.58
    assert report.test_accuracy == row.test_accuracy
    assert row.model == "gcn-cheby (1 layer)"


def test_standardization_uses_training_stats():
    records = three_leagues()
    train_g, val_g, test_g, stats = experiment.prepare_split(records, PLAN, "delta", 1)
    # Training league is exactly z-scored; the others keep its scale, so
    # their own column spread differs from 1 (league skill spreads differ).
    assert np.allclose(train_g.features.values.mean(axis=0), 0.0, atol=1e-12)
    assert np.allclose(train_g.features.values.std(axis=0), 1.0, atol=1e-12)
    assert not np.allclose(test_g.features.values.std(axis=0), 1.0, atol=1e-3)


def test_shuffled_fit_leagues_score_at_chance():
    # Null oracle: coin-flip the outcomes of every train/val game, keep the
    # test league intact; transfer accuracy collapses to chance.
    accs = []
    for seed in range(8):
        records = three_leagues()
        rng = np.random.default_rng(1000 + seed)
        flips = {}
        for r in records:
            if r.league == "CCC":
                continue
            if r.game_id not in flips:
                flips[r.game_id] = bool(rng.random() < 0.5)
            if flips[r.game_id]:
                r.won = not r.won
        config = gcn.TrainConfig(hidden_dims=[64], dropout=0.1, propagator_kind="gcn-cheby", seed=seed)
        row, _, _ = run_cross_league(records, PLAN, config, "delta")
        accs.append(row.test_accuracy)
    assert abs(float(np.mean(accs)) - 0.5) < 0.05


def test_default_grid_cardinality():
    grid = default_gcn_grid()
    cells = gcn_grid_cells(grid)
    two_layer = [c for c in cells if len(c[0]) == 2]
    one_layer = [c for c in cells if len(c[0]) == 1]
    assert len(two_layer) == 3 * 3 * 3 * 2 * 2 == 108
    assert len(one_layer) == 3 * 3 * 2 * 2 == 36
    assert len(cells) == 144


def test_singleton_grid_matches_run_cross_league():
    records = three_leagues(seed=100)
    grid = {"hidden1": [32], "hidden2": [None], "dropout": [0.1], "model": ["gcn"], "dataset": ["delta"]}
    base = gcn.TrainConfig(seed=3)
    report = grid_search_gcn(records, PLAN, grid, base)
    assert len(report.rows) == 1
    row = report.rows[0]
    assert row.note == "winner"
    config = gcn.TrainConfig(hidden_dims=[32], dropout=0.1, propagator_kind="gcn", seed=3)
    direct, _, _ = run_cross_league(records, PLAN, config, "delta")
    assert row.test_accuracy == direct.test_accuracy
    assert row.val_accuracy == direct.val_accuracy


EIGHT_CELLS = {"hidden1": [8], "hidden2": [None, 8], "dropout": [0.1], "model": ["gcn", "gcn-cheby"],
               "dataset": ["raw", "delta"]}


def test_grid_builds_each_distinct_split_once(monkeypatch):
    records = three_leagues(seed=100)
    calls = []
    real = experiment.prepare_split

    def counting(records, plan, mode, convolutions, spec=None):
        calls.append((mode, convolutions))
        return real(records, plan, mode, convolutions, spec)

    monkeypatch.setattr(experiment, "prepare_split", counting)
    report = grid_search_gcn(records, PLAN, EIGHT_CELLS, gcn.TrainConfig(seed=0))
    assert len(report.rows) == 8
    assert sorted(calls) == [("delta", 1), ("delta", 2), ("raw", 1), ("raw", 2)]


def test_grid_builds_each_split_propagator_once(monkeypatch):
    records = three_leagues(seed=100)
    calls = []
    real = gcn.build_propagator

    def counting(g, kind, degree):
        calls.append((id(g), kind))
        return real(g, kind, degree)

    monkeypatch.setattr(gcn, "build_propagator", counting)
    grid = dict(EIGHT_CELLS, dropout=[0.1, 0.5])
    report = grid_search_gcn(records, PLAN, grid, gcn.TrainConfig(seed=0, max_epochs=5))
    assert len(report.rows) == 16
    # 4 splits x 2 kinds, a train and a validation graph each, then the
    # winner's test graph; no graph is built twice for one kind.
    assert len(calls) == 2 * 8 + 1
    assert len(set(calls)) == len(calls)


def test_grid_cells_on_shared_splits_match_run_cross_league():
    # Cells that share a split must train exactly as if each built its own.
    records = three_leagues(seed=100)
    base = gcn.TrainConfig(seed=2, max_epochs=20)
    report = grid_search_gcn(records, PLAN, EIGHT_CELLS, base)
    assert len(report.rows) == 8
    for row, (hidden, dropout, kind, dataset) in zip(report.rows, gcn_grid_cells(EIGHT_CELLS)):
        config = gcn.TrainConfig(
            hidden_dims=hidden, dropout=dropout, propagator_kind=kind, seed=2, max_epochs=20
        )
        direct, _, _ = run_cross_league(records, PLAN, config, dataset)
        assert (row.model, row.dataset, row.params) == (direct.model, direct.dataset, direct.params)
        assert row.val_accuracy == direct.val_accuracy


def test_grid_recovers_planted_dataset_mode():
    # Per-game shared offsets poison raw features; delta cancels them.
    records = three_leagues(seed=200, noise=0.5, shared_noise_std=6.0)
    grid = {"hidden1": [16], "hidden2": [None], "dropout": [0.1], "model": ["gcn"], "dataset": ["raw", "delta"]}
    report = grid_search_gcn(records, PLAN, grid, gcn.TrainConfig(seed=0))
    winner = [r for r in report.rows if r.note == "winner"][0]
    assert winner.dataset == "delta"


def test_grid_reads_test_labels_once(monkeypatch):
    records = three_leagues(seed=100)
    calls = {"n": 0}
    real = experiment.final_test_accuracy

    def counting(model, test_graph):
        calls["n"] += 1
        return real(model, test_graph)

    monkeypatch.setattr(experiment, "final_test_accuracy", counting)
    grid = {"hidden1": [8, 16], "hidden2": [None], "dropout": [0.1], "model": ["gcn"], "dataset": ["delta"]}
    grid_search_gcn(records, PLAN, grid, gcn.TrainConfig(seed=0))
    assert calls["n"] == 1

    calls["n"] = 0
    run_cross_league(records, PLAN, gcn.TrainConfig(hidden_dims=[8], seed=0))
    assert calls["n"] == 1


def test_compare_all_rows_and_formats():
    records = three_leagues(seed=100, seasons=3, first_season=2018)
    report = compare_all(records, PLAN, gcn.TrainConfig(dropout=0.1, seed=0), rf_seeds=3,
                         scope_grid={"base_k": [20, 40], "cutoff": [1700], "reduction": [0.3],
                                     "mov_func": ["none"], "w90": [100], "regression": [0, 0.4]})
    assert len(report.rows) == 6
    names = [r.model for r in report.rows]
    assert names.count("gcn-cheby (1 layer)") == 2
    assert "scope (elo)" in names and "random forest (lookback=5)" in names
    assert report.rows[3].std is not None  # forest row carries a spread
    csv_text = report.to_csv()
    assert csv_text.splitlines()[0] == "model,dataset,params,val_accuracy,test_accuracy,std,note"
    assert len(csv_text.splitlines()) == 7


def test_forest_row_notes_single_class_training_data():
    records = three_leagues(seed=100)
    for r in records:
        if r.league == PLAN.train_league:
            r.won = True
    row = experiment.random_forest_row(records, PLAN, seeds=2)
    assert row.note == "single-class training data: constant predictor"
    assert row.test_accuracy is not None and row.std == 0.0
    assert experiment.random_forest_row(three_leagues(seed=100), PLAN, seeds=2).note == ""


def test_compare_all_skips_scope_without_history():
    records = three_leagues(seed=100)  # single season: no 2018/2019 data
    report = compare_all(records, PLAN, gcn.TrainConfig(dropout=0.1, seed=0), rf_seeds=2)
    scope_rows = [r for r in report.rows if r.model == "scope (elo)"]
    assert len(scope_rows) == 1
    assert scope_rows[0].test_accuracy is None
    assert "skipped" in scope_rows[0].note
    assert sum(r.test_accuracy is not None for r in report.rows) == 5


def test_compare_all_reproducible():
    records = three_leagues(seed=100, seasons=3, first_season=2018)
    kwargs = dict(
        gcn_config=gcn.TrainConfig(dropout=0.25, seed=7),
        rf_seeds=2,
        scope_grid={"base_k": [40], "cutoff": [1700], "reduction": [0.3], "mov_func": ["none"], "w90": [100], "regression": [0.4]},
    )
    r1 = compare_all(records, PLAN, **kwargs)
    r2 = compare_all(records, PLAN, **kwargs)
    assert r1.to_json() == r2.to_json()
    assert r1.to_csv() == r2.to_csv()


def test_zero_signal_rows_sit_at_chance():
    accs = []
    for seed in range(8):
        records = three_leagues(seed=300 + seed, skill=0.0)
        config = gcn.TrainConfig(hidden_dims=[64], dropout=0.1, propagator_kind="gcn-cheby", seed=seed)
        row, _, _ = run_cross_league(records, PLAN, config, "delta")
        accs.append(row.test_accuracy)
    assert abs(float(np.mean(accs)) - 0.5) < 0.05
