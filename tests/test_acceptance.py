"""Acceptance suite: one test per numbered criterion, printed pass/fail.

Criterion 1 needs a real 2018-2020 match-log export and is skipped unless
LEAGUEWIN_REAL_DATA points at one; everything else runs on synthetic data.
"""

import json
import os
import time

import numpy as np
import pytest

from leaguewin import experiment, gcn, synth
from leaguewin.baselines import forest as rf
from leaguewin.baselines import scope as sc
from leaguewin.cli import cli_main
from leaguewin.graph import (
    assign_labels,
    build_league_graph,
    chebyshev_basis,
    label_source_node,
    normalized_adjacency,
    receptive_field,
    sym_normalized,
)
from leaguewin.ingest import FeatureSpec, build_feature_matrix, parse_match_csv, standardize
from test_gcn import finite_difference_check
from test_graph import brute_force_edges, _random_symmetric

import scipy.sparse as sp


def note(criterion, message):
    print(f"ACCEPTANCE {criterion}: PASS - {message}")


def test_criterion_1_paper_numbers_optional_tier():
    path = os.environ.get("LEAGUEWIN_REAL_DATA")
    if not path:
        pytest.skip("ACCEPTANCE 1: SKIPPED - no real match-log export supplied (set LEAGUEWIN_REAL_DATA)")
    records = parse_match_csv(open(path, "rb").read())
    plan = experiment.SplitPlan("LPL", "LCK", "LCS", 2020)
    report = experiment.compare_all(records, plan)
    by_model = {(r.model, r.dataset): r.test_accuracy for r in report.rows}
    cheby_delta = by_model[("gcn-cheby (1 layer)", "delta")]
    scope_acc = by_model[("scope (elo)", "kills")]
    forest = by_model[("random forest (lookback=5)", "delta")]
    assert cheby_delta > scope_acc > forest
    assert abs(cheby_delta - 0.619) <= 0.03
    assert abs(scope_acc - 0.591) <= 0.02
    assert abs(forest - 0.578) <= 0.02
    note(1, "real-data comparison reproduces the expected ordering and bands")


def test_criterion_2_graph_construction_oracle():
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    checked = 0
    for _ in range(200):
        n_teams = int(rng.integers(2, 13))
        max_pairings = max(1, 60 // (n_teams * (n_teams - 1) // 2))
        games_per_pair = int(rng.integers(1, max_pairings + 1))
        cfg = synth.SynthConfig(n_teams=n_teams, games_per_pair=games_per_pair, seed=int(rng.integers(0, 2**31)))
        # Chronological prefix keeps pairs intact while capping at 60 games.
        records = [r for r in synth.generate_league(cfg) if r.game_index_in_season < 60]
        assert len(records) <= 120
        g = build_league_graph(records)
        nodes, edges = brute_force_edges(records)
        assert g.nodes == nodes
        assert g.edges == edges
        checked += 1
    elapsed = time.perf_counter() - start
    assert checked == 200
    assert elapsed < 5.0, f"graph oracle took {elapsed:.2f}s"
    note(2, f"200 random seasons matched the brute-force builder in {elapsed:.2f}s")


def test_criterion_3_normalization_correctness():
    rng = np.random.default_rng(7)
    for _ in range(100):
        n = int(rng.integers(2, 51))
        dense = _random_symmetric(rng, n)
        out = sym_normalized(sp.csr_matrix(dense)).toarray()
        a_hat = dense + np.eye(n)
        d = np.diag(1.0 / np.sqrt(a_hat.sum(axis=1)))
        expected = d @ a_hat @ d
        assert np.abs(out - expected).max() < 1e-12
        eigs = np.linalg.eigvalsh(out)
        assert eigs.min() >= -1.0 - 1e-10 and eigs.max() <= 1.0 + 1e-10
    note(3, "100 random graphs match the dense oracle at 1e-12 with spectrum in [-1, 1]")


def test_criterion_4_chebyshev_recurrence():
    rng = np.random.default_rng(9)
    for seed in range(10):
        records = synth.generate_league(
            synth.SynthConfig(n_teams=int(rng.integers(3, 9)), games_per_pair=2, seed=seed)
        )
        g = build_league_graph(records)
        basis = chebyshev_basis(g, 2)
        t0, t1, t2 = (m.toarray() for m in basis.matrices)
        assert np.abs(t2 - (2.0 * t1 @ t1 - t0)).max() < 1e-12
        k0 = chebyshev_basis(g, 0)
        assert np.array_equal(k0.matrices[0].toarray(), np.eye(g.n_nodes))
    note(4, "T2 == 2*L~*T1 - T0 at 1e-12 and the K=0 basis is the identity")


def _ten_node_graph():
    from datetime import datetime, timedelta, timezone

    from test_graph import game

    t0 = datetime(2020, 1, 1, tzinfo=timezone.utc)
    records = []
    for i in range(5):
        records += game(f"g{i}", "A", "B", i % 2 == 0, t0 + timedelta(days=i))
    rng = np.random.default_rng(17)
    names = ["f0", "f1", "f2", "f3"]
    for r in records:
        r.features = rng.normal(size=4)
    spec = FeatureSpec(names, {n: "objectives" for n in names})
    matrix = standardize(build_feature_matrix(records, spec, "delta"))
    return build_league_graph(records, features=matrix)


def test_criterion_5_gradient_check():
    start = time.perf_counter()
    g1 = assign_labels(_ten_node_graph(), 2)
    assert g1.n_nodes == 10 and g1.label_mask.any()
    config = gcn.TrainConfig(hidden_dims=[5, 3], dropout=0.0, propagator_kind="gcn", seed=0)
    model = gcn.init_model(config, 4)
    worst_gcn = finite_difference_check(
        model, g1.features.values, normalized_adjacency(g1), g1.labels, g1.label_mask, 5e-4
    )
    assert worst_gcn < 1e-4

    g2 = assign_labels(_ten_node_graph(), 1)
    config2 = gcn.TrainConfig(hidden_dims=[6], dropout=0.0, propagator_kind="gcn-cheby", chebyshev_degree=1, seed=1)
    model2 = gcn.init_model(config2, 4)
    worst_cheby = finite_difference_check(
        model2, g2.features.values, chebyshev_basis(g2, 1), g2.labels, g2.label_mask, 5e-4
    )
    assert worst_cheby < 1e-4
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    note(5, f"worst relative gradient errors {worst_gcn:.2e} (gcn), {worst_cheby:.2e} (cheby) in {elapsed:.1f}s")


def test_criterion_6_no_leakage():
    rng = np.random.default_rng(6)
    checked_nodes = 0
    for trial in range(50):
        c = 1 if trial % 2 == 0 else 2
        cfg = synth.SynthConfig(
            n_teams=int(rng.integers(3, 8)),
            games_per_pair=int(rng.integers(2, 4)),
            seed=int(rng.integers(0, 2**31)),
        )
        records = synth.generate_league(cfg)
        matrix = standardize(build_feature_matrix(records, FeatureSpec.default(), "delta"))
        g = assign_labels(build_league_graph(records, features=matrix), c)
        config = gcn.TrainConfig(
            hidden_dims=[4] * c, dropout=0.0,
            propagator_kind="gcn-cheby" if trial % 3 == 0 else "gcn", seed=trial,
        )
        model = gcn.init_model(config, matrix.values.shape[1])
        prop = gcn.build_propagator(g, model.propagator_kind, model.chebyshev_degree)
        base_logits, _ = gcn.forward(model, g.features.values, prop)
        for node in np.flatnonzero(g.label_mask):
            source = label_source_node(g, int(node), c)
            assert source not in receptive_field(g, int(node), c)
            for sign in (1.0, -1.0):
                perturbed = g.features.values.copy()
                perturbed[source] += sign * 1e6
                logits, _ = gcn.forward(model, perturbed, prop)
                # The masked node's embedding is untouched, bit for bit.
                assert np.array_equal(logits[node], base_logits[node])
                single = np.zeros(g.n_nodes, dtype=bool)
                single[node] = True
                assert gcn.masked_loss(logits, g.labels, single) == gcn.masked_loss(
                    base_logits, g.labels, single
                )
            checked_nodes += 1
    note(6, f"perturbing label sources left {checked_nodes} masked embeddings bit-identical")


def test_criterion_7_transfer_learning_at_desk_scale():
    start = time.perf_counter()
    plan = experiment.SplitPlan("AAA", "BBB", "CCC", 2020)
    accs, majorities = [], []
    for seed in range(10):
        cfg = synth.SynthConfig(
            n_teams=10, games_per_pair=4, seed=100 + seed,
            latent_skill_std=1.5, feature_noise_std=1.0,
        )
        records = synth.generate_leagues(cfg, ["AAA", "BBB", "CCC"])
        config = gcn.TrainConfig(hidden_dims=[64], dropout=0.1, propagator_kind="gcn-cheby", seed=seed)
        row, _, _ = experiment.run_cross_league(records, plan, config, "delta")
        accs.append(row.test_accuracy)
        _, _, test_g, _ = experiment.prepare_split(records, plan, "delta", 1)
        labels = test_g.labels[test_g.label_mask]
        majorities.append(max(float((labels == 1).mean()), float((labels == 0).mean())))
    mean_acc = float(np.mean(accs))
    mean_majority = float(np.mean(majorities))
    elapsed = time.perf_counter() - start
    assert mean_acc >= 0.58
    assert mean_acc - mean_majority >= 0.05
    assert elapsed < 120.0
    note(7, f"10-seed mean accuracy {mean_acc:.3f} vs majority {mean_majority:.3f} in {elapsed:.1f}s")


def test_criterion_8_baseline_sanity():
    # Elo complement identity, exact.
    rng = np.random.default_rng(0)
    for _ in range(500):
        a, b = rng.uniform(1000, 2100, size=2)
        assert abs(sc.elo_expected(a, b) + sc.elo_expected(b, a) - 1.0) < 1e-15

    # Zero-sum updates under symmetric effective K.
    cfg = sc.ScopeConfig(base_k=37.0, cutoff=1e9, reduction=0.2, mov_func="log", w90=40.0)
    state = sc.ScopeState(ratings={"A": 1530.0, "B": 1470.0})
    after = sc.scope_update(state, sc.GameResult("g", "A", "B", "B", 9), cfg)
    assert (after.ratings["A"] - 1530.0) + (after.ratings["B"] - 1470.0) == 0.0

    # Planted-config recovery, SCOPE grid.
    records = synth.generate_league(
        synth.SynthConfig(n_teams=8, games_per_pair=3, seasons=2, first_season=2019, seed=6, latent_skill_std=2.0)
    )
    train = sc.games_from_records([r for r in records if r.season == 2019])
    val = sc.games_from_records([r for r in records if r.season == 2020])
    grid = {"base_k": [0, 40], "cutoff": [1700], "reduction": [0.1], "mov_func": ["none"], "w90": [100], "regression": [0]}
    best, _ = sc.scope_grid_search(train, val, grid)
    assert best.base_k == 40

    # Planted-config recovery, GCN grid (delta must beat poisoned raw).
    plan = experiment.SplitPlan("AAA", "BBB", "CCC", 2020)
    cfg3 = synth.SynthConfig(
        n_teams=10, games_per_pair=4, seed=200, latent_skill_std=1.5,
        feature_noise_std=0.5, shared_noise_std=6.0,
    )
    recs3 = synth.generate_leagues(cfg3, ["AAA", "BBB", "CCC"])
    gcn_grid = {"hidden1": [16], "hidden2": [None], "dropout": [0.1], "model": ["gcn"], "dataset": ["raw", "delta"]}
    report = experiment.grid_search_gcn(recs3, plan, gcn_grid, gcn.TrainConfig(seed=0))
    winner = [r for r in report.rows if r.note == "winner"][0]
    assert winner.dataset == "delta"

    # Random-forest permutation null.
    cfg_rf = synth.SynthConfig(
        n_teams=10, games_per_pair=4, seasons=2, first_season=2019, seed=13,
        latent_skill_std=1.2, feature_noise_std=1.5,
    )
    rf_records = synth.generate_league(cfg_rf)
    x_train, y_train, _ = rf.lookback_dataset([r for r in rf_records if r.season == 2019], 5, "delta")
    x_test, y_test, _ = rf.lookback_dataset([r for r in rf_records if r.season == 2020], 5, "delta")
    null_accs = []
    for seed in range(3):
        shuffled = np.random.default_rng(seed).permutation(y_train)
        forest = rf.forest_train(x_train, shuffled, n_trees=100, seed=seed)
        pred = rf.forest_predict_many(forest, x_test) > 0.5
        null_accs.append(float((pred == (y_test == 1)).mean()))
    assert abs(float(np.mean(null_accs)) - 0.5) < 0.05
    note(8, "Elo identities, zero-sum updates, planted-config recovery, and the RF null all hold")


def test_criterion_9_determinism_of_cli_runs(tmp_path):
    synth_cfg = tmp_path / "synth.json"
    synth_cfg.write_text(
        json.dumps(
            {
                "n_teams": 6, "games_per_pair": 2, "seasons": 3, "first_season": 2018,
                "latent_skill_std": 1.5, "seed": 21, "leagues": ["AAA", "BBB", "CCC"],
            }
        )
    )
    season = tmp_path / "season.csv"
    assert cli_main(["simulate", "--config", str(synth_cfg), "--out", str(season)]) == 0
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({"train_league": "AAA", "val_league": "BBB", "test_league": "CCC", "season": 2020}))

    payloads = []
    for name in ("t1", "t2"):
        out = tmp_path / name
        assert cli_main(["train", "--data", str(season), "--plan", str(plan), "--seed", "4", "--out", str(out)]) == 0
        payloads.append(((out / "model.json").read_bytes(), (out / "train_report.csv").read_bytes()))
    assert payloads[0] == payloads[1]

    reports = []
    for name in ("c1", "c2"):
        out = tmp_path / name
        assert cli_main(["compare", "--data", str(season), "--plan", str(plan), "--seed", "4", "--out", str(out)]) == 0
        reports.append(((out / "compare_report.csv").read_bytes(), (out / "compare_report.json").read_bytes()))
    assert reports[0] == reports[1]
    note(9, "train and compare reruns produced byte-identical model and report files")
