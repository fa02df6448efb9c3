import math
from itertools import product

import numpy as np
import pytest

from leaguewin import kernels, synth
from leaguewin.baselines import forest as rf
from leaguewin.baselines import scope as sc


def scalar_best_split(x, y, sample_idx, feat_idx, min_leaf):
    """Reference Gini scan: one Python loop per candidate and threshold.

    Returns (feature, threshold, gini, left_pos), as ``kernels.best_split``.
    """
    m = len(sample_idx)
    best = (-1, 0.0, math.inf)
    total_pos = sum(int(y[i]) for i in sample_idx)
    for f in feat_idx:
        vals = [float(x[i, f]) for i in sample_idx]
        order = sorted(range(m), key=lambda k: vals[k])
        pos = 0
        for s in range(m - 1):
            pos += int(y[sample_idx[order[s]]])
            n_left, n_right = s + 1, m - s - 1
            v_cur, v_next = vals[order[s]], vals[order[s + 1]]
            if n_left < min_leaf or n_right < min_leaf or v_cur == v_next:
                continue
            p_l = pos / n_left
            p_r = (total_pos - pos) / n_right
            g_l = 1.0 - p_l * p_l - (1.0 - p_l) * (1.0 - p_l)
            g_r = 1.0 - p_r * p_r - (1.0 - p_r) * (1.0 - p_r)
            g = (n_left * g_l + n_right * g_r) / m
            if g < best[2]:
                threshold = 0.5 * (v_cur + v_next)
                best = (int(f), threshold if v_cur <= threshold < v_next else v_cur, g)
    feat, threshold, _ = best
    left_pos = sum(int(y[i]) for i in sample_idx if feat >= 0 and x[i, feat] <= threshold)
    return (*best, left_pos)


def scalar_kernel(keys, values, sample_idx, feat_idx, min_leaf):
    """``scalar_best_split`` behind the signature of ``kernels.best_split``.

    Decodes the matrix and labels from ``kernels.split_keys`` output.
    """
    x = np.take_along_axis(values, keys >> 1, axis=1).T
    return scalar_best_split(x, keys[0] & 1, sample_idx, feat_idx, min_leaf)


def fast_kernel(x, y, sample_idx, feat_idx, min_leaf):
    """``kernels.best_split`` on the matrix and labels the scalar scan takes."""
    keys, values = kernels.split_keys(np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.int64))
    return kernels.best_split(keys, values, sample_idx, feat_idx, min_leaf)


def reference_forest(x, y, n_trees, max_depth, min_leaf, seed):
    """Trees grown by plain recursion over row lists with the scalar scan.

    Draws from the generator as ``forest_train`` must: per tree one
    bootstrap sample, then one permutation per scanned node in preorder.
    Returns the trees and the number of scanned nodes.
    """
    rng = np.random.default_rng(seed)
    n, d = x.shape
    n_candidates = max(1, math.isqrt(d))
    trees, scans = [], 0

    def grow(tree, rows, depth):
        nonlocal scans
        node = len(tree.feature)
        n_pos = sum(int(y[i]) for i in rows)
        tree.feature.append(-1)
        tree.threshold.append(0.0)
        tree.left.append(-1)
        tree.right.append(-1)
        tree.value.append(n_pos / len(rows))
        tree.count.append(len(rows))
        if depth >= max_depth or len(rows) < 2 * min_leaf or n_pos in (0, len(rows)):
            return node
        scans += 1
        feats = rng.permutation(d)[:n_candidates]
        feat, threshold, _, _ = scalar_best_split(x, y, rows, feats, min_leaf)
        if feat < 0:
            return node
        tree.feature[node] = feat
        tree.threshold[node] = threshold
        tree.left[node] = grow(tree, [i for i in rows if x[i, feat] <= threshold], depth + 1)
        tree.right[node] = grow(tree, [i for i in rows if x[i, feat] > threshold], depth + 1)
        return node

    for _ in range(n_trees):
        tree = rf.Tree()
        grow(tree, sorted(rng.integers(0, n, size=n).tolist()), 0)
        trees.append(tree)
    return trees, scans


def random_games(rng, n_games, n_teams):
    games = []
    for i in range(n_games):
        team, opp = rng.choice(n_teams, size=2, replace=False)
        winner = team if rng.random() < 0.5 + 0.04 * (opp - team) else opp
        games.append(sc.GameResult(f"g{i}", f"T{team}", f"T{opp}", f"T{winner}", int(rng.integers(0, 30))))
    return games


def scalar_season(games, cfg, state, threshold=0.5):
    """Predict-then-update over a span with the one-game rule; returns (hits, state)."""
    hits = 0
    for g in games:
        expected = sc.elo_expected(state.rating(g.team, cfg), state.rating(g.opponent, cfg))
        hits += (expected >= threshold) == (g.winner == g.team)
        state = sc.scope_update(state, g, cfg)
    return hits, state


def test_scope_pass_matches_scalar_updates_all_mov_kinds():
    rng = np.random.default_rng(0)
    train, val = random_games(rng, 120, 8), random_games(rng, 120, 8)
    axes = ([0, 17.5, 40], [1480, 1520.0], [0.0, 0.35], sorted(sc.MOV_CODES), [10, 25.0], [0, 0.3])
    configs = [sc.ScopeConfig(*combo) for combo in product(*axes)]
    assert {c.mov_func for c in configs} == {"none", "lin", "exp", "log", "sqrt"}

    pairs = sorted({(sc.MOV_CODES[c.mov_func], c.w90) for c in configs})
    group = np.array([pairs.index((sc.MOV_CODES[c.mov_func], c.w90)) for c in configs])
    base_k = np.array([c.base_k for c in configs], dtype=np.float64)
    cutoff = np.array([c.cutoff for c in configs], dtype=np.float64)
    keep = np.array([1.0 - c.reduction for c in configs])
    regression = np.array([c.regression for c in configs])
    teams = {f"T{i}": i for i in range(8)}

    def run(games, ratings, score_from):
        return kernels.scope_pass(
            np.array([teams[g.team] for g in games]),
            np.array([teams[g.opponent] for g in games]),
            np.array([g.winner == g.team for g in games], dtype=np.uint8),
            kernels.mov_table([g.kill_diff for g in games], pairs),
            group, ratings, base_k, cutoff, keep, score_from,
        )

    ratings = np.full((8, len(configs)), 1500.0)
    run(train, ratings, len(train))
    ratings = ratings + regression * (1500.0 - ratings)
    hits = run(val, ratings, 0)

    for c, cfg in enumerate(configs):
        _, state = scalar_season(train, cfg, sc.ScopeState())
        state = sc.scope_season_regress(state, cfg)
        want_hits, state = scalar_season(val, cfg, state)
        assert hits[c] == want_hits, cfg
        assert [ratings[i, c] for i in range(8)] == [state.rating(t, cfg) for t in teams], cfg


def test_best_split_matches_scalar_scan():
    rng = np.random.default_rng(2)
    for trial in range(200):
        n, d = int(rng.integers(2, 260)), int(rng.integers(1, 7))
        x = rng.normal(size=(n, d))
        if trial % 3 == 0:
            x = np.round(x, 1)  # many tied values
        if trial % 7 == 0:
            x[:, 0] = 1.0  # a constant candidate
        y = (x[:, -1] + rng.normal(size=n) > 0.3 * (trial % 4)).astype(np.int8)
        idx = np.sort(rng.integers(0, n, size=n)).astype(np.int64)
        feats = rng.permutation(d)[: int(rng.integers(1, d + 1))].astype(np.int64)
        min_leaf = int(rng.choice([1, 2, 3, 5, 20]))
        got = fast_kernel(x, y, idx, feats, min_leaf)
        assert got == scalar_best_split(x, y, idx, feats, min_leaf), (trial, min_leaf)


def test_split_keys_encode_value_rank_and_label():
    x = np.array([[0.5, -2.0], [0.25, -2.0], [0.5, 7.0], [-1.0, -2.0]])
    y = np.array([1, 0, 0, 1])
    keys, values = kernels.split_keys(x, y)
    assert keys.tolist() == [[2 * 2 + 1, 2 * 1, 2 * 2, 2 * 0 + 1], [2 * 0 + 1, 2 * 0, 2 * 1, 2 * 0 + 1]]
    assert values.tolist() == [[-1.0, 0.25, 0.5, 0.0], [-2.0, 7.0, 0.0, 0.0]]


def test_best_split_counts_more_than_127_positives():
    # 300 rows, 200 of them positive: an int8 counter wraps at 127 and
    # reports a cut at 158.5 with a negative Gini.  The best cut leaves
    # 9 of 90 positive on the left and 191 of 210 on the right.
    i = np.arange(300)
    x = np.column_stack([i, (i * 37) % 300]).astype(np.float64)
    y = ((i >= 90) != (i % 11 == 0)).astype(np.int8)
    assert int(y.sum()) == 200
    args = (x, y, i.astype(np.int64), np.array([1, 0], dtype=np.int64), 1)
    assert fast_kernel(*args) == (0, 89.5, 0.16920634920634922, 9)
    assert fast_kernel(*args) == scalar_best_split(*args)


def test_best_split_respects_min_leaf():
    x = np.arange(10.0).reshape(-1, 1)
    y = np.array([0, 0, 0, 0, 0, 1, 1, 1, 1, 1], dtype=np.int8)
    idx = np.arange(10, dtype=np.int64)
    feats = np.zeros(1, dtype=np.int64)
    feat, thresh, gini, left_pos = fast_kernel(x, y, idx, feats, 4)
    assert feat == 0
    # The perfect split at 4.5 is allowed (5 rows either side) and found.
    assert thresh == 4.5 and gini == 0.0 and left_pos == 0
    feat6, _, _, _ = fast_kernel(x, y, idx, feats, 6)
    assert feat6 == -1  # no split can leave 6 rows on both sides


def test_best_split_no_split_on_constant_feature():
    x = np.ones((8, 1))
    y = np.array([0, 1, 0, 1, 0, 1, 0, 1], dtype=np.int8)
    feat, _, _, _ = fast_kernel(x, y, np.arange(8, dtype=np.int64), np.zeros(1, dtype=np.int64), 1)
    assert feat == -1


@pytest.mark.parametrize(
    "below, above, top",
    [
        (1.0 + 2.0**-52, 1.0 + 2.0**-51, 2.0),  # the midpoint rounds up onto the upper value
        (1.0e308, 1.5e308, 1.7e308),  # the sum overflows to inf
        (-1.5e308, -1.0e308, -0.5e308),  # the sum overflows to -inf
    ],
    ids=["adjacent-doubles", "overflow-up", "overflow-down"],
)
def test_best_split_threshold_separates_the_two_values(below, above, top):
    x = np.array([below, below, above, above, top]).reshape(-1, 1)
    y = np.array([0, 0, 1, 1, 1], dtype=np.int8)
    args = (x, y, np.arange(5, dtype=np.int64), np.zeros(1, dtype=np.int64), 1)
    assert fast_kernel(*args) == (0, below, 0.0, 0)
    assert scalar_best_split(*args) == (0, below, 0.0, 0)
    trees = rf.forest_train(x, y, n_trees=3).trees
    assert all(min(tree.count) >= 1 for tree in trees)  # no empty child
    assert below in [tree.threshold[0] for tree in trees]


def test_forests_match_reference_grower_tree_for_tree():
    # Rounded features make ties (and both -0.0 and 0.0), the bootstrap
    # repeats rows, and the root holds more than 127 positives, past an
    # int8 counter.
    rng = np.random.default_rng(8)
    x = np.round(rng.normal(size=(260, 9)), 1)
    y = (x[:, 0] + x[:, 1] + rng.normal(size=260) > -0.3).astype(np.int8)
    assert int(y.sum()) > 140
    for seed, min_leaf, max_depth in product(range(5), (1, 3, 5), (3, 10)):
        want, scans = reference_forest(x, y, 2, max_depth, min_leaf, seed)
        got = rf.forest_train(x, y, n_trees=2, max_depth=max_depth, min_leaf=min_leaf, seed=seed).trees
        assert repr(got) == repr(want), (seed, min_leaf, max_depth)
        assert scans > 2 and max(tree.value[0] * tree.count[0] for tree in got) > 127


def test_mov_multiplier_codes_match_named_functions():
    w90 = 120.0
    d = 60.0
    assert kernels._mov_multiplier(d, kernels.MOV_NONE, w90) == 1.0
    assert kernels._mov_multiplier(d, kernels.MOV_LIN, w90) == 1.0 + d / w90
    assert kernels._mov_multiplier(d, kernels.MOV_EXP, w90) == 1.0 + (math.exp(d / w90) - 1.0) / (math.e - 1.0)
    assert kernels._mov_multiplier(d, kernels.MOV_LOG, w90) == 1.0 + math.log1p(d) / math.log1p(w90)
    assert kernels._mov_multiplier(d, kernels.MOV_SQRT, w90) == 1.0 + math.sqrt(d) / math.sqrt(w90)


def test_forest_predict_many_matches_forest_predict():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(240, 6))
    y = (x[:, 0] + rng.normal(size=240) > 0).astype(np.int8)
    for seed in range(3):
        forest = rf.forest_train(x, y, n_trees=25, max_depth=6, min_leaf=int(seed + 1), seed=seed)
        rows = np.vstack([rng.normal(size=(150, 6)), x[:50]])
        want = np.array([rf.forest_predict(forest, row) for row in rows])
        assert np.array_equal(rf.forest_predict_many(forest, rows), want)


def test_fallback_produces_same_forest_and_scope_results(monkeypatch):
    # End to end on one synthetic league: the scalar reference paths (one
    # config at a time through scope_update, the per-threshold scan and
    # per-row forest_predict) give exactly what the array kernels give.
    records = synth.generate_league(synth.SynthConfig(n_teams=6, games_per_pair=2, seasons=2, first_season=2019, seed=3))
    train = sc.games_from_records([r for r in records if r.season == 2019])
    val = sc.games_from_records([r for r in records if r.season == 2020])
    grid = {"base_k": [10, 40], "cutoff": [1650], "reduction": [0.2], "mov_func": ["none", "exp"], "w90": [100], "regression": [0, 0.3]}
    best, table = sc.scope_grid_search(train, val, grid)
    for cfg, acc in table:
        _, state = scalar_season(train, cfg, sc.ScopeState())
        hits, _ = scalar_season(val, cfg, sc.scope_season_regress(state, cfg))
        assert acc == hits / len(val)
    assert best == max(table, key=lambda row: row[1])[0]

    x, y, _ = rf.lookback_dataset([r for r in records if r.season == 2019], 2, "delta")
    fast = rf.forest_train(x, y, n_trees=10, seed=0)
    scalar_calls = []

    def counted_scalar(*args):
        scalar_calls.append(args[2].size)
        return scalar_kernel(*args)

    monkeypatch.setattr(kernels, "best_split", counted_scalar)
    slow = rf.forest_train(x, y, n_trees=10, seed=0)
    want, scans = reference_forest(x, y, 10, 10, 1, 0)
    assert repr(fast.trees) == repr(slow.trees) == repr(want)
    assert len(scalar_calls) == scans > 10
    assert np.array_equal(rf.forest_predict_many(fast, x), [rf.forest_predict(slow, row) for row in x])
