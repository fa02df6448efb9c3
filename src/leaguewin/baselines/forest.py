"""Lookback random forest: bagged Gini trees over averaged past-game features."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .. import kernels
from ..ingest import FeatureSpec, TeamGameRecord, build_feature_matrix


@dataclass
class Tree:
    # Flat preorder arrays; children are -1 at leaves, value is the
    # positive-class fraction of the training rows reaching the node.
    feature: list[int] = field(default_factory=list)
    threshold: list[float] = field(default_factory=list)
    left: list[int] = field(default_factory=list)
    right: list[int] = field(default_factory=list)
    value: list[float] = field(default_factory=list)
    count: list[int] = field(default_factory=list)

    def apply(self, row: np.ndarray) -> float:
        node = 0
        while self.left[node] != -1:
            node = self.left[node] if row[self.feature[node]] <= self.threshold[node] else self.right[node]
        return self.value[node]


@dataclass
class Forest:
    trees: list[Tree]


def lookback_dataset(
    records: list[TeamGameRecord],
    lookback: int,
    mode: str = "delta",
    spec: FeatureSpec | None = None,
) -> tuple[np.ndarray, np.ndarray, list[tuple[str, str]]]:
    """Per game: unweighted mean of the team's previous ``lookback`` feature
    vectors, labeled with the current result.  Games without enough history
    are skipped, so each team contributes max(0, games - lookback) rows.
    """
    if lookback < 1:
        raise ValueError("lookback must be >= 1")
    if spec is None:
        spec = FeatureSpec.default()
    matrix = build_feature_matrix(records, spec, mode)
    ordered = sorted(records, key=lambda r: (r.league, r.timestamp, r.game_id, r.team))
    history: dict[str, list[int]] = {}
    rows, labels, keys = [], [], []
    for i, r in enumerate(ordered):
        past = history.setdefault(r.team, [])
        if len(past) >= lookback:
            rows.append(matrix.values[past[-lookback:]].mean(axis=0))
            labels.append(1 if r.won else 0)
            keys.append((r.team, r.game_id))
        past.append(i)
    x = np.array(rows, dtype=np.float64).reshape(len(rows), len(spec.names))
    return x, np.array(labels, dtype=np.int8), keys


def forest_train(
    x: np.ndarray,
    y: np.ndarray,
    n_trees: int = 100,
    max_depth: int = 10,
    min_leaf: int = 1,
    seed: int = 0,
) -> Forest:
    """Bootstrap-bagged trees with sqrt(d) feature candidates per node."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.int8)
    if x.shape[0] < 2:
        raise ValueError("need at least 2 training rows")
    if len(np.unique(y)) < 2:
        warnings.warn("single-class training data; forest is a constant predictor", stacklevel=2)
    rng = np.random.default_rng(seed)
    n, d = x.shape
    n_candidates = max(1, int(math.isqrt(d)))
    trees = []
    for _ in range(n_trees):
        sample = rng.integers(0, n, size=n)
        tree = Tree()
        _grow(tree, x, y, np.sort(sample).astype(np.int64), 0, max_depth, min_leaf, n_candidates, rng)
        trees.append(tree)
    return Forest(trees=trees)


def _grow(tree, x, y, idx, depth, max_depth, min_leaf, n_candidates, rng) -> int:
    node = len(tree.feature)
    pos = float(y[idx].sum()) / idx.size
    tree.feature.append(-1)
    tree.threshold.append(0.0)
    tree.left.append(-1)
    tree.right.append(-1)
    tree.value.append(pos)
    tree.count.append(int(idx.size))
    if depth >= max_depth or idx.size < 2 * min_leaf or pos in (0.0, 1.0):
        return node
    feats = rng.permutation(x.shape[1])[:n_candidates].astype(np.int64)
    best_feat, best_thresh, _ = kernels.best_split(x, y, idx, feats, min_leaf)
    if best_feat < 0:
        return node
    go_left = x[idx, best_feat] <= best_thresh
    tree.feature[node] = int(best_feat)
    tree.threshold[node] = float(best_thresh)
    tree.left[node] = _grow(tree, x, y, idx[go_left], depth + 1, max_depth, min_leaf, n_candidates, rng)
    tree.right[node] = _grow(tree, x, y, idx[~go_left], depth + 1, max_depth, min_leaf, n_candidates, rng)
    return node


def forest_predict(forest: Forest, row: np.ndarray) -> float:
    """Positive-class probability: the mean leaf fraction over the trees."""
    return float(np.mean([tree.apply(row) for tree in forest.trees]))


def _tree_values(tree: Tree, x: np.ndarray) -> np.ndarray:
    """Leaf value of every row, walking all rows down the tree together."""
    feature = np.array(tree.feature, dtype=np.int64)
    threshold = np.array(tree.threshold, dtype=np.float64)
    left = np.array(tree.left, dtype=np.int64)
    right = np.array(tree.right, dtype=np.int64)
    rows = np.arange(x.shape[0])
    node = np.zeros(x.shape[0], dtype=np.int64)
    while rows.size:
        at = node[rows]
        inner = left[at] != -1
        rows, at = rows[inner], at[inner]
        go_left = x[rows, feature[at]] <= threshold[at]
        node[rows] = np.where(go_left, left[at], right[at])
    return np.array(tree.value, dtype=np.float64)[node]


def forest_predict_many(forest: Forest, x: np.ndarray) -> np.ndarray:
    """``forest_predict`` of every row of ``x``, with the same rounding."""
    x = np.asarray(x, dtype=np.float64)
    leaves = np.empty((x.shape[0], len(forest.trees)), dtype=np.float64)
    for j, tree in enumerate(forest.trees):
        leaves[:, j] = _tree_values(tree, x)
    # A mean along the contiguous last axis sums each row pairwise, as
    # np.mean does over one row's leaf values.
    return leaves.mean(axis=1)
