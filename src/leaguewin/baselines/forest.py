"""Lookback random forest: bagged Gini trees over averaged past-game features.

A forest's trees depend on the order of its random draws.  Every tree takes
one bootstrap sample from the forest's generator, then one
``rng.permutation(d)`` per scanned node, in depth-first preorder (a node,
then its left subtree, then its right).  A node is scanned when it may
split: below ``max_depth``, with at least ``2 * min_leaf`` rows and both
classes present.  Any change to how trees are grown must keep this order,
or the forests of every seed change.

``grow_forests`` grows the forests of many seeds in lockstep, each seed
drawing in this order from its own generator: every round scans the next
node of each unfinished seed, all in one ``kernels.best_split`` call.
Seeds are independent, so ``seed_predictions`` may grow any seed range
alone: ``experiment`` splits a row's seeds into one contiguous range per
worker process and stacks the ranges' rows back in seed order.
"""

from __future__ import annotations

import math
from collections.abc import Generator, Iterable, Iterator
from dataclasses import dataclass, field

import numpy as np

from .. import kernels
from ..ingest import FeatureSpec, TeamGameRecord, build_feature_matrix, paired_rows


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
    Rows and keys follow ``ingest.paired_rows`` order, as feature-matrix
    rows do: ``record_sort_key`` order, rows 2k and 2k+1 one game's sides.
    """
    if lookback < 1:
        raise ValueError("lookback must be >= 1")
    if spec is None:
        spec = FeatureSpec.default()
    matrix = build_feature_matrix(records, spec, mode)
    ordered = paired_rows(records)
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


def grow_forests(
    x: np.ndarray, y: np.ndarray, seeds: Iterable[int], n_trees: int = 100, max_depth: int = 10, min_leaf: int = 1
) -> Iterator[tuple[int, Tree]]:
    """One forest per seed, grown in lockstep; yields ``(position of the seed,
    tree)`` as each tree is finished, each seed's trees in order."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y)
    if x.shape[0] < 2:
        raise ValueError("need at least 2 training rows")
    if not np.isin(y, (0, 1)).all():
        raise ValueError("labels must be 0 or 1")
    y = y.astype(np.int64)
    keys, values = kernels.split_keys(x, y)
    columns = np.ascontiguousarray(x.T)  # each feature's values contiguous, for the partition
    growers = [_grow(columns, y, np.random.default_rng(seed), n_trees, max_depth, min_leaf) for seed in seeds]
    pending = {s: next(grower, None) for s, grower in enumerate(growers)}
    while True:
        for s in list(pending):
            while isinstance(pending[s], Tree):
                yield s, pending[s]
                pending[s] = next(growers[s], None)
            if pending[s] is None:
                del pending[s]
        if not pending:
            return
        splits = kernels.best_split(keys, values, list(pending.values()), min_leaf)
        pending = {s: growers[s].send(split) for s, split in zip(pending, splits)}


def _grow(columns, y, rng, n_trees, max_depth, min_leaf) -> Generator:
    """One seed's trees, each grown in preorder off an explicit stack.  Yields
    ``(rows, candidate features)`` for every scanned node, to be sent back
    its ``kernels.best_split`` result, and each finished tree."""
    d, n = columns.shape
    n_candidates = max(1, int(math.isqrt(d)))
    for _ in range(n_trees):
        sample = np.sort(rng.integers(0, n, size=n))
        tree = Tree()
        stack = [(sample, int(y[sample].sum()), 0, None, 0)]  # (rows, positives, depth, parent's child list, parent)
        while stack:
            idx, n_pos, depth, children, parent = stack.pop()
            node = len(tree.feature)
            if children is not None:
                children[parent] = node
            tree.feature.append(-1)
            tree.threshold.append(0.0)
            tree.left.append(-1)
            tree.right.append(-1)
            tree.value.append(n_pos / idx.size)
            tree.count.append(idx.size)
            if depth >= max_depth or idx.size < 2 * min_leaf or n_pos in (0, idx.size):
                continue
            best_feat, best_thresh, _, left_pos = yield idx, rng.permutation(d)[:n_candidates]
            if best_feat < 0:
                continue
            go_left = columns[best_feat][idx] <= best_thresh
            tree.feature[node] = best_feat
            tree.threshold[node] = best_thresh
            # The right child is pushed first, so the left subtree grows (and draws) first.
            stack.append((idx[~go_left], n_pos - left_pos, depth + 1, tree.right, node))
            stack.append((idx[go_left], left_pos, depth + 1, tree.left, node))
        yield tree


def forest_train(
    x: np.ndarray,
    y: np.ndarray,
    n_trees: int = 100,
    max_depth: int = 10,
    min_leaf: int = 1,
    seed: int = 0,
) -> Forest:
    """Bootstrap-bagged trees with sqrt(d) feature candidates per node.

    Labels are 0 or 1.  Single-class data grows one-leaf trees, a constant
    predictor.
    """
    return Forest(trees=[tree for _, tree in grow_forests(x, y, [seed], n_trees, max_depth, min_leaf)])


def forest_predict(forest: Forest, row: np.ndarray) -> float:
    """Positive-class probability: the mean leaf fraction over the trees."""
    return float(np.mean([tree.apply(row) for tree in forest.trees]))


def _tree_leaves(tree: Tree, x: np.ndarray) -> np.ndarray:
    """The leaf every row reaches, walking all rows down the tree together."""
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
    return node


def forest_predict_many(forest: Forest, x: np.ndarray) -> np.ndarray:
    """``forest_predict`` of every row of ``x``, with the same rounding."""
    x = np.asarray(x, dtype=np.float64)
    leaves = np.empty((x.shape[0], len(forest.trees)), dtype=np.float64)
    for j, tree in enumerate(forest.trees):
        leaves[:, j] = np.array(tree.value, dtype=np.float64)[_tree_leaves(tree, x)]
    # A mean along the contiguous last axis sums each row pairwise, as
    # np.mean does over one row's leaf values.
    return leaves.mean(axis=1)


def seed_predictions(
    x: np.ndarray, y: np.ndarray, x_test: np.ndarray, seeds: range, n_trees: int = 100, max_depth: int = 10,
    min_leaf: int = 1,
) -> np.ndarray:
    """Row i is ``forest_predict_many(forest_train(x, y, ..., seed=seeds[i]),
    x_test)``.  Each tree is scored as soon as it is grown and then dropped,
    so no finished forest is kept.  A seed's row does not depend on the
    other seeds in ``seeds``, so stacking the rows of contiguous ranges
    gives the rows of their union."""
    kept = [[] for _ in seeds]  # per tree, its leaf values and each row's leaf, in the narrowest type
    for s, tree in grow_forests(x, y, seeds, n_trees, max_depth, min_leaf):
        kept[s].append((np.array(tree.value), _tree_leaves(tree, x_test).astype(np.min_scalar_type(len(tree.value)))))
    # Each seed's (rows, trees) leaf matrix, summed along its contiguous last axis as forest_predict_many sums.
    return np.array([np.column_stack([value[leaf] for value, leaf in trees]).mean(axis=1) for trees in kept])
