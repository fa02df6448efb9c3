"""The two hot loops, written as numpy array passes.

``scope_pass`` is the sequential Elo pass.  Elo is sequential over games but
independent across configurations, so ratings are held as an
``(n_teams, n_configs)`` array and the games are walked once for the whole
SCOPE lattice.  ``best_split`` is the Gini split scan of a batch of tree
nodes (one per forest grown in lockstep); it sorts the candidate features'
integer keys (value rank and label, made once per forest by ``split_keys``)
for all the nodes at once, scores every threshold from cumulative label
counts with both sides of the cut stacked into one array, and returns the
left side's positive count so the grower never recounts a child's labels.

Both evaluate the same floating-point expressions, in the same operand
order, as the scalar rules they replace (``baselines.scope.scope_update``
and a per-threshold scan), so their results are bit-identical to those.
"""

import math

import numpy as np


def scope_pass(
    team_idx,
    opp_idx,
    team_won,
    mov,
    mov_group,
    ratings,
    base_k,
    cutoff,
    keep,
    score_from,
):
    """One chronological Elo pass for many configurations at once.

    ``ratings`` is ``(n_teams, n_configs)`` and is updated in place.  Config
    ``c`` uses K ``base_k[c]``, scaled by ``keep[c]`` (1 - reduction) for a
    side rated above ``cutoff[c]``, and the MoV multiplier
    ``mov[game, mov_group[c]]``.  Games at index >= score_from are scored
    (predict before update): the pick is the first-listed team when its
    expected score is >= 0.5, so exact ties go to it.

    Returns the number of correct predictions per configuration.
    """
    n_correct = np.zeros(ratings.shape[1], dtype=np.int64)
    for i in range(team_idx.shape[0]):
        t = team_idx[i]
        o = opp_idx[i]
        r_t = ratings[t]
        r_o = ratings[o]
        # float_power rounds like Python's float ** on every input tried;
        # np.power's SIMD loop can differ by an ulp.
        expected_t = 1.0 / (1.0 + np.float_power(10.0, (r_o - r_t) / 400.0))
        won = team_won[i] == 1
        if i >= score_from:
            n_correct += (expected_t >= 0.5) == won
        k = base_k * mov[i][mov_group]
        k_t = k * np.where(r_t > cutoff, keep, 1.0)
        k_o = k * np.where(r_o > cutoff, keep, 1.0)
        outcome_t = 1.0 if won else 0.0
        new_t = r_t + k_t * (outcome_t - expected_t)
        new_o = r_o + k_o * ((1.0 - outcome_t) - (1.0 - expected_t))
        ratings[t] = new_t
        ratings[o] = new_o
    return n_correct


def split_keys(x, y):
    """The per-forest inputs of ``best_split``: sort keys and distinct values.

    ``keys[f, i]`` is ``2 * r + y[i]``, where r is the rank of ``x[i, f]``
    among feature f's sorted distinct values, and ``values[f, r]`` is that
    value (each row of ``values`` is zero-padded past its distinct count).
    Sorting a node's keys orders its rows by value, puts equal values next
    to each other and carries each row's 0/1 label in the low bit, so a
    node needs one integer sort per candidate feature and no label gather.
    """
    n, d = x.shape
    keys = np.empty((d, n), dtype=np.int64)
    values = np.zeros((d, n), dtype=np.float64)
    for f in range(d):
        distinct, rank = np.unique(x[:, f], return_inverse=True)
        keys[f] = 2 * rank + y
        values[f, : distinct.size] = distinct
    return keys, values


def best_split(keys, values, nodes, min_leaf):
    """Gini-minimizing axis-aligned split of each node over its candidate features.

    ``keys`` and ``values`` come from ``split_keys``.  ``nodes`` is a list of
    ``(sample_idx, feat_idx)``, each with at least one row and all with the
    same number of candidates; they are scanned in one segmented pass, with
    no padding.  Cuts lie between consecutive distinct values; splits
    leaving fewer than min_leaf rows on either side are skipped.  Ties keep
    the first candidate feature and the lowest threshold, so results are
    deterministic.

    The threshold between sorted neighbours a < b is the midpoint
    ``0.5 * (a + b)`` when a <= midpoint < b, and a otherwise (the midpoint
    of adjacent doubles can round onto b, and the sum of two huge ones
    overflows), the rule scikit-learn's splitter uses.  Either way
    ``x <= threshold`` sends exactly the rows up to the cut left.

    Returns one (feature, threshold, gini, left_pos) per node: feature is -1
    when no valid split exists, and left_pos is the number of positive rows
    with ``x[row, feature] <= threshold``.
    """
    n = keys.shape[1]
    sizes = np.array([idx.shape[0] for idx, _ in nodes])
    starts = sizes.cumsum() - sizes
    node = np.repeat(np.arange(len(nodes)), sizes)  # each column's node
    feats = np.array([f for _, f in nodes])  # (nodes, candidates)
    # Keys are below 2n: offset by node * 2n, each node's rows stay together through one sort per
    # candidate, run on the narrowest unsigned type that holds every offset key.
    node_keys = keys.take(np.repeat(feats.T * n, sizes, axis=1) + np.concatenate([idx for idx, _ in nodes]))
    node_keys = (node_keys + node * (2 * n)).astype(np.min_scalar_type(2 * n * len(nodes)))
    node_keys.sort(axis=1)  # (candidates, rows of all nodes)
    rank = node_keys >> 1  # value rank + node * n
    pos = (node_keys & 1).cumsum(axis=1, dtype=np.float64)  # whole counts as floats: exact, and no casts below
    before = pos.take(starts, axis=1) - (node_keys.take(starts, axis=1) & 1)  # positives ahead of each node
    m = sizes.take(node).astype(np.float64)
    n_left = np.arange(1.0, node.size + 1) - starts.take(node)  # rows left of a cut after each column
    n_right = m - n_left
    # Both sides of every cut, stacked on a leading axis of 2, scored in place by the per-side rule
    # sides * (1 - p * p - q * q), p = counts / sides, q = 1 - p, in its order.  A node's last
    # column has an empty right side; it divides by 1 and is masked.
    p = np.empty((2, *pos.shape))
    np.subtract(pos, before.take(node, axis=1), out=p[0])
    np.subtract((pos[0].take(starts + sizes - 1) - before[0]).take(node), p[0], out=p[1])
    sides = np.array((n_left, np.maximum(n_right, 1.0)))[:, None, :]
    p /= sides
    q = 1.0 - p
    q *= q
    np.subtract(1.0, np.square(p, out=p), out=p)
    p -= q
    p *= sides
    gini = (p[0] + p[1]) / m
    tie = np.ones(rank.shape, dtype=bool)  # the batch's last column ends a node: no cut after it
    np.equal(rank[:, :-1], rank[:, 1:], out=tie[:, :-1])  # no cut between equal values
    np.putmask(gini, tie | (np.minimum(n_left, n_right) < max(min_leaf, 1)), np.inf)
    # Each node's first minimum in (candidate, threshold) order: its first candidate to reach it, then the column.
    per_candidate = np.minimum.reduceat(gini, starts, axis=1)  # (candidates, nodes)
    best = per_candidate.min(axis=0)
    j = (per_candidate == best).argmax(axis=0)
    hits = np.flatnonzero(gini.take(j.take(node) * node.size + np.arange(node.size)) == best.take(node))
    col = hits[np.searchsorted(hits, starts)]  # an empty right side scores inf, so every node has a hit
    feature = feats[np.arange(len(nodes)), j]
    below = values[feature, rank[j, col] % n].tolist()
    above = values[feature, rank[j, np.minimum(col + 1, node.size - 1)] % n].tolist()
    left_pos = (pos[j, col] - before[j, np.arange(len(nodes))]).tolist()
    splits = []
    for f, a, b, g, left in zip(feature.tolist(), below, above, best.tolist(), left_pos):
        mid = 0.5 * (a + b)  # Python floats: a sum past the largest double is inf, with no warning
        splits.append((f, mid if a <= mid < b else a, g, int(left)) if g < math.inf else (-1, 0.0, math.inf, 0))
    return splits
