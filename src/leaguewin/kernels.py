"""The two hot loops, written as numpy array passes.

``scope_pass`` is the sequential Elo pass.  Elo is sequential over games but
independent across configurations, so ratings are held as an
``(n_teams, n_configs)`` array and the games are walked once for the whole
SCOPE lattice.  ``best_split`` is the Gini split scan run at every tree node
of every forest; it sorts each candidate feature's integer keys (value rank
and label, made once per forest by ``split_keys``) once, scores every
threshold from cumulative label counts with both sides of the cut stacked
into one array, and returns the left side's positive count so the grower
never recounts a child's labels.

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


def best_split(keys, values, sample_idx, feat_idx, min_leaf):
    """Gini-minimizing axis-aligned split over the candidate features.

    ``keys`` and ``values`` come from ``split_keys``.  Cuts lie between
    consecutive distinct values; splits leaving fewer than min_leaf rows on
    either side are skipped.  Ties keep the first candidate feature and the
    lowest threshold, so results are deterministic.

    The threshold between sorted neighbours a < b is the midpoint
    ``0.5 * (a + b)`` when a <= midpoint < b, and a otherwise (the midpoint
    of adjacent doubles can round onto b, and the sum of two huge ones
    overflows), the rule scikit-learn's splitter uses.  Either way
    ``x <= threshold`` sends exactly the rows up to the cut left.

    Returns (feature, threshold, gini, left_pos): feature is -1 when no
    valid split exists, and left_pos is the number of positive rows with
    ``x[row, feature] <= threshold``.
    """
    m = sample_idx.shape[0]
    # A cut after sorted position s leaves s + 1 rows left and m - s - 1
    # right; both sides keep min_leaf rows for s in [lo, hi).
    lo = max(min_leaf, 1) - 1
    hi = m - max(min_leaf, 1)
    if lo >= hi:
        return -1, 0.0, math.inf, 0
    node_keys = keys.take(feat_idx, axis=0).take(sample_idx, axis=1)  # (n_candidates, m)
    node_keys.sort(axis=1)
    rank = node_keys >> 1
    pos = (node_keys & 1).cumsum(axis=1)
    left = pos[:, lo:hi]
    n_left = np.arange(lo + 1, hi + 1)
    # Left and right sides stacked on a leading axis of 2: one pass scores
    # both with the elementwise expressions of the per-side rule.
    counts = np.array((left, pos[0, -1] - left))
    sizes = np.array((n_left, m - n_left))[:, None, :]
    p = counts / sizes
    q = 1.0 - p
    weighted = sizes * (1.0 - p * p - q * q)
    gini = (weighted[0] + weighted[1]) / m
    gini[rank[:, lo:hi] == rank[:, lo + 1 : hi + 1]] = np.inf  # no cut between equal values
    j, s = divmod(int(gini.argmin()), hi - lo)  # first minimum in (candidate, threshold) order
    if gini[j, s] == np.inf:
        return -1, 0.0, math.inf, 0
    feature = int(feat_idx[j])
    below, above = float(values[feature, rank[j, lo + s]]), float(values[feature, rank[j, lo + s + 1]])
    threshold = 0.5 * (below + above)
    if not below <= threshold < above:
        threshold = below
    return feature, threshold, float(gini[j, s]), int(left[j, s])
