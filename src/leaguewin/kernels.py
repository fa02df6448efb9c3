"""The two hot loops, written as numpy array passes.

``scope_pass`` is the sequential Elo pass.  Elo is sequential over games but
independent across configurations, so ratings are held as an
``(n_teams, n_configs)`` array and the games are walked once for the whole
SCOPE lattice.  ``best_split`` is the Gini split scan run at every tree node
of every forest; it sorts each candidate feature once and scores every
threshold from cumulative label counts.

Both evaluate the same floating-point expressions, in the same operand
order, as the scalar rules they replace (``baselines.scope.scope_update``
and a per-threshold scan), so their results are bit-identical to those.
"""

import math

import numpy as np

MOV_NONE = 0
MOV_LIN = 1
MOV_EXP = 2
MOV_LOG = 3
MOV_SQRT = 4


def _mov_multiplier(kill_diff, mov_kind, w90):
    # g(d) = 1 + f(d)/f(w90); every variant satisfies g(0)=1 (lin/log/sqrt)
    # and g(w90)=2, so w90 is the margin at which K doubles.
    if mov_kind == MOV_LIN:
        return 1.0 + kill_diff / w90
    if mov_kind == MOV_EXP:
        return 1.0 + (math.exp(kill_diff / w90) - 1.0) / (math.e - 1.0)
    if mov_kind == MOV_LOG:
        return 1.0 + math.log1p(kill_diff) / math.log1p(w90)
    if mov_kind == MOV_SQRT:
        return 1.0 + math.sqrt(kill_diff) / math.sqrt(w90)
    return 1.0


def mov_table(kill_diff, pairs):
    """MoV multiplier of every game under each ``(mov_kind, w90)`` pair.

    Returns a ``(n_games, n_pairs)`` array, computed with the scalar rule.
    """
    table = np.empty((len(kill_diff), len(pairs)), dtype=np.float64)
    for i, d in enumerate(kill_diff):
        for j, (mov_kind, w90) in enumerate(pairs):
            table[i, j] = _mov_multiplier(float(d), mov_kind, w90)
    return table


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
    correct_out=None,
    trace_team=None,
    trace_opp=None,
):
    """One chronological Elo pass for many configurations at once.

    ``ratings`` is ``(n_teams, n_configs)`` and is updated in place.  Config
    ``c`` uses K ``base_k[c]``, scaled by ``keep[c]`` (1 - reduction) for a
    side rated above ``cutoff[c]``, and the MoV multiplier
    ``mov[game, mov_group[c]]``.  Games at index >= score_from are scored
    (predict before update): the pick is the first-listed team when its
    expected score is >= 0.5, so exact ties go to it.  The optional
    ``(n_games, n_configs)`` outputs receive each game's hits and
    post-update ratings.

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
            hit = (expected_t >= 0.5) == won
            n_correct += hit
            if correct_out is not None:
                correct_out[i] = hit
        k = base_k * mov[i][mov_group]
        k_t = k * np.where(r_t > cutoff, keep, 1.0)
        k_o = k * np.where(r_o > cutoff, keep, 1.0)
        outcome_t = 1.0 if won else 0.0
        new_t = r_t + k_t * (outcome_t - expected_t)
        new_o = r_o + k_o * ((1.0 - outcome_t) - (1.0 - expected_t))
        ratings[t] = new_t
        ratings[o] = new_o
        if trace_team is not None:
            trace_team[i] = new_t
            trace_opp[i] = new_o
    return n_correct


def best_split(x, y, sample_idx, feat_idx, min_leaf):
    """Gini-minimizing axis-aligned split over the candidate features.

    Thresholds are midpoints between consecutive distinct values; splits
    leaving fewer than min_leaf rows on either side are skipped.  Ties keep
    the first candidate feature and the lowest threshold, so results are
    deterministic.

    Returns (feature, threshold, gini); feature is -1 when no valid split.
    """
    m = sample_idx.shape[0]
    # A cut after sorted position s leaves s + 1 rows left and m - s - 1
    # right; both sides keep min_leaf rows for s in [lo, hi).
    lo = max(min_leaf, 1) - 1
    hi = m - max(min_leaf, 1)
    if lo >= hi:
        return -1, 0.0, math.inf
    vals = x[sample_idx[None, :], feat_idx[:, None]]  # (n_candidates, m)
    order = np.argsort(vals, axis=1, kind="stable")
    vals = vals[np.arange(feat_idx.shape[0])[:, None], order]
    # int64 counts: y is int8 and a node can hold more than 127 positives.
    pos = np.cumsum(y[sample_idx][order], axis=1, dtype=np.int64)
    total_pos = pos[0, -1]
    pos = pos[:, lo:hi]
    n_left = np.arange(lo + 1, hi + 1, dtype=np.int64)
    n_right = m - n_left
    p_l = pos / n_left
    p_r = (total_pos - pos) / n_right
    q_l = 1.0 - p_l
    q_r = 1.0 - p_r
    g_l = 1.0 - p_l * p_l - q_l * q_l
    g_r = 1.0 - p_r * p_r - q_r * q_r
    gini = (n_left * g_l + n_right * g_r) / m
    gini[vals[:, lo:hi] == vals[:, lo + 1 : hi + 1]] = np.inf  # no cut between equal values
    j, s = divmod(int(np.argmin(gini)), hi - lo)  # first minimum in (candidate, threshold) order
    if gini[j, s] == np.inf:
        return -1, 0.0, math.inf
    return int(feat_idx[j]), float(0.5 * (vals[j, lo + s] + vals[j, lo + s + 1])), float(gini[j, s])
