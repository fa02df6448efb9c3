import json
import math
import pickle
import re
from dataclasses import replace
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
import scipy.sparse as sp

from leaguewin import gcn, synth
from leaguewin.gcn import (
    GcnModel,
    TrainConfig,
    TrainingDiverged,
    backward,
    dense_propagator,
    forward,
    init_model,
    masked_accuracy,
    masked_loss,
    model_from_dict,
    model_to_dict,
    predict,
    softmax,
    train,
)
from leaguewin.graph import CHEBYSHEV, assign_labels, build_league_graph, chebyshev_basis, normalized_adjacency
from leaguewin.ingest import FeatureSpec, build_feature_matrix, standardize
from oracles import receptive_field
from test_graph import _edgeless_graph, game

UTC = timezone.utc


def labeled_graph(n_teams=5, games_per_pair=2, seed=0, convolutions=1, mode="delta"):
    records = synth.generate_league(
        synth.SynthConfig(n_teams=n_teams, games_per_pair=games_per_pair, seed=seed, latent_skill_std=1.5)
    )
    matrix = standardize(build_feature_matrix(records, FeatureSpec.default(), mode))
    return assign_labels(build_league_graph(records, features=matrix), convolutions)


def test_init_deterministic_per_seed():
    config = TrainConfig(hidden_dims=[8], seed=7)
    a = init_model(config, 30)
    b = init_model(config, 30)
    for sa, sb in zip(a.weights, b.weights):
        for wa, wb in zip(sa, sb):
            assert np.array_equal(wa, wb)


def test_init_shapes_normalized_adjacency():
    model = init_model(TrainConfig(hidden_dims=[64], propagator_kind="gcn"), 30)
    assert model.layer_dims == [30, 64, 2]
    assert [len(stage) for stage in model.weights] == [1, 1]
    assert model.weights[0][0].shape == (30, 64)
    assert model.weights[1][0].shape == (64, 2)


def test_init_shapes_chebyshev():
    # Conv stage carries K+1 matrices; the dense output stage always has one.
    model = init_model(TrainConfig(hidden_dims=[64], propagator_kind="gcn-cheby", chebyshev_degree=1), 30)
    assert [len(stage) for stage in model.weights] == [2, 1]
    assert all(w.shape == (30, 64) for w in model.weights[0])
    assert model.conv_stages == 1


@pytest.mark.parametrize("hidden_dims", [[0], [-4], [8, 0]])
def test_hidden_dims_below_one_rejected(hidden_dims):
    with pytest.raises(ValueError, match="hidden_dims"):
        TrainConfig(hidden_dims=hidden_dims)


def test_empty_hidden_dims_single_stage():
    model = init_model(TrainConfig(hidden_dims=[]), 12)
    assert model.layer_dims == [12, 2]
    assert model.n_stages == 1 and model.conv_stages == 1


def test_glorot_bound():
    model = init_model(TrainConfig(hidden_dims=[64], seed=3), 30)
    bound = math.sqrt(6.0 / (30 + 64))
    w = model.weights[0][0]
    assert np.abs(w).max() <= bound
    assert np.abs(w).max() > 0.8 * bound  # actually fills the range


def test_zero_weights_give_uniform_probabilities():
    g = labeled_graph()
    model = init_model(TrainConfig(hidden_dims=[4]), g.features.values.shape[1])
    zeroed = replace(model, weights=[[np.zeros_like(w) for w in s] for s in model.weights])
    probs = predict(zeroed, g)
    assert np.allclose(probs, 0.5, atol=1e-15)


def test_identity_propagator_single_stage_is_dense_layer():
    g = _edgeless_graph(6)
    rng = np.random.default_rng(0)
    x = rng.normal(size=(6, 3))
    w = rng.normal(size=(3, 2))
    model = GcnModel(TrainConfig(hidden_dims=[], dropout=0.0), [[w]])
    logits, _ = forward(model, x, normalized_adjacency(g))
    assert np.array_equal(logits, x @ w)


def test_forward_hand_computed_oracle():
    # 4-node path graph, one conv stage + dense output, written out longhand.
    t0 = datetime(2020, 1, 1, tzinfo=UTC)
    records = game("g1", "A", "B", True, t0) + game("g2", "A", "B", False, t0 + timedelta(days=1))
    g = build_league_graph(records)
    x = np.array([[1.0, 2.0], [3.0, -1.0], [0.5, 0.0], [-2.0, 1.0]])
    w0 = np.array([[0.1, -0.2, 0.3], [0.4, 0.5, -0.6]])
    w1 = np.array([[1.0, -1.0], [0.5, 0.25], [-0.75, 2.0]])
    model = GcnModel(TrainConfig(hidden_dims=[3], dropout=0.0), [[w0], [w1]])
    prop = normalized_adjacency(g)
    p = prop.matrices[0].toarray()
    expected_hidden = np.zeros((4, 3))
    for i in range(4):
        for j in range(3):
            acc = 0.0
            for k in range(4):
                for f in range(2):
                    acc += p[i, k] * x[k, f] * w0[f, j]
            expected_hidden[i, j] = max(acc, 0.0)
    expected_logits = np.zeros((4, 2))
    for i in range(4):
        for j in range(2):
            expected_logits[i, j] = sum(expected_hidden[i, h] * w1[h, j] for h in range(3))
    logits, _ = forward(model, x, prop)
    assert np.abs(logits - expected_logits).max() < 1e-10


def test_masked_loss_uniform_is_ln2():
    logits = np.zeros((4, 2))
    labels = np.array([0, 1, 0, 1], dtype=np.int8)
    mask = np.ones(4, dtype=bool)
    assert masked_loss(logits, labels, mask) == pytest.approx(math.log(2), abs=1e-12)


def test_masked_loss_confident_prediction_goes_to_zero():
    logits = np.array([[0.0, 30.0]])
    assert masked_loss(logits, np.array([1]), np.array([True])) < 1e-12


def test_masked_loss_matches_brute_force():
    rng = np.random.default_rng(5)
    logits = rng.normal(size=(6, 2))
    labels = rng.integers(0, 2, size=6).astype(np.int8)
    mask = np.array([True, False, True, True, False, True])
    total, n = 0.0, 0
    for i in range(6):
        if not mask[i]:
            continue
        exp = [math.exp(logits[i, 0]), math.exp(logits[i, 1])]
        total += -math.log(exp[labels[i]] / (exp[0] + exp[1]))
        n += 1
    assert masked_loss(logits, labels, mask) == pytest.approx(total / n, rel=1e-12)


def test_masked_loss_requires_labels():
    with pytest.raises(ValueError, match="no labeled nodes"):
        masked_loss(np.zeros((2, 2)), np.zeros(2), np.zeros(2, dtype=bool))


def test_gradient_zero_at_symmetric_minimum():
    # Two identical rows with opposite labels, zero weights: exact stationary point.
    g = _edgeless_graph(2)
    x = np.array([[1.0, 2.0], [1.0, 2.0]])
    model = GcnModel(TrainConfig(hidden_dims=[], dropout=0.0), [[np.zeros((2, 2))]])
    logits, cache = forward(model, x, normalized_adjacency(g))
    grads = backward(cache, np.array([0, 1]), np.ones(2, dtype=bool))
    assert max(np.abs(w).max() for s in grads for w in s) < 1e-8


def finite_difference_check(model, x, prop, labels, mask, weight_decay, mask_seed=None):
    """Worst relative gap between backward's gradients and central
    differences.  With ``mask_seed`` every forward trains on a fresh
    ``default_rng(mask_seed)``, so each pass draws the same dropout masks."""
    eps = 1e-5

    def run():
        training = mask_seed is not None
        return forward(model, x, prop, training=training, rng=np.random.default_rng(mask_seed) if training else None)

    logits, cache = run()
    grads = backward(cache, labels, mask, weight_decay)
    worst = 0.0
    for s, stage in enumerate(model.weights):
        for k, w in enumerate(stage):
            it = np.nditer(w, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = w[idx]
                w[idx] = orig + eps
                lp, _ = run()
                loss_p = masked_loss(lp, labels, mask, weight_decay, model.weights)
                w[idx] = orig - eps
                lm, _ = run()
                loss_m = masked_loss(lm, labels, mask, weight_decay, model.weights)
                w[idx] = orig
                numeric = (loss_p - loss_m) / (2 * eps)
                denom = max(abs(numeric) + abs(grads[s][k][idx]), 1e-8)
                worst = max(worst, abs(numeric - grads[s][k][idx]) / denom)
    return worst


def test_gradients_match_finite_differences():
    g = labeled_graph(n_teams=3, games_per_pair=2, convolutions=1)
    x = g.features.values[:, :4].copy()
    labels, mask = g.labels, g.label_mask
    config = TrainConfig(hidden_dims=[3], dropout=0.0, seed=2)
    model = init_model(config, 4)
    prop = normalized_adjacency(g)
    assert finite_difference_check(model, x, prop, labels, mask, 0.0) < 1e-4
    assert finite_difference_check(model, x, prop, labels, mask, 0.05) < 1e-4


def test_gradients_match_finite_differences_chebyshev_with_dropout_masks():
    g = labeled_graph(n_teams=3, games_per_pair=2, convolutions=1)
    x = g.features.values[:, :4].copy()
    config = TrainConfig(hidden_dims=[3], dropout=0.4, propagator_kind="gcn-cheby", chebyshev_degree=1, seed=2)
    model = init_model(config, 4)
    prop = chebyshev_basis(g, 1)
    assert finite_difference_check(model, x, prop, g.labels, g.label_mask, 0.01, mask_seed=8) < 1e-4


def test_weight_decay_gradient_is_linear():
    g = labeled_graph(n_teams=3, games_per_pair=2)
    x = g.features.values[:, :4]
    model = init_model(TrainConfig(hidden_dims=[3], dropout=0.0, seed=4), 4)
    prop = normalized_adjacency(g)
    _, cache = forward(model, x, prop)
    g0 = backward(cache, g.labels, g.label_mask, 0.0)
    g1 = backward(cache, g.labels, g.label_mask, 0.1)
    g2 = backward(cache, g.labels, g.label_mask, 0.2)
    for s in range(len(g0)):
        for k in range(len(g0[s])):
            assert np.allclose(g2[s][k] - g0[s][k], 2.0 * (g1[s][k] - g0[s][k]), atol=1e-15)


def test_dropout_expectation_matches_no_dropout():
    rng = np.random.default_rng(11)
    x = rng.normal(size=(4, 3))
    w = rng.normal(size=(3, 2))
    g = _edgeless_graph(4)
    model = GcnModel(TrainConfig(hidden_dims=[], dropout=0.5), [[w]])
    prop = normalized_adjacency(g)
    clean, _ = forward(model, x, prop, training=False)
    draw_rng = np.random.default_rng(123)
    total = np.zeros_like(clean)
    n = 20_000
    for _ in range(n):
        z, _ = forward(model, x, prop, training=True, rng=draw_rng)
        total += z
    # Inverted scaling keeps the expected pre-activation unchanged; with
    # this many draws the Monte Carlo error sits under 1% of layer scale.
    rel = np.abs(total / n - clean) / np.abs(clean).mean()
    assert rel.max() < 0.01


def test_training_forward_caches_boolean_dropout_masks():
    # One byte a cell where a float mask keep / (1 - p) takes eight.  A
    # Chebyshev first stage's T0 term is the dropped-out input itself, which
    # must hold the float mask's bits, signed zeros of dropped cells included.
    g = labeled_graph(seed=1, convolutions=2)
    config = TrainConfig(hidden_dims=[8, 8], dropout=0.3, propagator_kind="gcn-cheby", chebyshev_degree=2)
    model = init_model(config, g.features.values.shape[1])
    prop = gcn.build_propagator(g, config.propagator_kind, config.chebyshev_degree)
    x = g.features.values
    _, cache = forward(model, x, prop, training=True, rng=np.random.default_rng(3))
    masks = [st["keep"] for st in cache["stages"]]
    assert [m.dtype for m in masks] == [np.dtype(bool)] * 3
    assert [m.shape for m in masks] == [x.shape, (g.n_nodes, 8), (g.n_nodes, 8)]
    assert 0 < masks[0].mean() < 1
    h_in = cache["stages"][0]["ph"][0]
    assert h_in.tobytes() == (x * (masks[0] / (1.0 - config.dropout))).tobytes()
    assert np.signbit(h_in[~masks[0]]).tolist() == np.signbit(x[~masks[0]]).tolist()
    _, cache = forward(model, x, prop, training=False)
    assert [st["keep"] for st in cache["stages"]] == [None] * 3


def test_mask_isolation_outside_receptive_field():
    # Two teams, six meetings: with c=1 the final nodes sit outside every
    # masked node's field, so perturbing them cannot move the loss at all.
    t0 = datetime(2020, 1, 1, tzinfo=UTC)
    records = []
    for i in range(6):
        records += game(f"g{i}", "A", "B", i % 2 == 0, t0 + timedelta(days=i))
    rng = np.random.default_rng(0)
    for r in records:
        r.features = np.array([rng.normal()])
    spec = FeatureSpec(["towers"], {"towers": "objectives"})
    matrix = standardize(build_feature_matrix(records, spec, "delta"))
    g = assign_labels(build_league_graph(records, features=matrix), 1)

    masked = np.flatnonzero(g.label_mask)
    covered = set().union(*(receptive_field(g, int(n), 1) for n in masked))
    outside = [n for n in range(g.n_nodes) if n not in covered]
    assert outside, "fixture must leave some nodes outside all receptive fields"
    model = init_model(TrainConfig(hidden_dims=[5], dropout=0.0, seed=0), matrix.values.shape[1])
    prop = normalized_adjacency(g)
    logits, _ = forward(model, g.features.values, prop)
    base = masked_loss(logits, g.labels, g.label_mask)
    perturbed = g.features.values.copy()
    perturbed[outside] += 1e6
    logits2, _ = forward(model, perturbed, prop)
    assert masked_loss(logits2, g.labels, g.label_mask) == base


def test_permutation_equivariance():
    g = labeled_graph(n_teams=4, games_per_pair=1)
    model = init_model(TrainConfig(hidden_dims=[6], dropout=0.0, seed=1), g.features.values.shape[1])
    probs = predict(model, g)
    rng = np.random.default_rng(3)
    perm = rng.permutation(g.n_nodes)
    import scipy.sparse as sp
    from leaguewin.graph import LeagueGraph
    from leaguewin.ingest import FeatureMatrix

    inv = np.empty_like(perm)
    inv[perm] = np.arange(g.n_nodes)
    adj = g.adjacency.toarray()[np.ix_(perm, perm)]
    permuted = LeagueGraph(
        nodes=[g.nodes[i] for i in perm],
        edges={(min(inv[u], inv[v]), max(inv[u], inv[v])) for u, v in g.edges},
        adjacency=sp.csr_matrix(adj),
        outcomes=g.outcomes[perm],
        labels=g.labels[perm],
        label_mask=g.label_mask[perm],
        features=FeatureMatrix(
            row_keys=[g.features.row_keys[i] for i in perm],
            columns=g.features.columns,
            values=g.features.values[perm],
        ),
    )
    assert np.allclose(predict(model, permuted), probs[perm], atol=1e-10)


def test_train_zero_learning_rate_keeps_weights():
    g = labeled_graph(seed=1)
    g_val = labeled_graph(seed=2)
    config = TrainConfig(hidden_dims=[4], learning_rate=0.0, max_epochs=5, dropout=0.2, seed=0)
    model = init_model(config, g.features.values.shape[1])
    best, _ = train(config, g, g_val)
    for sa, sb in zip(model.weights, best.weights):
        for wa, wb in zip(sa, sb):
            assert np.array_equal(wa, wb)


def test_train_separable_fixture_reaches_high_accuracy():
    g = labeled_graph(n_teams=6, games_per_pair=2, seed=3)
    g_val = labeled_graph(n_teams=6, games_per_pair=2, seed=4)
    # Make the first delta feature carry the label directly; the Chebyshev
    # basis includes the identity, so the signal is linearly separable.
    for graph in (g, g_val):
        signal = np.where(graph.labels > 0, 1.0, -1.0)
        signal[~graph.label_mask] = 0.0
        graph.features.values[:, 0] = signal
    config = TrainConfig(
        hidden_dims=[8], dropout=0.0, max_epochs=200, early_stop_patience=50,
        propagator_kind="gcn-cheby", seed=0,
    )
    _, report = train(config, g, g_val)
    assert max(report.train_acc) >= 0.95


def test_early_stop_patience_contract(monkeypatch):
    g = labeled_graph(seed=1)
    g_val = labeled_graph(seed=2)
    seq = iter([0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1, 0.05])
    calls = {"n": 0}

    def fake_accuracy(logits, idx, y):
        calls["n"] += 1
        if calls["n"] % 2 == 1:  # train-graph call
            return 0.5
        return next(seq)  # strictly worsening validation

    monkeypatch.setattr(gcn, "_accuracy", fake_accuracy)
    config = TrainConfig(hidden_dims=[4], early_stop_patience=1, max_epochs=50, dropout=0.0, seed=0)
    _, report = train(config, g, g_val)
    assert report.epochs_run <= 2
    assert report.best_epoch == 1


def test_train_divergence_raises():
    g = labeled_graph(seed=1)
    g_val = labeled_graph(seed=2)
    config = TrainConfig(hidden_dims=[4], learning_rate=1e200, max_epochs=10, dropout=0.0, seed=0)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(TrainingDiverged):
            train(config, g, g_val)


def test_training_diverged_survives_a_pickle_round_trip():
    # pool_map's workers send their exceptions back through their pipes, pickled.
    exc = pickle.loads(pickle.dumps(TrainingDiverged(2)))
    assert isinstance(exc, TrainingDiverged)
    assert exc.epoch == 2
    assert str(exc) == "training loss became non-finite at epoch 2"


def _blas_threads() -> int:
    return gcn._openblas_threads()[0]()


def _train_recording_blas_threads(monkeypatch, g, g_val, config):
    """train, returning also the BLAS thread count each backward saw."""
    seen = []
    real_backward = gcn.backward

    def backward(*args, **kwargs):
        seen.append(_blas_threads())
        return real_backward(*args, **kwargs)

    monkeypatch.setattr(gcn, "backward", backward)
    return train(config, g, g_val), seen


def test_scipy_openblas_thread_functions_resolve():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    if blas.get("name") != "scipy-openblas":
        pytest.skip(f"numpy links {blas.get('name')}, whose thread count train leaves alone")
    assert gcn._openblas_threads() is not None


@pytest.mark.skipif(gcn._openblas_threads() is None, reason="numpy does not link scipy-openblas")
def test_train_runs_on_one_blas_thread_and_restores_the_count(monkeypatch):
    g = labeled_graph(seed=1)
    g_val = labeled_graph(seed=2)
    set_threads = gcn._openblas_threads()[1]
    prior = _blas_threads()
    set_threads(2)  # where the box allows it, so that a missed restore shows
    try:
        before = _blas_threads()
        config = TrainConfig(hidden_dims=[4], max_epochs=3, seed=0)
        _, seen = _train_recording_blas_threads(monkeypatch, g, g_val, config)
        assert seen == [1, 1, 1]
        assert _blas_threads() == before
        diverging = replace(config, learning_rate=1e200, dropout=0.0, max_epochs=10)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TrainingDiverged):
                _train_recording_blas_threads(monkeypatch, g, g_val, diverging)
        assert _blas_threads() == before
        with gcn._one_blas_thread():  # nested uses: each restores the count it found
            with gcn._one_blas_thread():
                assert _blas_threads() == 1
            assert _blas_threads() == 1
        assert _blas_threads() == before
    finally:
        set_threads(prior)


def test_one_blas_thread_keeps_training_bit_for_bit(monkeypatch):
    # 440 nodes, 30 features, hidden 64: large enough that OpenBLAS runs
    # the feature-times-weight products on every thread it has.  (Not every
    # shape keeps its bits: two 64-wide stages on this graph differ from the
    # threaded run in the last bits of the weights.)
    g = labeled_graph(n_teams=11, games_per_pair=4, seed=1)
    g_val = labeled_graph(n_teams=11, games_per_pair=4, seed=2)
    assert g.features.values.shape == (440, 30)
    config = TrainConfig(hidden_dims=[64], propagator_kind="gcn-cheby", max_epochs=15, seed=3)
    capped, capped_report = train(config, g, g_val)
    monkeypatch.setattr(gcn, "_openblas_threads", lambda: None)
    uncapped, uncapped_report = train(config, g, g_val)
    for sa, sb in zip(capped.weights, uncapped.weights, strict=True):
        for wa, wb in zip(sa, sb, strict=True):
            assert np.array_equal(wa, wb)
    for name in ("train_loss", "train_acc", "val_loss", "val_acc"):
        assert np.array_equal(getattr(capped_report, name), getattr(uncapped_report, name))
    assert capped_report.best_epoch == uncapped_report.best_epoch


def _reference_forward(weights, mats, x, dropout, rng):
    """Every product of the layer rule: mats holds the whole basis, T0 = I included."""
    h, stages = x, []
    for s, ws in enumerate(weights):
        mask = None
        if rng is not None and dropout > 0.0:
            mask = (rng.random(h.shape) >= dropout) / (1.0 - dropout)
        h_in = h * mask if mask is not None else h
        if s < len(weights) - 1 or len(weights) == 1:
            ph = [p @ h_in for p in mats]
            z = sum(ph_k @ w_k for ph_k, w_k in zip(ph, ws))
        else:
            ph = None
            z = h_in @ ws[0]
        stages.append((h_in, ph, z, mask))
        h = np.maximum(z, 0.0) if s < len(weights) - 1 else z
    return h, stages


def _reference_backward(weights, mats, stages, logits, labels, label_mask, weight_decay):
    idx = np.flatnonzero(label_mask)
    dz = softmax(logits)
    onehot = np.zeros_like(dz)
    onehot[idx, labels[idx].astype(int)] = 1.0
    dz -= onehot
    dz[~label_mask.astype(bool)] = 0.0
    dz /= idx.size
    grads = [None] * len(weights)
    for s in range(len(weights) - 1, -1, -1):
        h_in, ph, _, mask = stages[s]
        if ph is not None:
            grads[s] = [ph_k.T @ dz for ph_k in ph]
            dh = sum(p @ (dz @ w.T) for p, w in zip(mats, weights[s]))
        else:
            grads[s] = [h_in.T @ dz]
            dh = dz @ weights[s][0].T
        if mask is not None:
            dh = dh * mask
        if s > 0:
            dz = dh * (stages[s - 1][2] > 0)
        # At s == 0, dh is the input gradient: formed here and then dropped.
    if weight_decay:
        grads[0] = [g + weight_decay * w for g, w in zip(grads[0], weights[0])]
    return grads


def _reference_basis(g, model, dense):
    """The whole basis, T0 = I included as a sparse identity: the CSR
    matrices themselves, or dense copies of them."""
    prop = gcn.build_propagator(g, model.config.propagator_kind, model.config.chebyshev_degree)
    mats = list(prop.matrices)
    if model.config.propagator_kind == CHEBYSHEV:
        mats[0] = sp.identity(g.n_nodes, format="csr")
    return [m.toarray() for m in mats] if dense else mats


def _reference_train(model, g, g_val, config, dense=False):
    """gcn.train done longhand: three full forwards an epoch and the stage-0 input gradient."""
    weights = model.copy_weights()
    p_train, p_val = _reference_basis(g, model, dense), _reference_basis(g_val, model, dense)
    x, x_val = g.features.values, g_val.features.values
    rng = np.random.default_rng(config.seed)
    m_state = [[np.zeros_like(w) for w in stage] for stage in weights]
    v_state = [[np.zeros_like(w) for w in stage] for stage in weights]
    report = gcn.TrainReport()
    best_acc, best_weights, stall = -np.inf, [[w.copy() for w in stage] for stage in weights], 0
    for epoch in range(1, config.max_epochs + 1):
        logits, stages = _reference_forward(weights, p_train, x, model.config.dropout, rng)
        grads = _reference_backward(weights, p_train, stages, logits, g.labels, g.label_mask, config.weight_decay)
        for s, stage in enumerate(weights):
            for k, w in enumerate(stage):
                m = m_state[s][k] = 0.9 * m_state[s][k] + (1 - 0.9) * grads[s][k]
                v = v_state[s][k] = 0.999 * v_state[s][k] + (1 - 0.999) * grads[s][k] ** 2
                w -= config.learning_rate * (m / (1 - 0.9**epoch)) / (np.sqrt(v / (1 - 0.999**epoch)) + 1e-8)
        eval_logits, _ = _reference_forward(weights, p_train, x, model.config.dropout, None)
        report.train_loss.append(masked_loss(eval_logits, g.labels, g.label_mask, config.weight_decay, weights))
        report.train_acc.append(masked_accuracy(eval_logits, g.labels, g.label_mask))
        val_logits, _ = _reference_forward(weights, p_val, x_val, model.config.dropout, None)
        report.val_loss.append(masked_loss(val_logits, g_val.labels, g_val.label_mask))
        report.val_acc.append(masked_accuracy(val_logits, g_val.labels, g_val.label_mask))
        if report.val_acc[-1] > best_acc:
            best_acc, report.best_epoch, stall = report.val_acc[-1], epoch, 0
            best_weights = [[w.copy() for w in stage] for stage in weights]
        else:
            stall += 1
            if stall >= config.early_stop_patience:
                break
    return best_weights, report


@pytest.mark.parametrize("dropout", [0.5, 0.0])
@pytest.mark.parametrize("layers", [1, 2])
@pytest.mark.parametrize("kind,degree", [("gcn", 1), ("gcn-cheby", 1), ("gcn-cheby", 2)])
def test_train_matches_every_product_reference(kind, degree, layers, dropout):
    # train skips T0 = I, reuses the dropout-off first stage and drops the
    # stage-0 input gradient; none of that may move a single bit.
    g = labeled_graph(seed=1, convolutions=layers)
    g_val = labeled_graph(seed=2, convolutions=layers)
    config = TrainConfig(
        hidden_dims=[8] * layers, dropout=dropout, max_epochs=25, early_stop_patience=8,
        propagator_kind=kind, chebyshev_degree=degree, seed=4,
    )
    best, report = train(config, g, g_val)
    ref_weights, ref_report = _reference_train(init_model(config, g.features.values.shape[1]), g, g_val, config)
    assert report == ref_report
    for sa, sb in zip(best.weights, ref_weights):
        for wa, wb in zip(sa, sb):
            assert wa.tobytes() == wb.tobytes()


@pytest.mark.parametrize("dropout", [0.5, 0.0])
@pytest.mark.parametrize("layers", [1, 2])
@pytest.mark.parametrize("kind,degree", [("gcn", 1), ("gcn-cheby", 1), ("gcn-cheby", 2)])
def test_train_without_train_metrics_skips_only_the_train_graph_pass(monkeypatch, kind, degree, layers, dropout):
    g = labeled_graph(seed=1, convolutions=layers)
    g_val = labeled_graph(seed=2, convolutions=layers)
    config = TrainConfig(
        hidden_dims=[8] * layers, dropout=dropout, max_epochs=25, early_stop_patience=8,
        propagator_kind=kind, chebyshev_degree=degree, seed=4,
    )
    calls = {"n": 0}
    real_forward = gcn.forward

    def counting_forward(*args, **kwargs):
        calls["n"] += 1
        return real_forward(*args, **kwargs)

    monkeypatch.setattr(gcn, "forward", counting_forward)
    best, report = train(config, g, g_val)
    assert calls["n"] == 3 * report.epochs_run
    calls["n"] = 0
    lean, lean_report = train(config, g, g_val, train_metrics=False)
    assert calls["n"] == 2 * lean_report.epochs_run
    assert (lean_report.train_loss, lean_report.train_acc) == ([], [])
    assert (lean_report.val_loss, lean_report.val_acc) == (report.val_loss, report.val_acc)
    assert (lean_report.best_epoch, lean_report.epochs_run) == (report.best_epoch, report.epochs_run)
    for sa, sb in zip(lean.weights, best.weights, strict=True):
        for wa, wb in zip(sa, sb, strict=True):
            assert wa.tobytes() == wb.tobytes()


@pytest.mark.parametrize("layers", [1, 2])
@pytest.mark.parametrize("kind,degree", [("gcn", 1), ("gcn-cheby", 1)])
def test_train_agrees_with_dense_product_reference(kind, degree, layers):
    # Sparse and dense products sum in different orders, so the weights may
    # move in the last bits, but no accuracy or early-stopping decision may.
    g = labeled_graph(seed=1, convolutions=layers)
    g_val = labeled_graph(seed=2, convolutions=layers)
    config = TrainConfig(
        hidden_dims=[8] * layers, dropout=0.5, max_epochs=25, early_stop_patience=8,
        propagator_kind=kind, chebyshev_degree=degree, seed=4,
    )
    best, report = train(config, g, g_val)
    model = init_model(config, g.features.values.shape[1])
    ref_weights, ref_report = _reference_train(model, g, g_val, config, dense=True)
    assert (report.train_acc, report.val_acc, report.best_epoch) == (
        ref_report.train_acc, ref_report.val_acc, ref_report.best_epoch
    )
    assert np.allclose(report.train_loss, ref_report.train_loss, rtol=1e-12, atol=0)
    assert np.allclose(report.val_loss, ref_report.val_loss, rtol=1e-12, atol=0)
    for sa, sb in zip(best.weights, ref_weights):
        for wa, wb in zip(sa, sb):
            assert np.abs(wa - wb).max() <= 1e-12 * np.abs(wb).max()


def test_forward_rejects_a_propagator_of_another_kind():
    g = labeled_graph(seed=1)
    model = init_model(TrainConfig(hidden_dims=[4], propagator_kind="gcn-cheby"), g.features.values.shape[1])
    with pytest.raises(ValueError, match="chebyshev model was given a normalized_adjacency propagator"):
        forward(model, g.features.values, normalized_adjacency(g))


def test_build_propagator_builds_once_per_graph_kind_and_degree():
    g = labeled_graph(seed=1)
    cheby = gcn.build_propagator(g, CHEBYSHEV, 1)
    assert gcn.build_propagator(g, CHEBYSHEV, 1) is cheby
    adjacency = gcn.build_propagator(g, "normalized_adjacency", 1)
    assert adjacency.kind == "normalized_adjacency"
    assert gcn.build_propagator(g, "normalized_adjacency", 1) is adjacency
    degree2 = gcn.build_propagator(g, CHEBYSHEV, 2)
    assert degree2 is not cheby and len(degree2.matrices) == 3
    copy = replace(g, labels=g.labels.copy())
    assert copy.propagators == {}
    rebuilt = gcn.build_propagator(copy, CHEBYSHEV, 1)
    assert rebuilt is not cheby
    assert all((a != b).nnz == 0 for a, b in zip(rebuilt.matrices, cheby.matrices))


@pytest.mark.parametrize("degree", [0, 1, 2, 3])
def test_dense_propagator_leaves_out_chebyshev_identity(degree):
    g = labeled_graph(seed=1)
    basis = chebyshev_basis(g, degree)
    mats = dense_propagator(basis)
    assert len(mats) == degree
    for m, t in zip(mats, basis.matrices[1:]):
        assert type(m) is np.ndarray and m.dtype == np.float64
        assert m.shape == (g.n_nodes, g.n_nodes)
        assert np.array_equal(m, t.toarray())
    (adj,) = dense_propagator(normalized_adjacency(g))
    assert type(adj) is np.ndarray and adj.dtype == np.float64
    assert np.array_equal(adj, normalized_adjacency(g).matrices[0].toarray())


def test_train_report_is_deterministic():
    g = labeled_graph(seed=1)
    g_val = labeled_graph(seed=2)
    config = TrainConfig(hidden_dims=[4], dropout=0.3, max_epochs=20, seed=9)
    r1 = train(config, g, g_val)[1]
    r2 = train(config, g, g_val)[1]
    assert r1.train_loss == r2.train_loss
    assert r1.val_acc == r2.val_acc
    assert r1.best_epoch == r2.best_epoch


def test_predict_probabilities_normalized():
    g = labeled_graph(seed=5)
    model = init_model(TrainConfig(hidden_dims=[4], seed=1), g.features.values.shape[1])
    prop = normalized_adjacency(g)
    logits, _ = forward(model, g.features.values, prop)
    probs = softmax(logits)
    assert np.abs(probs.sum(axis=1) - 1.0).max() < 1e-12


def test_paired_delta_predictions_sum_to_one_on_edgeless_fixture():
    # Antisymmetric rows through a single linear conv stage give mirrored
    # logits, so paired win probabilities sum to one (empirical property).
    g = _edgeless_graph(2)
    x = np.array([[0.7, -1.3, 2.0], [-0.7, 1.3, -2.0]])
    rng = np.random.default_rng(2)
    model = GcnModel(TrainConfig(hidden_dims=[], dropout=0.0), [[rng.normal(size=(3, 2))]])
    logits, _ = forward(model, x, normalized_adjacency(g))
    probs = softmax(logits)[:, 1]
    assert probs[0] + probs[1] == pytest.approx(1.0, abs=1e-12)


def test_forward_shape_mismatch_raises():
    g = labeled_graph(seed=1)
    model = init_model(TrainConfig(hidden_dims=[4]), 3)
    with pytest.raises(ValueError, match="input features"):
        forward(model, g.features.values, normalized_adjacency(g))


def _persisted(config: TrainConfig) -> tuple:
    """The settings model.json keeps besides the layer widths."""
    return config.dropout, config.propagator_kind, config.chebyshev_degree, config.seed


def test_model_json_round_trip():
    config = TrainConfig(hidden_dims=[5], dropout=0.3, propagator_kind="gcn-cheby", chebyshev_degree=2, seed=3)
    model = init_model(config, 7)
    back = model_from_dict(json.loads(json.dumps(model_to_dict(model))))
    assert back.layer_dims == model.layer_dims == [7, 5, 2]
    assert back.config.hidden_dims == back.layer_dims[1:-1]
    assert _persisted(back.config) == _persisted(model.config) == (0.3, CHEBYSHEV, 2, 3)
    for sa, sb in zip(model.weights, back.weights):
        for wa, wb in zip(sa, sb):
            assert np.array_equal(wa, wb)


def test_trained_model_carries_a_copy_of_its_train_config():
    g = labeled_graph(seed=1)
    g_val = labeled_graph(seed=2)
    config = TrainConfig(hidden_dims=[4], dropout=0.2, propagator_kind="gcn-cheby", max_epochs=3, seed=6)
    best, _ = train(config, g, g_val)
    doc = model_to_dict(best)
    keys = ["dropout", "propagator_kind", "chebyshev_degree", "rng_seed"]
    assert doc["config"] == dict(zip(keys, _persisted(config)))
    config.hidden_dims.append(9)
    config.hidden_dims[0] = 7
    assert best.config.hidden_dims == [4] and best.layer_dims == [30, 4, 2]
    assert model_to_dict(best) == doc



def _edited_model_dict(edit) -> dict:
    # Chebyshev degree 2, two convolutions: stages of 3, 3 and 1 matrices.
    model = init_model(TrainConfig(hidden_dims=[5, 4], propagator_kind="gcn-cheby", chebyshev_degree=2), 7)
    doc = model_to_dict(model)
    edit(doc["weights"])
    return doc


@pytest.mark.parametrize(
    "edit, stage, got, want",
    [
        (lambda w: w.pop(), 2, [], [(4, 2)]),
        (lambda w: w.append(w[-1]), 3, [(4, 2)], []),
        (lambda w: w[1].pop(), 1, [(5, 4)] * 2, [(5, 4)] * 3),
        (lambda w: w[2].append(w[2][0]), 2, [(4, 2)] * 2, [(4, 2)]),
        (lambda w: w[0][1].pop(), 0, [(7, 5), (6, 5), (7, 5)], [(7, 5)] * 3),
        (lambda w: [row.pop() for row in w[2][0]], 2, [(4, 1)], [(4, 2)]),
    ],
    ids=["stage-missing", "stage-extra", "conv-matrix-missing", "dense-matrix-extra", "rows", "columns"],
)
def test_model_json_weights_must_match_layer_dims(edit, stage, got, want):
    message = f"model stage {stage} has weight shapes {got}, but layer_dims [7, 5, 4, 2] needs {want}"
    with pytest.raises(ValueError, match=re.escape(message)):
        model_from_dict(_edited_model_dict(edit))

def test_train_report_csv_format():
    report = gcn.TrainReport(train_loss=[0.5], train_acc=[0.6], val_loss=[0.7], val_acc=[0.8], best_epoch=1)
    lines = report.to_csv().splitlines()
    assert lines[0] == "epoch,train_loss,train_acc,val_loss,val_acc"
    assert lines[1] == "1,0.5,0.6,0.7,0.8"


def test_train_report_without_train_metrics_counts_validation_epochs():
    report = gcn.TrainReport(val_loss=[0.7, 0.6, 0.65], val_acc=[0.8, 0.85, 0.8], best_epoch=2)
    assert report.epochs_run == 3


@pytest.mark.parametrize(
    "train_loss, train_acc",
    [([], []), ([0.5], [0.6]), ([0.5, 0.4], [0.6]), ([0.5, 0.4, 0.3], [0.6, 0.7, 0.8])],
    ids=["no-train-metrics", "shorter", "one-list-short", "longer"],
)
def test_train_report_csv_needs_every_epochs_train_metrics(train_loss, train_acc):
    report = gcn.TrainReport(
        train_loss=train_loss, train_acc=train_acc, val_loss=[0.7, 0.6], val_acc=[0.8, 0.85], best_epoch=2
    )
    with pytest.raises(ValueError, match="train and validation metrics for every epoch"):
        report.to_csv()
