"""Sparse-propagation graph convolutional classifier with manual backprop.

Layer rule: hidden stages compute relu(sum_k P_k X W_k) over the propagator
basis (one matrix for the normalized adjacency, K+1 for a Chebyshev basis);
the final stage is a plain dense map to two logits, so the receptive field
is exactly the number of convolution stages.  Dropout is applied to every
stage input during training with inverted 1/(1-p) scaling.

Propagation multiplies by the propagator's own CSR matrices, and only the
products a result needs are formed.  A Chebyshev basis's T0 = I is applied
as the identity.  ``train`` takes both graphs' propagators, built once by
the caller, and propagates each graph's features through the first stage
once; its dropout-off passes (the train-graph evaluation and the validation
pass) reuse that every epoch.  ``backward`` stops at the first stage's
weight gradients: nothing reads the gradient of the network input.

BLAS threads: ``train`` runs with numpy's bundled OpenBLAS capped at one
thread, and restores the previous count when it returns or raises.  The
dense work is small feature-times-weight products, where a second OpenBLAS
thread buys little wall time and spins between calls.  Two in-process A/B
series on a 2-core box, capped against uncapped, alternated (medians):
``grid-search`` on 360-node leagues, 6 runs a side, took 9.78 s wall and
9.77 s CPU against 10.33 s and 19.35 s, then 8.44 s and 8.53 s against
8.07 s and 15.15 s; ``train`` on 3,040-node leagues, 10 runs a side, took
0.97 s and 1.00 s against 0.94 s and 1.39 s, then 0.74 s and 0.75 s against
0.70 s and 1.09 s.  The benchmark's outputs stayed byte-identical, but not
every shape keeps its bits: two 64-wide stages on 440 nodes differ from the
threaded run by about 1e-15 relative.  Capped, the weights no longer depend
on the core count.  The count is process-wide, so while ``train`` runs, BLAS
work that a caller runs in another thread shares the cap.  With another
BLAS (or numpy 1.x) the cap does nothing.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import json
import threading
from dataclasses import dataclass, field, replace
from itertools import zip_longest

import numpy as np
import scipy.sparse as sp

from . import graph as lg

MODEL_SCHEMA_VERSION = 1

# External model names -> propagator kind.
MODEL_KINDS = {
    "gcn": lg.NORMALIZED_ADJACENCY,
    "gcn-cheby": lg.CHEBYSHEV,
}


class TrainingDiverged(RuntimeError):
    def __init__(self, epoch: int):
        super().__init__(f"training loss became non-finite at epoch {epoch}")
        self.epoch = epoch


@dataclass
class TrainConfig:
    learning_rate: float = 0.01
    max_epochs: int = 200
    early_stop_patience: int = 10
    weight_decay: float = 5e-4
    dropout: float = 0.5
    hidden_dims: list[int] = field(default_factory=lambda: [64])
    propagator_kind: str = lg.NORMALIZED_ADJACENCY
    chebyshev_degree: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.propagator_kind in MODEL_KINDS:
            self.propagator_kind = MODEL_KINDS[self.propagator_kind]
        if self.propagator_kind not in (lg.NORMALIZED_ADJACENCY, lg.CHEBYSHEV):
            raise ValueError(f"unknown propagator_kind {self.propagator_kind!r}")
        if self.learning_rate < 0:
            raise ValueError("learning_rate must be >= 0")
        if self.max_epochs < 1 or self.early_stop_patience < 1:
            raise ValueError("max_epochs and early_stop_patience must be >= 1")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must lie in [0, 1)")
        if self.weight_decay < 0:
            raise ValueError("weight_decay must be >= 0")
        if self.chebyshev_degree < 0:
            raise ValueError("chebyshev_degree must be >= 0")
        if any(width < 1 for width in self.hidden_dims):
            raise ValueError(f"hidden_dims entries must be >= 1, got {list(self.hidden_dims)}")


@dataclass
class GcnModel:
    layer_dims: list[int]
    weights: list[list[np.ndarray]]  # per stage, one matrix per basis element
    dropout: float
    propagator_kind: str
    chebyshev_degree: int
    rng_seed: int

    @property
    def n_stages(self) -> int:
        return len(self.weights)

    @property
    def conv_stages(self) -> int:
        # All stages but the final dense one propagate; a single-stage model
        # is one bare convolution.
        return max(1, self.n_stages - 1)

    def copy_weights(self) -> list[list[np.ndarray]]:
        return [[w.copy() for w in stage] for stage in self.weights]


@dataclass
class TrainReport:
    train_loss: list[float] = field(default_factory=list)
    train_acc: list[float] = field(default_factory=list)
    val_loss: list[float] = field(default_factory=list)
    val_acc: list[float] = field(default_factory=list)
    best_epoch: int = 0
    test_accuracy: float | None = None

    @property
    def epochs_run(self) -> int:
        return len(self.train_loss)

    def to_csv(self) -> str:
        lines = ["epoch,train_loss,train_acc,val_loss,val_acc"]
        for e in range(self.epochs_run):
            lines.append(
                f"{e + 1},{self.train_loss[e]!r},{self.train_acc[e]!r},"
                f"{self.val_loss[e]!r},{self.val_acc[e]!r}"
            )
        return "\n".join(lines) + "\n"


def n_basis(propagator_kind: str, chebyshev_degree: int) -> int:
    return chebyshev_degree + 1 if propagator_kind == lg.CHEBYSHEV else 1


def _stage_matrices(n_stages: int, k: int) -> list[int]:
    """Each stage's weight-matrix count: ``k`` (one per basis element) for a
    convolution, 1 for the final dense stage of a multi-stage model."""
    return [k if (s < n_stages - 1 or n_stages == 1) else 1 for s in range(n_stages)]


def init_model(config: TrainConfig, input_dim: int) -> GcnModel:
    """Glorot-uniform initialization, deterministic per seed."""
    if input_dim < 1:
        raise ValueError("input_dim must be >= 1")
    dims = [input_dim] + list(config.hidden_dims) + [2]
    rng = np.random.default_rng(config.seed)
    k = n_basis(config.propagator_kind, config.chebyshev_degree)
    weights = []
    for s, per_basis in enumerate(_stage_matrices(len(dims) - 1, k)):
        fan_in, fan_out = dims[s], dims[s + 1]
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(
            [rng.uniform(-bound, bound, size=(fan_in, fan_out)) for _ in range(per_basis)]
        )
    return GcnModel(
        layer_dims=dims,
        weights=weights,
        dropout=config.dropout,
        propagator_kind=config.propagator_kind,
        chebyshev_degree=config.chebyshev_degree,
        rng_seed=config.seed,
    )


# Nothing in the package calls this: propagation runs on the CSR matrices.
# It stays while perfbench/spans.py looks it up by name to trace it.
def dense_propagator(propagator: lg.Propagator | list[np.ndarray]) -> list[np.ndarray]:
    """Dense copies of the basis matrices the layer multiplies by.

    A Chebyshev basis gives T1..TK: its T0 = I is applied as the identity.
    A list of arrays is taken to be in this form already.
    """
    if isinstance(propagator, lg.Propagator):
        matrices = propagator.matrices
        if propagator.kind == lg.CHEBYSHEV:
            matrices = matrices[1:]
        return [np.asarray(m.todense(), dtype=np.float64) for m in matrices]
    return [np.asarray(m, dtype=np.float64) for m in propagator]


def _basis(model: GcnModel, propagator: lg.Propagator) -> list[sp.csr_matrix]:
    """The CSR matrices the layer multiplies by: a Chebyshev basis gives
    T1..TK, as its T0 = I is applied as the identity."""
    if propagator.kind != model.propagator_kind:
        raise ValueError(f"a {model.propagator_kind} model was given a {propagator.kind} propagator")
    return propagator.matrices[1:] if propagator.kind == lg.CHEBYSHEV else propagator.matrices


def _apply_basis(model: GcnModel, mats: list[sp.csr_matrix], hs: list[np.ndarray]) -> list[np.ndarray]:
    """[B_k @ hs[k]] over the model's basis; a Chebyshev T0 = I passes hs[0] through."""
    skip = 1 if model.propagator_kind == lg.CHEBYSHEV else 0
    if len(hs) != skip + len(mats):
        raise ValueError(f"basis size mismatch: {len(mats)} basis matrices for {len(hs)} terms")
    return hs[:skip] + [p @ h for p, h in zip(mats, hs[skip:])]


def forward(
    model: GcnModel,
    x: np.ndarray,
    propagator: lg.Propagator,
    training: bool = False,
    rng: np.random.Generator | None = None,
    dropout_masks: list[np.ndarray | None] | None = None,
    first_stage: list[np.ndarray] | None = None,
):
    """Run the network; returns (logits, cache) with everything backward needs.

    ``dropout_masks`` replays recorded masks (used by the gradient checks);
    otherwise masks are drawn from ``rng`` when training with dropout > 0.
    ``first_stage`` is the basis applied to ``x``, computed once by the
    caller; a pass without dropout reuses it for the first stage.
    """
    mats = _basis(model, propagator)
    n = propagator.matrices[0].shape[0]
    if x.shape[0] != n:
        raise ValueError(f"propagator is {n}x{n} but features have {x.shape[0]} rows")
    if x.shape[1] != model.layer_dims[0]:
        raise ValueError(
            f"model expects {model.layer_dims[0]} input features, got {x.shape[1]}"
        )
    use_dropout = training and model.dropout > 0.0
    if use_dropout and rng is None and dropout_masks is None:
        raise ValueError("training forward with dropout needs an rng or recorded masks")
    if use_dropout and first_stage is not None:
        raise ValueError("a precomputed first stage holds no dropout mask")

    h = np.asarray(x, dtype=np.float64)
    stages = []
    n_stages = model.n_stages
    for s, stage_weights in enumerate(model.weights):
        mask = None
        if use_dropout:
            if dropout_masks is not None:
                mask = dropout_masks[s]
            else:
                keep = rng.random(h.shape) >= model.dropout
                mask = keep / (1.0 - model.dropout)
        h_in = h * mask if mask is not None else h
        is_conv = s < n_stages - 1 or n_stages == 1
        if is_conv:
            expected = n_basis(model.propagator_kind, model.chebyshev_degree)
            if len(stage_weights) != expected:
                raise ValueError(f"stage {s}: basis size mismatch")
            if s == 0 and first_stage is not None:
                ph = first_stage
            else:
                ph = _apply_basis(model, mats, [h_in] * expected)
            z = sum(ph_k @ w_k for ph_k, w_k in zip(ph, stage_weights))
        else:
            ph = None
            z = h_in @ stage_weights[0]
        stages.append({"h_in": h_in, "ph": ph, "z": z, "mask": mask, "is_conv": is_conv})
        h = np.maximum(z, 0.0) if s < n_stages - 1 else z
    cache = {"stages": stages, "logits": h, "mats": mats, "model": model}
    return h, cache


def log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def softmax(logits: np.ndarray) -> np.ndarray:
    return np.exp(log_softmax(logits))


def masked_loss(
    logits: np.ndarray,
    labels: np.ndarray,
    mask: np.ndarray,
    weight_decay: float = 0.0,
    weights: list[list[np.ndarray]] | None = None,
) -> float:
    """Mean cross-entropy over masked nodes plus first-stage L2 decay."""
    idx = np.flatnonzero(mask)
    if idx.size == 0:
        raise ValueError("no labeled nodes under the mask")
    lsm = log_softmax(logits[idx])
    loss = -lsm[np.arange(idx.size), labels[idx].astype(int)].mean()
    if weight_decay and weights is not None:
        loss += weight_decay * 0.5 * sum(float((w * w).sum()) for w in weights[0])
    return float(loss)


def masked_accuracy(logits: np.ndarray, labels: np.ndarray, mask: np.ndarray) -> float:
    idx = np.flatnonzero(mask)
    if idx.size == 0:
        raise ValueError("no labeled nodes under the mask")
    pred = logits[idx].argmax(axis=1)
    return float((pred == labels[idx].astype(int)).mean())


def backward(
    cache: dict,
    labels: np.ndarray,
    mask: np.ndarray,
    weight_decay: float = 0.0,
) -> list[list[np.ndarray]]:
    """Analytic gradients of masked_loss for every weight matrix."""
    model: GcnModel = cache["model"]
    mats = cache["mats"]
    stages = cache["stages"]
    logits = cache["logits"]
    idx = np.flatnonzero(mask)
    if idx.size == 0:
        raise ValueError("no labeled nodes under the mask")

    dz = softmax(logits)
    onehot = np.zeros_like(dz)
    onehot[idx, labels[idx].astype(int)] = 1.0
    dz -= onehot
    dz[~mask.astype(bool)] = 0.0
    dz /= idx.size

    grads: list[list[np.ndarray]] = [None] * model.n_stages
    for s in range(model.n_stages - 1, -1, -1):
        st = stages[s]
        if st["z"].shape != dz.shape:
            raise ValueError(f"stage {s}: cache shape drift")
        if st["is_conv"]:
            grads[s] = [ph_k.T @ dz for ph_k in st["ph"]]
        else:
            grads[s] = [st["h_in"].T @ dz]
        if s == 0:
            break  # nothing reads the gradient of the network input
        back = [dz @ w.T for w in model.weights[s]]
        dh = sum(_apply_basis(model, mats, back)) if st["is_conv"] else back[0]
        if st["mask"] is not None:
            dh = dh * st["mask"]
        dz = dh * (stages[s - 1]["z"] > 0)
    if weight_decay:
        for k, w in enumerate(model.weights[0]):
            grads[0][k] = grads[0][k] + weight_decay * w
    return grads


@functools.cache
def _openblas_threads():
    """The (get, set) thread-count functions of numpy's bundled
    scipy-openblas, or None when numpy links another BLAS or names them
    otherwise (numpy 1.x).  dlsym on numpy's extension module searches its
    dependencies, so no library path is guessed."""
    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
        get, set_ = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
    except (AttributeError, OSError):
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    return get, set_


class _OneBlasThread(contextlib.ContextDecorator):
    """Context manager and decorator: numpy's OpenBLAS runs on one thread
    inside it.

    The count is process-wide, so overlapping uses (say, training in two
    threads) share one cap: the first to enter saves the count and the last
    to leave restores it.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._depth = 0
        self._saved = 1

    def __enter__(self):
        blas = _openblas_threads()
        if blas is not None:
            with self._lock:
                if self._depth == 0:
                    self._saved = blas[0]()
                    blas[1](1)
                self._depth += 1

    def __exit__(self, *exc_info):
        blas = _openblas_threads()
        if blas is not None:
            with self._lock:
                self._depth -= 1
                if self._depth == 0:
                    blas[1](self._saved)


_one_blas_thread = _OneBlasThread()


def build_propagator(g: lg.LeagueGraph, kind: str, degree: int) -> lg.Propagator:
    if kind == lg.CHEBYSHEV:
        return lg.chebyshev_basis(g, degree)
    return lg.normalized_adjacency(g)


@_one_blas_thread  # see the module docstring
def train(
    model: GcnModel,
    train_graph: lg.LeagueGraph,
    val_graph: lg.LeagueGraph,
    config: TrainConfig,
    train_prop: lg.Propagator,
    val_prop: lg.Propagator,
) -> tuple[GcnModel, TrainReport]:
    """Full-batch Adam with early stopping on validation accuracy.

    Returns the snapshot from the best-validation epoch.  Both graphs must
    already be labeled with the same offset as the model's convolution count.
    ``train_prop`` and ``val_prop`` are their ``build_propagator`` results
    for the model, so callers training many models on one split build them
    once.
    """
    for name, g in (("train", train_graph), ("val", val_graph)):
        if g.features is None:
            raise ValueError(f"{name} graph has no features attached")
        if not g.label_mask.any():
            raise ValueError(f"{name} graph has no labeled nodes")

    model = replace(model, weights=model.copy_weights())  # never mutate the caller's model
    x_train = np.asarray(train_graph.features.values, dtype=np.float64)
    x_val = np.asarray(val_graph.features.values, dtype=np.float64)
    # The dropout-off passes see the same first-stage input every epoch.
    k = n_basis(model.propagator_kind, model.chebyshev_degree)
    first_train = _apply_basis(model, _basis(model, train_prop), [x_train] * k)
    first_val = _apply_basis(model, _basis(model, val_prop), [x_val] * k)

    rng = np.random.default_rng(config.seed)
    m_state = [[np.zeros_like(w) for w in stage] for stage in model.weights]
    v_state = [[np.zeros_like(w) for w in stage] for stage in model.weights]
    beta1, beta2, eps = 0.9, 0.999, 1e-8

    report = TrainReport()
    best_acc = -np.inf
    best_weights = model.copy_weights()
    stall = 0
    for epoch in range(1, config.max_epochs + 1):
        logits, cache = forward(model, x_train, train_prop, training=True, rng=rng)
        loss = masked_loss(logits, train_graph.labels, train_graph.label_mask, config.weight_decay, model.weights)
        if not np.isfinite(loss):
            raise TrainingDiverged(epoch)
        grads = backward(cache, train_graph.labels, train_graph.label_mask, config.weight_decay)
        for s, stage in enumerate(model.weights):
            for k, w in enumerate(stage):
                m = m_state[s][k] = beta1 * m_state[s][k] + (1 - beta1) * grads[s][k]
                v = v_state[s][k] = beta2 * v_state[s][k] + (1 - beta2) * grads[s][k] ** 2
                m_hat = m / (1 - beta1**epoch)
                v_hat = v / (1 - beta2**epoch)
                w -= config.learning_rate * m_hat / (np.sqrt(v_hat) + eps)

        eval_logits, _ = forward(model, x_train, train_prop, training=False, first_stage=first_train)
        report.train_loss.append(
            masked_loss(eval_logits, train_graph.labels, train_graph.label_mask, config.weight_decay, model.weights)
        )
        report.train_acc.append(masked_accuracy(eval_logits, train_graph.labels, train_graph.label_mask))
        val_logits, _ = forward(model, x_val, val_prop, training=False, first_stage=first_val)
        report.val_loss.append(masked_loss(val_logits, val_graph.labels, val_graph.label_mask))
        report.val_acc.append(masked_accuracy(val_logits, val_graph.labels, val_graph.label_mask))

        if report.val_acc[-1] > best_acc:
            best_acc = report.val_acc[-1]
            best_weights = model.copy_weights()
            report.best_epoch = epoch
            stall = 0
        else:
            stall += 1
            if stall >= config.early_stop_patience:
                break

    best = replace(model, weights=best_weights)
    return best, report


def predict(model: GcnModel, g: lg.LeagueGraph) -> np.ndarray:
    """Per-node win probability (class 1) with dropout off."""
    if g.features is None:
        raise ValueError("graph has no features attached")
    prop = build_propagator(g, model.propagator_kind, model.chebyshev_degree)
    logits, _ = forward(model, g.features.values, prop, training=False)
    return softmax(logits)[:, 1]


def model_to_json(model: GcnModel) -> str:
    doc = {
        "schema_version": MODEL_SCHEMA_VERSION,
        "config": {
            "dropout": model.dropout,
            "propagator_kind": model.propagator_kind,
            "chebyshev_degree": model.chebyshev_degree,
            "rng_seed": model.rng_seed,
        },
        "layer_dims": model.layer_dims,
        "weights": [[w.tolist() for w in stage] for stage in model.weights],
    }
    return json.dumps(doc)


def model_from_json(text: str) -> GcnModel:
    doc = json.loads(text)
    if doc.get("schema_version") != MODEL_SCHEMA_VERSION:
        raise ValueError(f"unsupported model schema: {doc.get('schema_version')}")
    cfg = doc["config"]
    config = TrainConfig(
        dropout=float(cfg["dropout"]),
        propagator_kind=cfg["propagator_kind"],
        chebyshev_degree=int(cfg["chebyshev_degree"]),
        seed=int(cfg["rng_seed"]),
    )  # checks the values as training does
    dims = [int(d) for d in doc["layer_dims"]]
    weights = [
        [np.array(w, dtype=np.float64) for w in stage] for stage in doc["weights"]
    ]
    counts = _stage_matrices(len(dims) - 1, n_basis(config.propagator_kind, config.chebyshev_degree))
    expected = [[(dims[s], dims[s + 1])] * count for s, count in enumerate(counts)]
    shapes = [[w.shape for w in stage] for stage in weights]
    for s, (got, want) in enumerate(zip_longest(shapes, expected, fillvalue=[])):
        if got != want:
            raise ValueError(f"model stage {s} has weight shapes {got}, but layer_dims {dims} needs {want}")
    return GcnModel(
        layer_dims=dims,
        weights=weights,
        dropout=config.dropout,
        propagator_kind=config.propagator_kind,
        chebyshev_degree=config.chebyshev_degree,
        rng_seed=config.seed,
    )
