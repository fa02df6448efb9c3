"""Sparse-propagation graph convolutional classifier with manual backprop.

One stage rule: a stage multiplies its input H by each operator B_k of its
basis and sums the products times the weights, sum_k (B_k H) W_k, followed
by ReLU on all but the last stage.  A basis is the normalized adjacency, or
Chebyshev T0..TK with T0 = I as None, the identity, which passes H through.
All stages but a multi-stage model's last one convolve (``n_conv_stages``);
that last one's basis is [None], a dense map to the two logits, so the
receptive field is exactly the number of convolution stages.  Dropout is
applied to every stage input during training with inverted 1/(1-p) scaling.
The cache keeps each stage's boolean keep mask, one byte a cell where a
float mask keep/(1-p) takes eight; ``forward`` and ``backward`` scale by
1/(1-p) and then multiply by the mask, which gives the float mask's bits
for every finite product (a dropped cell is a zero with its input's sign).
``train`` keeps an epoch's cache until the next epoch's ``forward``
returns.  Freeing it right after ``backward`` lowered ``train``'s traced
peak by about 5 MB on 3,040-node leagues, but serial 144-cell grid training
ran slower (medians 5.4-7.0 s against 4.7-5.5 s), for a cause not found.
A model carries a copy of the ``TrainConfig`` it was built with, the one
record of its settings: ``train`` takes the config and builds the model.

Propagation multiplies by the propagator's own CSR matrices, and only the
products a result needs are formed.  A graph keeps each propagator
``build_propagator`` makes for it, so models trained on one split share one
build.  ``train`` propagates the validation graph's features through the
first stage once; the dropout-off validation pass reuses that every epoch.
With ``train_metrics`` on (the default, which the ``train`` command needs
for ``train_report.csv``), each epoch also evaluates the train graph
without dropout, reusing its own first stage.  ``compare`` and
``grid-search`` read no train-graph metric, so their shared cell trainer,
``experiment.run_cross_league``, turns ``train_metrics`` off and skips that
pass.  ``backward`` stops at the first stage's weight gradients: nothing
reads the gradient of the network input.  An epoch sums the basis terms,
applies ReLU and updates Adam's moments in place, which gives the same bits
as forming new arrays.

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
on the core count.  The cap applies per process:
``experiment.run_cross_league`` trains its cells in one forked worker per
core, each of which caps its own ``train``, so busy threads never outnumber
cores.  With another BLAS (or numpy 1.x) the cap does nothing.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
from dataclasses import dataclass, field, replace
from itertools import zip_longest
from typing import TYPE_CHECKING

import numpy as np

from . import graph as lg

if TYPE_CHECKING:
    import scipy.sparse as sp

MODEL_SCHEMA_VERSION = 1

# External model names -> propagator kind.
MODEL_KINDS = {
    "gcn": lg.NORMALIZED_ADJACENCY,
    "gcn-cheby": lg.CHEBYSHEV,
}


class TrainingDiverged(RuntimeError):
    # args holds the epoch alone, so a pickled copy (a pool worker's) rebuilds
    # with the same epoch and message.
    def __init__(self, epoch: int):
        super().__init__(epoch)
        self.epoch = epoch

    def __str__(self) -> str:
        return f"training loss became non-finite at epoch {self.epoch}"


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
    config: TrainConfig
    weights: list[list[np.ndarray]]  # per stage, one matrix per basis element

    def __post_init__(self):  # a copy: editing the caller's config later leaves the model as it is
        self.config = replace(self.config, hidden_dims=list(self.config.hidden_dims))

    @property
    def layer_dims(self) -> list[int]:
        return [self.weights[0][0].shape[0], *self.config.hidden_dims, 2]

    @property
    def n_stages(self) -> int:
        return len(self.weights)

    @property
    def conv_stages(self) -> int:
        return n_conv_stages(self.config.hidden_dims)

    def copy_weights(self) -> list[list[np.ndarray]]:
        return [[w.copy() for w in stage] for stage in self.weights]


@dataclass
class TrainReport:
    train_loss: list[float] = field(default_factory=list)
    train_acc: list[float] = field(default_factory=list)
    val_loss: list[float] = field(default_factory=list)
    val_acc: list[float] = field(default_factory=list)
    best_epoch: int = 0

    @property
    def epochs_run(self) -> int:
        return len(self.val_loss)

    def to_csv(self) -> str:
        columns = (self.train_loss, self.train_acc, self.val_loss, self.val_acc)
        if any(len(c) != self.epochs_run for c in columns):
            raise ValueError("a train report CSV needs train and validation metrics for every epoch")
        lines = ["epoch,train_loss,train_acc,val_loss,val_acc"]
        for e in range(self.epochs_run):
            lines.append(
                f"{e + 1},{self.train_loss[e]!r},{self.train_acc[e]!r},"
                f"{self.val_loss[e]!r},{self.val_acc[e]!r}"
            )
        return "\n".join(lines) + "\n"


def n_basis(propagator_kind: str, chebyshev_degree: int) -> int:
    return chebyshev_degree + 1 if propagator_kind == lg.CHEBYSHEV else 1


def n_conv_stages(hidden_dims: list[int]) -> int:
    """How many stages convolve: all but a multi-stage model's last one,
    which is dense.  A model without hidden layers is one convolution."""
    return max(1, len(hidden_dims))


def _stage_bases(hidden_dims: list[int], basis: list) -> list[list]:
    """Each stage's basis: ``basis`` to convolve, [None] (the identity) for a final dense stage."""
    convs = n_conv_stages(hidden_dims)
    return [basis] * convs + [[None]] * (len(hidden_dims) + 1 - convs)


def init_model(config: TrainConfig, input_dim: int) -> GcnModel:
    """Glorot-uniform initialization, deterministic per seed."""
    if input_dim < 1:
        raise ValueError("input_dim must be >= 1")
    dims = [input_dim] + list(config.hidden_dims) + [2]
    rng = np.random.default_rng(config.seed)
    k = n_basis(config.propagator_kind, config.chebyshev_degree)
    weights = []
    for s, basis in enumerate(_stage_bases(config.hidden_dims, [None] * k)):  # only its size matters
        fan_in, fan_out = dims[s], dims[s + 1]
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append([rng.uniform(-bound, bound, size=(fan_in, fan_out)) for _ in basis])
    return GcnModel(config, weights)


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


def _model_bases(model: GcnModel, propagator: lg.Propagator) -> list[list[sp.csr_matrix | None]]:
    """The model's stage bases on ``propagator``'s graph; a Chebyshev T0 = I is None."""
    if propagator.kind != model.config.propagator_kind:
        raise ValueError(f"a {model.config.propagator_kind} model was given a {propagator.kind} propagator")
    basis = [None, *propagator.matrices[1:]] if propagator.kind == lg.CHEBYSHEV else propagator.matrices
    return _stage_bases(model.config.hidden_dims, basis)


def _apply(basis: list[sp.csr_matrix | None], terms: list[np.ndarray]) -> list[np.ndarray]:
    """[B_k @ terms[k]] over ``basis``; None, the identity, passes its term through."""
    return [h if b is None else b @ h for b, h in zip(basis, terms)]


def forward(
    model: GcnModel,
    x: np.ndarray,
    propagator: lg.Propagator,
    training: bool = False,
    rng: np.random.Generator | None = None,
    first_stage: list[np.ndarray] | None = None,
):
    """Run the network; returns (logits, cache) with everything backward needs.

    Dropout masks are drawn from ``rng`` when training with dropout > 0.
    ``first_stage`` is the basis applied to ``x``, computed once by the
    caller; a pass without dropout reuses it for the first stage.
    """
    bases = _model_bases(model, propagator)
    n = propagator.matrices[0].shape[0]
    if x.shape[0] != n:
        raise ValueError(f"propagator is {n}x{n} but features have {x.shape[0]} rows")
    if x.shape[1] != model.layer_dims[0]:
        raise ValueError(f"model expects {model.layer_dims[0]} input features, got {x.shape[1]}")
    use_dropout = training and model.config.dropout > 0.0
    if use_dropout and rng is None:
        raise ValueError("training forward with dropout needs an rng")
    if use_dropout and first_stage is not None:
        raise ValueError("a precomputed first stage holds no dropout mask")

    h = np.asarray(x, dtype=np.float64)
    stages = []
    for s, (basis, stage_weights) in enumerate(zip(bases, model.weights)):
        if len(stage_weights) != len(basis):
            raise ValueError(f"stage {s}: basis size mismatch")
        keep = None
        h_in = h
        if use_dropout:
            keep = rng.random(h.shape) >= model.config.dropout
            h_in = h * (1.0 / (1.0 - model.config.dropout))
            h_in *= keep  # the bits of h times a float mask keep / (1 - p)
        ph = first_stage if s == 0 and first_stage is not None else _apply(basis, [h_in] * len(basis))
        z = ph[0] @ stage_weights[0]
        for ph_k, w_k in zip(ph[1:], stage_weights[1:]):
            z += ph_k @ w_k
        if s < model.n_stages - 1:
            np.maximum(z, 0.0, out=z)  # backward's z > 0 reads the same bits
        stages.append({"ph": ph, "z": z, "keep": keep})
        h = z
    cache = {"stages": stages, "logits": h, "bases": bases, "model": model}
    return h, cache


def log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def softmax(logits: np.ndarray) -> np.ndarray:
    return np.exp(log_softmax(logits))


def _label_index(labels: np.ndarray, mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The masked nodes' indices and their integer labels."""
    idx = np.flatnonzero(mask)
    if idx.size == 0:
        raise ValueError("no labeled nodes under the mask")
    return idx, labels[idx].astype(int)


def _loss(
    logits: np.ndarray,
    idx: np.ndarray,
    y: np.ndarray,
    weight_decay: float = 0.0,
    weights: list[list[np.ndarray]] | None = None,
) -> float:
    lsm = log_softmax(logits[idx])
    loss = -lsm[np.arange(idx.size), y].mean()
    if weight_decay and weights is not None:
        loss += weight_decay * 0.5 * sum(float((w * w).sum()) for w in weights[0])
    return float(loss)


def _accuracy(logits: np.ndarray, idx: np.ndarray, y: np.ndarray) -> float:
    return float((logits[idx].argmax(axis=1) == y).mean())


def masked_loss(
    logits: np.ndarray,
    labels: np.ndarray,
    mask: np.ndarray,
    weight_decay: float = 0.0,
    weights: list[list[np.ndarray]] | None = None,
) -> float:
    """Mean cross-entropy over masked nodes plus first-stage L2 decay."""
    return _loss(logits, *_label_index(labels, mask), weight_decay, weights)


def masked_accuracy(logits: np.ndarray, labels: np.ndarray, mask: np.ndarray) -> float:
    return _accuracy(logits, *_label_index(labels, mask))


def backward(
    cache: dict,
    labels: np.ndarray,
    mask: np.ndarray,
    weight_decay: float = 0.0,
) -> list[list[np.ndarray]]:
    """Analytic gradients of masked_loss for every weight matrix."""
    model: GcnModel = cache["model"]
    bases = cache["bases"]
    stages = cache["stages"]
    logits = cache["logits"]
    idx, y = _label_index(labels, mask)

    # Unlabelled rows carry no loss, so only the labelled rows are formed.
    d_labelled = softmax(logits[idx])
    d_labelled[np.arange(idx.size), y] -= 1.0
    d_labelled /= idx.size
    dz = np.zeros_like(logits)
    dz[idx] = d_labelled

    grads: list[list[np.ndarray]] = [None] * model.n_stages
    for s in range(model.n_stages - 1, -1, -1):
        st = stages[s]
        if st["z"].shape != dz.shape:
            raise ValueError(f"stage {s}: cache shape drift")
        grads[s] = [ph_k.T @ dz for ph_k in st["ph"]]
        if s == 0:
            break  # nothing reads the gradient of the network input
        dh, *terms = _apply(bases[s], [dz @ w.T for w in model.weights[s]])
        for term in terms:
            dh += term
        if st["keep"] is not None:
            dh *= 1.0 / (1.0 - model.config.dropout)
            dh *= st["keep"]
        dh *= stages[s - 1]["z"] > 0
        dz = dh
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


@contextlib.contextmanager
def _one_blas_thread():
    """numpy's OpenBLAS runs on one thread inside it; the count it had is restored on the way out."""
    blas = _openblas_threads()
    if blas is None:
        yield
        return
    saved = blas[0]()
    blas[1](1)
    try:
        yield
    finally:
        blas[1](saved)


def build_propagator(g: lg.LeagueGraph, kind: str, degree: int) -> lg.Propagator:
    """``g``'s propagator of ``kind`` and ``degree``, built once and kept in ``g.propagators``."""
    if (kind, degree) not in g.propagators:
        g.propagators[kind, degree] = (
            lg.chebyshev_basis(g, degree) if kind == lg.CHEBYSHEV else lg.normalized_adjacency(g)
        )
    return g.propagators[kind, degree]


def check_label_offset(config: TrainConfig, g: lg.LeagueGraph, name: str) -> None:
    """Raise unless ``g`` was labelled for ``config``'s convolution count:
    labels set closer than that leak into the model's receptive field."""
    convs = n_conv_stages(config.hidden_dims)
    if g.convolutions != convs:
        raise ValueError(f"{name} graph is labelled for {g.convolutions} convolution(s), but the model has {convs}")


@_one_blas_thread()  # see the module docstring
def train(
    config: TrainConfig,
    train_graph: lg.LeagueGraph,
    val_graph: lg.LeagueGraph,
    *,
    train_metrics: bool = True,
) -> tuple[GcnModel, TrainReport]:
    """Full-batch Adam with early stopping on validation accuracy.

    Builds the model with ``init_model(config, <train feature width>)`` and
    returns its snapshot from the best-validation epoch; ``config`` alone
    sets the network, the seed of its weights and dropout masks, and the
    optimizer.  Both graphs must already be labeled with the same offset as
    the config's convolution count; ``check_label_offset`` raises otherwise.
    Their propagators come from ``build_propagator``, which keeps each on its
    graph, so models trained on one split share one build.  With
    ``train_metrics`` off, as ``compare`` and ``grid-search`` train, the
    epochs skip the dropout-off train-graph evaluation and leave the report's
    ``train_loss`` and ``train_acc`` empty; the weights and the validation
    metrics are the same bits either way.
    """
    for name, g in (("train", train_graph), ("val", val_graph)):
        if g.features is None:
            raise ValueError(f"{name} graph has no features attached")
        if not g.label_mask.any():
            raise ValueError(f"{name} graph has no labeled nodes")
        check_label_offset(config, g, name)

    x_train = np.asarray(train_graph.features.values, dtype=np.float64)
    x_val = np.asarray(val_graph.features.values, dtype=np.float64)
    model = init_model(config, x_train.shape[1])
    train_prop = build_propagator(train_graph, config.propagator_kind, config.chebyshev_degree)
    val_prop = build_propagator(val_graph, config.propagator_kind, config.chebyshev_degree)
    train_labelled = _label_index(train_graph.labels, train_graph.label_mask)
    val_labelled = _label_index(val_graph.labels, val_graph.label_mask)
    # The dropout-off passes see the same first-stage input every epoch.
    basis = _model_bases(model, val_prop)[0]
    first_val = _apply(basis, [x_val] * len(basis))
    if train_metrics:
        first_train = _apply(_model_bases(model, train_prop)[0], [x_train] * len(basis))

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
        loss = _loss(logits, *train_labelled, config.weight_decay, model.weights)
        if not np.isfinite(loss):
            raise TrainingDiverged(epoch)
        grads = backward(cache, train_graph.labels, train_graph.label_mask, config.weight_decay)
        for s, stage in enumerate(model.weights):
            for k, w in enumerate(stage):
                g, m, v = grads[s][k], m_state[s][k], v_state[s][k]
                m *= beta1
                m += (1 - beta1) * g
                v *= beta2
                v += (1 - beta2) * g**2
                m_hat = m / (1 - beta1**epoch)
                v_hat = v / (1 - beta2**epoch)
                w -= config.learning_rate * m_hat / (np.sqrt(v_hat) + eps)

        if train_metrics:
            eval_logits, _ = forward(model, x_train, train_prop, training=False, first_stage=first_train)
            report.train_loss.append(_loss(eval_logits, *train_labelled, config.weight_decay, model.weights))
            report.train_acc.append(_accuracy(eval_logits, *train_labelled))
        val_logits, _ = forward(model, x_val, val_prop, training=False, first_stage=first_val)
        report.val_loss.append(_loss(val_logits, *val_labelled))
        report.val_acc.append(_accuracy(val_logits, *val_labelled))

        if report.val_acc[-1] > best_acc:
            best_acc = report.val_acc[-1]
            best_weights = model.copy_weights()
            report.best_epoch = epoch
            stall = 0
        else:
            stall += 1
            if stall >= config.early_stop_patience:
                break

    return replace(model, weights=best_weights), report


def predict(model: GcnModel, g: lg.LeagueGraph) -> np.ndarray:
    """Per-node win probability (class 1) with dropout off."""
    if g.features is None:
        raise ValueError("graph has no features attached")
    prop = build_propagator(g, model.config.propagator_kind, model.config.chebyshev_degree)
    logits, _ = forward(model, g.features.values, prop, training=False)
    return softmax(logits)[:, 1]


def model_to_dict(model: GcnModel) -> dict:
    """The model as a JSON-ready object, the model bundle's ``"model"``."""
    return {
        "schema_version": MODEL_SCHEMA_VERSION,
        "config": {
            "dropout": model.config.dropout,
            "propagator_kind": model.config.propagator_kind,
            "chebyshev_degree": model.config.chebyshev_degree,
            "rng_seed": model.config.seed,
        },
        "layer_dims": model.layer_dims,
        "weights": [[w.tolist() for w in stage] for stage in model.weights],
    }


def model_from_dict(doc: dict) -> GcnModel:
    """The model ``model_to_dict`` wrote; raises on an invalid config value or weight shape."""
    if doc.get("schema_version") != MODEL_SCHEMA_VERSION:
        raise ValueError(f"unsupported model schema: {doc.get('schema_version')}")
    cfg = doc["config"]
    dims = [int(d) for d in doc["layer_dims"]]
    config = TrainConfig(
        dropout=float(cfg["dropout"]),
        hidden_dims=dims[1:-1],
        propagator_kind=cfg["propagator_kind"],
        chebyshev_degree=int(cfg["chebyshev_degree"]),
        seed=int(cfg["rng_seed"]),
    )  # checks the values as training does
    weights = [[np.array(w, dtype=np.float64) for w in stage] for stage in doc["weights"]]
    bases = _stage_bases(config.hidden_dims, [None] * n_basis(config.propagator_kind, config.chebyshev_degree))
    expected = [[shape] * len(basis) for shape, basis in zip(zip(dims, dims[1:]), bases)]
    shapes = [[w.shape for w in stage] for stage in weights]
    for s, (got, want) in enumerate(zip_longest(shapes, expected, fillvalue=[])):
        if got != want:
            raise ValueError(f"model stage {s} has weight shapes {got}, but layer_dims {dims} needs {want}")
    return GcnModel(config, weights)
