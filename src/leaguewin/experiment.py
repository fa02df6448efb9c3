"""Cross-league evaluation protocol and model comparison tables.

Leagues are fixed ahead of time: train on one league's graph, early-stop on
a second, report masked accuracy on a third.  Test labels are read exactly
once per experiment, inside final_test_accuracy.
"""

from __future__ import annotations

import csv
import io
import json
# Unused here; perfbench/spans.py swaps this name for its traced pool.
from concurrent.futures import ThreadPoolExecutor  # noqa: F401
from dataclasses import dataclass, field, replace
from itertools import product

import numpy as np

from . import gcn
from . import graph as lg
from .baselines import forest as rf
from .baselines import scope as sc
from .ingest import FeatureSpec, TeamGameRecord, build_feature_matrix, filter_regular_season, standardize


@dataclass(frozen=True)
class SplitPlan:
    train_league: str
    val_league: str
    test_league: str
    season: int

    def __post_init__(self):
        leagues = (self.train_league, self.val_league, self.test_league)
        if len(set(leagues)) != 3:
            raise ValueError(f"plan needs three distinct leagues, got {leagues}")

    @classmethod
    def from_json(cls, text: str) -> "SplitPlan":
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise ValueError(f"a split plan must be a JSON object, got {json.dumps(doc)}")
        missing = [f for f in cls.__dataclass_fields__ if f not in doc]
        if missing:
            raise ValueError(f"split plan lacks {missing}")
        for key in ("train_league", "val_league", "test_league"):
            if not isinstance(doc[key], str) or not doc[key]:
                raise ValueError(f"split plan field {key!r} must be a non-empty string, got {json.dumps(doc[key])}")
        if not isinstance(doc["season"], int) or isinstance(doc["season"], bool):
            raise ValueError(f"split plan field 'season' must be an integer, got {json.dumps(doc['season'])}")
        return cls(doc["train_league"], doc["val_league"], doc["test_league"], doc["season"])

    def to_dict(self) -> dict:
        return {
            "train_league": self.train_league,
            "val_league": self.val_league,
            "test_league": self.test_league,
            "season": self.season,
        }


@dataclass
class ExperimentRow:
    model: str
    dataset: str
    params: dict = field(default_factory=dict)
    val_accuracy: float | None = None
    test_accuracy: float | None = None
    std: float | None = None
    note: str = ""


@dataclass
class ExperimentReport:
    rows: list[ExperimentRow] = field(default_factory=list)

    def to_json(self) -> str:
        return json.dumps(
            [
                {
                    "model": r.model,
                    "dataset": r.dataset,
                    "params": r.params,
                    "val_accuracy": r.val_accuracy,
                    "test_accuracy": r.test_accuracy,
                    "std": r.std,
                    "note": r.note,
                }
                for r in self.rows
            ],
            indent=2,
        )

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["model", "dataset", "params", "val_accuracy", "test_accuracy", "std", "note"])
        for r in self.rows:
            writer.writerow(
                [
                    r.model,
                    r.dataset,
                    json.dumps(r.params, sort_keys=True),
                    "" if r.val_accuracy is None else repr(r.val_accuracy),
                    "" if r.test_accuracy is None else repr(r.test_accuracy),
                    "" if r.std is None else repr(r.std),
                    r.note,
                ]
            )
        return buf.getvalue()


def model_display_name(propagator_kind: str, conv_layers: int) -> str:
    name = next(name for name, kind in gcn.MODEL_KINDS.items() if kind == propagator_kind)
    return f"{name} ({conv_layers} layer)"


def conv_layers_of(config: gcn.TrainConfig) -> int:
    return max(1, len(config.hidden_dims))


def league_games(records: list[TeamGameRecord], league: str, season: int) -> list[TeamGameRecord]:
    """One league-season's regular-season games; raises naming an absent league."""
    recs = filter_regular_season(records, league, season)
    if not recs:
        raise ValueError(f"league {league!r} has no regular-season games for {season}")
    return recs


def league_graph_for(
    records: list[TeamGameRecord],
    league: str,
    season: int,
    spec: FeatureSpec,
    mode: str,
    convolutions: int,
    stats=None,
):
    """Build one league's labeled graph; returns (graph, standardization stats)."""
    recs = league_games(records, league, season)
    matrix = standardize(build_feature_matrix(recs, spec, mode), stats)
    g = lg.build_league_graph(recs, features=matrix)
    return lg.assign_labels(g, convolutions), matrix.standardization_stats


def prepare_split(
    records: list[TeamGameRecord],
    plan: SplitPlan,
    mode: str,
    convolutions: int,
    spec: FeatureSpec | None = None,
):
    """Three labeled graphs with val/test standardized by training-league stats."""
    if spec is None:
        spec = FeatureSpec.default()
    train_g, stats = league_graph_for(records, plan.train_league, plan.season, spec, mode, convolutions)
    val_g, _ = league_graph_for(records, plan.val_league, plan.season, spec, mode, convolutions, stats)
    test_g, _ = league_graph_for(records, plan.test_league, plan.season, spec, mode, convolutions, stats)
    return train_g, val_g, test_g, stats


def final_test_accuracy(model: gcn.GcnModel, test_graph: lg.LeagueGraph) -> float:
    """The one place test-league labels are read."""
    prop = gcn.build_propagator(test_graph, model.propagator_kind, model.chebyshev_degree)
    logits, _ = gcn.forward(model, test_graph.features.values, prop, training=False)
    return gcn.masked_accuracy(logits, test_graph.labels, test_graph.label_mask)


def train_for_plan(
    records: list[TeamGameRecord],
    plan: SplitPlan,
    config: gcn.TrainConfig,
    mode: str,
    spec: FeatureSpec | None = None,
):
    """Train on the plan's train/val graphs without touching test labels."""
    convs = conv_layers_of(config)
    train_g, val_g, test_g, stats = prepare_split(records, plan, mode, convs, spec)
    model = gcn.init_model(config, train_g.features.values.shape[1])
    best, report = gcn.train(model, train_g, val_g, config, *split_propagators(config, train_g, val_g))
    return best, report, test_g, stats


def split_propagators(
    config: gcn.TrainConfig, train_g: lg.LeagueGraph, val_g: lg.LeagueGraph
) -> list[lg.Propagator]:
    """The train and validation graphs' propagators for ``config``'s model."""
    return [gcn.build_propagator(g, config.propagator_kind, config.chebyshev_degree) for g in (train_g, val_g)]


def run_cross_league(
    records: list[TeamGameRecord],
    plan: SplitPlan,
    config: gcn.TrainConfig,
    mode: str = "delta",
    spec: FeatureSpec | None = None,
) -> tuple[ExperimentRow, gcn.GcnModel, gcn.TrainReport]:
    best, report, test_g, _ = train_for_plan(records, plan, config, mode, spec)
    report.test_accuracy = final_test_accuracy(best, test_g)
    return gcn_row(config, mode, report), best, report


def gcn_row(config: gcn.TrainConfig, dataset: str, report: gcn.TrainReport) -> ExperimentRow:
    """A trained GCN's row: its config, best-epoch validation accuracy and
    the report's test accuracy (None until the test league is scored)."""
    return ExperimentRow(
        model=model_display_name(config.propagator_kind, conv_layers_of(config)),
        dataset=dataset,
        params={
            "hidden_dims": list(config.hidden_dims),
            "dropout": config.dropout,
            "chebyshev_degree": config.chebyshev_degree,
            "seed": config.seed,
        },
        val_accuracy=report.val_acc[report.best_epoch - 1],
        test_accuracy=report.test_accuracy,
    )


def default_gcn_grid() -> dict[str, list]:
    # Hidden-layer sizes are crossed for two-conv models; None in the second
    # slot produces the one-conv variants.
    return {
        "hidden1": [32, 64, 128],
        "hidden2": [None, 32, 64, 128],
        "dropout": [0.1, 0.25, 0.5],
        "model": ["gcn", "gcn-cheby"],
        "dataset": ["raw", "delta"],
    }


def gcn_grid_cells(grid: dict[str, list]) -> list[tuple[list[int], float, str, str]]:
    cells = []
    for h1, h2, p, m, d in product(
        grid["hidden1"], grid["hidden2"], grid["dropout"], grid["model"], grid["dataset"]
    ):
        hidden = [h1] if h2 is None else [h1, h2]
        cells.append((hidden, p, m, d))
    return cells


def grid_search_gcn(
    records: list[TeamGameRecord],
    plan: SplitPlan,
    grid: dict[str, list] | None = None,
    base_config: gcn.TrainConfig | None = None,
    spec: FeatureSpec | None = None,
) -> ExperimentReport:
    """Evaluate every grid cell by validation accuracy; test only the winner."""
    if grid is None:
        grid = default_gcn_grid()
    if base_config is None:
        base_config = gcn.TrainConfig()
    cells = [
        (replace(base_config, hidden_dims=hidden, dropout=dropout, propagator_kind=kind), dataset)
        for hidden, dropout, kind, dataset in gcn_grid_cells(grid)
    ]
    if not cells:
        raise ValueError("empty grid")
    # Cells differ in the split only by dataset mode and convolution count
    # (the label offset), so each distinct split is built once and shared.
    keys = dict.fromkeys((dataset, conv_layers_of(config)) for config, dataset in cells)
    splits = {key: prepare_split(records, plan, key[0], key[1], spec) for key in keys}

    rows = []
    # A split's propagators depend only on the model kind and degree, so
    # each (split, kind) pair builds them once, lambda_max included.
    props = {}
    for config, dataset in cells:
        train_g, val_g, test_g, _ = splits[dataset, conv_layers_of(config)]
        key = (dataset, conv_layers_of(config), config.propagator_kind, config.chebyshev_degree)
        if key not in props:
            props[key] = split_propagators(config, train_g, val_g)
        model = gcn.init_model(config, train_g.features.values.shape[1])
        model, report = gcn.train(model, train_g, val_g, config, *props[key])
        rows.append(gcn_row(config, dataset, report))
        # Strictly greater: ties keep the first cell in enumeration order.
        if len(rows) == 1 or rows[-1].val_accuracy > winner.val_accuracy:
            winner, winner_model, winner_test = rows[-1], model, test_g
    winner.test_accuracy = final_test_accuracy(winner_model, winner_test)
    winner.note = "winner"
    return ExperimentReport(rows=rows)


def compare_all(
    records: list[TeamGameRecord],
    plan: SplitPlan,
    gcn_config: gcn.TrainConfig | None = None,
    scope_grid: dict[str, list] | None = None,
    rf_seeds: int = 10,
    spec: FeatureSpec | None = None,
) -> ExperimentReport:
    """One table with the standard six comparison rows.

    The SCOPE row needs the two seasons before plan.season for the test
    league (initialization and validation); without them it is skipped and
    the other rows still run.
    """
    if gcn_config is None:
        gcn_config = gcn.TrainConfig()
    rows: list[ExperimentRow] = []
    gcn_variants = [
        ("gcn-cheby", [64], "raw"),
        ("gcn", [64], "delta"),
        ("gcn-cheby", [64, 64], "delta"),
    ]
    for kind, hidden, dataset in gcn_variants:
        config = replace(gcn_config, hidden_dims=hidden, propagator_kind=kind)
        row, _, _ = run_cross_league(records, plan, config, dataset, spec)
        rows.append(row)

    rows.append(random_forest_row(records, plan, lookback=5, mode="delta", seeds=rf_seeds, spec=spec))
    rows.append(scope_row(records, plan, scope_grid))

    config = replace(gcn_config, hidden_dims=[64], propagator_kind="gcn-cheby")
    row, _, _ = run_cross_league(records, plan, config, "delta", spec)
    rows.append(row)
    return ExperimentReport(rows=rows)


def random_forest_row(
    records: list[TeamGameRecord],
    plan: SplitPlan,
    lookback: int = 5,
    mode: str = "delta",
    seeds: int = 10,
    spec: FeatureSpec | None = None,
) -> ExperimentRow:
    """Fit on the training league, score the test league, mean +/- std over seeds."""
    n_trees, max_depth, min_leaf = 100, 10, 1
    train_recs = league_games(records, plan.train_league, plan.season)
    test_recs = league_games(records, plan.test_league, plan.season)
    x_train, y_train, _ = rf.lookback_dataset(train_recs, lookback, mode, spec)
    x_test, y_test, _ = rf.lookback_dataset(test_recs, lookback, mode, spec)
    if not len(x_train) or not len(x_test):
        return ExperimentRow(
            model=f"random forest (lookback={lookback})",
            dataset=mode,
            note="skipped: not enough game history",
        )
    accs = []
    for s in range(seeds):
        forest = rf.forest_train(x_train, y_train, n_trees=n_trees, max_depth=max_depth, min_leaf=min_leaf, seed=s)
        pred = rf.forest_predict_many(forest, x_test) > 0.5
        accs.append(float((pred == (y_test == 1)).mean()))
    return ExperimentRow(
        model=f"random forest (lookback={lookback})",
        dataset=mode,
        params={"n_trees": n_trees, "max_depth": max_depth, "min_leaf": min_leaf, "seeds": seeds},
        test_accuracy=float(np.mean(accs)),
        std=float(np.std(accs)),
        note="" if len(np.unique(y_train)) > 1 else "single-class training data: constant predictor",
    )


def scope_row(
    records: list[TeamGameRecord],
    plan: SplitPlan,
    grid: dict[str, list] | None = None,
) -> ExperimentRow:
    try:
        spans = scope_spans(records, plan.test_league, plan.season)
    except ValueError as exc:
        return ExperimentRow(model="scope (elo)", dataset="kills", note=f"skipped: {exc}")
    result = sc.scope_protocol(spans[0], spans[1], spans[2], grid)
    return ExperimentRow(
        model="scope (elo)",
        dataset="kills",
        params=sc.config_to_dict(result.best_config),
        val_accuracy=result.validation_accuracy,
        test_accuracy=result.test_accuracy,
    )


def scope_spans(records: list[TeamGameRecord], league: str, season: int) -> list[list[sc.GameResult]]:
    """One league's games for the SCOPE protocol: the two seasons before
    ``season`` (initialization, validation) and ``season`` itself (test)."""
    spans = []
    for s in (season - 2, season - 1, season):
        recs = filter_regular_season(records, league, s)
        if not recs:
            raise ValueError(f"no {league} games for season {s}")
        spans.append(sc.games_from_records(recs))
    return spans
