"""Cross-league evaluation protocol and model comparison tables.

Leagues are fixed ahead of time: train on one league's graph, early-stop on
a second, report masked accuracy on a third.  Test labels are read exactly
once per experiment, inside final_test_accuracy.
"""

from __future__ import annotations

import csv
import io
import json
from concurrent.futures import ThreadPoolExecutor
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
        return cls(
            train_league=doc["train_league"],
            val_league=doc["val_league"],
            test_league=doc["test_league"],
            season=int(doc["season"]),
        )

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

    def best_row(self) -> ExperimentRow:
        scored = [r for r in self.rows if r.test_accuracy is not None]
        if not scored:
            raise ValueError("report has no scored rows")
        return max(scored, key=lambda r: r.test_accuracy)

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
    name = "gcn-cheby" if propagator_kind == lg.CHEBYSHEV else "gcn"
    return f"{name} ({conv_layers} layer)"


def conv_layers_of(config: gcn.TrainConfig) -> int:
    return max(1, len(config.hidden_dims))


def league_graph_for(
    records: list[TeamGameRecord],
    league: str,
    season: int,
    spec: FeatureSpec,
    convolutions: int,
    stats=None,
):
    """Build one league's labeled graph; returns (graph, standardization stats)."""
    recs = filter_regular_season(records, league, season)
    if not recs:
        raise ValueError(f"league {league!r} has no regular-season games for {season}")
    matrix = standardize(build_feature_matrix(recs, spec), stats)
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
        spec = FeatureSpec.default(mode)
    elif spec.mode != mode:
        spec = FeatureSpec(spec.names, spec.categories, mode)
    train_g, stats = league_graph_for(records, plan.train_league, plan.season, spec, convolutions)
    val_g, _ = league_graph_for(records, plan.val_league, plan.season, spec, convolutions, stats)
    test_g, _ = league_graph_for(records, plan.test_league, plan.season, spec, convolutions, stats)
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
    best, report = gcn.train(model, train_g, val_g, config)
    return best, report, test_g, stats


def run_cross_league(
    records: list[TeamGameRecord],
    plan: SplitPlan,
    config: gcn.TrainConfig,
    mode: str = "delta",
    spec: FeatureSpec | None = None,
) -> tuple[ExperimentRow, gcn.GcnModel, gcn.TrainReport]:
    best, report, test_g, _ = train_for_plan(records, plan, config, mode, spec)
    report.test_accuracy = final_test_accuracy(best, test_g)
    row = ExperimentRow(
        model=model_display_name(config.propagator_kind, conv_layers_of(config)),
        dataset=mode,
        params={
            "hidden_dims": list(config.hidden_dims),
            "dropout": config.dropout,
            "chebyshev_degree": config.chebyshev_degree,
            "seed": config.seed,
        },
        val_accuracy=report.val_acc[report.best_epoch - 1] if report.val_acc else None,
        test_accuracy=report.test_accuracy,
    )
    return row, best, report


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
    threads: int = 1,
) -> ExperimentReport:
    """Evaluate every grid cell by validation accuracy; test only the winner."""
    if grid is None:
        grid = default_gcn_grid()
    if base_config is None:
        base_config = gcn.TrainConfig()
    cells = gcn_grid_cells(grid)
    if not cells:
        raise ValueError("empty grid")

    def run_cell(cell):
        hidden, dropout, model_kind, dataset = cell
        config = replace(
            base_config,
            hidden_dims=hidden,
            dropout=dropout,
            propagator_kind=gcn.MODEL_KINDS[model_kind],
        )
        best, report, test_g, _ = train_for_plan(records, plan, config, dataset, spec)
        val_acc = report.val_acc[report.best_epoch - 1]
        row = ExperimentRow(
            model=model_display_name(config.propagator_kind, conv_layers_of(config)),
            dataset=dataset,
            params={
                "hidden_dims": hidden,
                "dropout": dropout,
                "chebyshev_degree": config.chebyshev_degree,
                "seed": config.seed,
            },
            val_accuracy=val_acc,
        )
        return row, best, test_g

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(run_cell, cells))
    else:
        results = [run_cell(c) for c in cells]

    winner = max(range(len(results)), key=lambda i: results[i][0].val_accuracy)
    # Ties keep the first cell in enumeration order (max is stable that way).
    row, best_model, test_g = results[winner]
    row.test_accuracy = final_test_accuracy(best_model, test_g)
    row.note = "winner"
    return ExperimentReport(rows=[r for r, _, _ in results])


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
        config = replace(gcn_config, hidden_dims=hidden, propagator_kind=gcn.MODEL_KINDS[kind])
        row, _, _ = run_cross_league(records, plan, config, dataset, spec)
        rows.append(row)

    rows.append(random_forest_row(records, plan, lookback=5, mode="delta", seeds=rf_seeds, spec=spec))
    rows.append(scope_row(records, plan, scope_grid))

    config = replace(gcn_config, hidden_dims=[64], propagator_kind=lg.CHEBYSHEV)
    row, _, _ = run_cross_league(records, plan, config, "delta", spec)
    rows.append(row)
    return ExperimentReport(rows=rows)


def random_forest_row(
    records: list[TeamGameRecord],
    plan: SplitPlan,
    lookback: int = 5,
    mode: str = "delta",
    seeds: int = 10,
    n_trees: int = 100,
    max_depth: int = 10,
    min_leaf: int = 1,
    spec: FeatureSpec | None = None,
) -> ExperimentRow:
    """Fit on the training league, score the test league, mean +/- std over seeds."""
    train_recs = filter_regular_season(records, plan.train_league, plan.season)
    test_recs = filter_regular_season(records, plan.test_league, plan.season)
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
    )


def scope_row(
    records: list[TeamGameRecord],
    plan: SplitPlan,
    grid: dict[str, list] | None = None,
) -> ExperimentRow:
    seasons = (plan.season - 2, plan.season - 1, plan.season)
    spans = []
    for season in seasons:
        recs = [r for r in records if r.league == plan.test_league and r.season == season and r.is_regular_season]
        if not recs:
            return ExperimentRow(
                model="scope (elo)",
                dataset="kills",
                note=f"skipped: no {plan.test_league} games for season {season}",
            )
        spans.append(sc.games_from_records(recs))
    result = sc.scope_protocol(spans[0], spans[1], spans[2], grid)
    return ExperimentRow(
        model="scope (elo)",
        dataset="kills",
        params=sc.config_to_dict(result.best_config),
        val_accuracy=result.validation_accuracy,
        test_accuracy=result.test_accuracy,
    )
