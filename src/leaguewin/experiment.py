"""Cross-league evaluation protocol and model comparison tables.

Leagues are fixed ahead of time: train on one league's graph, early-stop on
a second, report masked accuracy on a third.  Test labels are read exactly
once per experiment, inside final_test_accuracy.
"""

from __future__ import annotations

import csv
import io
import json
import multiprocessing
import os
import traceback
from collections.abc import Iterator
from contextlib import closing
# Unused here; perfbench/spans.py swaps this name for its traced pool.
from concurrent.futures import ThreadPoolExecutor  # noqa: F401
from dataclasses import asdict, dataclass, field, replace
from functools import partial
from itertools import islice, product

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
        if len(set(self.leagues)) != 3:
            raise ValueError(f"plan needs three distinct leagues, got {self.leagues}")

    @property
    def leagues(self) -> tuple[str, str, str]:
        return (self.train_league, self.val_league, self.test_league)


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
        return json.dumps([asdict(r) for r in self.rows], indent=2)

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
    """One league's labeled graph, standardized by ``stats`` (None: its own)."""
    recs = league_games(records, league, season)
    matrix = standardize(build_feature_matrix(recs, spec, mode), stats)
    return lg.assign_labels(lg.build_league_graph(recs, features=matrix), convolutions)


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
    train_g, val_g = _train_val_graphs(records, plan, mode, convolutions, spec)
    stats = train_g.features.standardization_stats
    return train_g, val_g, league_graph_for(records, plan.test_league, plan.season, spec, mode, convolutions, stats)


def _train_val_graphs(records, plan: SplitPlan, mode: str, convolutions: int, spec: FeatureSpec):
    train_g = league_graph_for(records, plan.train_league, plan.season, spec, mode, convolutions)
    stats = train_g.features.standardization_stats
    return train_g, league_graph_for(records, plan.val_league, plan.season, spec, mode, convolutions, stats)


def final_test_accuracy(model: gcn.GcnModel, test_graph: lg.LeagueGraph) -> float:
    """The one place test-league labels are read."""
    gcn.check_label_offset(model.config, test_graph, "test")
    prop = gcn.build_propagator(test_graph, model.config.propagator_kind, model.config.chebyshev_degree)
    logits, _ = gcn.forward(model, test_graph.features.values, prop, training=False)
    return gcn.masked_accuracy(logits, test_graph.labels, test_graph.label_mask)


def train_for_plan(
    records: list[TeamGameRecord],
    plan: SplitPlan,
    config: gcn.TrainConfig,
    mode: str,
    spec: FeatureSpec | None = None,
):
    """Train on the plan's train/val graphs: ``(best model, report, the
    training league's standardization stats)``.  The test league is only
    checked to hold games; no graph is built for it."""
    if spec is None:
        spec = FeatureSpec.default()
    train_g, val_g = _train_val_graphs(records, plan, mode, gcn.n_conv_stages(config.hidden_dims), spec)
    league_games(records, plan.test_league, plan.season)
    best, report = gcn.train(config, train_g, val_g)
    return best, report, train_g.features.standardization_stats


def run_cross_league(
    records: list[TeamGameRecord],
    plan: SplitPlan,
    cells: list[tuple[gcn.TrainConfig, str]],
    spec: FeatureSpec | None = None,
) -> Iterator[tuple[ExperimentRow, gcn.GcnModel, lg.LeagueGraph]]:
    """Train each ``(config, dataset)`` cell on the plan's train/val leagues.

    Yields each cell's row (test accuracy unset), best model and test graph
    in cell order; only final_test_accuracy reads test labels.  A generator,
    so a caller that keeps one winner holds one model, not one per cell.

    The cells train through ``pool_map``, in ``cell_workers(len(cells))``
    forked processes or in this one, on jobs ``cell_jobs`` builds here;
    a worker's ``(model, report)`` has the same bits as training it here.
    The test graphs share their propagators (see ``cell_jobs``), so scoring
    several cells builds each model kind's test propagator once.
    Closing the generator, finishing it or a cell failing terminates and
    joins the workers.
    """
    jobs = cell_jobs(records, plan, cells, spec)
    with closing(pool_map(_train_cell, jobs, cell_workers(len(jobs)))) as trained:
        for (config, dataset), (_, (_, _, test_g)), (model, report) in zip(cells, jobs, trained):
            yield gcn_row(config, dataset, report), model, test_g


def cell_jobs(
    records: list[TeamGameRecord],
    plan: SplitPlan,
    cells: list[tuple[gcn.TrainConfig, str]],
    spec: FeatureSpec | None = None,
) -> list[tuple[gcn.TrainConfig, tuple]]:
    """Each cell's ``(config, (train, val, test graph))`` job for ``_train_cell``.

    Cells differ in the split only by dataset mode and convolution count
    (the label offset): each distinct split is built once.  Splits differ
    only in features and labels, and a propagator depends on a league's
    graph structure alone, so a league's graphs share one ``propagators``
    dict: each (league, kind, degree) propagator is built once per call.
    The train and validation leagues' are built here, before any worker
    is forked; the test league's when ``final_test_accuracy`` first needs
    one.
    """
    keys = dict.fromkeys((dataset, gcn.n_conv_stages(config.hidden_dims)) for config, dataset in cells)
    splits = {key: prepare_split(records, plan, key[0], key[1], spec) for key in keys}
    shared = {}
    for split in splits.values():
        for league, g in zip(plan.leagues, split):
            g.propagators = shared.setdefault(league, g.propagators)
    jobs = [(config, splits[(dataset, gcn.n_conv_stages(config.hidden_dims))]) for config, dataset in cells]
    for config, (train_g, val_g, _) in jobs:
        for g in (train_g, val_g):
            gcn.build_propagator(g, config.propagator_kind, config.chebyshev_degree)
    return jobs


def cell_workers(n_tasks: int) -> int:
    """Processes to run ``n_tasks`` tasks in: one per core this process may
    run on, at most one per task; 1 (no pool) where this platform cannot
    fork or report its cores."""
    if "fork" not in multiprocessing.get_all_start_methods() or not hasattr(os, "sched_getaffinity"):
        return 1
    return min(len(os.sched_getaffinity(0)), n_tasks)


class WorkerFailed(RuntimeError):
    """A ``pool_map`` job that failed in its worker, named by its index: the worker
    died or could not pickle its reply, or (as a cause, with its traceback) it raised."""


def pool_map(fn, jobs: list, workers: int) -> Iterator:
    """``fn(job)`` for each job, yielded in job order.

    With more than one worker the jobs run in ``min(workers, len(jobs))``
    forked processes, one pipe each, each worker taking the next job in
    list order as it frees up; otherwise here, one by one.  Fork, not
    spawn: the workers inherit ``fn`` and ``jobs`` unpickled and import
    nothing; a job's index goes in and only its reply comes back.  The
    parent starts no threads.  Finishing, closing the generator or a job
    raising or failing terminates and joins every worker.
    This is the one place the package starts processes.
    """
    workers = min(workers, len(jobs))
    if workers <= 1:
        yield from map(fn, jobs)
        return
    from multiprocessing.connection import wait
    context = multiprocessing.get_context("fork")
    queued, pool, busy, replies = iter(range(len(jobs))), {}, {}, {}  # pool: pipe -> worker; busy: pipe -> job
    try:
        for job in islice(queued, workers):
            conn, worker_end = context.Pipe()
            worker = context.Process(target=_serve, args=(fn, jobs, worker_end, job), daemon=True)
            worker.start()
            pool[conn] = worker
            worker_end.close()
            busy[conn] = job
        for index in range(len(jobs)):
            while index not in replies:
                ready = wait([*busy, *(pool[conn].sentinel for conn in busy)])
                for conn, job in list(busy.items()):
                    try:
                        if conn in ready:
                            replies[busy.pop(conn)] = conn.recv()
                            for job in islice(queued, 1):  # the next job in list order, if any
                                busy[conn] = job
                                conn.send(job)
                        elif pool[conn].sentinel in ready:
                            raise EOFError
                    except (EOFError, OSError):
                        raise WorkerFailed(f"job {job}: its worker died before sending its result") from None
                    except Exception as exc:
                        raise WorkerFailed(f"job {job}: its worker's reply could not be unpickled: {exc}") from exc
            result, remote_traceback = replies.pop(index)
            if remote_traceback is not None:
                raise result from WorkerFailed(f"job {index} raised in its worker:\n{remote_traceback}")
            yield result
    finally:
        for conn, worker in pool.items():
            worker.terminate()
            worker.join()
            conn.close()


def _serve(fn, jobs: list, conn, index: int) -> None:
    """A ``pool_map`` worker: runs job ``index``, then each index it receives,
    and sends back ``(fn(job), None)`` or the exception raised and its traceback."""
    while True:
        try:
            reply = fn(jobs[index]), None
        except Exception as exc:
            reply = exc, traceback.format_exc()
        try:
            conn.send(reply)
        except Exception as exc:  # what fn returned or raised cannot be pickled
            failed = WorkerFailed(f"job {index}: its reply could not be pickled: {exc}")
            conn.send((failed, reply[1] or traceback.format_exc()))
        index = conn.recv()


def _call(task):
    """``pool_map``'s function for a list of mixed tasks, each a ``partial``."""
    return task()


def _train_cell(job):
    """One cell's ``(best model, report)``; ``job`` is its config and its split."""
    config, (train_g, val_g, _) = job
    return gcn.train(config, train_g, val_g, train_metrics=False)


def gcn_row(config: gcn.TrainConfig, dataset: str, report: gcn.TrainReport) -> ExperimentRow:
    """A trained GCN's row: its config and best-epoch validation accuracy;
    its test accuracy stays None until the test league is scored."""
    return ExperimentRow(
        model=model_display_name(config.propagator_kind, gcn.n_conv_stages(config.hidden_dims)),
        dataset=dataset,
        params={
            "hidden_dims": list(config.hidden_dims),
            "dropout": config.dropout,
            "chebyshev_degree": config.chebyshev_degree,
            "seed": config.seed,
        },
        val_accuracy=report.val_acc[report.best_epoch - 1],
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


def gcn_grid_cells(grid: dict[str, list], base_config: gcn.TrainConfig) -> list[tuple[gcn.TrainConfig, str]]:
    """Every grid cell as ``(base_config with the cell's settings, dataset)``; raises on an out-of-range value."""
    cells = []
    for h1, h2, p, m, d in product(
        grid["hidden1"], grid["hidden2"], grid["dropout"], grid["model"], grid["dataset"]
    ):
        hidden = [h1] if h2 is None else [h1, h2]
        cells.append((replace(base_config, hidden_dims=hidden, dropout=p, propagator_kind=m), d))
    return cells


def grid_search_gcn(
    records: list[TeamGameRecord],
    plan: SplitPlan,
    grid: dict[str, list] | None = None,
    base_config: gcn.TrainConfig | None = None,
    spec: FeatureSpec | None = None,
) -> ExperimentReport:
    """Evaluate every grid cell by validation accuracy; test only the winner."""
    cells = gcn_grid_cells(default_gcn_grid() if grid is None else grid, base_config or gcn.TrainConfig())
    if not cells:
        raise ValueError("empty grid")
    rows = []
    for row, model, test_g in run_cross_league(records, plan, cells, spec):
        rows.append(row)
        # Strictly greater: ties keep the first cell in enumeration order.
        if len(rows) == 1 or row.val_accuracy > winner.val_accuracy:
            winner, winner_model, winner_test = row, model, test_g
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

    The rows share nothing but ``records``, so they run as one task list
    through ``pool_map``, dearest first: the forest's seeds in one
    contiguous group per worker, the SCOPE row, then the four GCN cells.
    The forest row is assembled from its groups in seed order, and each
    GCN row's test league is scored here, in row order.
    """
    if gcn_config is None:
        gcn_config = gcn.TrainConfig()
    variants = [("gcn-cheby", [64], "raw"), ("gcn", [64], "delta"), ("gcn-cheby", [64, 64], "delta"),
                ("gcn-cheby", [64], "delta")]
    cells = [(replace(gcn_config, hidden_dims=h, propagator_kind=k), dataset) for k, h, dataset in variants]
    jobs = cell_jobs(records, plan, cells, spec)
    workers = cell_workers(len(cells) + 2)  # the cells, the SCOPE row and at least one seed group
    forest, labels = forest_tasks(records, plan, 5, "delta", rf_seeds, workers, spec)
    tasks = [*forest, partial(scope_row, records, plan, scope_grid), *(partial(_train_cell, job) for job in jobs)]
    results = list(pool_map(_call, tasks, workers))
    rows = []
    for (config, dataset), (_, (_, _, test_g)), (model, report) in zip(cells, jobs, results[len(forest) + 1:]):
        rows.append(gcn_row(config, dataset, report))
        rows[-1].test_accuracy = final_test_accuracy(model, test_g)
    # The table lists the two baselines before the last GCN row.
    rows[3:3] = [forest_row(5, "delta", rf_seeds, labels, results[:len(forest)]), results[len(forest)]]
    return ExperimentReport(rows=rows)


FOREST_PARAMS = {"n_trees": 100, "max_depth": 10, "min_leaf": 1}


def random_forest_row(
    records: list[TeamGameRecord],
    plan: SplitPlan,
    lookback: int = 5,
    mode: str = "delta",
    seeds: int = 10,
    spec: FeatureSpec | None = None,
) -> ExperimentRow:
    """Fit on the training league, score the test league, mean +/- std over
    seeds; the seed groups run through ``pool_map``, one per worker."""
    tasks, labels = forest_tasks(records, plan, lookback, mode, seeds, cell_workers(seeds), spec)
    return forest_row(lookback, mode, seeds, labels, list(pool_map(_call, tasks, len(tasks))))


def forest_tasks(
    records: list[TeamGameRecord], plan: SplitPlan, lookback: int, mode: str, seeds: int, workers: int,
    spec: FeatureSpec | None = None,
) -> tuple[list[partial], tuple[np.ndarray, np.ndarray] | None]:
    """The forest row's ``seed_predictions`` tasks, ``range(seeds)`` split
    into one contiguous range per worker, and the ``(train, test)`` labels
    the row is scored on; ``([], None)`` when the leagues have too few
    lookback rows to fit or to score."""
    train_recs = league_games(records, plan.train_league, plan.season)
    test_recs = league_games(records, plan.test_league, plan.season)
    x_train, y_train, _ = rf.lookback_dataset(train_recs, lookback, mode, spec)
    x_test, y_test, _ = rf.lookback_dataset(test_recs, lookback, mode, spec)
    if len(x_train) < 2 or not len(x_test):  # grow_forests needs two training rows
        return [], None
    n = max(1, min(workers, seeds))
    groups = [range(seeds * g // n, seeds * (g + 1) // n) for g in range(n)]
    tasks = [partial(rf.seed_predictions, x_train, y_train, x_test, g, **FOREST_PARAMS) for g in groups]
    return tasks, (y_train, y_test)


def forest_row(lookback: int, mode: str, seeds: int, labels, predictions: list[np.ndarray]) -> ExperimentRow:
    """The forest row from its seed groups' predictions, listed in seed
    order; the skipped row when ``labels`` is None."""
    row = ExperimentRow(model=f"random forest (lookback={lookback})", dataset=mode)
    if labels is None:
        row.note = "skipped: not enough game history"
        return row
    y_train, y_test = labels
    accs = [float(((p > 0.5) == (y_test == 1)).mean()) for p in np.vstack(predictions)]
    row.params = {**FOREST_PARAMS, "seeds": seeds}
    row.test_accuracy = float(np.mean(accs))
    row.std = float(np.std(accs))
    if len(np.unique(y_train)) == 1:
        row.note = "single-class training data: constant predictor"
    return row


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
        params=asdict(result.best_config),
        val_accuracy=result.validation_accuracy,
        test_accuracy=result.test_accuracy,
    )


def scope_seasons(season: int) -> tuple[int, int, int]:
    """The seasons the SCOPE protocol reads for test season ``season``: the
    two before it (initialization, validation) and ``season`` itself."""
    return (season - 2, season - 1, season)


def scope_spans(records: list[TeamGameRecord], league: str, season: int) -> list[list[sc.GameResult]]:
    """One league's games for the SCOPE protocol, one span per season of
    ``scope_seasons(season)``."""
    spans = []
    for s in scope_seasons(season):
        recs = filter_regular_season(records, league, s)
        if not recs:
            raise ValueError(f"no {league} games for season {s}")
        spans.append(sc.games_from_records(recs))
    return spans
