import ast
import errno
import json
import multiprocessing
import os
import subprocess
import sys
import threading
import time
from dataclasses import replace
from datetime import datetime, timedelta, timezone
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from conftest import cross_league

from leaguewin import experiment, gcn, synth
from leaguewin import graph as lg
from leaguewin.baselines import forest as rf
from leaguewin.experiment import (
    SplitPlan,
    compare_all,
    default_gcn_grid,
    gcn_grid_cells,
    grid_search_gcn,
    run_cross_league,
)
from leaguewin.ingest import FeatureSpec, TeamGameRecord


def three_leagues(seed=200, skill=1.5, noise=1.0, seasons=1, first_season=2020, **kw):
    cfg = synth.SynthConfig(
        n_teams=10, games_per_pair=4, seed=seed, latent_skill_std=skill,
        feature_noise_std=noise, seasons=seasons, first_season=first_season, **kw
    )
    return synth.generate_leagues(cfg, ["AAA", "BBB", "CCC"])


PLAN = SplitPlan("AAA", "BBB", "CCC", 2020)
SMALL_SCOPE_GRID = {"base_k": [20, 40], "cutoff": [1700], "reduction": [0.3], "mov_func": ["none"], "w90": [100],
                    "regression": [0, 0.4]}


def test_plan_requires_distinct_leagues():
    with pytest.raises(ValueError, match="distinct"):
        SplitPlan("LPL", "LPL", "LCS", 2020)


def test_missing_league_is_named():
    records = three_leagues()
    with pytest.raises(ValueError, match="ZZZ"):
        cross_league(records, SplitPlan("AAA", "BBB", "ZZZ", 2020), gcn.TrainConfig())


def test_transfer_fixture_beats_majority():
    records = three_leagues(seed=100)
    config = gcn.TrainConfig(hidden_dims=[64], dropout=0.1, propagator_kind="gcn-cheby", seed=0)
    row, model, test_g = cross_league(records, PLAN, config, "delta")
    assert row.test_accuracy >= 0.58
    assert experiment.final_test_accuracy(model, test_g) == row.test_accuracy
    assert row.model == "gcn-cheby (1 layer)"


def test_standardization_uses_training_stats():
    records = three_leagues()
    train_g, val_g, test_g = experiment.prepare_split(records, PLAN, "delta", 1)
    # Training league is exactly z-scored; the others keep its scale, so
    # their own column spread differs from 1 (league skill spreads differ).
    assert np.allclose(train_g.features.values.mean(axis=0), 0.0, atol=1e-12)
    assert np.allclose(train_g.features.values.std(axis=0), 1.0, atol=1e-12)
    assert not np.allclose(test_g.features.values.std(axis=0), 1.0, atol=1e-3)


def test_shuffled_fit_leagues_score_at_chance():
    # Null oracle: coin-flip the outcomes of every train/val game, keep the
    # test league intact; transfer accuracy collapses to chance.
    accs = []
    for seed in range(8):
        records = three_leagues()
        rng = np.random.default_rng(1000 + seed)
        flips = {}
        for r in records:
            if r.league == "CCC":
                continue
            if r.game_id not in flips:
                flips[r.game_id] = bool(rng.random() < 0.5)
            if flips[r.game_id]:
                r.won = not r.won
        config = gcn.TrainConfig(hidden_dims=[64], dropout=0.1, propagator_kind="gcn-cheby", seed=seed)
        row, _, _ = cross_league(records, PLAN, config, "delta")
        accs.append(row.test_accuracy)
    assert abs(float(np.mean(accs)) - 0.5) < 0.05


def test_default_grid_cardinality():
    grid = default_gcn_grid()
    cells = gcn_grid_cells(grid, gcn.TrainConfig())
    two_layer = [c for c in cells if len(c[0].hidden_dims) == 2]
    one_layer = [c for c in cells if len(c[0].hidden_dims) == 1]
    assert len(two_layer) == 3 * 3 * 3 * 2 * 2 == 108
    assert len(one_layer) == 3 * 3 * 2 * 2 == 36
    assert len(cells) == 144


def one_cell_oracle(records, config, dataset):
    """A cell trained on its own split with train metrics on, the test league
    scored: (row, train report)."""
    best, report, _ = experiment.train_for_plan(records, PLAN, config, dataset)
    _, _, test_g = experiment.prepare_split(records, PLAN, dataset, gcn.n_conv_stages(config.hidden_dims))
    row = experiment.gcn_row(config, dataset, report)
    row.test_accuracy = experiment.final_test_accuracy(best, test_g)
    return row, report


def test_singleton_grid_matches_train_for_plan():
    records = three_leagues(seed=100)
    grid = {"hidden1": [32], "hidden2": [None], "dropout": [0.1], "model": ["gcn"], "dataset": ["delta"]}
    base = gcn.TrainConfig(seed=3)
    report = grid_search_gcn(records, PLAN, grid, base)
    assert len(report.rows) == 1
    row = report.rows[0]
    assert row.note == "winner"
    config = gcn.TrainConfig(hidden_dims=[32], dropout=0.1, propagator_kind="gcn", seed=3)
    direct, _ = one_cell_oracle(records, config, "delta")
    assert row.test_accuracy == direct.test_accuracy
    assert row.val_accuracy == direct.val_accuracy


EIGHT_CELLS = {"hidden1": [8], "hidden2": [None, 8], "dropout": [0.1], "model": ["gcn", "gcn-cheby"],
               "dataset": ["raw", "delta"]}


def test_grid_builds_each_distinct_split_once(monkeypatch):
    records = three_leagues(seed=100)
    calls = []
    real = experiment.prepare_split

    def counting(records, plan, mode, convolutions, spec=None):
        calls.append((mode, convolutions))
        return real(records, plan, mode, convolutions, spec)

    monkeypatch.setattr(experiment, "prepare_split", counting)
    report = grid_search_gcn(records, PLAN, EIGHT_CELLS, gcn.TrainConfig(seed=0))
    assert len(report.rows) == 8
    assert sorted(calls) == [("delta", 1), ("delta", 2), ("raw", 1), ("raw", 2)]


def count_propagator_builds(mp):
    """Patch the propagator builders to log each build as (league, builder).
    A pool worker's builds are lost, so the counts are those made before
    the pool forks and as the test graphs are scored."""
    calls = []
    for build in (lg.normalized_adjacency, lg.chebyshev_basis):

        def counting(g, *args, build=build):
            calls.append((g.nodes[0][1].split("-")[0], build.__name__))
            return build(g, *args)

        mp.setattr(lg, build.__name__, counting)
    return calls


def test_grid_builds_each_split_propagator_once(monkeypatch):
    # A league's graph structure is the same in every split, so its
    # propagators are too: the 4 splits' train and validation graphs take
    # 2 kinds x 2 leagues = 4 builds, and the winner's test graph 1 more.
    records = three_leagues(seed=100)
    calls = count_propagator_builds(monkeypatch)
    grid = dict(EIGHT_CELLS, dropout=[0.1, 0.5])
    report = grid_search_gcn(records, PLAN, grid, gcn.TrainConfig(seed=0, max_epochs=5))
    assert len(report.rows) == 16
    assert len(calls) == 5 and len(set(calls)) == 5
    assert sorted(calls[:4]) == [(league, build) for league in ("AAA", "BBB")
                                 for build in ("chebyshev_basis", "normalized_adjacency")]
    assert calls[4][0] == "CCC"


def test_compare_all_builds_each_league_propagator_once(monkeypatch):
    # Four GCN cells on three splits, both model kinds: each of the three
    # leagues' two propagators is built once, the test league's as the
    # cells are scored.
    records = three_leagues(seed=100, seasons=3, first_season=2018)
    calls = count_propagator_builds(monkeypatch)
    report = compare_all(records, PLAN, gcn.TrainConfig(seed=0, max_epochs=3), SMALL_SCOPE_GRID, rf_seeds=2)
    assert len(report.rows) == 6
    assert sorted(calls) == [(league, build) for league in ("AAA", "BBB", "CCC")
                             for build in ("chebyshev_basis", "normalized_adjacency")]


def test_shared_propagators_equal_a_fresh_build_on_each_graph():
    records = three_leagues(seed=100)
    cells = gcn_grid_cells(EIGHT_CELLS, gcn.TrainConfig(seed=0))
    jobs = experiment.cell_jobs(records, PLAN, cells)
    for config, (train_g, val_g, _) in jobs:  # built before any worker forks
        key = (config.propagator_kind, config.chebyshev_degree)
        assert key in train_g.propagators and key in val_g.propagators
    for config, (_, _, test_g) in jobs:
        gcn.build_propagator(test_g, config.propagator_kind, config.chebyshev_degree)
    by_league = [{id(split[i].propagators) for _, split in jobs} for i in range(3)]
    assert [len(ids) for ids in by_league] == [1, 1, 1]
    assert all(len(split[2].propagators) == 2 for _, split in jobs)
    for _, split in jobs:
        for g in split:
            for (kind, degree), shared in g.propagators.items():
                fresh = gcn.build_propagator(replace(g), kind, degree)
                assert fresh is not shared and len(fresh.matrices) == len(shared.matrices)
                for a, b in zip(shared.matrices, fresh.matrices):
                    for part in ("data", "indices", "indptr"):
                        x, y = getattr(a, part), getattr(b, part)
                        assert x.dtype == y.dtype and x.tobytes() == y.tobytes()


def count_forward_passes(mp):
    """Patch gcn.forward and gcn.train to count forward calls and epochs run,
    and train every cell in this process: a pool worker's counts are lost."""
    mp.setattr(experiment, "cell_workers", lambda n_cells: 1)
    counts = {"forward": 0, "epochs": 0}
    real_forward, real_train = gcn.forward, gcn.train

    def counting_forward(*args, **kwargs):
        counts["forward"] += 1
        return real_forward(*args, **kwargs)

    def counting_train(*args, **kwargs):
        model, report = real_train(*args, **kwargs)
        counts["epochs"] += report.epochs_run
        return model, report

    mp.setattr(gcn, "forward", counting_forward)
    mp.setattr(gcn, "train", counting_train)
    return counts


def test_grid_cells_on_shared_splits_match_train_for_plan():
    # Cells that share a split must train exactly as if each built its own.
    # The grid trains without train-graph metrics: two forward passes an
    # epoch (the dropout pass and validation), plus the winner's test score.
    records = three_leagues(seed=100)
    base = gcn.TrainConfig(seed=2, max_epochs=20)
    with pytest.MonkeyPatch.context() as mp:
        counts = count_forward_passes(mp)
        report = grid_search_gcn(records, PLAN, EIGHT_CELLS, base)
    assert counts["epochs"] > 0
    assert counts["forward"] == 2 * counts["epochs"] + 1
    assert len(report.rows) == 8
    axes = [EIGHT_CELLS[key] for key in ("hidden1", "hidden2", "dropout", "model", "dataset")]
    for row, (h1, h2, dropout, kind, dataset) in zip(report.rows, product(*axes), strict=True):
        hidden = [h1] if h2 is None else [h1, h2]
        config = gcn.TrainConfig(
            hidden_dims=hidden, dropout=dropout, propagator_kind=kind, seed=2, max_epochs=20
        )
        direct, direct_report = one_cell_oracle(records, config, dataset)
        assert len(direct_report.train_acc) == direct_report.epochs_run
        assert (row.model, row.dataset, row.params) == (direct.model, direct.dataset, direct.params)
        assert row.val_accuracy == direct.val_accuracy


fork_only = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="cells train in a pool only where fork exists"
)


def no_fork(*args, **kwargs):
    raise AssertionError("one worker must run its tasks in this process")


@fork_only
def test_pooled_and_in_process_cells_agree():
    # The grid: raw and delta cells, gcn and gcn-cheby, one and two
    # convolutions.  compare: three seasons, so the SCOPE row runs, and four
    # forest seeds, split into two seed groups when pooled.
    records = three_leagues(seed=100, seasons=3, first_season=2018)
    base = gcn.TrainConfig(seed=2, max_epochs=20)
    reports = []
    for workers in (lambda n_tasks: min(2, n_tasks), lambda n_tasks: 1):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(experiment, "cell_workers", workers)
            if workers(2) == 1:
                mp.setattr(multiprocessing, "get_context", no_fork)
            reports.append((grid_search_gcn(records, PLAN, EIGHT_CELLS, base).to_json(),
                            compare_all(records, PLAN, base, SMALL_SCOPE_GRID, rf_seeds=4).to_json()))
    assert reports[0] == reports[1]
    rows = json.loads(reports[0][1])
    assert rows[4]["model"] == "scope (elo)" and rows[4]["test_accuracy"] is not None
    assert rows[3]["params"]["seeds"] == 4 and rows[3]["std"] > 0


def test_cell_workers_are_one_per_core_at_most_one_per_cell():
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    assert experiment.cell_workers(1) == 1
    assert 1 <= experiment.cell_workers(144) <= cores


@fork_only
def test_no_cell_worker_outlives_the_generator(monkeypatch):
    records = three_leagues(seed=100)
    monkeypatch.setattr(experiment, "cell_workers", lambda n_cells: min(2, n_cells))  # a pool even on one core
    cells = [(gcn.TrainConfig(hidden_dims=[8], seed=s, max_epochs=5), "delta") for s in range(4)]
    assert len(list(run_cross_league(records, PLAN, cells))) == 4
    assert multiprocessing.active_children() == []

    rows = run_cross_league(records, PLAN, cells)
    next(rows)
    assert multiprocessing.active_children()  # the cells did train in a pool
    rows.close()
    assert multiprocessing.active_children() == []

    diverging = [(replace(config, learning_rate=1e300), dataset) for config, dataset in cells]
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(gcn.TrainingDiverged, match="non-finite at epoch"):
            list(run_cross_league(records, PLAN, diverging))
    assert multiprocessing.active_children() == []


@fork_only
def test_no_worker_outlives_a_raising_task_or_a_closed_map(monkeypatch):
    # The diverging cells run after the forest's seed groups in the task
    # list; their error reaches the caller and the pool is gone.
    records = three_leagues(seed=100)
    monkeypatch.setattr(experiment, "cell_workers", lambda n_tasks: min(2, n_tasks))
    diverging = gcn.TrainConfig(seed=0, max_epochs=5, learning_rate=1e300)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(gcn.TrainingDiverged, match="non-finite at epoch"):
            compare_all(records, PLAN, diverging, rf_seeds=4)
    assert multiprocessing.active_children() == []

    results = experiment.pool_map(abs, [-1, 2, -3, 4], 2)
    assert next(results) == 1
    assert multiprocessing.active_children()
    results.close()
    assert multiprocessing.active_children() == []


KILLED_WORKER = """
import multiprocessing, os, signal, time
from leaguewin import experiment

def job(index):
    if index == 1:
        os.kill(os.getpid(), signal.SIGKILL)
    time.sleep(0.2)
    return index

try:
    list(experiment.pool_map(job, [0, 1, 2, 3], 2))
except Exception as exc:
    assert isinstance(exc, experiment.WorkerFailed), repr(exc)
    assert str(exc).startswith("job 1: its worker died"), str(exc)
else:
    raise AssertionError("a killed worker went unnoticed")
assert multiprocessing.active_children() == []
"""


@fork_only
def test_a_killed_worker_fails_the_map_naming_its_job():
    # In a child interpreter: a map that waits forever for the killed job
    # fails this test at the timeout instead of hanging the suite.
    env = {**os.environ, "PYTHONPATH": str(Path(experiment.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", KILLED_WORKER], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr


def _return_or_raise(job):
    kind, value = job
    if kind == "raise":
        raise value
    return value() if kind == "call" else value


class TwoArgumentError(Exception):
    def __init__(self, a, b):
        super().__init__(f"{a} and {b}")


@fork_only
def test_a_worker_exception_arrives_with_its_traceback_as_cause():
    jobs = [("return", 0), ("raise", KeyError("lost")), ("return", 2)]
    with pytest.raises(KeyError, match="lost") as raised:
        list(experiment.pool_map(_return_or_raise, jobs, 2))
    cause = raised.value.__cause__
    assert isinstance(cause, experiment.WorkerFailed)
    assert str(cause).startswith("job 1 raised in its worker:\nTraceback (most recent call last):")
    assert "in _return_or_raise" in str(cause) and "KeyError: 'lost'" in str(cause)
    assert multiprocessing.active_children() == []


@fork_only
@pytest.mark.parametrize("job, message", [
    (("call", threading.Lock), "job 1: its reply could not be pickled: cannot pickle '_thread.lock' object"),
    (("raise", ValueError(threading.Lock())), "job 1: its reply could not be pickled: cannot pickle"),
    (("raise", TwoArgumentError(1, 2)), "job 1: its worker's reply could not be unpickled: "),
], ids=["unpicklable-result", "unpicklable-exception", "exception-that-cannot-be-rebuilt"])
def test_a_reply_that_cannot_cross_the_pipe_fails_naming_its_job(job, message):
    # The map raises rather than hangs, naming the job, and leaves no worker.
    with pytest.raises(experiment.WorkerFailed) as raised:
        list(experiment.pool_map(_return_or_raise, [("return", 0), job, ("return", 2)], 2))
    assert str(raised.value).startswith(message)
    assert multiprocessing.active_children() == []


@fork_only
def test_a_refused_fork_raises_its_error_and_stops_the_started_workers(monkeypatch):
    started = []
    real_start = multiprocessing.context.ForkProcess.start

    def start(process):
        if started:
            raise OSError(errno.EAGAIN, "fork refused")
        started.append(process)
        real_start(process)

    monkeypatch.setattr(multiprocessing.context.ForkProcess, "start", start)
    with pytest.raises(OSError, match="fork refused"):
        list(experiment.pool_map(abs, [-1, 2, -3], 2))
    assert len(started) == 1 and started[0].exitcode is not None
    assert multiprocessing.active_children() == []


def _finish_time(sleep):
    time.sleep(sleep)
    return time.monotonic()


@fork_only
def test_results_come_in_job_order_and_the_parent_starts_no_threads():
    threads = threading.active_count()
    counts = []
    finished = []
    for finish in experiment.pool_map(_finish_time, [0.5, 0, 0, 0], 2):
        counts.append(threading.active_count())
        finished.append(finish)
    assert finished[1] < finished[0]  # job 1 finished first, yet came second
    assert counts == [threads] * 4
    assert multiprocessing.active_children() == []


PROCESS_STARTERS = {"Pool", "Process", "ProcessPoolExecutor", "fork", "forkpty", "Popen", "system", "posix_spawn"}


def _starts_a_process(node) -> bool:
    if isinstance(node, ast.Call):
        func = node.func
        return (func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)) in PROCESS_STARTERS
    if isinstance(node, ast.Import):
        return any(alias.name == "subprocess" for alias in node.names)
    if isinstance(node, ast.ImportFrom):
        return node.module == "subprocess" or any(alias.name in PROCESS_STARTERS for alias in node.names)
    return False


def test_processes_start_only_in_pool_map():
    # Every call or import that can start a process, keyed by its file and
    # innermost enclosing function (None at module level).
    package = Path(experiment.__file__).parent
    found = set()

    def visit(node, path, function):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else function
            if _starts_a_process(child):
                found.add((path, inner))
            visit(child, path, inner)

    for path in sorted(package.rglob("*.py")):
        visit(ast.parse(path.read_text("utf-8")), path.relative_to(package).as_posix(), None)
    assert found == {("experiment.py", "pool_map")}


def test_grid_recovers_planted_dataset_mode():
    # Per-game shared offsets poison raw features; delta cancels them.
    records = three_leagues(seed=200, noise=0.5, shared_noise_std=6.0)
    grid = {"hidden1": [16], "hidden2": [None], "dropout": [0.1], "model": ["gcn"], "dataset": ["raw", "delta"]}
    report = grid_search_gcn(records, PLAN, grid, gcn.TrainConfig(seed=0))
    winner = [r for r in report.rows if r.note == "winner"][0]
    assert winner.dataset == "delta"


def test_grid_reads_test_labels_once(monkeypatch):
    records = three_leagues(seed=100)
    calls = {"n": 0}
    real = experiment.final_test_accuracy

    def counting(model, test_graph):
        calls["n"] += 1
        return real(model, test_graph)

    monkeypatch.setattr(experiment, "final_test_accuracy", counting)
    grid = {"hidden1": [8, 16], "hidden2": [None], "dropout": [0.1], "model": ["gcn"], "dataset": ["delta"]}
    grid_search_gcn(records, PLAN, grid, gcn.TrainConfig(seed=0))
    assert calls["n"] == 1

    calls["n"] = 0
    config = gcn.TrainConfig(hidden_dims=[8], seed=0)
    assert len(list(run_cross_league(records, PLAN, [(config, "delta")]))) == 1
    assert calls["n"] == 0
    cross_league(records, PLAN, config)
    assert calls["n"] == 1


def test_compare_all_rows_and_formats():
    records = three_leagues(seed=100, seasons=3, first_season=2018)
    report = compare_all(records, PLAN, gcn.TrainConfig(dropout=0.1, seed=0), SMALL_SCOPE_GRID, rf_seeds=3)
    assert len(report.rows) == 6
    names = [r.model for r in report.rows]
    assert names.count("gcn-cheby (1 layer)") == 2
    assert "scope (elo)" in names and "random forest (lookback=5)" in names
    assert report.rows[3].std is not None  # forest row carries a spread
    csv_text = report.to_csv()
    assert csv_text.splitlines()[0] == "model,dataset,params,val_accuracy,test_accuracy,std,note"
    assert len(csv_text.splitlines()) == 7


def test_compare_all_trains_its_gcn_rows_on_shared_splits():
    # Four GCN rows on three distinct splits, trained without train-graph
    # metrics: two forward passes an epoch, plus one test score per row.
    records = three_leagues(seed=100)
    splits, scored = [], []
    real_split, real_score = experiment.prepare_split, experiment.final_test_accuracy

    def counting_split(records, plan, mode, convolutions, spec=None):
        splits.append((mode, convolutions))
        return real_split(records, plan, mode, convolutions, spec)

    def counting_score(model, test_graph):
        scored.append(model)
        return real_score(model, test_graph)

    base = gcn.TrainConfig(dropout=0.1, seed=0, max_epochs=20)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(experiment, "prepare_split", counting_split)
        mp.setattr(experiment, "final_test_accuracy", counting_score)
        counts = count_forward_passes(mp)
        report = compare_all(records, PLAN, base, rf_seeds=2)
    assert sorted(splits) == [("delta", 1), ("delta", 2), ("raw", 1)]
    assert len(scored) == 4
    assert counts["epochs"] > 0
    assert counts["forward"] == 2 * counts["epochs"] + 4
    gcn_rows = [report.rows[i] for i in (0, 1, 2, 5)]
    variants = [("gcn-cheby", [64], "raw"), ("gcn", [64], "delta"), ("gcn-cheby", [64, 64], "delta"),
                ("gcn-cheby", [64], "delta")]
    for row, (kind, hidden, dataset) in zip(gcn_rows, variants):
        config = gcn.TrainConfig(dropout=0.1, seed=0, max_epochs=20, hidden_dims=hidden, propagator_kind=kind)
        direct, _ = one_cell_oracle(records, config, dataset)
        assert (row.model, row.dataset, row.params) == (direct.model, direct.dataset, direct.params)
        assert row.val_accuracy == direct.val_accuracy
        assert row.test_accuracy == direct.test_accuracy


def test_forest_row_notes_single_class_training_data():
    records = three_leagues(seed=100)
    for r in records:
        if r.league == PLAN.train_league:
            r.won = True
    row = experiment.random_forest_row(records, PLAN, seeds=2)
    assert row.note == "single-class training data: constant predictor"
    assert row.test_accuracy is not None and row.std == 0.0
    assert experiment.random_forest_row(three_leagues(seed=100), PLAN, seeds=2).note == ""


def _one_lookback_row_leagues():
    """Each league: A plays B, C, B, C, so a lookback of 3 leaves A's last
    game as the league's one forest row."""
    rng = np.random.default_rng(0)
    d = len(FeatureSpec.default().names)
    t0 = datetime(2020, 1, 1, tzinfo=timezone.utc)
    records = []
    for league in ("AAA", "BBB", "CCC"):
        for day, opponent in enumerate("BCBC"):
            game_id, won, ts = f"{league}-{day}", day % 2 == 0, t0 + timedelta(days=day)
            records += [
                TeamGameRecord(game_id, league, 2020, "A", opponent, ts, won, 9, 4, rng.normal(size=d)),
                TeamGameRecord(game_id, league, 2020, opponent, "A", ts, not won, 4, 9, rng.normal(size=d)),
            ]
    return records


def test_forest_row_skips_a_one_row_training_set():
    records = _one_lookback_row_leagues()
    train_recs = experiment.league_games(records, PLAN.train_league, PLAN.season)
    assert len(rf.lookback_dataset(train_recs, 3)[0]) == 1
    row = experiment.random_forest_row(records, PLAN, lookback=3, seeds=2)
    assert (row.test_accuracy, row.note) == (None, "skipped: not enough game history")


def test_training_on_graphs_labelled_for_another_convolution_count_raises():
    train_g, val_g, _ = experiment.prepare_split(three_leagues(), PLAN, "delta", 1)
    config = gcn.TrainConfig(hidden_dims=[8, 8], max_epochs=2)
    with pytest.raises(ValueError, match="train graph is labelled for 1 convolution.*model has 2"):
        gcn.train(config, train_g, val_g)
    with pytest.raises(ValueError, match="train graph is labelled for None convolution"):
        gcn.train(replace(config, hidden_dims=[8]), replace(train_g, convolutions=None), val_g)


def test_scoring_a_test_graph_labelled_for_another_convolution_count_raises():
    records = three_leagues()
    _, _, test_g = experiment.prepare_split(records, PLAN, "delta", 2)
    model = gcn.init_model(gcn.TrainConfig(hidden_dims=[8]), test_g.features.values.shape[1])
    with pytest.raises(ValueError, match="test graph is labelled for 2 convolution.*model has 1"):
        experiment.final_test_accuracy(model, test_g)
    _, _, test_g = experiment.prepare_split(records, PLAN, "delta", 1)
    assert 0.0 <= experiment.final_test_accuracy(model, test_g) <= 1.0


def test_compare_all_skips_scope_without_history():
    records = three_leagues(seed=100)  # single season: no 2018/2019 data
    report = compare_all(records, PLAN, gcn.TrainConfig(dropout=0.1, seed=0), rf_seeds=2)
    scope_rows = [r for r in report.rows if r.model == "scope (elo)"]
    assert len(scope_rows) == 1
    assert scope_rows[0].test_accuracy is None
    assert "skipped" in scope_rows[0].note
    assert sum(r.test_accuracy is not None for r in report.rows) == 5


def test_compare_all_reproducible():
    records = three_leagues(seed=100, seasons=3, first_season=2018)
    kwargs = dict(
        gcn_config=gcn.TrainConfig(dropout=0.25, seed=7),
        rf_seeds=2,
        scope_grid={"base_k": [40], "cutoff": [1700], "reduction": [0.3], "mov_func": ["none"], "w90": [100], "regression": [0.4]},
    )
    r1 = compare_all(records, PLAN, **kwargs)
    r2 = compare_all(records, PLAN, **kwargs)
    assert r1.to_json() == r2.to_json()
    assert r1.to_csv() == r2.to_csv()


def test_zero_signal_rows_sit_at_chance():
    accs = []
    for seed in range(8):
        records = three_leagues(seed=300 + seed, skill=0.0)
        config = gcn.TrainConfig(hidden_dims=[64], dropout=0.1, propagator_kind="gcn-cheby", seed=seed)
        row, _, _ = cross_league(records, PLAN, config, "delta")
        accs.append(row.test_accuracy)
    assert abs(float(np.mean(accs)) - 0.5) < 0.05
