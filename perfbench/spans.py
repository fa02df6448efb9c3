"""In-memory spans around leaguewin's layer functions, and per-layer metrics.

A span is (id, name, start, end, parent, thread, info).  The tracer wraps
each layer function in every leaguewin module that binds it, so calls made
through ``from .ingest import parse_match_csv`` are caught as well as
``ingest.parse_match_csv``.  Work handed to the thread pools of
``experiment`` and ``baselines.scope`` keeps the submitting span as parent.

Self time shares wall time: at each instant the innermost open spans (open
spans with no open child, in any thread) split the elapsed time equally.
The self times of all spans therefore add up to the wall time of the root
spans, however many pool threads ran at once.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

SETUP, JOB = "setup", "job"


def _out_bytes(args, kwargs, rc):
    argv = list(args[0])
    out = Path(argv[argv.index("--out") + 1])
    out = out.parent if out.suffix else out  # a file path: the command writes beside it
    return {"bytes": sum(p.stat().st_size for p in out.iterdir() if p.is_file())}


def _dense_bytes(args, kwargs, mats):
    # Only a Propagator is densified here; a list of arrays is passed through.
    if not isinstance(args[0], importlib.import_module("leaguewin.graph").Propagator):
        return {"bytes": 0}
    return {"bytes": sum(m.nbytes for m in mats)}


def _prepare_split_key(args, kwargs, result):
    records, plan, mode, convolutions = args[:4]
    spec = args[4] if len(args) > 4 else kwargs.get("spec")
    return {"key": (id(records), plan, mode, convolutions, repr(spec))}


# module -> {function: measure(args, kwargs, result) -> info dict, or None}
LAYERS = {
    "ingest": {
        "parse_match_csv": lambda a, k, r: {"rows": len(r), "bytes": len(a[0])},
        "build_feature_matrix": None,
        "standardize": None,
        "filter_regular_season": None,
    },
    "synth": {
        "generate_leagues": None,
        "generate_league": None,
        "emit_csv": lambda a, k, r: {"bytes": len(r)},
    },
    "graph": {
        "build_league_graph": lambda a, k, r: {"nodes": r.n_nodes, "edges": len(r.edges)},
        "assign_labels": lambda a, k, r: {"labelled": int(r.label_mask.sum())},
        "normalized_adjacency": lambda a, k, r: {"nnz": sum(m.nnz for m in r.matrices)},
        "chebyshev_basis": lambda a, k, r: {"nnz": sum(m.nnz for m in r.matrices)},
    },
    "gcn": {
        "init_model": None,
        "train": lambda a, k, r: {"epochs": r[1].epochs_run},
        "forward": None,
        "backward": None,
        "predict": None,
        "dense_propagator": _dense_bytes,
        "build_propagator": None,
    },
    "experiment": {
        "compare_all": None,
        "grid_search_gcn": lambda a, k, r: {"cells": len(r.rows)},
        "run_cross_league": None,
        "train_for_plan": None,
        "prepare_split": _prepare_split_key,
        "league_graph_for": None,
        "final_test_accuracy": None,
        "random_forest_row": None,
        "scope_row": None,
    },
    "baselines.scope": {
        "scope_protocol": None,
        "scope_grid_search": lambda a, k, r: {"configs": len(r[1])},
        "scope_advance": None,
        "scope_evaluate": None,
        "scope_season_regress": None,
        "games_from_records": None,
    },
    "baselines.forest": {
        "lookback_dataset": lambda a, k, r: {"rows": len(r[0])},
        "forest_train": lambda a, k, r: {"trees": len(r.trees), "nodes": sum(len(t.feature) for t in r.trees)},
        "forest_predict_many": lambda a, k, r: {"rows": len(r)},
        "forest_predict": None,
    },
    "kernels": {"best_split": None, "scope_pass": None},
    "cli": {"cli_main": _out_bytes},
}
POOLED_MODULES = ("experiment", "baselines.scope")
# Layer -> (grid span, span of one grid cell; None when every child is cell work).
POOLED = {
    "experiment": ("experiment.grid_search_gcn", "experiment.train_for_plan"),
    "scope": ("baselines.scope.scope_grid_search", None),
}

# Span name -> per-layer metric that receives its self time.
SELF_TIME = {
    "ingest.parse_match_csv": "ingest.parse_s",
    "ingest.build_feature_matrix": "ingest.feature_matrix_s",
    "ingest.standardize": "ingest.standardize_s",
    "ingest.filter_regular_season": "ingest.filter_s",
    "synth.generate_leagues": "synth.generate_s",
    "synth.generate_league": "synth.generate_s",
    "synth.emit_csv": "synth.emit_csv_s",
    "graph.build_league_graph": "graph.build_s",
    "graph.assign_labels": "graph.labels_s",
    "graph.normalized_adjacency": "graph.propagator_s",
    "graph.chebyshev_basis": "graph.propagator_s",
    "gcn.build_propagator": "graph.propagator_s",
    "gcn.init_model": "gcn.train_s",
    "gcn.train": "gcn.train_s",
    "gcn.forward": "gcn.forward_s",
    "gcn.backward": "gcn.backward_s",
    "gcn.predict": "gcn.predict_s",
    "gcn.dense_propagator": "gcn.dense_s",
    "experiment.prepare_split": "experiment.split_s",
    "experiment.league_graph_for": "experiment.split_s",
    "baselines.forest.lookback_dataset": "forest.dataset_s",
    "baselines.forest.forest_train": "forest.train_s",
    "baselines.forest.forest_predict_many": "forest.predict_s",
    "baselines.forest.forest_predict": "forest.predict_s",
    "kernels.best_split": "kernels.best_split_s",
    "kernels.scope_pass": "kernels.scope_pass_s",
    "cli.cli_main": "cli.self_s",
    SETUP: "trace.other_s",
    JOB: "trace.other_s",
}

# Span name -> (metric counting its calls, {info key: metric summing it}).
COUNTS = {
    "ingest.parse_match_csv": ("ingest.parse_calls", {"rows": "ingest.parse_rows"}),
    "ingest.build_feature_matrix": ("ingest.feature_matrix_calls", {}),
    "synth.emit_csv": (None, {"bytes": "synth.csv_mb"}),
    "graph.build_league_graph": ("graph.build_calls", {"nodes": "graph.nodes", "edges": "graph.edges"}),
    "graph.assign_labels": (None, {"labelled": "graph.labelled_nodes"}),
    "graph.normalized_adjacency": ("graph.propagator_calls", {"nnz": "graph.propagator_nnz"}),
    "graph.chebyshev_basis": ("graph.propagator_calls", {"nnz": "graph.propagator_nnz"}),
    "gcn.train": ("gcn.train_calls", {"epochs": "gcn.epochs"}),
    "gcn.forward": ("gcn.forward_calls", {}),
    "gcn.backward": ("gcn.backward_calls", {}),
    "gcn.dense_propagator": (None, {"bytes": "gcn.dense_mb"}),
    "experiment.prepare_split": ("experiment.split_calls", {}),
    "experiment.grid_search_gcn": (None, {"cells": "experiment.cells"}),
    "baselines.scope.scope_grid_search": (None, {"configs": "scope.configs"}),
    "baselines.forest.lookback_dataset": (None, {"rows": "forest.rows"}),
    "baselines.forest.forest_train": (None, {"trees": "forest.trees", "nodes": "forest.tree_nodes"}),
    "baselines.forest.forest_predict_many": (None, {"rows": "forest.rows_predicted"}),
    "kernels.best_split": ("kernels.best_split_calls", {}),
    "kernels.scope_pass": ("kernels.scope_pass_calls", {}),
    "cli.cli_main": ("cli.commands", {"bytes": "cli.bytes_written"}),
}

MB = 1e6
SCALE = {"synth.csv_mb": 1 / MB, "gcn.dense_mb": 1 / MB}

# Every per-layer metric, in report order, with its unit.
METRICS = {
    "ingest.parse_s": "s", "ingest.parse_calls": "count", "ingest.parse_rows": "count",
    "ingest.parse_mb_per_s": "MB/s", "ingest.feature_matrix_s": "s",
    "ingest.feature_matrix_calls": "count", "ingest.standardize_s": "s", "ingest.filter_s": "s",
    "synth.generate_s": "s", "synth.emit_csv_s": "s", "synth.csv_mb": "MB",
    "graph.build_s": "s", "graph.build_calls": "count", "graph.nodes": "count",
    "graph.edges": "count", "graph.labels_s": "s", "graph.labelled_nodes": "count",
    "graph.propagator_s": "s", "graph.propagator_calls": "count", "graph.propagator_nnz": "count",
    "gcn.train_s": "s", "gcn.train_calls": "count", "gcn.epochs": "count",
    "gcn.forward_s": "s", "gcn.forward_calls": "count", "gcn.backward_s": "s",
    "gcn.backward_calls": "count", "gcn.predict_s": "s", "gcn.dense_s": "s", "gcn.dense_mb": "MB",
    "experiment.split_s": "s", "experiment.split_calls": "count",
    "experiment.distinct_splits": "count", "experiment.split_reuse": "ratio",
    "experiment.cells": "count", "experiment.pool_speedup": "ratio", "experiment.self_s": "s",
    "scope.grid_s": "s", "scope.configs": "count", "scope.configs_per_s": "1/s",
    "scope.pool_speedup": "ratio", "scope.protocol_s": "s",
    "forest.dataset_s": "s", "forest.rows": "count", "forest.train_s": "s",
    "forest.trees": "count", "forest.tree_nodes": "count", "forest.predict_s": "s",
    "forest.rows_predicted": "count",
    "kernels.best_split_s": "s", "kernels.best_split_calls": "count",
    "kernels.scope_pass_s": "s", "kernels.scope_pass_calls": "count",
    "cli.commands": "count", "cli.self_s": "s", "cli.bytes_written": "B",
    "trace.setup_wall_s": "s", "trace.job_wall_s": "s", "trace.other_s": "s",
}


class Tracer:
    def __init__(self):
        self.records: list[tuple] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        """A span around the block, as a child of the thread's open span."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        sid = next(self._ids)
        stack.append(sid)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            stack.pop()
            self.records.append((sid, name, start, end, parent, threading.get_ident(), None))

    def wrap(self, name: str, fn, measure):
        """``fn`` inside a span; ``measure(args, kwargs, result)`` gives the span's info."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            sid = next(tracer._ids)
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.records.append((sid, name, start, perf_counter(), parent, threading.get_ident(), None))
                stack.pop()
                raise
            end = perf_counter()
            stack.pop()
            info = measure(args, kwargs, result) if measure is not None else None
            tracer.records.append((sid, name, start, end, parent, threading.get_ident(), info))
            return result

        return traced

    def pool_class(self):
        """A thread pool whose tasks run as children of the submitting span."""
        tracer = self

        class TracedPool(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                stack = tracer._stack()
                parent = stack[-1] if stack else None

                def run(*a, **k):
                    inner = tracer._stack()
                    saved = inner[:]
                    inner[:] = [] if parent is None else [parent]
                    try:
                        return fn(*a, **k)
                    finally:
                        inner[:] = saved

                return super().submit(run, *args, **kwargs)

        return TracedPool

    @contextmanager
    def installed(self):
        """Wrap every layer function under each name leaguewin binds it to."""
        modules = {m: importlib.import_module(f"leaguewin.{m}") for m in LAYERS}
        packages = [importlib.import_module(p) for p in ("leaguewin", "leaguewin.baselines")]
        wrappers = {}  # id of the function -> (function, its wrapper)
        for mod, funcs in LAYERS.items():
            for fname, measure in funcs.items():
                fn = getattr(modules[mod], fname)
                wrappers[id(fn)] = (fn, self.wrap(f"{mod}.{fname}", fn, measure))
        saved = []
        for module in [*modules.values(), *packages]:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    saved.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)][1])
        pool = self.pool_class()
        for mod in POOLED_MODULES:
            saved.append((modules[mod], "ThreadPoolExecutor", modules[mod].ThreadPoolExecutor))
            modules[mod].ThreadPoolExecutor = pool
        try:
            yield
        finally:
            for module, attr, value in reversed(saved):
                setattr(module, attr, value)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        spans = [list(r[:6]) for r in sorted(self.records)]
        path.write_text(json.dumps({"fields": ["id", "name", "start", "end", "parent", "thread"], "spans": spans}))


def self_times(records: list[tuple]) -> dict[int, float]:
    """Wall-time share of each span while it is innermost (see module doc)."""
    parent = {r[0]: r[4] for r in records}
    events = []
    for sid, _, start, end, *_ in records:
        if end > start:
            events.append((start, 1, sid))
            events.append((end, 0, -sid))  # at a tie, children (larger ids) end first
    events.sort()
    open_spans: set[int] = set()
    open_children: dict[int, int] = defaultdict(int)
    leaves: set[int] = set()
    own: dict[int, float] = defaultdict(float)
    last = None
    for t, starting, key in events:
        if leaves and t > last:
            share = (t - last) / len(leaves)
            for sid in leaves:
                own[sid] += share
        last = t
        sid = key if starting else -key
        p = parent[sid]
        if starting:
            open_spans.add(sid)
            leaves.add(sid)
            if p in open_spans:
                open_children[p] += 1
                leaves.discard(p)
        else:
            open_spans.discard(sid)
            leaves.discard(sid)
            if p in open_spans:
                open_children[p] -= 1
                if not open_children[p]:
                    leaves.add(p)
    return own


def layer_metrics(records: list[tuple]) -> dict[str, float]:
    """Per-layer metrics for one average set-up plus one average job.

    Spans are averaged over the set-ups or the jobs they ran under, so the
    ``*_s`` self times add up to ``trace.setup_wall_s + trace.job_wall_s``.
    """
    records = sorted(records)
    own = self_times(records)
    by_id = {r[0]: r for r in records}
    root, in_grid = {}, {}
    for sid, name, _, _, parent, _, _ in records:
        root[sid] = sid if parent is None else root[parent]
        in_grid[sid] = name == "baselines.scope.scope_grid_search" or (parent is not None and in_grid[parent])
    weight = {}
    for kind in (SETUP, JOB):
        roots = [r[0] for r in records if r[4] is None and r[1] == kind]
        weight.update({sid: 1.0 / len(roots) for sid in roots})

    m = dict.fromkeys(METRICS, 0.0)
    parsed_mb = 0.0
    split_keys = defaultdict(set)
    pooled = {layer: [0.0, 0.0] for layer in POOLED}  # [summed cell time, grid wall]
    for sid, name, start, end, parent, _, info in records:
        w = weight.get(root[sid], 0.0)
        if parent is None:
            m[f"trace.{name}_wall_s"] += w * (end - start)
        metric = SELF_TIME.get(name)
        if metric is None:
            module = name.split(".")[-2]
            if module == "scope":
                metric = "scope.grid_s" if in_grid[sid] else "scope.protocol_s"
            else:
                metric = f"{module}.self_s"
        m[metric] += w * own.get(sid, 0.0)
        calls, sums = COUNTS.get(name, (None, {}))
        if calls:
            m[calls] += w
        if info is not None:
            for key, target in sums.items():
                m[target] += w * info[key] * SCALE.get(target, 1.0)
            if name == "ingest.parse_match_csv":
                parsed_mb += w * info["bytes"] / MB
            if name == "experiment.prepare_split":
                split_keys[root[sid]].add(info["key"])
        parent_name = by_id[parent][1] if parent is not None else None
        for layer, (grid, cell) in POOLED.items():
            if name == grid:
                pooled[layer][1] += w * (end - start)
            elif parent_name == grid and cell in (None, name):
                pooled[layer][0] += w * (end - start)
    for r, keys in split_keys.items():
        m["experiment.distinct_splits"] += weight.get(r, 0.0) * len(keys)
    if m["experiment.split_calls"]:
        m["experiment.split_reuse"] = m["experiment.distinct_splits"] / m["experiment.split_calls"]
    for layer, (summed, wall) in pooled.items():
        if wall:
            m[f"{layer}.pool_speedup"] = summed / wall
    if m["scope.configs"]:
        m["scope.configs_per_s"] = m["scope.configs"] / pooled["scope"][1]
    if m["ingest.parse_s"]:
        m["ingest.parse_mb_per_s"] = parsed_mb / m["ingest.parse_s"]
    return m
