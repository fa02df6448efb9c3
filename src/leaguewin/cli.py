"""Command-line entry point wiring ingestion, graphs, training, and baselines.

Every run writes its outputs plus a manifest.json with input content hashes,
the seed, and the tool version, so results can be replayed exactly.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__, experiment, gcn, synth
from . import graph as lg
from .baselines import scope as sc
from .ingest import ColumnStats, FeatureSpec, MatchLogError, QualityReport, build_feature_matrix, parse_match_csv

BUNDLE_SCHEMA_VERSION = 1


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


OPTIONS = {
    "data": {"required": True, "help": "match-log CSV"},
    "plan": {"required": True, "help": "split-plan JSON"},
    "config": {"help": "JSON config file"},
    "seed": {"type": int, "help": "RNG seed (overrides config)"},
    "mode": {"choices": ["raw", "delta"], "help": "feature dataset mode"},
    "model": {"choices": list(gcn.MODEL_KINDS), "help": "propagation variant"},
    "layers": {"type": _positive_int, "help": "graph-convolution layer count (>= 1)"},
    "degree": {"type": int, "help": "Chebyshev degree"},
    "model-file": {"required": True, "help": "model bundle from train"},
    "league": {"required": True},
    "season": {
        "type": int,
        "required": True,
        "help": "season (baseline-scope: the test season; the two before it initialize/validate)",
    },
    "lookback": {"type": int, "default": 5},
    "out": {"required": True, "help": "output directory (simulate: or a .csv file path)"},
}

# Each command declares exactly the options its handler reads.
COMMANDS = {
    "simulate": ("generate a synthetic season CSV", ["config", "seed", "out"]),
    "ingest": ("validate a match log, emit a quality report", ["data", "config", "out"]),
    "build-graph": (
        "build and serialize a league graph",
        ["data", "config", "mode", "layers", "league", "season", "out"],
    ),
    "train": (
        "train a model on the plan's leagues",
        ["data", "plan", "config", "seed", "mode", "model", "layers", "degree", "out"],
    ),
    "predict": ("score a league with a trained model", ["data", "model-file", "league", "season", "out"]),
    "grid-search": ("hyperparameter search for the GCN", ["data", "plan", "config", "seed", "degree", "out"]),
    "baseline-scope": ("Elo grid search and test accuracy", ["data", "config", "league", "season", "out"]),
    "baseline-forest": ("lookback random-forest baseline", ["data", "plan", "mode", "lookback", "out"]),
    "compare": ("full comparison table", ["data", "plan", "config", "seed", "out"]),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="leaguewin", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, options) in COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for name in options:
            p.add_argument(f"--{name}", **OPTIONS[name])
    return parser


def cli_main(argv=None) -> int:
    parser = build_parser()
    raw_argv = list(argv) if argv is not None else sys.argv[1:]
    try:
        args = parser.parse_args(raw_argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    args.raw_argv = raw_argv
    handler = {
        "simulate": _cmd_simulate,
        "ingest": _cmd_ingest,
        "build-graph": _cmd_build_graph,
        "train": _cmd_train,
        "predict": _cmd_predict,
        "grid-search": _cmd_grid_search,
        "baseline-scope": _cmd_baseline_scope,
        "baseline-forest": _cmd_baseline_forest,
        "compare": _cmd_compare,
    }[args.command]
    try:
        handler(args)
    except (MatchLogError, ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    sys.exit(cli_main())


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_atomic(path: Path, data) -> None:
    tmp = path.with_name(path.name + ".tmp")
    if isinstance(data, str):
        data = data.encode("utf-8")
    tmp.write_bytes(data)
    os.replace(tmp, path)


def _out_dir(args) -> Path:
    """The directory named by --out, which a command writes into, dots in its name or not."""
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_manifest(args, out_dir: Path, outputs: list[Path]) -> None:
    inputs = {}
    for attr in ("data", "config", "plan"):
        value = getattr(args, attr, None)
        if value:
            inputs[value] = _sha256(Path(value))
    model_file = getattr(args, "model_file", None)
    if model_file:
        inputs[model_file] = _sha256(Path(model_file))
    doc = {
        "command": args.command,
        "argv": getattr(args, "raw_argv", []),
        "config": getattr(args, "config", None),
        "inputs": inputs,
        "seed": getattr(args, "seed", None),
        "outputs": [p.name for p in outputs],
        "version": __version__,
    }
    _write_atomic(out_dir / "manifest.json", json.dumps(doc, indent=2))


def _load_json(path) -> dict:
    return json.loads(Path(path).read_text("utf-8"))


def _integer(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _number(value) -> bool:
    return isinstance(value, float) or _integer(value)


def _object_of(value, kind: type) -> bool:
    return isinstance(value, dict) and all(isinstance(v, kind) for v in value.values())


# What a --config file may hold for the commands that build features or
# train, with the JSON value each key takes: a feature set, TrainConfig
# fields and grid-search's grid (null selects the default feature set or
# grid).  simulate and baseline-scope read configs of their own.
CONFIG_TYPES = {
    "features": ("an object of feature name -> category", lambda v: v is None or _object_of(v, str)),
    "grid": ("an object of lists", lambda v: v is None or _object_of(v, list)),
    "learning_rate": ("a number", _number),
    "max_epochs": ("an integer", _integer),
    "early_stop_patience": ("an integer", _integer),
    "weight_decay": ("a number", _number),
    "dropout": ("a number", _number),
    "hidden_dims": ("a list of integers", lambda v: isinstance(v, list) and all(map(_integer, v))),
    "propagator_kind": ("a string", lambda v: isinstance(v, str)),
    "chebyshev_degree": ("an integer", _integer),
    "seed": ("an integer", _integer),
}


def _config(args) -> dict:
    """The --config JSON object, {} without one; exits 1 on a key nothing
    reads or a value of the wrong JSON type."""
    if not args.config:
        return {}
    doc = _load_json(args.config)
    if not isinstance(doc, dict):
        raise ValueError(f"config {args.config} must hold a JSON object")
    unknown = sorted(set(doc) - set(CONFIG_TYPES))
    if unknown:
        raise ValueError(f"unknown config keys in {args.config}: {unknown}")
    for key, value in doc.items():
        expected, check = CONFIG_TYPES[key]
        if not check(value):
            raise ValueError(f"config key {key!r} in {args.config} must be {expected}, got {json.dumps(value)}")
    return doc


def _feature_spec(config: dict) -> FeatureSpec:
    features = config.get("features")
    return FeatureSpec(list(features), dict(features)) if features else FeatureSpec.default()


def _records(args, spec: FeatureSpec | None = None, report: QualityReport | None = None):
    return parse_match_csv(Path(args.data).read_bytes(), spec, report)


def _cmd_simulate(args) -> None:
    doc = _load_json(args.config) if args.config else {}
    leagues = doc.pop("leagues", None)
    if args.seed is not None:
        doc["seed"] = args.seed
    config = synth.SynthConfig.from_dict(doc)
    records = synth.generate_leagues(config, leagues) if leagues else synth.generate_league(config)
    out = Path(args.out)
    # simulate alone may name the CSV file itself; the manifest goes beside it.
    csv_path = out if out.suffix == ".csv" else out / "season.csv"
    out_dir = csv_path.parent
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_atomic(csv_path, synth.emit_csv(records))
    _write_manifest(args, out_dir, [csv_path])
    print(f"wrote {len(records)} records ({len(records) // 2} games) to {csv_path}")


def _cmd_ingest(args) -> None:
    spec = _feature_spec(_config(args))
    report = QualityReport()
    records = _records(args, spec, report)
    build_feature_matrix(records, spec, "raw", report)  # fills report.imputed and report.warnings
    out_dir = _out_dir(args)
    report_path = out_dir / "quality_report.json"
    records_path = out_dir / "records.csv"
    _write_atomic(report_path, report.to_json())
    _write_atomic(records_path, synth.emit_csv(records, spec))
    _write_manifest(args, out_dir, [report_path, records_path])
    print(f"parsed {len(records)} records; {len(report.row_errors)} row errors")


def _cmd_build_graph(args) -> None:
    spec = _feature_spec(_config(args))
    records = experiment.league_games(_records(args, spec), args.league, args.season)
    matrix = build_feature_matrix(records, spec, args.mode or "raw")
    g = lg.build_league_graph(records, features=matrix)
    g = lg.assign_labels(g, args.layers or 1)
    out_dir = _out_dir(args)
    graph_path = out_dir / "graph.json"
    edges_path = out_dir / "edges.txt"
    _write_atomic(graph_path, lg.graph_to_json(g))
    _write_atomic(edges_path, lg.edge_list_text(g))
    _write_manifest(args, out_dir, [graph_path, edges_path])
    print(f"graph: {g.n_nodes} nodes, {len(g.edges)} edges, {int(g.label_mask.sum())} labeled")


def _train_config(args, doc: dict) -> gcn.TrainConfig:
    """The config's TrainConfig fields, then whichever of --model,
    --layers, --degree and --seed the command defines and was given."""
    config = gcn.TrainConfig(**{k: v for k, v in doc.items() if k in gcn.TrainConfig.__dataclass_fields__})
    if getattr(args, "model", None) is not None:
        config = replace(config, propagator_kind=args.model)
    if getattr(args, "layers", None) is not None:
        hidden = config.hidden_dims or [64]
        config = replace(config, hidden_dims=[hidden[0]] * args.layers)
    if getattr(args, "degree", None) is not None:
        config = replace(config, chebyshev_degree=args.degree)
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    return config


def _plan(args) -> experiment.SplitPlan:
    return experiment.SplitPlan.from_json(Path(args.plan).read_text("utf-8"))


def _cmd_train(args) -> None:
    mode = args.mode or "delta"
    doc = _config(args)
    config = _train_config(args, doc)
    spec = _feature_spec(doc)
    plan = _plan(args)
    records = _records(args, spec)
    best, report, _, stats = experiment.train_for_plan(records, plan, config, mode, spec)
    bundle = {
        "schema_version": BUNDLE_SCHEMA_VERSION,
        "mode": mode,
        "plan": plan.to_dict(),
        "feature_spec": {"mode": mode, "features": spec.categories},
        "standardization": {
            "mean": stats.mean.tolist(),
            "std": stats.std.tolist(),
        },
        "model": json.loads(gcn.model_to_json(best)),
    }
    out_dir = _out_dir(args)
    model_path = out_dir / "model.json"
    report_path = out_dir / "train_report.csv"
    _write_atomic(model_path, json.dumps(bundle, indent=2))
    _write_atomic(report_path, report.to_csv())
    _write_manifest(args, out_dir, [model_path, report_path])
    print(
        f"trained {experiment.model_display_name(config.propagator_kind, experiment.conv_layers_of(config))}"
        f" best epoch {report.best_epoch}, val acc {report.val_acc[report.best_epoch - 1]:.4f}"
    )


def _cmd_predict(args) -> None:
    bundle = _load_json(args.model_file)
    if bundle.get("schema_version") != BUNDLE_SCHEMA_VERSION:
        raise ValueError(f"unsupported model bundle schema: {bundle.get('schema_version')}")
    model = gcn.model_from_json(json.dumps(bundle["model"]))
    spec = FeatureSpec(list(bundle["feature_spec"]["features"]), dict(bundle["feature_spec"]["features"]))
    stats = ColumnStats(
        mean=np.array(bundle["standardization"]["mean"], dtype=np.float64),
        std=np.array(bundle["standardization"]["std"], dtype=np.float64),
    )
    g, _ = experiment.league_graph_for(
        _records(args, spec), args.league, args.season, spec, bundle["mode"], model.conv_stages, stats
    )
    probs = gcn.predict(model, g)
    lines = ["team,game_id,team_game_index,p_win"]
    for (team, game_id, idx), p in zip(g.nodes, probs):
        lines.append(f"{team},{game_id},{idx},{float(p)!r}")
    out_dir = _out_dir(args)
    pred_path = out_dir / "predictions.csv"
    _write_atomic(pred_path, "\n".join(lines) + "\n")
    _write_manifest(args, out_dir, [pred_path])
    print(f"wrote {len(probs)} predictions to {pred_path}")


def _cmd_grid_search(args) -> None:
    plan = _plan(args)
    doc = _config(args)
    spec = _feature_spec(doc)
    records = _records(args, spec)
    report = experiment.grid_search_gcn(records, plan, doc.get("grid") or None, _train_config(args, doc), spec)
    _write_report(args, report, "grid_report")
    winner = [r for r in report.rows if r.note == "winner"][0]
    print(f"winner: {winner.model} + {winner.dataset}, test acc {winner.test_accuracy:.4f}")


def _cmd_baseline_scope(args) -> None:
    records = _records(args)
    grid = sc.grid_from_json(Path(args.config).read_text("utf-8")) if args.config else None
    spans = experiment.scope_spans(records, args.league, args.season)
    result = sc.scope_protocol(spans[0], spans[1], spans[2], grid)
    out_dir = _out_dir(args)
    table_lines = [",".join(sc.GRID_FIELDS) + ",val_accuracy"]
    for cfg, acc in result.table:
        table_lines.append(
            ",".join(str(getattr(cfg, f)) for f in sc.GRID_FIELDS) + f",{acc!r}"
        )
    table_path = out_dir / "scope_grid.csv"
    best_path = out_dir / "scope_best.json"
    _write_atomic(table_path, "\n".join(table_lines) + "\n")
    _write_atomic(
        best_path,
        json.dumps(
            {
                "best_config": sc.config_to_dict(result.best_config),
                "validation_accuracy": result.validation_accuracy,
                "test_accuracy": result.test_accuracy,
            },
            indent=2,
        ),
    )
    _write_manifest(args, out_dir, [table_path, best_path])
    print(f"scope test accuracy {result.test_accuracy:.4f} over {len(result.table)} configs")


def _cmd_baseline_forest(args) -> None:
    plan = _plan(args)
    records = _records(args)
    row = experiment.random_forest_row(
        records, plan, lookback=args.lookback, mode=args.mode or "delta"
    )
    report = experiment.ExperimentReport(rows=[row])
    _write_report(args, report, "forest_report")
    if row.test_accuracy is None:
        print(f"forest baseline skipped: {row.note}")
    else:
        print(f"forest accuracy {row.test_accuracy:.4f} +/- {row.std:.4f}")


def _cmd_compare(args) -> None:
    plan = _plan(args)
    doc = _config(args)
    spec = _feature_spec(doc)
    records = _records(args, spec)
    report = experiment.compare_all(records, plan, _train_config(args, doc), spec=spec)
    _write_report(args, report, "compare_report")
    for row in report.rows:
        acc = "skipped" if row.test_accuracy is None else f"{row.test_accuracy:.4f}"
        print(f"{row.model} + {row.dataset}: {acc}")


def _write_report(args, report: experiment.ExperimentReport, stem: str) -> None:
    out_dir = _out_dir(args)
    csv_path = out_dir / f"{stem}.csv"
    json_path = out_dir / f"{stem}.json"
    _write_atomic(csv_path, report.to_csv())
    _write_atomic(json_path, report.to_json())
    _write_manifest(args, out_dir, [csv_path, json_path])


if __name__ == "__main__":
    main()
