"""Command-line entry point wiring ingestion, graphs, training, and baselines.

Every run writes its outputs plus a manifest.json with input content hashes,
the seed, the tool version and the numeric environment, so results can be
replayed exactly.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import platform
import sys
from collections.abc import Collection
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np
import scipy

from . import __version__, experiment, gcn, synth
from . import graph as lg
from .baselines import scope as sc
from .ingest import ColumnStats, FeatureSpec, MatchLogError, QualityReport, build_feature_matrix, emit_csv, parse_match_csv

BUNDLE_SCHEMA_VERSION = 1


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


# The commands and the options each reads are in COMMANDS, after the handlers.
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="leaguewin", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text, options) in COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for name in options:
            p.add_argument(f"--{name}", **OPTIONS[name])
    return parser


def cli_main(argv=None) -> int:
    """Run one command.  Its handler returns its outputs, in order, and its
    summary; only then are the outputs and the manifest written, so a
    command that fails writes nothing."""
    argv = list(argv) if argv is not None else sys.argv[1:]
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        outputs, summary = COMMANDS[args.command][0](args)
        out_dir = next(iter(outputs)).parent
        out_dir.mkdir(parents=True, exist_ok=True)
        for path, data in outputs.items():
            _write_atomic(path, data)
        _write_atomic(out_dir / "manifest.json", _manifest(args, argv, outputs))
    except (MatchLogError, ValueError, KeyError, OSError, json.JSONDecodeError, gcn.TrainingDiverged,
            experiment.WorkerFailed) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(summary)
    return 0


def main() -> None:
    sys.exit(cli_main())


def _write_atomic(path: Path, data) -> None:
    tmp = path.with_name(path.name + ".tmp")
    if isinstance(data, str):
        data = data.encode("utf-8")
    tmp.write_bytes(data)
    os.replace(tmp, path)


def _manifest(args, argv: list[str], outputs: dict) -> str:
    inputs = {}
    for attr in ("data", "config", "plan", "model_file"):
        value = getattr(args, attr, None)
        if value:
            inputs[value] = hashlib.sha256(Path(value).read_bytes()).hexdigest()
    doc = {
        "command": args.command,
        "argv": argv,
        "config": getattr(args, "config", None),
        "inputs": inputs,
        "seed": getattr(args, "seed", None),
        "outputs": [p.name for p in outputs],
        "version": __version__,
        "environment": _environment(),
    }
    return json.dumps(doc, indent=2)


def _environment() -> dict:
    """The versions output bytes can depend on, with no timestamp, so reruns
    stay byte-identical.  model.json weights depend on the BLAS kernel
    through the dense weight products."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
    }


def _integer(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _number(value) -> bool:
    return isinstance(value, float) or _integer(value)


def _string(value) -> bool:
    return isinstance(value, str)


def _list_of(check):
    return lambda value: isinstance(value, list) and all(map(check, value))


def _axis(expected: str, check) -> tuple:
    """A grid axis: a non-empty list of ``expected``."""
    return f"a non-empty list of {expected}", lambda value: _list_of(check)(value) and len(value) > 0


def _object_of(check):
    return lambda value: isinstance(value, dict) and all(map(check, value.values()))


def _holding(keys: tuple[str, ...], check):
    """An object with exactly ``keys``, each value passing ``check``."""
    return lambda value: isinstance(value, dict) and set(value) == set(keys) and all(check(value[k]) for k in keys)


# Every JSON file read from outside is checked against a table of
# key -> (the JSON value it takes, check).  A dataclass's table gives each
# field the JSON value of its annotation.
_ANNOTATED = {
    "int": ("an integer", _integer),
    "float": ("a number", _number),
    "str": ("a non-empty string", lambda v: _string(v) and v != ""),
    "list[int]": ("a list of integers", _list_of(_integer)),
    "dict[str, float]": ("an object of name -> number", _object_of(_number)),
}
_NUMBERS = ("a list of numbers", _list_of(_number))
_STRINGS = ("a list of strings", _list_of(_string))


def _fields_of(cls) -> dict:
    return {f.name: _ANNOTATED[f.type] for f in fields(cls)}


# The --config of the commands that build features or train: a feature set,
# the TrainConfig fields and grid-search's grid (null selects the default
# feature set or grid).
CONFIG_TYPES = {
    "features": ("an object of feature name -> category", lambda v: v is None or _object_of(_string)(v)),
    "grid": ("an object of lists", lambda v: v is None or _object_of(lambda x: isinstance(x, list))(v)),
} | _fields_of(gcn.TrainConfig)
# grid-search's grid names every axis; null in hidden2 gives a one-convolution model.
GCN_GRID_TYPES = {
    "hidden1": _axis("integers", _integer),
    "hidden2": _axis("integers or null", lambda v: v is None or _integer(v)),
    "dropout": _axis("numbers", _number),
    "model": _axis("'gcn' or 'gcn-cheby'", lambda v: v in OPTIONS["model"]["choices"]),  # as --model
    "dataset": _axis("'raw' or 'delta'", lambda v: v in OPTIONS["mode"]["choices"]),  # as --mode
}
# simulate's --config, where "leagues" names the leagues to draw.
SYNTH_TYPES = _fields_of(synth.SynthConfig) | {
    "leagues": (
        "a list of distinct non-empty strings",
        lambda v: isinstance(v, list) and all(isinstance(x, str) and x for x in v) and len(set(v)) == len(v),
    ),
}
# baseline-scope's --config: any lattice fields, each a list of values.
SCOPE_GRID_TYPES = {f: _STRINGS if f == "mov_func" else _NUMBERS for f in sc.GRID_FIELDS}
PLAN_TYPES = _fields_of(experiment.SplitPlan)
# predict's --model-file, as train writes it.
BUNDLE_TYPES = {
    "schema_version": ("an integer", _integer),
    "mode": ("'raw' or 'delta'", lambda v: v in OPTIONS["mode"]["choices"]),  # as train's --mode
    "plan": ("an object", lambda v: isinstance(v, dict)),
    "feature_spec": ('an object {"features": feature name -> category}', _holding(("features",), _object_of(_string))),
    "standardization": ('an object {"mean": numbers, "std": numbers}', _holding(("mean", "std"), _list_of(_number))),
    "model": ("an object", lambda v: isinstance(v, dict)),
}
# The bundle's "model" object, as gcn.model_to_dict writes it.  TrainConfig
# then checks the config's values, and model_from_dict the weight shapes.
MODEL_TYPES = {
    "schema_version": ("an integer", _integer),
    "config": ("an object", lambda v: isinstance(v, dict)),
    "layer_dims": (
        "a list of two or more integers >= 1, the last 2",
        lambda v: _list_of(_integer)(v) and len(v) >= 2 and min(v) >= 1 and v[-1] == 2,
    ),
    "weights": (
        "a list of stages, each a list of matrices of numbers",
        _list_of(_list_of(_list_of(_list_of(_number)))),
    ),
}
MODEL_CONFIG_TYPES = {
    "dropout": _ANNOTATED["float"],
    "propagator_kind": _ANNOTATED["str"],
    "chebyshev_degree": _ANNOTATED["int"],
    "rng_seed": _ANNOTATED["int"],
}


def _check(doc, what: str, source, types: dict, required: bool = False) -> dict:
    """``doc``, once it is an object of keys in ``types`` (all of them when
    ``required``) whose values pass their checks; raises naming ``what``
    (config, plan, ...), the file and the key otherwise."""
    if not isinstance(doc, dict):
        raise ValueError(f"{what} {source} must hold a JSON object")
    unknown = sorted(set(doc) - set(types))
    if unknown:
        raise ValueError(f"unknown {what} keys in {source}: {unknown}")
    missing = [key for key in types if key not in doc]
    if required and missing:
        raise ValueError(f"{what} {source} lacks keys {missing}")
    for key, value in doc.items():
        expected, check = types[key]
        if not check(value):
            got = json.dumps(value)
            got = got if len(got) <= 80 else got[:77] + "..."  # a weight list can run to megabytes
            raise ValueError(f"{what} key {key!r} in {source} must be {expected}, got {got}")
    return doc


def _load(path, what: str, types: dict, required: bool = False) -> dict:
    return _check(json.loads(Path(path).read_text("utf-8")), what, path, types, required)


def _made(what: str, source, make, *args, **kwargs):
    """``make(*args, **kwargs)``, building from the JSON file ``source``; a
    ValueError it raises is raised again as ``<what> <source>: <message>``."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ValueError(f"{what} {source}: {exc}") from None


def _config(args, types: dict = CONFIG_TYPES) -> dict:
    """The --config JSON object, {} without one."""
    return _load(args.config, "config", types) if args.config else {}


def _feature_spec(args, config: dict) -> FeatureSpec:
    features = config.get("features")
    if not features:
        return FeatureSpec.default()
    return _made("config", args.config, FeatureSpec, list(features), dict(features))


def _records(
    args,
    spec: FeatureSpec | None = None,
    report: QualityReport | None = None,
    league_seasons: Collection[tuple[str, int]] | None = None,
):
    """The --data CSV's records, of ``league_seasons`` only when given (see ``parse_match_csv``)."""
    return parse_match_csv(Path(args.data).read_bytes(), spec, report, league_seasons)


def _plan_seasons(plan: experiment.SplitPlan) -> set[tuple[str, int]]:
    """The plan's three leagues in its season."""
    return {(league, plan.season) for league in plan.leagues}


def _cmd_simulate(args) -> tuple[dict, str]:
    doc = _config(args, SYNTH_TYPES)
    leagues = doc.pop("leagues", None)
    if args.seed is not None:
        doc["seed"] = args.seed
    config = _made("config", args.config, synth.SynthConfig, **doc)
    records = synth.generate_leagues(config, leagues) if leagues else synth.generate_league(config)
    out = Path(args.out)
    # simulate alone may name the CSV file itself; the manifest goes beside it.
    csv_path = out if out.suffix == ".csv" else out / "season.csv"
    summary = f"wrote {len(records)} records ({len(records) // 2} games) to {csv_path}"
    return {csv_path: emit_csv(records)}, summary


def _cmd_ingest(args) -> tuple[dict, str]:
    spec = _feature_spec(args, _config(args))
    report = QualityReport()
    records = _records(args, spec, report)
    build_feature_matrix(records, spec, "raw", report)  # fills report.imputed and report.warnings
    out = Path(args.out)
    outputs = {out / "quality_report.json": report.to_json(), out / "records.csv": emit_csv(records, spec)}
    return outputs, f"parsed {len(records)} records; {len(report.row_errors)} row errors"


def _cmd_build_graph(args) -> tuple[dict, str]:
    spec = _feature_spec(args, _config(args))
    records = _records(args, spec, league_seasons={(args.league, args.season)})
    records = experiment.league_games(records, args.league, args.season)
    matrix = build_feature_matrix(records, spec, args.mode or "raw")
    g = lg.build_league_graph(records, features=matrix)
    g = lg.assign_labels(g, args.layers or 1)
    out = Path(args.out)
    outputs = {out / "graph.json": lg.graph_to_json(g), out / "edges.txt": lg.edge_list_text(g)}
    return outputs, f"graph: {g.n_nodes} nodes, {len(g.edges)} edges, {int(g.label_mask.sum())} labeled"


def _train_config(args, doc: dict) -> gcn.TrainConfig:
    """The config's TrainConfig fields, then whichever of --model,
    --layers, --degree and --seed the command defines and was given."""
    settings = {k: v for k, v in doc.items() if k in gcn.TrainConfig.__dataclass_fields__}
    config = _made("config", args.config, gcn.TrainConfig, **settings)
    if getattr(args, "layers", None) is not None:
        config = replace(config, hidden_dims=[(config.hidden_dims or [64])[0]] * args.layers)
    flags = {"propagator_kind": "model", "chebyshev_degree": "degree", "seed": "seed"}
    return replace(config, **{k: getattr(args, f) for k, f in flags.items() if getattr(args, f, None) is not None})


def _plan(args) -> experiment.SplitPlan:
    return _made("plan", args.plan, experiment.SplitPlan, **_load(args.plan, "plan", PLAN_TYPES, required=True))


def _cmd_train(args) -> tuple[dict, str]:
    mode = args.mode or "delta"
    doc = _config(args)
    config = _train_config(args, doc)
    spec = _feature_spec(args, doc)
    plan = _plan(args)
    records = _records(args, spec, league_seasons=_plan_seasons(plan))
    best, report, stats = experiment.train_for_plan(records, plan, config, mode, spec)
    bundle = {
        "schema_version": BUNDLE_SCHEMA_VERSION,
        "mode": mode,
        "plan": asdict(plan),
        "feature_spec": {"features": spec.categories},
        "standardization": {k: v.tolist() for k, v in vars(stats).items()},
        "model": gcn.model_to_dict(best),
    }
    out = Path(args.out)
    outputs = {out / "model.json": json.dumps(bundle, indent=2), out / "train_report.csv": report.to_csv()}
    name = experiment.model_display_name(config.propagator_kind, gcn.n_conv_stages(config.hidden_dims))
    val_acc = report.val_acc[report.best_epoch - 1]
    return outputs, f"trained {name} best epoch {report.best_epoch}, val acc {val_acc:.4f}"


def _bundle_stats(doc: dict, spec: FeatureSpec, model: gcn.GcnModel) -> ColumnStats:
    """The bundle's standardization stats; they and the model must take one value per feature of ``spec``."""
    stats = ColumnStats(**{k: np.array(v, dtype=np.float64) for k, v in doc.items()})
    width = len(spec.names)
    if not len(stats.mean) == len(stats.std) == width:
        raise ValueError(f"standardization stats do not match the feature spec's {width} features")
    if model.layer_dims[0] != width:
        raise ValueError(f"the model takes {model.layer_dims[0]} features, but the feature spec names {width}")
    return stats


def _cmd_predict(args) -> tuple[dict, str]:
    bundle = _load(args.model_file, "model bundle", BUNDLE_TYPES, required=True)
    if bundle["schema_version"] != BUNDLE_SCHEMA_VERSION:
        raise ValueError(f"unsupported model bundle schema: {bundle['schema_version']}")
    _check(bundle["model"], "model", args.model_file, MODEL_TYPES, required=True)
    _check(bundle["model"]["config"], "model config", args.model_file, MODEL_CONFIG_TYPES, required=True)
    model = _made("model bundle", args.model_file, gcn.model_from_dict, bundle["model"])
    features = bundle["feature_spec"]["features"]
    spec = _made("model bundle", args.model_file, FeatureSpec, list(features), dict(features))
    stats = _made("model bundle", args.model_file, _bundle_stats, bundle["standardization"], spec, model)
    records = _records(args, spec, league_seasons={(args.league, args.season)})
    g = experiment.league_graph_for(records, args.league, args.season, spec, bundle["mode"], model.conv_stages, stats)
    probs = gcn.predict(model, g)
    table = io.StringIO()
    writer = csv.writer(table, lineterminator="\n")
    writer.writerow(["team", "game_id", "team_game_index", "p_win"])
    writer.writerows([team, game_id, idx, repr(float(p))] for (team, game_id, idx), p in zip(g.nodes, probs))
    pred_path = Path(args.out) / "predictions.csv"
    return {pred_path: table.getvalue()}, f"wrote {len(probs)} predictions to {pred_path}"


def _cmd_grid_search(args) -> tuple[dict, str]:
    plan = _plan(args)
    doc = _config(args)
    grid = doc.get("grid")
    if grid is not None:
        _check(grid, "config", args.config, GCN_GRID_TYPES, required=True)
    config = _train_config(args, doc)
    # Building the cells checks every setting in the grid before the CSV is read.
    _made("config", args.config, experiment.gcn_grid_cells, grid or experiment.default_gcn_grid(), config)
    spec = _feature_spec(args, doc)
    records = _records(args, spec, league_seasons=_plan_seasons(plan))
    report = experiment.grid_search_gcn(records, plan, grid, config, spec)
    winner = [r for r in report.rows if r.note == "winner"][0]
    summary = f"winner: {winner.model} + {winner.dataset}, test acc {winner.test_accuracy:.4f}"
    return _report_outputs(args, report, "grid_report"), summary


def _cmd_baseline_scope(args) -> tuple[dict, str]:
    records = _records(args, league_seasons={(args.league, s) for s in experiment.scope_seasons(args.season)})
    grid = _config(args, SCOPE_GRID_TYPES) if args.config else None
    spans = experiment.scope_spans(records, args.league, args.season)
    result = sc.scope_protocol(spans[0], spans[1], spans[2], grid)
    rows = [",".join(str(getattr(cfg, f)) for f in sc.GRID_FIELDS) + f",{acc!r}" for cfg, acc in result.table]
    best = {
        "best_config": asdict(result.best_config),
        "validation_accuracy": result.validation_accuracy,
        "test_accuracy": result.test_accuracy,
    }
    out = Path(args.out)
    outputs = {
        out / "scope_grid.csv": "\n".join([",".join(sc.GRID_FIELDS) + ",val_accuracy", *rows]) + "\n",
        out / "scope_best.json": json.dumps(best, indent=2),
    }
    return outputs, f"scope test accuracy {result.test_accuracy:.4f} over {len(result.table)} configs"


def _cmd_baseline_forest(args) -> tuple[dict, str]:
    plan = _plan(args)
    if args.lookback < 1:
        raise ValueError(f"--lookback must be >= 1, got {args.lookback}")
    records = _records(args, league_seasons={(plan.train_league, plan.season), (plan.test_league, plan.season)})
    row = experiment.random_forest_row(
        records, plan, lookback=args.lookback, mode=args.mode or "delta"
    )
    report = experiment.ExperimentReport(rows=[row])
    if row.test_accuracy is None:
        summary = f"forest baseline skipped: {row.note}"
    else:
        summary = f"forest accuracy {row.test_accuracy:.4f} +/- {row.std:.4f}"
    return _report_outputs(args, report, "forest_report"), summary


def _cmd_compare(args) -> tuple[dict, str]:
    plan = _plan(args)
    doc = _config(args)
    spec = _feature_spec(args, doc)
    scope = {(plan.test_league, s) for s in experiment.scope_seasons(plan.season)}  # the SCOPE row's seasons
    records = _records(args, spec, league_seasons=_plan_seasons(plan) | scope)
    report = experiment.compare_all(records, plan, _train_config(args, doc), spec=spec)
    accs = ["skipped" if row.test_accuracy is None else f"{row.test_accuracy:.4f}" for row in report.rows]
    summary = "\n".join(f"{row.model} + {row.dataset}: {acc}" for row, acc in zip(report.rows, accs))
    return _report_outputs(args, report, "compare_report"), summary


def _report_outputs(args, report: experiment.ExperimentReport, stem: str) -> dict[Path, str]:
    out = Path(args.out)
    return {out / f"{stem}.csv": report.to_csv(), out / f"{stem}.json": report.to_json()}


# Each command: its handler, its help and exactly the options the handler reads.
COMMANDS = {
    "simulate": (_cmd_simulate, "generate a synthetic season CSV", ["config", "seed", "out"]),
    "ingest": (_cmd_ingest, "validate a match log, emit a quality report", ["data", "config", "out"]),
    "build-graph": (
        _cmd_build_graph,
        "build and serialize a league graph",
        ["data", "config", "mode", "layers", "league", "season", "out"],
    ),
    "train": (
        _cmd_train,
        "train a model on the plan's leagues",
        ["data", "plan", "config", "seed", "mode", "model", "layers", "degree", "out"],
    ),
    "predict": (_cmd_predict, "score a league with a trained model", ["data", "model-file", "league", "season", "out"]),
    "grid-search": (
        _cmd_grid_search,
        "hyperparameter search for the GCN",
        ["data", "plan", "config", "seed", "degree", "out"],
    ),
    "baseline-scope": (
        _cmd_baseline_scope,
        "Elo grid search and test accuracy",
        ["data", "config", "league", "season", "out"],
    ),
    "baseline-forest": (
        _cmd_baseline_forest,
        "lookback random-forest baseline",
        ["data", "plan", "mode", "lookback", "out"],
    ),
    "compare": (_cmd_compare, "full comparison table", ["data", "plan", "config", "seed", "out"]),
}


if __name__ == "__main__":
    main()
