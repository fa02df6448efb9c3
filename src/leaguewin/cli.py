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
from .ingest import FeatureSpec, MatchLogError, QualityReport, filter_regular_season, parse_match_csv, standardize, build_feature_matrix, ColumnStats

BUNDLE_SCHEMA_VERSION = 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="leaguewin", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *, data=False, plan=False):
        if data:
            p.add_argument("--data", required=True, help="match-log CSV")
        if plan:
            p.add_argument("--plan", required=True, help="split-plan JSON")
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--seed", type=int, help="RNG seed (overrides config)")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--threads", type=int, default=1, help="GCN grid-search worker threads")
        p.add_argument("--mode", choices=["raw", "delta"], help="feature dataset mode")
        p.add_argument("--model", choices=["gcn", "gcn-cheby"], help="propagation variant")
        p.add_argument("--layers", type=int, help="graph-convolution layer count")
        p.add_argument("--degree", type=int, help="Chebyshev degree")
        return p

    common(sub.add_parser("simulate", help="generate a synthetic season CSV"))
    common(sub.add_parser("ingest", help="validate a match log, emit a quality report"), data=True)
    p = common(sub.add_parser("build-graph", help="build and serialize a league graph"), data=True)
    p.add_argument("--league", required=True)
    p.add_argument("--season", type=int, required=True)
    common(sub.add_parser("train", help="train a model on the plan's leagues"), data=True, plan=True)
    p = common(sub.add_parser("predict", help="score a league with a trained model"), data=True)
    p.add_argument("--model-file", required=True, help="model bundle from train")
    p.add_argument("--league", required=True)
    p.add_argument("--season", type=int, required=True)
    common(sub.add_parser("grid-search", help="hyperparameter search for the GCN"), data=True, plan=True)
    p = common(sub.add_parser("baseline-scope", help="Elo grid search and test accuracy"), data=True)
    p.add_argument("--league", required=True)
    p.add_argument("--season", type=int, required=True, help="test season (the two before it initialize/validate)")
    p = common(sub.add_parser("baseline-forest", help="lookback random-forest baseline"), data=True, plan=True)
    p.add_argument("--lookback", type=int, default=5)
    common(sub.add_parser("compare", help="full comparison table"), data=True, plan=True)
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
    out = Path(args.out)
    if out.suffix:  # a file path: outputs land next to it
        out.parent.mkdir(parents=True, exist_ok=True)
        return out.parent
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


def _feature_spec(args, mode: str | None = None) -> FeatureSpec:
    mode = mode or args.mode or "raw"
    if args.config:
        doc = _load_json(args.config)
        if "features" in doc:
            spec = FeatureSpec.from_json(json.dumps(doc))
            return FeatureSpec(spec.names, spec.categories, mode)
    return FeatureSpec.default(mode)


def _records(args, spec: FeatureSpec | None = None, report: QualityReport | None = None):
    return parse_match_csv(Path(args.data).read_bytes(), spec, report)


def _cmd_simulate(args) -> None:
    doc = _load_json(args.config) if args.config else {}
    leagues = doc.pop("leagues", None)
    if args.seed is not None:
        doc["seed"] = args.seed
    config = synth.SynthConfig(**doc)
    records = synth.generate_leagues(config, leagues) if leagues else synth.generate_league(config)
    out = Path(args.out)
    out_dir = _out_dir(args)
    csv_path = out if out.suffix == ".csv" else out_dir / "season.csv"
    _write_atomic(csv_path, synth.emit_csv(records))
    _write_manifest(args, out_dir, [csv_path])
    print(f"wrote {len(records)} records ({len(records) // 2} games) to {csv_path}")


def _cmd_ingest(args) -> None:
    spec = _feature_spec(args)
    report = QualityReport()
    records = _records(args, spec, report)
    out_dir = _out_dir(args)
    report_path = out_dir / "quality_report.json"
    records_path = out_dir / "records.csv"
    _write_atomic(report_path, report.to_json())
    _write_atomic(records_path, synth.emit_csv(records, spec))
    _write_manifest(args, out_dir, [report_path, records_path])
    print(f"parsed {len(records)} records; {len(report.row_errors)} row errors")


def _cmd_build_graph(args) -> None:
    spec = _feature_spec(args)
    records = filter_regular_season(_records(args, spec), args.league, args.season)
    matrix = build_feature_matrix(records, spec)
    g = lg.build_league_graph(records, features=matrix)
    g = lg.assign_labels(g, args.layers or 1)
    out_dir = _out_dir(args)
    graph_path = out_dir / "graph.json"
    edges_path = out_dir / "edges.txt"
    _write_atomic(graph_path, lg.graph_to_json(g))
    _write_atomic(edges_path, lg.edge_list_text(g))
    _write_manifest(args, out_dir, [graph_path, edges_path])
    print(f"graph: {g.n_nodes} nodes, {len(g.edges)} edges, {int(g.label_mask.sum())} labeled")


def _train_config(args) -> gcn.TrainConfig:
    doc = _load_json(args.config) if args.config else {}
    doc = {k: v for k, v in doc.items() if k in gcn.TrainConfig.__dataclass_fields__}
    config = gcn.TrainConfig(**doc)
    if args.model:
        config = replace(config, propagator_kind=gcn.MODEL_KINDS[args.model])
    if args.layers:
        hidden = config.hidden_dims or [64]
        config = replace(config, hidden_dims=[hidden[0]] * args.layers)
    if args.degree is not None:
        config = replace(config, chebyshev_degree=args.degree)
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    return config


def _cmd_train(args) -> None:
    mode = args.mode or "delta"
    config = _train_config(args)
    spec = _feature_spec(args, mode)
    plan = experiment.SplitPlan.from_json(Path(args.plan).read_text("utf-8"))
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
    spec = FeatureSpec(
        list(bundle["feature_spec"]["features"]),
        dict(bundle["feature_spec"]["features"]),
        bundle["mode"],
    )
    stats = ColumnStats(
        mean=np.array(bundle["standardization"]["mean"], dtype=np.float64),
        std=np.array(bundle["standardization"]["std"], dtype=np.float64),
    )
    records = filter_regular_season(_records(args, spec), args.league, args.season)
    if not records:
        raise ValueError(f"no games for {args.league} {args.season}")
    matrix = standardize(build_feature_matrix(records, spec), stats)
    g = lg.build_league_graph(records, features=matrix)
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
    plan = experiment.SplitPlan.from_json(Path(args.plan).read_text("utf-8"))
    records = _records(args)
    grid = None
    base = gcn.TrainConfig()
    if args.config:
        doc = _load_json(args.config)
        grid = doc.get("grid") or None
        base_doc = {k: v for k, v in doc.items() if k in gcn.TrainConfig.__dataclass_fields__}
        if base_doc:
            base = gcn.TrainConfig(**base_doc)
    if args.seed is not None:
        base = replace(base, seed=args.seed)
    if args.degree is not None:
        base = replace(base, chebyshev_degree=args.degree)
    report = experiment.grid_search_gcn(records, plan, grid, base, threads=args.threads)
    _write_report(args, report, "grid_report")
    winner = [r for r in report.rows if r.note == "winner"][0]
    print(f"winner: {winner.model} + {winner.dataset}, test acc {winner.test_accuracy:.4f}")


def _cmd_baseline_scope(args) -> None:
    records = _records(args)
    grid = sc.grid_from_json(Path(args.config).read_text("utf-8")) if args.config else None
    spans = []
    for season in (args.season - 2, args.season - 1, args.season):
        recs = filter_regular_season(records, args.league, season)
        if not recs:
            raise ValueError(f"no {args.league} games for season {season}")
        spans.append(sc.games_from_records(recs))
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
    plan = experiment.SplitPlan.from_json(Path(args.plan).read_text("utf-8"))
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
    plan = experiment.SplitPlan.from_json(Path(args.plan).read_text("utf-8"))
    records = _records(args)
    config = gcn.TrainConfig()
    if args.config:
        doc = _load_json(args.config)
        doc = {k: v for k, v in doc.items() if k in gcn.TrainConfig.__dataclass_fields__}
        config = gcn.TrainConfig(**doc)
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    report = experiment.compare_all(records, plan, config)
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
