import hashlib
import json

import pytest

from leaguewin.cli import cli_main


@pytest.fixture
def season_csv(tmp_path):
    config = tmp_path / "synth.json"
    config.write_text(
        json.dumps(
            {
                "n_teams": 6,
                "games_per_pair": 2,
                "seasons": 3,
                "first_season": 2018,
                "latent_skill_std": 1.5,
                "seed": 11,
                "leagues": ["AAA", "BBB", "CCC"],
            }
        )
    )
    out = tmp_path / "season.csv"
    assert cli_main(["simulate", "--config", str(config), "--out", str(out)]) == 0
    return out


@pytest.fixture
def plan_json(tmp_path):
    path = tmp_path / "plan.json"
    path.write_text(
        json.dumps({"train_league": "AAA", "val_league": "BBB", "test_league": "CCC", "season": 2020})
    )
    return path


def test_unknown_flag_exits_2(capsys):
    assert cli_main(["simulate", "--bogus"]) == 2
    assert "usage" in capsys.readouterr().err


def test_unknown_subcommand_exits_2():
    assert cli_main(["frobnicate"]) == 2


def test_missing_data_file_exits_1(tmp_path, plan_json, capsys):
    code = cli_main(["train", "--data", str(tmp_path / "nope.csv"), "--plan", str(plan_json), "--out", str(tmp_path / "o")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_bad_league_exits_1(season_csv, tmp_path, capsys):
    plan = tmp_path / "badplan.json"
    plan.write_text(json.dumps({"train_league": "AAA", "val_league": "BBB", "test_league": "ZZZ", "season": 2020}))
    code = cli_main(["train", "--data", str(season_csv), "--plan", str(plan), "--out", str(tmp_path / "o")])
    assert code == 1
    assert "ZZZ" in capsys.readouterr().err


def test_build_graph_absent_league_exits_1_and_writes_nothing(season_csv, tmp_path, capsys):
    out = tmp_path / "graph_out"
    code = cli_main(["build-graph", "--data", str(season_csv), "--league", "ZZZ", "--season", "2020", "--out", str(out)])
    assert code == 1
    assert "error: league 'ZZZ' has no regular-season games for 2020" in capsys.readouterr().err
    assert not out.exists()


def test_predict_absent_league_exits_1(season_csv, plan_json, tmp_path, capsys):
    train_out = tmp_path / "train_out"
    assert cli_main(["train", "--data", str(season_csv), "--plan", str(plan_json), "--out", str(train_out)]) == 0
    capsys.readouterr()
    pred_out = tmp_path / "pred_out"
    code = cli_main(
        ["predict", "--data", str(season_csv), "--model-file", str(train_out / "model.json"),
         "--league", "ZZZ", "--season", "2020", "--out", str(pred_out)]
    )
    assert code == 1
    assert "error: league 'ZZZ' has no regular-season games for 2020" in capsys.readouterr().err
    assert not pred_out.exists()


def test_predict_bundle_with_unknown_mode_exits_1(season_csv, plan_json, tmp_path, capsys):
    train_out = tmp_path / "train_out"
    assert cli_main(["train", "--data", str(season_csv), "--plan", str(plan_json), "--out", str(train_out)]) == 0
    bundle = json.loads((train_out / "model.json").read_text())
    bundle["mode"] = "bogus"
    (train_out / "model.json").write_text(json.dumps(bundle))
    capsys.readouterr()
    pred_out = tmp_path / "pred_out"
    code = cli_main(
        ["predict", "--data", str(season_csv), "--model-file", str(train_out / "model.json"),
         "--league", "CCC", "--season", "2020", "--out", str(pred_out)]
    )
    assert code == 1
    assert "error: mode must be 'raw' or 'delta', got 'bogus'" in capsys.readouterr().err
    assert not pred_out.exists()


def test_baseline_forest_absent_league_exits_1(season_csv, tmp_path, capsys):
    plan = tmp_path / "absent_plan.json"
    plan.write_text(json.dumps({"train_league": "AAA", "val_league": "BBB", "test_league": "ZZZ", "season": 2020}))
    out = tmp_path / "forest_out"
    code = cli_main(["baseline-forest", "--data", str(season_csv), "--plan", str(plan), "--out", str(out)])
    assert code == 1
    assert "error: league 'ZZZ' has no regular-season games for 2020" in capsys.readouterr().err
    assert not out.exists()


def test_baseline_forest_short_history_is_skipped(season_csv, plan_json, tmp_path):
    # Every team plays 10 games a season, so a lookback of 10 leaves no rows.
    out = tmp_path / "forest_out"
    code = cli_main(
        ["baseline-forest", "--data", str(season_csv), "--plan", str(plan_json), "--lookback", "10", "--out", str(out)]
    )
    assert code == 0
    (row,) = json.loads((out / "forest_report.json").read_text())
    assert row["test_accuracy"] is None
    assert row["note"] == "skipped: not enough game history"


def test_simulate_unknown_config_key_exits_1(tmp_path, capsys):
    config = tmp_path / "synth.json"
    config.write_text(json.dumps({"n_teams": 4, "bogus": 1}))
    out = tmp_path / "season.csv"
    assert cli_main(["simulate", "--config", str(config), "--out", str(out)]) == 1
    assert "error: unknown synth config keys: ['bogus']" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, doc, key",
    [
        (["train", "--plan", "{plan}"], {"dropuot": 0.0, "max_epochs": 2}, "dropuot"),
        (["build-graph", "--league", "AAA", "--season", "2020"], {"mode": "delta"}, "mode"),
    ],
    ids=["train-typo", "build-graph-mode"],
)
def test_config_key_nothing_reads_exits_1(argv, doc, key, season_csv, plan_json, tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(doc))
    out = tmp_path / "o"
    argv = [a.format(plan=plan_json) for a in argv]
    assert cli_main([*argv, "--data", str(season_csv), "--config", str(config), "--out", str(out)]) == 1
    assert f"unknown config keys in {config}: [{key!r}]" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, doc, key",
    [
        (["ingest"], {"features": 3}, "features"),
        (["train", "--plan", "{plan}"], {"hidden_dims": "ab"}, "hidden_dims"),
    ],
    ids=["ingest-features-int", "train-hidden-dims-str"],
)
def test_config_value_of_wrong_type_exits_1(argv, doc, key, season_csv, plan_json, tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(doc))
    out = tmp_path / "o"
    argv = [a.format(plan=plan_json) for a in argv]
    assert cli_main([*argv, "--data", str(season_csv), "--config", str(config), "--out", str(out)]) == 1
    assert f"error: config key {key!r} in {config} must be" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("width", [0, -4])
def test_train_hidden_width_below_one_exits_1(width, season_csv, plan_json, tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"hidden_dims": [width], "max_epochs": 3}))
    out = tmp_path / "o"
    argv = ["train", "--plan", str(plan_json), "--data", str(season_csv), "--config", str(config), "--out", str(out)]
    assert cli_main(argv) == 1
    assert f"error: hidden_dims entries must be >= 1, got [{width}]" in capsys.readouterr().err
    assert not out.exists()


def test_config_types_cover_every_train_config_field():
    from leaguewin import cli, gcn

    assert set(cli.CONFIG_TYPES) == {"features", "grid", *gcn.TrainConfig.__dataclass_fields__}


@pytest.mark.parametrize("command", ["grid-search", "compare"])
def test_config_features_reach_grid_search_and_compare(command, season_csv, plan_json, tmp_path, capsys):
    # A feature column the CSV lacks fails the parse, so the config's feature set was read.
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"features": {"no_such_column": "objectives"}}))
    argv = [command, "--data", str(season_csv), "--plan", str(plan_json), "--config", str(config)]
    assert cli_main([*argv, "--out", str(tmp_path / "o")]) == 1
    assert "missing required columns: ['no_such_column']" in capsys.readouterr().err


def test_simulate_config_leagues_and_seed_flag(tmp_path):
    config = tmp_path / "synth.json"
    config.write_text(json.dumps({"n_teams": 4, "seed": 1, "leagues": ["AAA", "BBB"]}))
    texts = []
    for seed in ("1", "1", "2"):
        out = tmp_path / f"s{len(texts)}" / "season.csv"
        assert cli_main(["simulate", "--config", str(config), "--seed", seed, "--out", str(out)]) == 0
        texts.append(out.read_text())
    assert {line.split(",")[1] for line in texts[0].splitlines()[1:]} == {"AAA", "BBB"}
    assert texts[0] == texts[1] != texts[2]


def test_simulate_writes_manifest_with_hashes(season_csv, tmp_path):
    manifest = json.loads((season_csv.parent / "manifest.json").read_text())
    assert manifest["command"] == "simulate"
    assert manifest["outputs"] == ["season.csv"]
    assert manifest["argv"][0] == "simulate"  # enough to replay the run
    config_path = next(iter(manifest["inputs"]))
    digest = hashlib.sha256((tmp_path / "synth.json").read_bytes()).hexdigest()
    assert manifest["inputs"][config_path] == digest


def test_ingest_outputs(season_csv, tmp_path):
    out = tmp_path / "ingest_out"
    assert cli_main(["ingest", "--data", str(season_csv), "--out", str(out)]) == 0
    report = json.loads((out / "quality_report.json").read_text())
    assert report["row_errors"] == []
    assert report["records_parsed"] > 0
    assert (out / "records.csv").exists() and (out / "manifest.json").exists()


def test_ingest_reports_blank_feature_cells(season_csv, tmp_path):
    lines = season_csv.read_text().splitlines()
    header = lines[0].split(",")
    gold, vision = header.index("total_gold"), header.index("vision_score")
    rows = [line.split(",") for line in lines[1:]]
    rows[3][gold] = ""
    for row in rows:
        row[vision] = ""
    data = tmp_path / "blanks.csv"
    data.write_text("\n".join(",".join(r) for r in [header, *rows]) + "\n")
    out = tmp_path / "ingest_out"
    assert cli_main(["ingest", "--data", str(data), "--out", str(out)]) == 0
    report = json.loads((out / "quality_report.json").read_text())
    assert report["imputed"] == {"total_gold": 1, "vision_score": len(rows)}
    assert report["warnings"] == ["column 'vision_score' has no observed values; imputed 0"]


def test_out_directory_with_a_dot_is_written_into(season_csv, tmp_path):
    runs = tmp_path / "runs"
    assert cli_main(["ingest", "--data", str(season_csv), "--out", str(runs / "ingest.v1")]) == 0
    assert cli_main(
        ["build-graph", "--data", str(season_csv), "--league", "AAA", "--season", "2020",
         "--out", str(runs / "graph.v2")]
    ) == 0
    assert sorted(p.name for p in runs.iterdir()) == ["graph.v2", "ingest.v1"]
    assert json.loads((runs / "ingest.v1" / "manifest.json").read_text())["command"] == "ingest"
    assert json.loads((runs / "graph.v2" / "manifest.json").read_text())["command"] == "build-graph"


def test_build_graph_outputs(season_csv, tmp_path):
    out = tmp_path / "graph_out"
    code = cli_main(
        ["build-graph", "--data", str(season_csv), "--league", "AAA", "--season", "2020",
         "--mode", "delta", "--layers", "1", "--out", str(out)]
    )
    assert code == 0
    doc = json.loads((out / "graph.json").read_text())
    assert doc["schema_version"] == 1
    assert len(doc["nodes"]) == 60  # 6 teams, double round robin
    for line in (out / "edges.txt").read_text().splitlines():
        u, v = line.split(" ")
        assert int(u) < int(v)


def test_train_predict_round_trip(season_csv, plan_json, tmp_path):
    train_out = tmp_path / "train_out"
    code = cli_main(
        ["train", "--data", str(season_csv), "--plan", str(plan_json), "--model", "gcn-cheby",
         "--layers", "1", "--seed", "5", "--out", str(train_out)]
    )
    assert code == 0
    bundle = json.loads((train_out / "model.json").read_text())
    assert bundle["model"]["schema_version"] == 1
    assert bundle["mode"] == "delta"
    report_lines = (train_out / "train_report.csv").read_text().splitlines()
    assert report_lines[0] == "epoch,train_loss,train_acc,val_loss,val_acc"
    assert len(report_lines) > 1

    pred_out = tmp_path / "pred_out"
    code = cli_main(
        ["predict", "--data", str(season_csv), "--model-file", str(train_out / "model.json"),
         "--league", "CCC", "--season", "2020", "--out", str(pred_out)]
    )
    assert code == 0
    lines = (pred_out / "predictions.csv").read_text().splitlines()
    assert lines[0] == "team,game_id,team_game_index,p_win"
    assert len(lines) == 61
    probs = [float(line.rsplit(",", 1)[1]) for line in lines[1:]]
    assert all(0.0 <= p <= 1.0 for p in probs)


def test_train_is_byte_deterministic(season_csv, plan_json, tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code = cli_main(
            ["train", "--data", str(season_csv), "--plan", str(plan_json), "--seed", "9", "--out", str(out)]
        )
        assert code == 0
        outs.append(out)
    assert (outs[0] / "model.json").read_bytes() == (outs[1] / "model.json").read_bytes()
    assert (outs[0] / "train_report.csv").read_bytes() == (outs[1] / "train_report.csv").read_bytes()


def test_baseline_scope_cli(season_csv, tmp_path):
    grid = tmp_path / "grid.json"
    grid.write_text(
        json.dumps({"base_k": [20, 40], "cutoff": [1700], "reduction": [0.3], "mov_func": ["none", "lin"], "w90": [100], "regression": [0, 0.4]})
    )
    out = tmp_path / "scope_out"
    code = cli_main(
        ["baseline-scope", "--data", str(season_csv), "--league", "CCC", "--season", "2020",
         "--config", str(grid), "--out", str(out)]
    )
    assert code == 0
    table = (out / "scope_grid.csv").read_text().splitlines()
    assert table[0] == "base_k,cutoff,reduction,mov_func,w90,regression,val_accuracy"
    assert len(table) == 9
    best = json.loads((out / "scope_best.json").read_text())
    assert 0.0 <= best["test_accuracy"] <= 1.0


def test_baseline_scope_cli_reruns_are_byte_identical(season_csv, tmp_path):
    outs = []
    for name in ("s1", "s2"):
        out = tmp_path / name
        code = cli_main(["baseline-scope", "--data", str(season_csv), "--league", "CCC", "--season", "2020", "--out", str(out)])
        assert code == 0
        outs.append(out)
    assert len((outs[0] / "scope_grid.csv").read_text().splitlines()) == 12001  # the default lattice
    for name in ("scope_grid.csv", "scope_best.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_baseline_forest_cli(season_csv, plan_json, tmp_path):
    out = tmp_path / "forest_out"
    code = cli_main(
        ["baseline-forest", "--data", str(season_csv), "--plan", str(plan_json),
         "--lookback", "3", "--out", str(out)]
    )
    assert code == 0
    doc = json.loads((out / "forest_report.json").read_text())
    assert doc[0]["model"] == "random forest (lookback=3)"


def test_grid_search_cli(season_csv, plan_json, tmp_path):
    cfg = tmp_path / "grid.json"
    cfg.write_text(
        json.dumps({"grid": {"hidden1": [8], "hidden2": [None], "dropout": [0.1], "model": ["gcn"], "dataset": ["delta"]}})
    )
    out = tmp_path / "gs_out"
    code = cli_main(
        ["grid-search", "--data", str(season_csv), "--plan", str(plan_json), "--config", str(cfg),
         "--seed", "1", "--out", str(out)]
    )
    assert code == 0
    rows = json.loads((out / "grid_report.json").read_text())
    assert len(rows) == 1 and rows[0]["note"] == "winner"


def test_compare_cli_smoke_and_determinism(season_csv, plan_json, tmp_path):
    outs = []
    for name in ("c1", "c2"):
        out = tmp_path / name
        code = cli_main(
            ["compare", "--data", str(season_csv), "--plan", str(plan_json), "--seed", "3", "--out", str(out)]
        )
        assert code == 0
        outs.append(out)
    report = json.loads((outs[0] / "compare_report.json").read_text())
    assert len(report) == 6
    assert (outs[0] / "compare_report.csv").read_bytes() == (outs[1] / "compare_report.csv").read_bytes()
    assert (outs[0] / "compare_report.json").read_bytes() == (outs[1] / "compare_report.json").read_bytes()


@pytest.mark.parametrize(
    "argv",
    [
        ["compare", "--data", "{csv}", "--plan", "{plan}", "--model", "gcn", "--out", "{out}"],
        ["predict", "--data", "{csv}", "--model-file", "{model}", "--league", "CCC", "--season", "2020",
         "--seed", "1", "--out", "{out}"],
        ["baseline-forest", "--data", "{csv}", "--plan", "{plan}", "--config", "c.json", "--out", "{out}"],
        ["grid-search", "--data", "{csv}", "--plan", "{plan}", "--threads", "2", "--out", "{out}"],
        ["ingest", "--data", "{csv}", "--mode", "delta", "--out", "{out}"],
    ],
    ids=["compare-model", "predict-seed", "forest-config", "grid-threads", "ingest-mode"],
)
def test_flag_a_command_does_not_read_exits_2(argv, season_csv, plan_json, tmp_path, capsys):
    paths = {"csv": season_csv, "plan": plan_json, "model": tmp_path / "model.json", "out": tmp_path / "o"}
    assert cli_main([a.format(**paths) for a in argv]) == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["train", "--data", "d.csv", "--plan", "p.json", "--layers", "0", "--out", "o"],
        ["train", "--data", "d.csv", "--plan", "p.json", "--layers", "-1", "--out", "o"],
        ["build-graph", "--data", "d.csv", "--league", "AAA", "--season", "2020", "--layers", "0", "--out", "o"],
    ],
    ids=["train-0", "train-minus-1", "build-graph-0"],
)
def test_layers_below_one_exits_2(argv, capsys):
    assert cli_main(argv) == 2
    assert "--layers" in capsys.readouterr().err


def test_one_config_reaches_train_grid_search_and_compare(season_csv, plan_json, tmp_path):
    cfg = tmp_path / "cfg.json"
    # "grid" is read by grid-search only; the TrainConfig fields go to all three commands.
    cfg.write_text(
        json.dumps(
            {"dropout": 0.1, "chebyshev_degree": 2, "max_epochs": 3,
             "grid": {"hidden1": [8], "hidden2": [None], "dropout": [0.25], "model": ["gcn-cheby"], "dataset": ["delta"]}}
        )
    )
    common = ["--data", str(season_csv), "--plan", str(plan_json), "--config", str(cfg), "--seed", "4"]
    assert cli_main(["train", *common, "--model", "gcn-cheby", "--out", str(tmp_path / "t")]) == 0
    assert cli_main(["grid-search", *common, "--out", str(tmp_path / "g")]) == 0
    assert cli_main(["compare", *common, "--out", str(tmp_path / "c")]) == 0

    model = json.loads((tmp_path / "t" / "model.json").read_text())["model"]["config"]
    assert (model["dropout"], model["chebyshev_degree"], model["rng_seed"]) == (0.1, 2, 4)
    epochs = (tmp_path / "t" / "train_report.csv").read_text().splitlines()[1:]
    assert 1 <= len(epochs) <= 3

    grid_rows = json.loads((tmp_path / "g" / "grid_report.json").read_text())
    assert [(r["params"]["dropout"], r["params"]["chebyshev_degree"], r["params"]["seed"]) for r in grid_rows] == [
        (0.25, 2, 4)
    ]

    gcn_rows = [r for r in json.loads((tmp_path / "c" / "compare_report.json").read_text()) if r["model"].startswith("gcn")]
    assert len(gcn_rows) == 4
    for row in gcn_rows:
        assert (row["params"]["dropout"], row["params"]["chebyshev_degree"], row["params"]["seed"]) == (0.1, 2, 4)
