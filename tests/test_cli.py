import csv
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

from leaguewin import cli
from leaguewin.cli import COMMANDS, cli_main


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


def assert_pinned(out, digests):
    """Each named file under ``out`` has its pinned sha256.  Trained weights
    depend on the BLAS kernel, so the pins hold for the numpy and BLAS they
    were taken with."""
    got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in digests}
    env = cli._environment()
    assert got == digests, (
        "pinned with numpy 2.4.6 and scipy-openblas 0.3.31.188.0; this run has "
        f"numpy {env['numpy']} and {env['blas']['name']} {env['blas']['version']}"
    )


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


@pytest.mark.parametrize(
    "line, damage, message",
    [
        (3, lambda b: b.replace(b",", b",\r", 1), "line 3: new-line character seen in unquoted field"),
        (4, lambda b: b.replace(b"AAA", b"A\xffA", 1), "line 4: 'utf-8' codec can't decode byte 0xff"),
    ],
    ids=["lone-cr", "bad-utf8"],
)
def test_malformed_csv_line_exits_1_naming_it(line, damage, message, season_csv, tmp_path, capsys):
    lines = season_csv.read_bytes().split(b"\n")
    lines[line - 1] = damage(lines[line - 1])
    season_csv.write_bytes(b"\n".join(lines))
    out = tmp_path / "o"
    assert cli_main(["ingest", "--data", str(season_csv), "--out", str(out)]) == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_pair_disagreeing_on_regular_season_exits_1(season_csv, tmp_path, capsys):
    lines = season_csv.read_text().splitlines()
    flag = lines[0].split(",").index("is_regular_season")
    n = next(i for i, line in enumerate(lines) if line.startswith("AAA-2020-"))
    row = lines[n].split(",")
    row[flag] = "0"  # its other row still says 1
    lines[n] = ",".join(row)
    season_csv.write_text("\n".join(lines) + "\n")
    out = tmp_path / "o"
    assert cli_main(["ingest", "--data", str(season_csv), "--out", str(out)]) == 1
    assert f"error: 1 game id(s) with inconsistent paired rows: {row[0]}" in capsys.readouterr().err
    assert not out.exists()


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
    assert f"error: unknown config keys in {config}: ['bogus']" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"leagues": "AAA"}, "config key 'leagues' in {config} must be a list of distinct non-empty strings"),
        ({"leagues": ["AAA", "AAA"]}, "config key 'leagues' in {config} must be a list of distinct"),
        ({"leagues": ["AAA", ""]}, "config key 'leagues' in {config} must be a list of distinct"),
        ({"n_teams": "ten"}, "config key 'n_teams' in {config} must be an integer, got \"ten\""),
        ({"latent_skill_std": True}, "config key 'latent_skill_std' in {config} must be a number"),
        ({"feature_signal_map": {"kills": "x"}}, "config key 'feature_signal_map' in {config} must be an object of name -> number"),
        ({"league": ""}, "config key 'league' in {config} must be a non-empty string, got \"\""),
        ([1], "config {config} must hold a JSON object"),
        ({"n_teams": 1}, "config {config}: n_teams must be >= 2"),
        ({"leagues": [" X"]}, "game ' X-2020-0000': league ' X' begins or ends with whitespace, which reading strips"),
    ],
    ids=[
        "leagues-string", "leagues-repeated", "leagues-empty-name", "n-teams-string", "std-bool", "signal-map-string",
        "league-empty", "list", "n-teams-one", "league-padded",
    ],
)
def test_simulate_bad_config_value_exits_1(doc, message, tmp_path, capsys):
    config = tmp_path / "synth.json"
    config.write_text(json.dumps(doc))
    out = tmp_path / "season.csv"
    assert cli_main(["simulate", "--config", str(config), "--out", str(out)]) == 1
    assert f"error: {message.format(config=config)}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"base_k": 5}, "config key 'base_k' in {grid} must be a list of numbers, got 5"),
        ({"base_k": ["a"]}, "config key 'base_k' in {grid} must be a list of numbers, got [\"a\"]"),
        ({"cutoff": [1700, False]}, "config key 'cutoff' in {grid} must be a list of numbers, got [1700, false]"),
        ({"mov_func": [1]}, "config key 'mov_func' in {grid} must be a list of strings, got [1]"),
        ([1], "config {grid} must hold a JSON object"),
    ],
    ids=["int", "string-entry", "bool-entry", "mov-func-number", "list"],
)
def test_baseline_scope_wrong_typed_grid_exits_1(doc, message, season_csv, tmp_path, capsys):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps(doc))
    out = tmp_path / "o"
    argv = ["baseline-scope", "--data", str(season_csv), "--league", "CCC", "--season", "2020"]
    assert cli_main([*argv, "--config", str(grid), "--out", str(out)]) == 1
    assert f"error: {message.format(grid=grid)}" in capsys.readouterr().err
    assert not out.exists()


_PLAN = {"train_league": "AAA", "val_league": "BBB", "test_league": "CCC", "season": 2020}


@pytest.mark.parametrize(
    "doc, message",
    [
        ([1], "plan {plan} must hold a JSON object"),
        ({"train_league": "AAA", "val_league": "BBB", "test_league": "CCC"}, "plan {plan} lacks keys ['season']"),
        (_PLAN | {"season": [2020]}, "plan key 'season' in {plan} must be an integer, got [2020]"),
        (_PLAN | {"season": 2020.9}, "plan key 'season' in {plan} must be an integer, got 2020.9"),
        (_PLAN | {"season": True}, "plan key 'season' in {plan} must be an integer, got true"),
        (_PLAN | {"train_league": 5}, "plan key 'train_league' in {plan} must be a non-empty string, got 5"),
        (_PLAN | {"test_league": ""}, "plan key 'test_league' in {plan} must be a non-empty string, got \"\""),
        (_PLAN | {"seson": 2021}, "unknown plan keys in {plan}: ['seson']"),
        (_PLAN | {"test_league": "AAA"}, "plan {plan}: plan needs three distinct leagues"),
    ],
    ids=[
        "list", "no-season", "season-list", "season-float", "season-bool", "league-int", "league-empty",
        "unknown-key", "repeated-league",
    ],
)
def test_bad_plan_file_exits_1_naming_it(doc, message, season_csv, tmp_path, capsys):
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps(doc))
    out = tmp_path / "o"
    assert cli_main(["baseline-forest", "--data", str(season_csv), "--plan", str(plan), "--out", str(out)]) == 1
    assert f"error: {message.format(plan=plan)}" in capsys.readouterr().err
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
    assert f"error: config {config}: hidden_dims entries must be >= 1, got [{width}]" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, doc, message",
    [
        (["train", "--plan", "{plan}"], {"dropout": 1.5}, "dropout must lie in [0, 1)"),
        (["train", "--plan", "{plan}"], {"features": {"towers": "objectivez"}}, "unknown categories: ['objectivez']"),
        (["ingest"], {"features": {"towers": "objectivez"}}, "unknown categories: ['objectivez']"),
    ],
    ids=["train-dropout", "train-category", "ingest-category"],
)
def test_config_value_out_of_range_exits_1_naming_the_file(argv, doc, message, season_csv, plan_json, tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(doc))
    out = tmp_path / "o"
    argv = [a.format(plan=plan_json) for a in argv]
    assert cli_main([*argv, "--data", str(season_csv), "--config", str(config), "--out", str(out)]) == 1
    assert f"error: config {config}: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "grid-search", "compare"])
def test_diverging_training_exits_1_and_writes_nothing(command, season_csv, plan_json, tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"learning_rate": 1e300, "max_epochs": 3}))
    out = tmp_path / "o"
    argv = [command, "--data", str(season_csv), "--plan", str(plan_json), "--config", str(config)]
    with np.errstate(over="ignore", invalid="ignore"):
        assert cli_main([*argv, "--out", str(out)]) == 1
    assert "error: training loss became non-finite at epoch 2" in capsys.readouterr().err
    assert not out.exists()


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


def test_simulate_and_ingest_load_no_sparse_matrices(tmp_path):
    # Only commands that build a graph import scipy.sparse, which pulls in
    # numpy.testing, numpy.f2py and numpy.ma through its array-API layer.
    config = tmp_path / "synth.json"
    config.write_text(json.dumps({"n_teams": 4}))
    code = f"""
import sys
from leaguewin.cli import cli_main
assert cli_main(["simulate", "--config", {str(config)!r}, "--out", {str(tmp_path / "season.csv")!r}]) == 0
assert cli_main(["ingest", "--data", {str(tmp_path / "season.csv")!r}, "--out", {str(tmp_path / "ingest")!r}]) == 0
loaded = sorted(m for m in ("scipy.sparse", "numpy.testing", "numpy.f2py", "numpy.ma") if m in sys.modules)
assert not loaded, loaded
"""
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


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


def test_infinite_feature_cells_are_row_errors(season_csv, plan_json, tmp_path, capsys):
    lines = season_csv.read_text().splitlines()
    header = lines[0].split(",")
    towers, gameid = header.index("towers"), header.index("gameid")
    rows = [line.split(",") for line in lines[1:]]
    game = rows[0][gameid]
    pair = [i for i, row in enumerate(rows) if row[gameid] == game]
    data = tmp_path / "infinite.csv"
    out = tmp_path / "o"

    # One side's row is dropped, so its game fails pairing before any training.
    rows[pair[0]][towers] = "inf"
    data.write_text("\n".join(",".join(r) for r in [header, *rows]) + "\n")
    for argv in (["ingest"], ["train", "--plan", str(plan_json)]):
        assert cli_main([*argv, "--data", str(data), "--out", str(out)]) == 1
        assert f"error: 1 game id(s) without exactly two rows: {game}" in capsys.readouterr().err
        assert not out.exists()

    rows[pair[1]][towers] = "-1e999"
    data.write_text("\n".join(",".join(r) for r in [header, *rows]) + "\n")
    assert cli_main(["ingest", "--data", str(data), "--out", str(out)]) == 0
    report = json.loads((out / "quality_report.json").read_text())
    assert report["row_errors"] == [
        [pair[0] + 2, "towers must be finite, got inf"],
        [pair[1] + 2, "towers must be finite, got -inf"],
    ]
    assert report["records_parsed"] == len(rows) - 2


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


def test_build_graph_output_bytes_are_pinned(season_csv, tmp_path):
    # One seeded league's nodes, edges, labels and features, byte for byte.
    out = tmp_path / "graph_out"
    code = cli_main(
        ["build-graph", "--data", str(season_csv), "--league", "AAA", "--season", "2020",
         "--mode", "delta", "--layers", "2", "--out", str(out)]
    )
    assert code == 0
    assert_pinned(out, {
        "graph.json": "5d48147c52920bb4f0c5d9200a607ac22a3de4baa08b4bd64bc9b0aeeebdfaa4",
        "edges.txt": "003501aff3029e80983e2c1ce6af5143a90c6a7401baa302fa7df31292436831",
    })


def test_simulate_and_ingest_csv_bytes_are_pinned(season_csv, tmp_path):
    # The seeded 3-league season CSV and ingest's records.csv, byte for byte.
    out = tmp_path / "ingest_out"
    assert cli_main(["ingest", "--data", str(season_csv), "--out", str(out)]) == 0
    digest = "c91abecc1ab0cb468f355844a77045e8b907728b65a73cc8b9081b73c08c749b"
    assert_pinned(season_csv.parent, {"season.csv": digest})
    assert_pinned(out, {"records.csv": digest})


def test_another_leagues_bad_rows_stop_only_ingest(season_csv, plan_json, tmp_path, capsys):
    # predict and build-graph read CCC alone: a bad row and an unpaired game
    # in BBB leave their outputs as they are, while ingest reads every row.
    train_out = tmp_path / "train_out"
    assert cli_main(["train", "--data", str(season_csv), "--plan", str(plan_json), "--out", str(train_out)]) == 0
    scored = {
        "predict": ["predict", "--model-file", str(train_out / "model.json"), "--league", "CCC", "--season", "2020"],
        "build-graph": ["build-graph", "--league", "CCC", "--season", "2020"],
    }

    def run(argv, data, out):
        code = cli_main([*argv, "--data", str(data), "--out", str(out)])
        return code, {p.name: p.read_bytes() for p in out.iterdir() if p.name != "manifest.json"} if code == 0 else None

    clean = {name: run(argv, season_csv, tmp_path / "clean" / name) for name, argv in scored.items()}
    lines = season_csv.read_text().splitlines()
    kills = lines[0].split(",").index("kills")
    bbb = sorted({line.split(",")[0] for line in lines[1:] if line.startswith("BBB-2020-")})
    bad_game, unpaired_game = bbb[0], bbb[1]
    bad_lines = [n for n, line in enumerate(lines, start=1) if line.startswith(f"{bad_game},")]
    for n in bad_lines:
        row = lines[n - 1].split(",")
        row[kills] = "bad"
        lines[n - 1] = ",".join(row)
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    assert cli_main(["ingest", "--data", str(bad), "--out", str(tmp_path / "ingest_bad")]) == 0
    report = json.loads((tmp_path / "ingest_bad" / "quality_report.json").read_text())
    assert report["row_errors"] == [[n, "invalid literal for int() with base 10: 'bad'"] for n in bad_lines]

    lines.remove(next(line for line in lines if line.startswith(f"{unpaired_game},")))
    broken = tmp_path / "broken.csv"
    broken.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert cli_main(["ingest", "--data", str(broken), "--out", str(tmp_path / "ingest_broken")]) == 1
    assert f"error: 1 game id(s) without exactly two rows: {unpaired_game}" in capsys.readouterr().err
    for name, argv in scored.items():
        assert run(argv, broken, tmp_path / "broken" / name) == clean[name]

    # A line of the league a command reads is still read in full, and named.
    data = broken.read_bytes().split(b"\n")
    n = next(n for n, line in enumerate(data, start=1) if line.startswith(b"CCC-2020-"))
    data[n - 1] = data[n - 1].replace(b"-T0", b"-T\xff", 1)
    unreadable = tmp_path / "unreadable.csv"
    unreadable.write_bytes(b"\n".join(data))
    for name, argv in scored.items():
        capsys.readouterr()
        assert run(argv, unreadable, tmp_path / "unreadable" / name) == (1, None)
        assert f"error: line {n}: 'utf-8' codec can't decode byte 0xff" in capsys.readouterr().err


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
    assert_pinned(train_out, {
        "model.json": "bb766f6c421171413b24d8006e280f2464eee0c1cac7a89e04b6b91f18aad748",
        "train_report.csv": "861e02bd0a62a9bf965875bbaa3f0102b038a7302b0b822d75e527a99442aa3d",
    })

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
    assert_pinned(pred_out, {"predictions.csv": "ca71111ca6f967992bbea07fec50ecb5061b7873656bcd64920e2f29a656d858"})


def test_predictions_csv_quotes_a_team_name_with_a_comma_and_a_quote(season_csv, plan_json, tmp_path):
    name = 'CCC, "T01"'
    with season_csv.open(newline="") as f:
        rows = [[name if cell == "CCC-T01" else cell for cell in row] for row in csv.reader(f)]
    with season_csv.open("w", newline="") as f:
        csv.writer(f, lineterminator="\n").writerows(rows)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"max_epochs": 3}))
    train_out, pred_out = tmp_path / "train_out", tmp_path / "pred_out"
    argv = ["train", "--data", str(season_csv), "--plan", str(plan_json), "--config", str(config)]
    assert cli_main([*argv, "--out", str(train_out)]) == 0
    argv = ["predict", "--data", str(season_csv), "--model-file", str(train_out / "model.json"),
            "--league", "CCC", "--season", "2020", "--out", str(pred_out)]
    assert cli_main(argv) == 0
    with (pred_out / "predictions.csv").open(newline="") as f:
        table = list(csv.reader(f))
    assert table[0] == ["team", "game_id", "team_game_index", "p_win"]
    assert {len(row) for row in table} == {4}
    assert sum(row[0] == name for row in table) == 10  # CCC-T01's games: 2 against each of 5 teams


def test_bundle_holds_the_mode_once_and_predict_reads_it(season_csv, plan_json, tmp_path):
    train_out = tmp_path / "train_out"
    code = cli_main(
        ["train", "--data", str(season_csv), "--plan", str(plan_json), "--mode", "raw", "--out", str(train_out)]
    )
    assert code == 0
    text = (train_out / "model.json").read_text()
    assert text.count('"mode"') == 1
    bundle = json.loads(text)
    assert bundle["mode"] == "raw"
    assert set(bundle["feature_spec"]) == {"features"}

    def predictions(name):
        out = tmp_path / name
        argv = ["predict", "--data", str(season_csv), "--model-file", str(train_out / "model.json"),
                "--league", "CCC", "--season", "2020", "--out", str(out)]
        assert cli_main(argv) == 0
        return (out / "predictions.csv").read_bytes()

    raw = predictions("raw")
    bundle["mode"] = "delta"
    (train_out / "model.json").write_text(json.dumps(bundle))
    assert predictions("delta") != raw


def test_manifest_environment_block_is_rerun_stable(season_csv, plan_json, tmp_path):
    out = tmp_path / "train_out"
    argv = ["train", "--data", str(season_csv), "--plan", str(plan_json), "--seed", "3", "--out", str(out)]
    manifests = []
    for _ in range(2):
        assert cli_main(argv) == 0
        manifests.append((out / "manifest.json").read_bytes())
    assert manifests[0] == manifests[1]
    env = json.loads(manifests[0])["environment"]
    assert env["python"] == platform.python_version()
    assert (env["numpy"], env["scipy"]) == (np.__version__, scipy.__version__)
    assert set(env["blas"]) == {"name", "version"} and all(env["blas"].values())


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
    assert_pinned(out, {
        "scope_grid.csv": "e68a1256559c43a96a1279595e033f3f6391b2596f5b3f0048af512d3d9470ad",
        "scope_best.json": "2c77c6b77bd1f978700e9886210c45c387249d01bf8ef71fd1721363bedfd40b",
    })


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
    assert_pinned(out, {
        "forest_report.json": "8c59d19f43e8d833a0ad0d18adc3beef10aa3936ca3b7df8242ead1bdc8b70f0",
        "forest_report.csv": "dbe3f6ad5a76a60e29426e42702e1ffa57e2e6b10f265d9375c29921e7ca9d90",
    })



_GRID = {"hidden1": [8], "hidden2": [None], "dropout": [0.1], "model": ["gcn"], "dataset": ["delta"]}


@pytest.mark.parametrize(
    "grid, message",
    [
        (_GRID | {"hidden1": ["x"]}, "config key 'hidden1' in {config} must be a non-empty list of integers, got [\"x\"]"),
        (_GRID | {"hidden2": [None, 1.5]}, "config key 'hidden2' in {config} must be a non-empty list of integers or null"),
        (_GRID | {"dropout": ["0.1"]}, "config key 'dropout' in {config} must be a non-empty list of numbers, got [\"0.1\"]"),
        (_GRID | {"model": [1]}, "config key 'model' in {config} must be a non-empty list of 'gcn' or 'gcn-cheby', got [1]"),
        (_GRID | {"model": ["gcnx"]}, "config key 'model' in {config} must be a non-empty list of 'gcn' or 'gcn-cheby'"),
        (_GRID | {"model": ["chebyshev"]}, "config key 'model' in {config} must be a non-empty list of 'gcn' or"),
        (_GRID | {"dataset": ["deltas"]}, "config key 'dataset' in {config} must be a non-empty list of 'raw' or 'delta'"),
        (_GRID | {"hidden1": []}, "config key 'hidden1' in {config} must be a non-empty list of integers, got []"),
        ({"hidden1": [8]}, "config {config} lacks keys ['hidden2', 'dropout', 'model', 'dataset']"),
        (_GRID | {"hidden3": [8]}, "unknown config keys in {config}: ['hidden3']"),
        ({}, "config {config} lacks keys ['hidden1', 'hidden2', 'dropout', 'model', 'dataset']"),
    ],
    ids=[
        "hidden1-string", "hidden2-float", "dropout-string", "model-number", "model-gcnx", "model-internal-kind",
        "dataset-deltas", "hidden1-empty", "only-hidden1", "unknown-axis", "empty-object",
    ],
)
def test_grid_search_bad_grid_exits_1_naming_the_key(grid, message, season_csv, plan_json, tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"max_epochs": 2, "grid": grid}))
    out = tmp_path / "o"
    argv = ["grid-search", "--data", str(season_csv), "--plan", str(plan_json), "--config", str(config)]
    assert cli_main([*argv, "--out", str(out)]) == 1
    assert f"error: {message.format(config=config)}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, doc, message",
    [
        (["grid-search", "--plan", "{plan}"], {"grid": _GRID | {"dropout": [0.1, 1.5]}}, "config {config}: dropout must lie in [0, 1)"),
        (["grid-search", "--plan", "{plan}"], {"grid": _GRID | {"hidden1": [8, 0]}}, "config {config}: hidden_dims entries must be >= 1, got [0]"),
        (["baseline-forest", "--plan", "{plan}", "--lookback", "0"], None, "--lookback must be >= 1, got 0"),
    ],
    ids=["grid-dropout", "grid-hidden1-zero", "forest-lookback-zero"],
)
def test_bad_settings_exit_1_before_the_csv_is_parsed(argv, doc, message, season_csv, plan_json, tmp_path, capsys, monkeypatch):
    def no_parse(*args, **kwargs):
        raise AssertionError("the match CSV was parsed before the settings were checked")

    monkeypatch.setattr(cli, "parse_match_csv", no_parse)
    config = tmp_path / "cfg.json"
    argv = [a.format(plan=plan_json) for a in argv]
    if doc is not None:
        config.write_text(json.dumps(doc))
        argv += ["--config", str(config)]
    out = tmp_path / "o"
    assert cli_main([*argv, "--data", str(season_csv), "--out", str(out)]) == 1
    assert f"error: {message.format(config=config)}" in capsys.readouterr().err
    assert not out.exists()


def _set(key, value):
    return lambda bundle: bundle | {key: value}


def _without(key):
    return lambda bundle: {k: v for k, v in bundle.items() if k != key}


def _without_last_stage(bundle):
    bundle["model"]["weights"].pop()
    return bundle


def _without_last_feature(bundle):
    bundle["feature_spec"]["features"].popitem()
    bundle["standardization"] = {k: v[:-1] for k, v in bundle["standardization"].items()}
    return bundle


def _set_model(key, value):
    return lambda bundle: bundle | {"model": bundle["model"] | {key: value}}


def _set_model_config(key, value):
    return _edit_model_config(lambda config: config | {key: value})


def _edit_model_config(edit):
    return lambda bundle: bundle | {"model": bundle["model"] | {"config": edit(bundle["model"]["config"])}}


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda bundle: [1], "model bundle {bundle} must hold a JSON object"),
        (_set("feature_spec", 3), "model bundle key 'feature_spec' in {bundle} must be an object"),
        (_set("feature_spec", {"features": None}), "model bundle key 'feature_spec' in {bundle} must be an object"),
        (_set("standardization", {"mean": ["x"], "std": [1]}), "model bundle key 'standardization' in {bundle}"),
        (_set("mode", 3), "model bundle key 'mode' in {bundle} must be 'raw' or 'delta', got 3"),
        (_set("mode", "deltas"), "model bundle key 'mode' in {bundle} must be 'raw' or 'delta', got \"deltas\""),
        (_without("standardization"), "model bundle {bundle} lacks keys ['standardization']"),
        (_set("extra", 1), "unknown model bundle keys in {bundle}: ['extra']"),
        (_set("schema_version", 2), "unsupported model bundle schema: 2"),
        (_without_last_stage, "model bundle {bundle}: model stage 1 has weight shapes [], but layer_dims"),
        (_set_model("config", 3), "model key 'config' in {bundle} must be an object, got 3"),
        (
            lambda bundle: _set_model("weights", [5, *bundle["model"]["weights"][1:]])(bundle),
            "model key 'weights' in {bundle} must be a list of stages, each a list of matrices of numbers, got [5, [[",
        ),
        (_set_model("layer_dims", ["x"]), "model key 'layer_dims' in {bundle} must be a list of two or more integers"),
        (_set_model("layer_dims", [30, 64, 3]), "model key 'layer_dims' in {bundle} must be a list of two or more"),
        (_set_model("extra", 1), "unknown model keys in {bundle}: ['extra']"),
        (_set_model_config("dropout", 2.0), "model bundle {bundle}: dropout must lie in [0, 1)"),
        (_set_model_config("dropout", "x"), 'model config key \'dropout\' in {bundle} must be a number, got "x"'),
        (_set_model_config("propagator_kind", "zzz"), "model bundle {bundle}: unknown propagator_kind 'zzz'"),
        (_set_model_config("chebyshev_degree", -1), "model bundle {bundle}: chebyshev_degree must be >= 0"),
        (
            _edit_model_config(lambda config: {k: v for k, v in config.items() if k != "rng_seed"}),
            "model config {bundle} lacks keys ['rng_seed']",
        ),
        (_set("feature_spec", {"features": {"towers": "objectivez"}}), "model bundle {bundle}: unknown categories"),
        (
            _set("standardization", {"mean": [0.0], "std": [1.0]}),
            "model bundle {bundle}: standardization stats do not match the feature spec's 30 features",
        ),
        (_without_last_feature, "model bundle {bundle}: the model takes 30 features, but the feature spec names 29"),
    ],
    ids=[
        "list", "feature-spec-int", "features-null", "mean-string", "mode-int", "mode-deltas", "no-standardization",
        "unknown-key",
        "schema-2", "last-stage-deleted", "model-config-int", "weights-stage-number", "layer-dims-string",
        "layer-dims-three-logits", "model-unknown-key", "dropout-2", "dropout-string", "kind-zzz", "degree-negative",
        "config-no-seed", "category-objectivez", "stats-short", "model-wider-than-features",
    ],
)
def test_predict_bad_bundle_exits_1_naming_it(edit, message, season_csv, plan_json, tmp_path, capsys):
    train_out = tmp_path / "train_out"
    argv = ["train", "--data", str(season_csv), "--plan", str(plan_json), "--out", str(train_out)]
    assert cli_main(argv) == 0
    model = train_out / "model.json"
    model.write_text(json.dumps(edit(json.loads(model.read_text()))))
    capsys.readouterr()
    out = tmp_path / "pred_out"
    argv = ["predict", "--data", str(season_csv), "--model-file", str(model), "--league", "CCC", "--season", "2020"]
    assert cli_main([*argv, "--out", str(out)]) == 1
    assert f"error: {message.format(bundle=model)}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", list(COMMANDS))
def test_failing_command_writes_nothing_and_manifest_lists_every_file(command, season_csv, plan_json, tmp_path, capsys):
    absent = tmp_path / "absent_plan.json"
    absent.write_text(json.dumps(_PLAN | {"test_league": "ZZZ"}))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"bogus": 1}))
    small = tmp_path / "small.json"
    small.write_text(json.dumps({"max_epochs": 2, "grid": _GRID}))
    scope_grid = tmp_path / "scope_grid.json"
    scope_grid.write_text(json.dumps({"base_k": [20, 40]}))
    model = tmp_path / "model" / "model.json"
    data = ["--data", str(season_csv)]
    planned = [*data, "--plan", str(plan_json), "--config", str(small)]
    absent_league = ["--league", "ZZZ", "--season", "2020"]
    league = ["--league", "CCC", "--season", "2020"]
    failing, succeeding = {
        "simulate": (["--config", str(bad)], []),
        "ingest": ([*data, "--config", str(bad)], data),
        "build-graph": ([*data, *absent_league], [*data, *league]),
        "train": ([*data, "--plan", str(absent)], planned),
        "predict": ([*data, "--model-file", str(model), *absent_league], [*data, "--model-file", str(model), *league]),
        "grid-search": ([*data, "--plan", str(bad)], planned),
        "baseline-scope": ([*data, *absent_league], [*data, *league, "--config", str(scope_grid)]),
        "baseline-forest": ([*data, "--plan", str(absent)], [*data, "--plan", str(plan_json)]),
        "compare": ([*data, "--plan", str(plan_json), "--config", str(bad)], planned),
    }[command]
    if command == "predict":
        assert cli_main(["train", *planned, "--out", str(model.parent)]) == 0

    out = tmp_path / "failed"
    assert cli_main([command, *failing, "--out", str(out)]) == 1
    assert "error:" in capsys.readouterr().err
    assert not out.exists()

    out = tmp_path / "succeeded"
    assert cli_main([command, *succeeding, "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert sorted([*manifest["outputs"], "manifest.json"]) == sorted(p.name for p in out.iterdir())


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
    assert_pinned(out, {
        "grid_report.json": "cb95abb327e3db1c3491df558c98887343a34113ba415a8f33de7ce4fb8b3769",
        "grid_report.csv": "6396bf43ff4437645851cf74d397ffe8a861a4e7af4bdaa00a4742a9d5c4e10b",
    })


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
    assert_pinned(outs[0], {
        "compare_report.csv": "b7da5a8f6263d3ca4c826f7c7072d17984084df16df38db363707ad43b16f969",
        "compare_report.json": "7a2796d3d878dd935dba3ae965cb316a84d6b01a9f568f2f46655a0c2d95001f",
    })


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
