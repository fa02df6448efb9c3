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
