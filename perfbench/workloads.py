"""The benchmark's workloads: seeded data, the CLI jobs users run, their checks.

Every workload uses the plan AAA -> BBB -> CCC 2020.  Its season CSV is
``leaguewin simulate`` output: the leagues a model learns from (AAA, the
training league, and BBB, the validation league) come from the fixed
TRAINING_SEED, and the scored league CCC from the benchmark's seed.  Early
stopping makes the length of a training depend on its data: across data
seeds one 3,040-node training ran 14 to 58 epochs (2.2 to 8.1 s), which no
run length the benchmark can afford averages out.  With the training
leagues fixed every seed does the same training work, and the seed varies
the league that is ingested, predicted and scored.  At the default seed,
TRAINING_SEED itself, the CSV is exactly ``leaguewin simulate --seed 5``.

The jobs pass ``--seed 0`` to the commands that train and leave every other
CLI default alone.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import oracle

PLAN = oracle.Plan(train="AAA", val="BBB", test="CCC", season=2020)
TRAINING_SEED = 5
LEAGUES = [PLAN.train, PLAN.val, PLAN.test]
NORTH_STAR = {"leagues": LEAGUES, "n_teams": 10, "games_per_pair": 4, "seasons": 3, "first_season": 2018}
LARGE = {"leagues": LEAGUES, "n_teams": 20, "games_per_pair": 8, "seasons": 1, "first_season": 2020}
GRID_CELLS = 144
SCOPE_SAMPLE = 200


@dataclass(frozen=True)
class Workload:
    name: str
    synth: dict
    commands: tuple[str, ...]

    def argv(self, data: Path, plan: Path, out: Path) -> list[list[str]]:
        """The CLI invocations of one job, in order."""
        common = ["--data", str(data)]
        planned = common + ["--plan", str(plan), "--seed", "0"]
        every = {
            "compare": ["compare", *planned, "--out", str(out / "compare")],
            "grid-search": ["grid-search", *planned, "--out", str(out / "grid-search")],
            "ingest": ["ingest", *common, "--out", str(out / "ingest")],
            "train": ["train", *planned, "--model", "gcn-cheby", "--layers", "1", "--mode", "delta",
                      "--out", str(out / "train")],
            "predict": ["predict", *common, "--model-file", str(out / "train" / "model.json"),
                        "--league", PLAN.test, "--season", str(PLAN.season), "--out", str(out / "predict")],
        }
        return [every[c] for c in self.commands]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("compare-northstar", NORTH_STAR, ("compare",)),
        Workload("grid-northstar", NORTH_STAR, ("grid-search",)),
        Workload("train-predict-large", LARGE, ("ingest", "train", "predict")),
    )
}


def setup(cli, workload: Workload, seed: int, into: Path) -> tuple[Path, Path]:
    """Write the season CSV and the plan; returns their paths.

    Simulates all leagues with TRAINING_SEED and with ``seed``, and keeps
    the training and validation leagues of the first and the test league of
    the second.  Both files are sorted by league, so the kept lines are too.
    """
    into.mkdir(parents=True, exist_ok=True)
    config = into / "synth.json"
    config.write_text(json.dumps(workload.synth), encoding="utf-8")
    lines = {}
    for draw, draw_seed in (("training", TRAINING_SEED), ("scored", seed)):
        csv_path = into / draw / "season.csv"
        rc = cli.cli_main(["simulate", "--config", str(config), "--seed", str(draw_seed), "--out", str(csv_path)])
        if rc != 0:
            raise RuntimeError(f"leaguewin simulate exited with {rc}")
        lines[draw] = csv_path.read_text("utf-8").splitlines(keepends=True)
    header = lines["training"][0]
    if lines["scored"][0] != header:
        raise RuntimeError("the two simulated CSVs have different headers")

    def league(line: str) -> str:
        return line.split(",", 2)[1]

    kept = [line for line in lines["training"][1:] if league(line) != PLAN.test]
    kept += [line for line in lines["scored"][1:] if league(line) == PLAN.test]
    data = into / "data" / "season.csv"
    data.parent.mkdir()
    data.write_text(header + "".join(kept), encoding="utf-8")
    plan = into / "plan.json"
    doc = {"train_league": PLAN.train, "val_league": PLAN.val, "test_league": PLAN.test, "season": PLAN.season}
    plan.write_text(json.dumps(doc), encoding="utf-8")
    return data, plan


class Checker:
    """Checks one workload's job outputs against the independent oracle."""

    def __init__(self, workload: Workload, data: Path, seed: int):
        self.workload = workload
        self.data = data
        self.rows = oracle.read_team_games(data)
        self.sample = oracle.lattice_sample(seed, SCOPE_SAMPLE) if "compare" in workload.commands else []

    def __call__(self, out: Path) -> list[str]:
        if self.workload.commands == ("compare",):
            report = json.loads((out / "compare" / "compare_report.json").read_text("utf-8"))
            return oracle.check_compare(report, self.rows, PLAN, self.sample)
        if self.workload.commands == ("grid-search",):
            report = json.loads((out / "grid-search" / "grid_report.json").read_text("utf-8"))
            return oracle.check_grid(report, self.rows, PLAN, GRID_CELLS)
        return oracle.check_train_predict(out, self.data, self.rows, PLAN)
