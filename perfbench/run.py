#!/usr/bin/env python3
"""Job-level benchmark of the leaguewin CLI.

Runs one workload's job in a closed loop (one client, no think time) from a
single process, calling ``leaguewin.cli.cli_main`` with the CLI's own
defaults, until ``--seconds`` have passed; at least one job always runs.
Every job's outputs are checked against independent computations and must
match the first job's bytes.  The last stdout line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics (wall_s, cpu_s, setup_s,
peak_rss_mb); ``--trace 1`` wraps the layer functions in spans and reports
the per-layer metrics, writing the spans to ``perfbench/results/``.

Usage: python3 perfbench/run.py --workload grid-northstar --seed 5 --seconds 10 --trace 0
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORK = HERE / "work"
RESULTS = HERE / "results"
SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 120
SETUP_FILES = ("data/season.csv", "plan.json")  # the manifest names the set-up's own directory


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=5, help="synthetic-data seed")
    parser.add_argument("--seconds", type=float, default=10.0, help="run length")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-into", type=Path, help=argparse.SUPPRESS)  # one timed set-up, in a child
    return parser.parse_args(argv)


def output_digest(out: Path) -> dict[str, str]:
    return {str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.rglob("*")) if p.is_file()}


def timed_setups(args, workload, work: Path):
    """Set up SETUP_REPEATS times, each in a fresh interpreter that imports
    leaguewin, simulates the season CSV and writes the plan.  Returns the
    set-up times, whether every set-up wrote the same bytes, and the paths
    of the first set-up's CSV and plan."""
    seconds, digests = [], []
    for i in range(SETUP_REPEATS):
        into = work / f"setup{i}"
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload.name,
               "--seed", str(args.seed), "--setup-into", str(into)]
        start = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, timeout=SETUP_TIMEOUT_S)
        seconds.append(time.perf_counter() - start)
        digests.append([hashlib.sha256((into / f).read_bytes()).hexdigest() for f in SETUP_FILES])
    first = work / "setup0"
    return seconds, all(d == digests[0] for d in digests), (first / "data" / "season.csv", first / "plan.json")


def run_jobs(cli, workload, data: Path, plan: Path, checker, work: Path, seconds: float, span):
    """Closed loop: one job at a time until the run length has passed.
    Returns the jobs' wall and CPU times and the failures."""
    out = work / "out"
    first = None
    walls, cpus, failures = [], [], []
    start = time.perf_counter()
    while True:
        shutil.rmtree(out, ignore_errors=True)
        with span(), contextlib.redirect_stdout(io.StringIO()):
            w0, c0 = time.perf_counter(), time.process_time()
            codes = [cli.cli_main(argv) for argv in workload.argv(data, plan, out)]
            walls.append(time.perf_counter() - w0)
            cpus.append(time.process_time() - c0)
        problems = [f"exit codes {codes}"] if any(codes) else []
        if not problems:
            try:
                problems = checker(out)
            except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
                problems = [f"{type(exc).__name__}: {exc}"]
        if not problems:
            digest = output_digest(out)
            first = first or digest
            if digest != first:
                problems = ["outputs differ from the run's first job"]
        print(f"job {len(walls)}: {walls[-1]:.3f} s wall, {cpus[-1]:.3f} s CPU"
              + (f", FAILED: {problems[:3]}" if problems else ""), file=sys.stderr)
        if problems:
            failures.append(problems)
        if time.perf_counter() - start >= seconds:
            return walls, cpus, failures


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "leaguewin" / "cli.py").is_file():
        print(f"error: leaguewin sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    from leaguewin import cli

    if args.setup_into:
        workloads.setup(cli, workload, args.seed, args.setup_into)
        return 0

    work = WORK / f"{workload.name}-seed{args.seed}-pid{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        if args.trace:
            result = traced_run(args, workload, work, cli)
        else:
            result = untraced_run(args, workload, work, cli)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    RESULTS.mkdir(parents=True, exist_ok=True)
    line = json.dumps(result)
    (RESULTS / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(line + "\n")
    print(line)
    return 0


def untraced_run(args, workload, work: Path, cli) -> dict:
    setup_s, same, (data, plan) = timed_setups(args, workload, work)
    checker = workloads.Checker(workload, data, args.seed)
    walls, cpus, failures = run_jobs(cli, workload, data, plan, checker, work, args.seconds, contextlib.nullcontext)
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "cpu_s": (statistics.median(cpus), "s"),
        "setup_s": (statistics.median(setup_s), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return result_doc(same, len(walls), failures, metrics)


def traced_run(args, workload, work: Path, cli) -> dict:
    tracer = spans.Tracer()
    with tracer.installed():
        with tracer.span(spans.SETUP), contextlib.redirect_stdout(io.StringIO()):
            data, plan = workloads.setup(cli, workload, args.seed, work / "setup0")
        checker = workloads.Checker(workload, data, args.seed)
        walls, _, failures = run_jobs(cli, workload, data, plan, checker, work, args.seconds,
                                      lambda: tracer.span(spans.JOB))
    tracer.write(RESULTS / f"trace-{workload.name}-seed{args.seed}.json")
    layers = spans.layer_metrics(tracer.records)
    metrics = {name: (layers[name], unit) for name, unit in spans.METRICS.items()}
    return result_doc(True, len(walls), failures, metrics)


def result_doc(setup_ok: bool, attempted: int, failures: list, metrics: dict) -> dict:
    return {
        "correct": setup_ok,  # a job whose outputs fail a check counts in "failed"
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


if __name__ == "__main__":
    sys.exit(main())
