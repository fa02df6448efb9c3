"""Tests of the span bookkeeping: python3 -m pytest -q perfbench"""

import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import spans

SRC = str(Path(__file__).resolve().parent.parent / "src")


def record(sid, name, start, end, parent, thread=1, info=None):
    return (sid, name, start, end, parent, thread, info)


def test_self_time_shares_wall_time_between_threads():
    # R runs 0-10; its child A (2-6) has a child G (3-5); B (4-8) is R's
    # child in a pool thread.  While G and B both run they split the time.
    records = [
        record(0, "job", 0, 10, None),
        record(1, "a", 2, 6, 0),
        record(2, "b", 4, 8, 0, thread=2),
        record(3, "g", 3, 5, 1),
    ]
    own = spans.self_times(records)
    assert own == pytest.approx({0: 4.0, 1: 1.5, 2: 3.0, 3: 1.5})
    assert sum(own.values()) == pytest.approx(10.0)


def test_layer_metrics_average_over_jobs():
    records = [
        record(0, spans.SETUP, 0, 1, None),
        record(1, spans.JOB, 1, 3, None),
        record(2, "cli.cli_main", 1, 3, 1, info={"bytes": 10}),
        record(3, spans.JOB, 3, 7, None),
        record(4, "cli.cli_main", 3, 6, 3, info={"bytes": 30}),
    ]
    m = spans.layer_metrics(records)
    assert m["trace.setup_wall_s"] == 1.0
    assert m["trace.job_wall_s"] == 3.0
    assert m["cli.self_s"] == 2.5
    assert m["trace.other_s"] == 1.5  # the set-up, and the last second of job 2
    assert m["cli.commands"] == 1.0
    assert m["cli.bytes_written"] == 20.0


def test_pool_tasks_keep_the_submitting_span_as_parent():
    tracer = spans.Tracer()
    with tracer.span(spans.JOB):
        with tracer.pool_class()(max_workers=2) as pool:
            list(pool.map(lambda _: tracer.wrap("work", lambda: None, None)(), range(4)))
    job = next(r for r in tracer.records if r[1] == spans.JOB)
    work = [r for r in tracer.records if r[1] == "work"]
    assert len(work) == 4 and all(r[4] == job[0] for r in work)
    assert {r[5] for r in work} != {threading.get_ident()}


def test_installed_wraps_every_binding_and_restores_it(monkeypatch):
    monkeypatch.syspath_prepend(SRC)
    from leaguewin import cli, experiment, ingest

    original = ingest.parse_match_csv
    tracer = spans.Tracer()
    with tracer.installed():
        assert cli.parse_match_csv is ingest.parse_match_csv
        assert ingest.parse_match_csv is not original
        assert experiment.ThreadPoolExecutor is not ThreadPoolExecutor
    assert cli.parse_match_csv is ingest.parse_match_csv is original
    assert experiment.ThreadPoolExecutor is ThreadPoolExecutor
