"""Unit tests of the benchmark ledger's own arithmetic and declarations.

Run explicitly (tier-1 collects only ``tests/``)::

    python -m pytest benchledger/test_ledger.py
"""

import json
import os
import re

import pytest

import layer_trace
import ledger
from layer_trace import Span, SpanRecorder, self_times


def span(sid, parent, start, end, pid=1, leaf_s=0.0):
    return Span(id=sid, parent=parent, name=sid, pid=pid, start=start,
                end=end, leaf_s=leaf_s)


# -- percentile selection -------------------------------------------------------


@pytest.mark.parametrize("n, expected", [
    (19, None), (20, 50), (39, 50), (40, 75), (48, 75),
    (100, 90), (199, 90), (200, 95), (1000, 99),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert ledger.tail_percentile(n) == expected


# -- self time -------------------------------------------------------------------


def test_self_time_subtracts_nested_children_and_leaves():
    spans = [
        span("run", None, 0.0, 10.0, leaf_s=1.0),
        span("task", "run", 1.0, 4.0),
        span("append", "task", 2.0, 3.0),
        span("late", "run", 9.0, 12.0),  # clipped to the parent's end
    ]
    selfs = self_times(spans)
    assert selfs["run"] == pytest.approx(10 - 3 - 1 - 1)
    assert selfs["task"] == pytest.approx(2.0)
    assert selfs["append"] == pytest.approx(1.0)


def test_self_time_merges_overlapping_cross_process_children():
    spans = [
        span("engine", None, 0.0, 10.0, pid=1),
        span("chunk-a", "engine", 1.0, 6.0, pid=2),
        span("chunk-b", "engine", 2.0, 8.0, pid=3),
    ]
    assert self_times(spans)["engine"] == pytest.approx(10 - 7)


def test_leaves_fold_into_the_innermost_span_once(tmp_path, monkeypatch):
    ticks = iter(range(100))
    monkeypatch.setattr(layer_trace.time, "perf_counter", lambda: float(next(ticks)))
    recorder = SpanRecorder("w", tmp_path)
    inner = recorder.wrap_leaf(lambda: None, "inner")

    def work():
        inner()
        return "hit"

    outer = recorder.wrap_leaf(work, "outer", hit=lambda result: result == "hit")
    with recorder.span("parent") as parent:  # opens at t=0
        outer()  # t=1..4, with a nested inner call at t=2..3
        inner()  # t=5..6
    assert parent.duration == 7
    assert parent.leaves == {"inner": [2, 2.0, 0], "outer": [1, 3.0, 1]}
    # The nested inner call lies inside the outer one: counted once.
    assert parent.leaf_s == 4
    assert self_times([parent])[parent.id] == 3


def test_forked_worker_spans_spool_under_the_parent_span(tmp_path):
    recorder = SpanRecorder("w", tmp_path)
    with recorder.span("engine.run") as engine:
        pid = os.fork()
        if pid == 0:  # pragma: no cover - runs in the child
            try:
                with recorder.span("engine.chunk"):
                    with recorder.span("kernel.execute"):
                        pass
            finally:
                os._exit(0)
        os.waitpid(pid, 0)
    spans = {s.name: s for s in recorder.collect()}
    assert set(spans) == {"engine.run", "engine.chunk", "kernel.execute"}
    assert spans["engine.chunk"].parent == engine.id
    assert spans["engine.chunk"].pid == pid
    assert spans["kernel.execute"].parent == spans["engine.chunk"].id


# -- compare ----------------------------------------------------------------------


def test_verdict_ok_within_bound():
    assert ledger.verdict([10.0, 10.1, 9.9], [10.4, 10.5, 10.3], 0.10) == "ok"


def test_verdict_regressed_beyond_bound():
    assert ledger.verdict([10.0, 10.1, 9.9], [12.0, 12.1, 11.9], 0.10) == "regressed"


def test_verdict_unresolved_when_spread_exceeds_bound():
    base = [8.0, 10.0, 12.0, 14.0]
    head = [9.0, 11.0, 13.0, 15.0]
    assert ledger.verdict(base, head, 0.10) == "unresolved"


def test_verdict_wide_spread_but_every_head_run_better_is_ok():
    assert ledger.verdict([20.0, 30.0, 40.0], [5.0, 9.0, 19.0], 0.10) == "ok"


def test_verdict_higher_is_better_direction():
    assert ledger.verdict([10.0, 10.0], [8.0, 8.0], 0.10, better="higher") == "regressed"
    assert ledger.verdict([10.0, 10.0], [12.0, 12.0], 0.10, better="higher") == "ok"


def _run_file(path, wall, failed=0):
    runs = [
        {"workload": "cli-cold", "trace": False, "label": "run",
         "attempted": 10, "failed": failed,
         "metrics": {name: {"value": wall, "unit": unit}
                     for name, unit in ledger.END_TO_END.items()}}
        for _ in range(3)
    ]
    path.write_text(json.dumps({"runs": runs}))
    return str(path)


def test_compare_fails_on_error_rise_and_regression(tmp_path, capsys):
    base = _run_file(tmp_path / "base.json", 1.0)
    assert ledger.compare_main([base, _run_file(tmp_path / "same.json", 1.0)]) == 0
    assert ledger.compare_main([base, _run_file(tmp_path / "err.json", 1.0, 1)]) == 1
    assert ledger.compare_main([base, _run_file(tmp_path / "slow.json", 2.0)]) == 1
    out = capsys.readouterr().out
    assert "regressed" in out and "cli-cold" in out


# -- output parsing ---------------------------------------------------------------


def test_parse_importtime_takes_largest_cumulative():
    text = (
        "import time: self [us] | cumulative | imported package\n"
        "import time:       603 |      40709 |         repro.analysis.lint\n"
        "import time:        11 |      55226 |     repro.analysis.lint\n"
        "import time:      8380 |     335971 | repro.cli\n"
    )
    parsed = ledger.parse_importtime(text)
    assert parsed == {"repro.analysis.lint": 55.226, "repro.cli": 335.971}


def test_query_vmins_reads_each_shard_vmin_index():
    index = {"cells": [{"benchmark": "mcf", "core": 0, "crash_mv": 880,
                        "vmin_mv": 890}], "format": "repro-index/v1",
             "kind": "vmin"}
    other = {"cells": [], "kind": "severity"}
    text = "".join(
        f"# shard m0{i} spec abc\n" + json.dumps(index, indent=2) + "\n"
        + json.dumps(other) + "\n"
        for i in range(2)
    )
    assert ledger.query_vmins(text, ("TTT", "TSS")) == [
        ("TTT", "mcf", 0, 890), ("TSS", "mcf", 0, 890),
    ]


# -- drift guard: BENCHMARK.json declares exactly what the ledger emits -----------

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


@pytest.fixture(scope="module")
def declared():
    return json.loads(ledger.BENCHMARK_JSON.read_text())


def test_benchmark_json_shape(declared):
    assert set(declared) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert declared["command"] == ["python3", "benchledger/ledger.py"]
    assert declared["paths"] == ["benchledger"]
    assert declared["run_seconds"] == ledger.DEFAULT_SECONDS
    workloads = declared["workloads"]
    assert 2 <= len(workloads) <= 8
    assert [(w["name"], w["why"]) for w in workloads] == [
        (cls.name, cls.why) for cls in ledger.WORKLOADS.values()
    ]
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 for w in workloads)
    names = [m["name"] for m in declared["end_to_end"] + declared["per_layer"]]
    names += [w["name"] for w in workloads]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)


def test_end_to_end_metrics_match_the_ledger(declared):
    metrics = declared["end_to_end"]
    assert 1 <= len(metrics) <= 16
    assert all(set(m) == {"name", "unit", "better", "bound"} for m in metrics)
    assert {m["name"]: m["unit"] for m in metrics} == ledger.END_TO_END
    assert all(0 < m["bound"] <= 0.25 for m in metrics)
    bounds = {m["name"]: m["bound"] for m in metrics}
    assert bounds["setup_s"] == max(bounds.values())
    samples = ledger.Samples(
        setup=[1.0], reps=[[ledger.Result(0.5, 40.0, 0, "")]], store_bytes=[10],
    )
    assert set(ledger.end_to_end(samples)) == set(ledger.END_TO_END)


def test_per_layer_metrics_match_the_ledger(declared):
    metrics = declared["per_layer"]
    assert 1 <= len(metrics) <= 128
    assert all(set(m) == {"name", "unit", "better"} for m in metrics)
    assert {m["name"]: (m["unit"], m["better"]) for m in metrics} == ledger.LAYER
    emitted = set(ledger.span_metrics([], [], 0)) | set(ledger.IMPORT_MODULES)
    assert emitted <= set(ledger.LAYER)
