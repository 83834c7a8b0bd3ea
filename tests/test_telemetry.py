"""``repro.telemetry``: tracer, metrics, logger, status -- and the
determinism-neutrality contract.

The load-bearing property: telemetry observes, never perturbs.  A
traced+metered run must journal the same lines as a telemetry-off run
(byte-identical journals when serial), for any job count, including
kill-and-resume -- asserted end to end below.
"""

import json
import re

import pytest

from repro.effects import EFFECT_ORDER, EffectType
from repro.parallel import MachineSpec, ParallelCampaignEngine
from repro.parallel.progress import ProgressEvent, ProgressReporter, ProgressTracker
from repro.core import FrameworkConfig
from repro.store import CampaignStore, JOURNAL_NAME, MANIFEST_NAME
from repro.telemetry import (
    M_EFFECTS,
    M_GRID_TASKS,
    M_JOURNAL_APPENDS,
    M_TASK_SECONDS,
    M_TASKS_COMPLETED,
    M_THROUGHPUT,
    METRIC_CATALOG,
    METRICS_FORMAT,
    MetricsRegistry,
    PARENT_SPAN_ID_BASE,
    SESSION_TRACE_ID,
    SPAN_FORMAT,
    SpanRecord,
    TraceWriter,
    Tracer,
    clock,
    current_session,
    emit_spans,
    event,
    get_logger,
    inc_counter,
    load_spans,
    observe,
    fleet_status,
    render_fleet_status,
    set_gauge,
    shielded,
    span,
    task_trace_id,
    telemetry_session,
    validate_span,
)
from repro.workloads import get_benchmark

#: Same watchdog-exercising sweep as test_store: starts right below
#: bwaves Vmin, so traces cover the recovery path too.
CFG = FrameworkConfig(start_mv=905, campaigns=2, runs_per_level=3)
SPEC = MachineSpec(chip="TTT", seed=2017)
CORES = [0]
TOTAL_TASKS = 1 * len(CORES) * CFG.campaigns


def fake_clock(start=0.0, step=1.0):
    """Deterministic clock: start, start+step, start+2*step, ..."""
    state = {"now": start - step}

    def tick():
        state["now"] += step
        return state["now"]

    return tick


def run_grid(store=None, resume=False, **kwargs):
    engine = ParallelCampaignEngine(SPEC, CFG, **kwargs)
    return engine.run([get_benchmark("bwaves")], CORES,
                      store=store, resume=resume)


# ---------------------------------------------------------------------------
# metrics registry
# ---------------------------------------------------------------------------

#: Promtool-style exposition grammar: every non-comment line is
#: ``name{labels} value`` with a float/int/±Inf/NaN value.
_HELP_RE = re.compile(r"^# HELP [a-zA-Z_:][a-zA-Z0-9_:]* \S.*$")
_TYPE_RE = re.compile(r"^# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* (counter|gauge|histogram)$")
_SAMPLE_RE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*"
    r"(\{[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"]*\"(,[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"]*\")*\})?"
    r" (NaN|[+-]?Inf|[+-]?[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)?)$"
)


def assert_valid_exposition(text):
    assert text.endswith("\n")
    for line in text.splitlines():
        assert (
            _HELP_RE.match(line)
            or _TYPE_RE.match(line)
            or _SAMPLE_RE.match(line)
        ), f"malformed exposition line: {line!r}"


class TestMetricsRegistry:
    def test_counter_gauge_histogram(self):
        reg = MetricsRegistry()
        reg.counter("x_total").inc()
        reg.counter("x_total").inc(2.5)
        assert reg.counter("x_total").value == 3.5
        reg.gauge("g").set(7)
        assert reg.gauge("g").value == 7.0
        hist = reg.histogram("h", buckets=(1.0, 10.0))
        hist.observe(0.5)
        hist.observe(5.0)
        hist.observe(50.0)
        assert hist.count == 3 and hist.sum == 55.5
        assert hist.cumulative() == [(1.0, 1), (10.0, 2), (float("inf"), 3)]
        assert hist.mean == pytest.approx(18.5)

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("x_total").inc(-1)

    def test_labels_key_separate_children(self):
        reg = MetricsRegistry()
        reg.counter(M_EFFECTS, effect="SDC").inc()
        reg.counter(M_EFFECTS, effect="NO").inc(4)
        assert reg.counter(M_EFFECTS, effect="SDC").value == 1
        assert reg.counter(M_EFFECTS, effect="NO").value == 4

    def test_kind_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x_total")
        with pytest.raises(ValueError):
            reg.gauge("x_total")

    def test_catalog_kind_enforced(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter(M_GRID_TASKS)  # cataloged as a gauge

    def test_invalid_names_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.counter("bad name")
        with pytest.raises(ValueError):
            reg.counter("ok_total", **{"bad-label": "v"})

    def test_snapshot_is_json_round_trippable(self):
        reg = MetricsRegistry()
        reg.counter(M_JOURNAL_APPENDS).inc(2)
        reg.histogram(M_TASK_SECONDS).observe(0.25)
        snap = json.loads(json.dumps(reg.snapshot()))
        assert snap["format"] == METRICS_FORMAT
        by_name = {m["name"]: m for m in snap["metrics"]}
        assert by_name[M_JOURNAL_APPENDS]["samples"][0]["value"] == 2
        hist = by_name[M_TASK_SECONDS]["samples"][0]
        assert hist["count"] == 1 and hist["buckets"][-1] == ["+Inf", 1]

    def test_prometheus_exposition_parses(self):
        reg = MetricsRegistry()
        reg.counter(M_EFFECTS, effect="SDC").inc()
        reg.gauge(M_GRID_TASKS).set(12)
        reg.histogram(M_TASK_SECONDS).observe(0.002)
        assert_valid_exposition(reg.render_prometheus())

    def test_help_and_type_come_from_catalog(self):
        reg = MetricsRegistry()
        reg.counter(M_JOURNAL_APPENDS)
        text = reg.render_prometheus()
        spec = METRIC_CATALOG[M_JOURNAL_APPENDS]
        assert f"# TYPE {M_JOURNAL_APPENDS} {spec.kind}" in text
        assert f"# HELP {M_JOURNAL_APPENDS} {spec.help}" in text

    def test_write_dispatches_on_extension(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("x_total").inc()
        prom = reg.write(tmp_path / "m.prom")
        snap = reg.write(tmp_path / "m.json")
        assert prom.read_text().startswith("# HELP")
        assert json.loads(snap.read_text())["format"] == METRICS_FORMAT


# ---------------------------------------------------------------------------
# tracer
# ---------------------------------------------------------------------------

class TestTracer:
    def test_nesting_and_parent_ids(self):
        spans = []
        tracer = Tracer(spans.append, clock=fake_clock())
        with tracer.span("task", trace_id="t1", benchmark="mcf"):
            with tracer.span("voltage_step", voltage_mv=910):
                pass
            tracer.event("journal.append", core=0)
        child, evt, root = spans
        assert root.name == "task" and root.parent_id is None
        assert child.parent_id == root.span_id
        assert evt.parent_id == root.span_id
        assert evt.start_s == evt.end_s  # zero-duration point event
        assert child.trace_id == evt.trace_id == root.trace_id == "t1"
        assert root.start_s < child.start_s < child.end_s < root.end_s

    def test_error_status(self):
        spans = []
        tracer = Tracer(spans.append, clock=fake_clock())
        with pytest.raises(RuntimeError):
            with tracer.span("task"):
                raise RuntimeError("boom")
        assert spans[0].status == "error"

    def test_session_trace_id_default(self):
        spans = []
        Tracer(spans.append, clock=fake_clock()).event("engine.replay")
        assert spans[0].trace_id == SESSION_TRACE_ID

    def test_first_id_offsets_span_ids(self):
        spans = []
        tracer = Tracer(spans.append, clock=fake_clock(),
                        first_id=PARENT_SPAN_ID_BASE)
        tracer.event("journal.append")
        assert spans[0].span_id == PARENT_SPAN_ID_BASE

    def test_records_round_trip_and_validate(self):
        spans = []
        tracer = Tracer(spans.append, clock=fake_clock())
        with tracer.span("task", trace_id="t", flag=True, note=None):
            pass
        data = spans[0].to_json_dict()
        assert data["format"] == SPAN_FORMAT
        assert validate_span(data) == []
        assert SpanRecord.from_json_dict(json.loads(json.dumps(data))) == spans[0]

    def test_validate_span_rejects_bad_records(self):
        spans = []
        Tracer(spans.append, clock=fake_clock()).event("x")
        good = spans[0].to_json_dict()
        missing = dict(good)
        del missing["trace_id"]
        assert any("trace_id" in p for p in validate_span(missing))
        wrong_type = dict(good, span_id="one")
        assert any("span_id" in p for p in validate_span(wrong_type))
        unknown = dict(good, extra=1)
        assert any("unknown" in p for p in validate_span(unknown))
        bad_status = dict(good, status="maybe")
        assert any("status" in p for p in validate_span(bad_status))
        bad_format = dict(good, format="repro-span/v0")
        assert any("format" in p for p in validate_span(bad_format))

    def test_trace_writer_one_file_per_trace(self, tmp_path):
        writer = TraceWriter(tmp_path)
        tracer = Tracer(writer, clock=fake_clock())
        tracer.event("a", trace_id=task_trace_id("mcf", 0, 1))
        tracer.event("b", trace_id=task_trace_id("mcf", 0, 2))
        tracer.event("c", trace_id=task_trace_id("mcf", 0, 1))
        one = writer.path_for(task_trace_id("mcf", 0, 1))
        two = writer.path_for(task_trace_id("mcf", 0, 2))
        assert one.name == "trace-mcf_c0_k1.jsonl"
        assert [s.name for s in load_spans(one)] == ["a", "c"]
        assert [s.name for s in load_spans(two)] == ["b"]


# ---------------------------------------------------------------------------
# ambient context + structured logger
# ---------------------------------------------------------------------------

class TestAmbientContext:
    def test_everything_noops_without_session(self):
        assert current_session() is None
        with span("task"):
            event("x")
            inc_counter("x_total")
            set_gauge("g", 1)
            observe("h", 0.1)
            emit_spans([])
        assert clock() == 0.0

    def test_session_routes_to_tracer_and_metrics(self):
        spans, reg = [], MetricsRegistry()
        with telemetry_session(tracer=Tracer(spans.append), metrics=reg):
            with span("task", trace_id="t"):
                event("inner")
            inc_counter("x_total", amount=2)
            set_gauge("g", 3)
            observe("h", 0.5)
        assert [s.name for s in spans] == ["inner", "task"]
        assert spans[0].parent_id == spans[1].span_id
        assert reg.counter("x_total").value == 2
        assert reg.gauge("g").value == 3
        assert reg.histogram("h").count == 1

    def test_shielded_suppresses_ambient_session(self):
        spans, reg = [], MetricsRegistry()
        with telemetry_session(tracer=Tracer(spans.append), metrics=reg):
            with shielded():
                event("hidden")
                inc_counter("x_total")
            event("visible")
        assert [s.name for s in spans] == ["visible"]
        assert reg.counter("x_total").value == 0

    def test_emit_spans_forwards_worker_records(self):
        spans = []
        worker_records = []
        worker = Tracer(worker_records.append, clock=fake_clock())
        with worker.span("task", trace_id="t"):
            pass
        with telemetry_session(tracer=Tracer(spans.append)):
            emit_spans(worker_records)
        assert spans == worker_records


class TestStructuredLogger:
    def test_silent_without_session(self):
        get_logger("repro.test").warning("nobody listening", n=1)

    def test_counts_and_events_with_session(self):
        spans, reg = [], MetricsRegistry()
        log = get_logger("repro.test")
        with telemetry_session(tracer=Tracer(spans.append), metrics=reg):
            log.debug("d", n=1)
            log.error("e")
        assert [s.name for s in spans] == ["log.debug", "log.error"]
        attrs = dict(spans[0].attributes)
        assert attrs["logger"] == "repro.test" and attrs["message"] == "d"
        assert reg.counter("repro_log_messages_total", level="debug").value == 1
        assert reg.counter("repro_log_messages_total", level="error").value == 1

    def test_unknown_level_rejected(self):
        with pytest.raises(ValueError):
            get_logger("repro.test").log("fatal", "nope")

    def test_logger_cache_returns_same_instance(self):
        assert get_logger("repro.same") is get_logger("repro.same")


# ---------------------------------------------------------------------------
# progress tracker on the metrics registry
# ---------------------------------------------------------------------------

class Recorder(ProgressReporter):
    def __init__(self):
        self.events = []

    def on_progress(self, event_: ProgressEvent) -> None:
        self.events.append(event_)

    def on_finish(self, event_: ProgressEvent) -> None:
        self.events.append(event_)


class TestProgressTrackerMetrics:
    def test_counts_and_eta_come_from_registry(self):
        reg = MetricsRegistry()
        tracker = ProgressTracker(4, Recorder(), registry=reg,
                                  clock=fake_clock(step=2.0))
        e1 = tracker.advance(1)   # 2 s for 1 task
        assert reg.counter(M_TASKS_COMPLETED).value == 1
        assert reg.gauge(M_GRID_TASKS).value == 4
        assert reg.histogram(M_TASK_SECONDS).count == 1
        assert e1.completed == tracker.completed == 1
        assert e1.eta_s == pytest.approx(2.0 * 3)  # mean 2 s x 3 left
        tracker.advance(3)
        done = tracker.finish()
        assert done.completed == 4 and done.eta_s == 0.0
        assert reg.gauge(M_THROUGHPUT).value == pytest.approx(
            done.completed / done.elapsed_s
        )

    def test_uses_ambient_session_registry(self):
        reg = MetricsRegistry()
        with telemetry_session(metrics=reg, clock=fake_clock()):
            tracker = ProgressTracker(2)
            tracker.advance(2)
            tracker.finish()
        assert reg.counter(M_TASKS_COMPLETED).value == 2

    def test_baselines_pre_existing_counts(self):
        reg = MetricsRegistry()
        reg.counter(M_TASKS_COMPLETED).inc(10)       # an earlier run
        reg.histogram(M_TASK_SECONDS).observe(100.0)
        tracker = ProgressTracker(2, registry=reg, clock=fake_clock())
        assert tracker.completed == 0
        e = tracker.advance(1)
        assert e.completed == 1
        assert e.eta_s == pytest.approx(1.0)  # this run's mean, not 100 s


# ---------------------------------------------------------------------------
# determinism neutrality (tentpole acceptance)
# ---------------------------------------------------------------------------

def traced_run(store, trace_dir, **kwargs):
    reg = MetricsRegistry()
    with telemetry_session(tracer=Tracer(TraceWriter(trace_dir),
                                         first_id=PARENT_SPAN_ID_BASE),
                           metrics=reg):
        report = run_grid(store=store, **kwargs)
    return report, reg


@pytest.fixture(scope="module")
def untraced_store(tmp_path_factory):
    """The telemetry-off baseline store."""
    directory = tmp_path_factory.mktemp("untraced-store")
    run_grid(store=directory, jobs=1)
    return directory


class TestDeterminismNeutrality:
    @pytest.mark.parametrize("jobs,backend", [(1, "serial"), (2, "process")])
    @pytest.mark.parametrize("traced", [False, True])
    def test_store_bytes_invariant(self, tmp_path, untraced_store,
                                   jobs, backend, traced):
        store = tmp_path / "store"
        if traced:
            report, _reg = traced_run(store, tmp_path / "trace", jobs=jobs)
        else:
            report = run_grid(store=store, jobs=jobs)
        assert report.backend == backend
        # The journal appends in completion order, which the pool does
        # not fix across runs -- serial order is the reference; parallel
        # must journal the same lines, whatever order they drained in.
        ours = (store / JOURNAL_NAME).read_bytes().splitlines(keepends=True)
        reference = (untraced_store / JOURNAL_NAME).read_bytes() \
            .splitlines(keepends=True)
        if jobs == 1:
            assert ours == reference
        else:
            assert sorted(ours) == sorted(reference)

    def test_traces_validate_against_schema(self, tmp_path):
        _report, _reg = traced_run(tmp_path / "store", tmp_path / "trace",
                                   jobs=2)
        trace_files = sorted((tmp_path / "trace").glob("trace-*.jsonl"))
        # One file per task trace plus the session trace.
        assert len(trace_files) == TOTAL_TASKS + 1
        for path in trace_files:
            for line in path.read_text().splitlines():
                assert validate_span(json.loads(line)) == []

    def test_task_traces_carry_the_span_tree(self, tmp_path):
        traced_run(tmp_path / "store", tmp_path / "trace", jobs=1)
        path = tmp_path / "trace" / f"trace-bwaves_c0_k1.jsonl"
        names = {s.name for s in load_spans(path)}
        assert {"task", "voltage_step", "parse", "journal.append"} <= names
        # The sweep descends into the crash region -> recoveries traced.
        assert "watchdog.recovery" in names
        # Parent-side events never collide with worker-recorded ids.
        ids = [s.span_id for s in load_spans(path)]
        assert len(ids) == len(set(ids))

    def test_parent_metrics_match_journal(self, tmp_path):
        _report, reg = traced_run(tmp_path / "store", tmp_path / "trace",
                                  jobs=2)
        journaled = CampaignStore.open(tmp_path / "store").campaigns()
        effects = {effect: 0 for effect in EffectType}
        for stored in journaled:
            for record in stored.records:
                for effect in record.effects:
                    effects[effect] += 1
        for effect, count in effects.items():
            if count:
                assert reg.counter(M_EFFECTS,
                                   effect=effect.value).value == count
        assert reg.counter(M_TASKS_COMPLETED).value == TOTAL_TASKS
        assert reg.counter(M_JOURNAL_APPENDS).value == TOTAL_TASKS

    def test_killed_and_resumed_traced_grid_matches_untraced(
            self, tmp_path, untraced_store):
        """The ISSUE acceptance scenario, end to end."""
        store = tmp_path / "store"
        traced_run(store, tmp_path / "trace1", jobs=1)
        # Kill: keep only the first journal line.
        lines = (store / JOURNAL_NAME).read_text().splitlines(keepends=True)
        (store / JOURNAL_NAME).write_text(lines[0])
        # Resume, traced again.
        report, _reg = traced_run(store, tmp_path / "trace2",
                                  jobs=1, resume=True)
        assert report.tasks_skipped == 1
        assert (store / JOURNAL_NAME).read_bytes() == \
            (untraced_store / JOURNAL_NAME).read_bytes()


# ---------------------------------------------------------------------------
# store status (a standalone store is a one-shard fleet)
# ---------------------------------------------------------------------------

class TestCampaignStatus:
    def test_tallies_match_journal(self, untraced_store):
        status = fleet_status(untraced_store)
        assert status.tasks_total == TOTAL_TASKS
        assert status.tasks_completed == TOTAL_TASKS
        assert status.complete and status.fraction == 1.0
        (shard,) = status.shards
        journaled = CampaignStore.open(untraced_store).campaigns()
        expected = {effect.value: 0 for effect in EFFECT_ORDER}
        interventions = 0
        for stored in journaled:
            interventions += stored.interventions
            for record in stored.records:
                for effect in record.effects:
                    expected[effect.value] += 1
        assert dict(shard.effect_tallies) == expected
        assert shard.interventions == interventions
        assert [e for e, _c in shard.effect_tallies] == \
            [effect.value for effect in EFFECT_ORDER]
        assert shard.cells == (("bwaves", 0, CFG.campaigns),)

    def test_partial_store_reports_remaining(self, untraced_store, tmp_path):
        target = tmp_path / "killed"
        target.mkdir()
        (target / MANIFEST_NAME).write_text(
            (untraced_store / MANIFEST_NAME).read_text())
        lines = (untraced_store / JOURNAL_NAME).read_text() \
            .splitlines(keepends=True)
        (target / JOURNAL_NAME).write_text(lines[0])
        status = fleet_status(target)
        assert status.tasks_completed == 1
        assert status.tasks_remaining == TOTAL_TASKS - 1
        assert not status.complete
        assert status.eta_s is None  # no metrics snapshot given

    def test_eta_from_metrics_snapshot(self, untraced_store, tmp_path):
        target = tmp_path / "killed"
        target.mkdir()
        (target / MANIFEST_NAME).write_text(
            (untraced_store / MANIFEST_NAME).read_text())
        lines = (untraced_store / JOURNAL_NAME).read_text() \
            .splitlines(keepends=True)
        (target / JOURNAL_NAME).write_text(lines[0])
        reg = MetricsRegistry()
        reg.histogram(M_TASK_SECONDS).observe(2.0)
        reg.histogram(M_TASK_SECONDS).observe(4.0)
        snapshot = reg.write(tmp_path / "metrics.json")
        status = fleet_status(target, metrics_path=snapshot)
        assert status.mean_task_seconds == pytest.approx(3.0)
        assert status.eta_s == pytest.approx(3.0 * (TOTAL_TASKS - 1))

    def test_non_snapshot_metrics_file_rejected(self, untraced_store, tmp_path):
        bogus = tmp_path / "metrics.json"
        bogus.write_text('{"format": "something-else"}')
        with pytest.raises(ValueError):
            fleet_status(untraced_store, metrics_path=bogus)

    def test_render_status_is_human_readable(self, untraced_store):
        text = render_fleet_status(fleet_status(untraced_store))
        assert f"{TOTAL_TASKS}/{TOTAL_TASKS} tasks" in text
        assert "complete" in text
        assert "effect classes" in text
        assert "bwaves c0" in text
        assert "watchdog interventions" in text
