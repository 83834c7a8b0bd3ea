"""``repro.telemetry`` -- structured tracing, metrics and logging.

Three coordinated primitives, all determinism-neutral:

* **Tracer** (:mod:`.tracing`): span-per-task JSONL traces; trace id is
  ``(benchmark, core, campaign)`` via :func:`task_trace_id`, with child
  spans for voltage steps, parses, watchdog recoveries and journal
  appends.  Workers record spans locally and forward them to the
  parent on the engine's result channel.
* **Metrics** (:mod:`.metrics`): a counter/gauge/histogram registry
  with JSON-snapshot and Prometheus text-exposition exporters.
* **Structured logging** (:mod:`.log`): named loggers that emit trace
  events and a per-level counter instead of configuring :mod:`logging`.

The ambient context (:mod:`.context`) makes instrumented call sites
one-liners that no-op when telemetry is off; timestamps come only from
the injected monotonic clock (:mod:`.clock`), never from inside
simulation packages, so a telemetry-enabled run produces bit-identical
stores to a telemetry-off run.  :mod:`.status` turns any store's
journals plus a live metrics snapshot into the ``repro status`` report.

On top of those write-side primitives sits the read/analysis plane:

* **Trace analytics** (:mod:`.analytics`): deterministic critical-path
  extraction, per-phase time attribution and straggler reports over a
  trace directory -- the ``repro analyze`` subcommand.
* **Metrics time-series journal** (:mod:`.tsdb`): the opt-in
  ``repro-tsdb/v1`` snapshot journal plus the warm
  :class:`~.tsdb.TsdbCursor` reader whose state always equals a full
  re-parse.
* **Health rules** (:mod:`.health`): declarative bounds over the tsdb
  producing ``repro-health/v1`` verdicts.
* **Dashboard** (:mod:`.dash`): the ``repro dash`` terminal view
  aggregating progress, tsdb metrics, ETA and health.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

# Eager on purpose: ``clock`` is both this function and the name of the
# ``.clock`` submodule.  Importing the submodule binds the package
# attribute to the module; binding the function after it (and before
# any lazy lookup) keeps ``telemetry.clock()`` callable.
from .context import clock

if TYPE_CHECKING:
    from .analytics import (
        ANALYSIS_FORMAT,
        PHASES,
        CriticalPathStep,
        TaskSummary,
        TraceAnalysis,
        analyze_trace_dir,
        render_analysis,
    )
    from .clock import MONOTONIC_CLOCK, Clock
    from .context import (
        TelemetrySession,
        current_session,
        emit_spans,
        event,
        inc_counter,
        observe,
        sample_tsdb,
        set_gauge,
        shielded,
        span,
        task_trace,
        telemetry_session,
    )
    from .dash import Dashboard, DashSnapshot, render_dash
    from .health import (
        HEALTH_FORMAT,
        HealthRule,
        HealthVerdict,
        default_health_rules,
        evaluate_rules,
        health_report,
        overall_status,
        render_health,
        serialize_health,
    )
    from .log import LOG_LEVELS, StructuredLogger, get_logger
    from .metrics import (
        DEFAULT_BUCKETS,
        FSYNC_BUCKETS,
        METRIC_CATALOG,
        METRICS_FORMAT,
        M_CHUNK_SECONDS,
        M_CHUNKS_RETRIED,
        M_EFFECTS,
        M_GRID_TASKS,
        M_INTERVENTIONS,
        M_JOURNAL_APPENDS,
        M_JOURNAL_FSYNC_SECONDS,
        M_KERNEL_CAMPAIGNS,
        M_LOG_MESSAGES,
        M_MODEL_DRIFT,
        M_MODEL_RMSE,
        M_PARSER_RUNS,
        M_PREDICTION_CHARACTERIZATIONS,
        M_PREDICTION_PROFILES,
        M_SNAPSHOT_READS,
        M_TASK_SECONDS,
        M_TASKS_COMPLETED,
        M_TASKS_SKIPPED,
        M_THROUGHPUT,
        M_TSDB_SNAPSHOTS,
        M_WATCHDOG,
        Counter,
        Gauge,
        Histogram,
        MetricFamily,
        MetricSpec,
        MetricsRegistry,
    )
    from .status import (
        FleetShardStatus,
        FleetStatus,
        ModelStatus,
        fleet_status,
        model_statuses,
        render_fleet_status,
        render_model_status,
    )
    from .tracing import (
        PARENT_SPAN_ID_BASE,
        SESSION_TRACE_ID,
        SPAN_FORMAT,
        SPAN_SCHEMA,
        AttrValue,
        SpanRecord,
        SpanSink,
        Tracer,
        TraceWriter,
        load_spans,
        task_trace_id,
        validate_span,
    )
    from .tsdb import (
        TSDB_CURSOR_FORMAT,
        TSDB_FORMAT,
        TSDB_NAME,
        TsdbCursor,
        TsdbSampler,
        TsdbWriter,
    )

__getattr__, __dir__ = lazy_exports(__name__, {
    ".analytics": (
        "ANALYSIS_FORMAT", "PHASES", "CriticalPathStep", "TaskSummary",
        "TraceAnalysis", "analyze_trace_dir", "render_analysis",
    ),
    ".clock": ("MONOTONIC_CLOCK", "Clock"),
    ".context": (
        "TelemetrySession", "current_session", "emit_spans", "event",
        "inc_counter", "observe", "sample_tsdb", "set_gauge", "shielded",
        "span", "task_trace", "telemetry_session",
    ),
    ".dash": ("Dashboard", "DashSnapshot", "render_dash"),
    ".health": (
        "HEALTH_FORMAT", "HealthRule", "HealthVerdict", "default_health_rules",
        "evaluate_rules", "health_report", "overall_status", "render_health",
        "serialize_health",
    ),
    ".log": ("LOG_LEVELS", "StructuredLogger", "get_logger"),
    ".metrics": (
        "DEFAULT_BUCKETS", "FSYNC_BUCKETS", "METRIC_CATALOG", "METRICS_FORMAT",
        "M_CHUNK_SECONDS", "M_CHUNKS_RETRIED", "M_EFFECTS", "M_GRID_TASKS",
        "M_INTERVENTIONS", "M_JOURNAL_APPENDS", "M_JOURNAL_FSYNC_SECONDS",
        "M_KERNEL_CAMPAIGNS", "M_LOG_MESSAGES", "M_MODEL_DRIFT",
        "M_MODEL_RMSE", "M_PARSER_RUNS", "M_PREDICTION_CHARACTERIZATIONS",
        "M_PREDICTION_PROFILES", "M_SNAPSHOT_READS", "M_TASK_SECONDS",
        "M_TASKS_COMPLETED", "M_TASKS_SKIPPED", "M_THROUGHPUT",
        "M_TSDB_SNAPSHOTS", "M_WATCHDOG",
        "Counter", "Gauge", "Histogram", "MetricFamily", "MetricSpec",
        "MetricsRegistry",
    ),
    ".status": (
        "FleetShardStatus", "FleetStatus", "ModelStatus", "fleet_status",
        "model_statuses", "render_fleet_status", "render_model_status",
    ),
    ".tracing": (
        "PARENT_SPAN_ID_BASE", "SESSION_TRACE_ID", "SPAN_FORMAT",
        "SPAN_SCHEMA", "AttrValue", "SpanRecord", "SpanSink", "Tracer",
        "TraceWriter", "load_spans", "task_trace_id", "validate_span",
    ),
    ".tsdb": (
        "TSDB_CURSOR_FORMAT", "TSDB_FORMAT", "TSDB_NAME", "TsdbCursor",
        "TsdbSampler", "TsdbWriter",
    ),
})

__all__ = [
    # analytics
    "ANALYSIS_FORMAT",
    "PHASES",
    "CriticalPathStep",
    "TaskSummary",
    "TraceAnalysis",
    "analyze_trace_dir",
    "render_analysis",
    # clock
    "Clock",
    "MONOTONIC_CLOCK",
    # context
    "TelemetrySession",
    "clock",
    "current_session",
    "emit_spans",
    "event",
    "inc_counter",
    "observe",
    "sample_tsdb",
    "set_gauge",
    "shielded",
    "span",
    "task_trace",
    "telemetry_session",
    # dash
    "Dashboard",
    "DashSnapshot",
    "render_dash",
    # health
    "HEALTH_FORMAT",
    "HealthRule",
    "HealthVerdict",
    "default_health_rules",
    "evaluate_rules",
    "health_report",
    "overall_status",
    "render_health",
    "serialize_health",
    # log
    "LOG_LEVELS",
    "StructuredLogger",
    "get_logger",
    # metrics
    "Counter",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricSpec",
    "MetricsRegistry",
    "METRICS_FORMAT",
    "METRIC_CATALOG",
    "DEFAULT_BUCKETS",
    "FSYNC_BUCKETS",
    "M_GRID_TASKS",
    "M_TASKS_COMPLETED",
    "M_TASKS_SKIPPED",
    "M_CHUNKS_RETRIED",
    "M_TASK_SECONDS",
    "M_CHUNK_SECONDS",
    "M_THROUGHPUT",
    "M_INTERVENTIONS",
    "M_EFFECTS",
    "M_WATCHDOG",
    "M_JOURNAL_APPENDS",
    "M_JOURNAL_FSYNC_SECONDS",
    "M_SNAPSHOT_READS",
    "M_PARSER_RUNS",
    "M_KERNEL_CAMPAIGNS",
    "M_LOG_MESSAGES",
    "M_PREDICTION_PROFILES",
    "M_PREDICTION_CHARACTERIZATIONS",
    "M_MODEL_RMSE",
    "M_MODEL_DRIFT",
    "M_TSDB_SNAPSHOTS",
    # status
    "ModelStatus",
    "FleetShardStatus",
    "FleetStatus",
    "fleet_status",
    "model_statuses",
    "render_fleet_status",
    "render_model_status",
    # tracing
    "SPAN_FORMAT",
    "SPAN_SCHEMA",
    "SESSION_TRACE_ID",
    "PARENT_SPAN_ID_BASE",
    "AttrValue",
    "SpanRecord",
    "SpanSink",
    "Tracer",
    "TraceWriter",
    "load_spans",
    "task_trace_id",
    "validate_span",
    # tsdb
    "TSDB_CURSOR_FORMAT",
    "TSDB_FORMAT",
    "TSDB_NAME",
    "TsdbCursor",
    "TsdbSampler",
    "TsdbWriter",
]
