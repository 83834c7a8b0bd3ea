"""Metrics registry: counters, gauges and histograms with exporters.

A :class:`MetricsRegistry` owns a set of named metric families.  Each
family has a kind (``counter``/``gauge``/``histogram``), a help string
and one child instrument per distinct label set.  Two exporters are
provided: a JSON snapshot (format tag :data:`METRICS_FORMAT`) and the
Prometheus text exposition format, dispatched by file extension in
:meth:`MetricsRegistry.write`.

The registry performs no I/O and reads no clock of its own; callers
(the telemetry context layer) feed it observations, which keeps the
simulation packages free of wall-clock access (RPR002).
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import (
    Dict,
    Iterator,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Tuple,
    Union,
)

from ..durable import atomic_write

METRICS_FORMAT = "repro-metrics/v1"

# Canonical metric names.  Consumers reference these constants instead
# of repeating strings, and the catalog below pins kind + help text so
# every exporter renders the same metadata.
M_GRID_TASKS = "repro_engine_grid_tasks"
M_TASKS_COMPLETED = "repro_engine_tasks_completed_total"
M_TASKS_SKIPPED = "repro_engine_tasks_skipped_total"
M_CHUNKS_RETRIED = "repro_engine_chunks_retried_total"
M_TASK_SECONDS = "repro_engine_task_seconds"
M_CHUNK_SECONDS = "repro_engine_chunk_seconds"
M_THROUGHPUT = "repro_engine_throughput_tasks_per_second"
M_INTERVENTIONS = "repro_engine_interventions_total"
M_EFFECTS = "repro_effects_total"
M_WATCHDOG = "repro_watchdog_recoveries_total"
M_JOURNAL_APPENDS = "repro_store_journal_appends_total"
M_JOURNAL_FSYNC_SECONDS = "repro_store_journal_fsync_seconds"
M_SNAPSHOT_READS = "repro_store_snapshot_reads_total"
M_PARSER_RUNS = "repro_parser_runs_total"
M_KERNEL_CAMPAIGNS = "repro_kernel_campaigns_total"
M_LOG_MESSAGES = "repro_log_messages_total"
M_PREDICTION_PROFILES = "repro_prediction_profiles_total"
M_PREDICTION_CHARACTERIZATIONS = "repro_prediction_characterizations_total"
M_MODEL_RMSE = "repro_model_rmse"
M_MODEL_DRIFT = "repro_model_drift"
M_TSDB_SNAPSHOTS = "repro_tsdb_snapshots_total"

#: Default histogram bucket boundaries, in seconds.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001,
    0.005,
    0.01,
    0.05,
    0.1,
    0.5,
    1.0,
    5.0,
    10.0,
    60.0,
)

#: Journal fsync latencies live well under DEFAULT_BUCKETS' smallest
#: 1 ms bound on any SSD, so the fsync histogram carries its own
#: sub-millisecond resolution.
FSYNC_BUCKETS: Tuple[float, ...] = (
    0.00005,
    0.0001,
    0.00025,
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.05,
    0.25,
    1.0,
)


class MetricSpec(NamedTuple):
    """One catalog entry: kind, help text, optional bucket override."""

    kind: str
    help: str
    #: Histogram bucket boundaries; ``None`` means
    #: :data:`DEFAULT_BUCKETS` (and must be ``None`` for non-histograms).
    buckets: Optional[Tuple[float, ...]] = None


#: name -> :class:`MetricSpec`.  Unknown names may still be registered
#: (kind inferred from the accessor used) but catalog entries keep the
#: core instrumentation self-describing, and histogram entries pin the
#: bucket layout every registry resolves.
METRIC_CATALOG: Dict[str, MetricSpec] = {
    M_GRID_TASKS: MetricSpec("gauge", "Total (benchmark, core, campaign) tasks in the grid."),
    M_TASKS_COMPLETED: MetricSpec("counter", "Campaign tasks completed this run."),
    M_TASKS_SKIPPED: MetricSpec("counter", "Campaign tasks replayed from the journal on resume."),
    M_CHUNKS_RETRIED: MetricSpec("counter", "Task chunks retried after a worker crash."),
    M_TASK_SECONDS: MetricSpec("histogram", "Per-task wall time attributed by the progress tracker."),
    M_CHUNK_SECONDS: MetricSpec("histogram", "Wall time per scheduled task chunk."),
    M_THROUGHPUT: MetricSpec("gauge", "Engine throughput over the finished run, tasks per second."),
    M_INTERVENTIONS: MetricSpec("counter", "Watchdog interventions observed across completed tasks."),
    M_EFFECTS: MetricSpec("counter", "Parsed run records by undervolting effect class (Table 3)."),
    M_WATCHDOG: MetricSpec("counter", "Watchdog recovery actions by kind."),
    M_JOURNAL_APPENDS: MetricSpec("counter", "Campaign records appended to the store journal."),
    M_JOURNAL_FSYNC_SECONDS: MetricSpec(
        "histogram", "Journal commit write+fsync latency, one per chunk.", buckets=FSYNC_BUCKETS
    ),
    M_SNAPSHOT_READS: MetricSpec("counter", "Journal loads from byte 0 by count-snapshot outcome (hit/miss) and reason."),
    M_PARSER_RUNS: MetricSpec("counter", "Run blocks parsed from characterization logs."),
    M_KERNEL_CAMPAIGNS: MetricSpec("counter", "Campaigns by evaluation path (batch kernel vs scalar fallback)."),
    M_LOG_MESSAGES: MetricSpec("counter", "Structured log messages by level."),
    M_PREDICTION_PROFILES: MetricSpec("counter", "Performance-counter profiles computed by the prediction pipeline."),
    M_PREDICTION_CHARACTERIZATIONS: MetricSpec("counter", "Characterizations run by the prediction pipeline."),
    M_MODEL_RMSE: MetricSpec("gauge", "Prequential (test-then-train) RMSE of the streaming model."),
    M_MODEL_DRIFT: MetricSpec("gauge", "Streaming model drift: prequential RMSE relative to the naive baseline."),
    M_TSDB_SNAPSHOTS: MetricSpec("counter", "Registry snapshots appended to the metrics time-series journal."),
}

for _name, _spec in METRIC_CATALOG.items():
    if _spec.buckets is not None and _spec.kind != "histogram":
        raise ValueError(
            f"METRIC_CATALOG entry {_name!r} is a {_spec.kind} but "
            f"declares histogram buckets"
        )

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Mapping[str, str]) -> LabelKey:
    for key in labels:
        if not _LABEL_RE.match(key):
            raise ValueError(f"invalid label name: {key!r}")
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _fmt(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    return repr(float(value))


class Counter:
    """Monotonically increasing value."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter increment must be >= 0, got {amount}")
        self.value += amount


class Gauge:
    """Last-write-wins value."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


class Histogram:
    """Fixed-bucket distribution with sum and count."""

    __slots__ = ("buckets", "bucket_counts", "sum", "count")

    def __init__(self, buckets: Tuple[float, ...] = DEFAULT_BUCKETS) -> None:
        if tuple(sorted(buckets)) != tuple(buckets) or not buckets:
            raise ValueError(f"histogram buckets must be sorted and non-empty: {buckets}")
        self.buckets = tuple(float(b) for b in buckets)
        self.bucket_counts = [0] * len(self.buckets)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.sum += float(value)
        self.count += 1
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                self.bucket_counts[i] += 1
                break

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def cumulative(self) -> List[Tuple[float, int]]:
        """``(le, cumulative_count)`` pairs, ending with ``+Inf``."""
        out: List[Tuple[float, int]] = []
        running = 0
        for bound, n in zip(self.buckets, self.bucket_counts):
            running += n
            out.append((bound, running))
        out.append((float("inf"), self.count))
        return out


Instrument = Union[Counter, Gauge, Histogram]


class MetricFamily:
    """All children of one metric name, keyed by label set."""

    __slots__ = ("name", "kind", "help", "children")

    def __init__(self, name: str, kind: str, help_text: str) -> None:
        self.name = name
        self.kind = kind
        self.help = help_text
        self.children: Dict[LabelKey, Instrument] = {}


class MetricsRegistry:
    """A process-local collection of metric families.

    Accessors create families and children on demand; re-registering a
    name with a conflicting kind raises :class:`ValueError` so the two
    exporters can never disagree about a metric's type.
    """

    def __init__(self) -> None:
        self._families: Dict[str, MetricFamily] = {}

    # -- registration -------------------------------------------------

    def _family(self, name: str, kind: str) -> MetricFamily:
        spec = METRIC_CATALOG.get(name)
        if spec is not None:
            if spec.kind != kind:
                raise ValueError(
                    f"metric {name!r} is a {spec.kind} in METRIC_CATALOG, "
                    f"requested as {kind}"
                )
            help_text = spec.help
        else:
            help_text = f"Metric {name}."
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name: {name!r}")
        family = self._families.get(name)
        if family is None:
            family = MetricFamily(name, kind, help_text)
            self._families[name] = family
        elif family.kind != kind:
            raise ValueError(
                f"metric {name!r} already registered as {family.kind}, "
                f"requested as {kind}"
            )
        return family

    def counter(self, name: str, **labels: str) -> Counter:
        family = self._family(name, "counter")
        key = _label_key(labels)
        child = family.children.get(key)
        if child is None:
            child = Counter()
            family.children[key] = child
        assert isinstance(child, Counter)
        return child

    def gauge(self, name: str, **labels: str) -> Gauge:
        family = self._family(name, "gauge")
        key = _label_key(labels)
        child = family.children.get(key)
        if child is None:
            child = Gauge()
            family.children[key] = child
        assert isinstance(child, Gauge)
        return child

    def histogram(
        self,
        name: str,
        buckets: Optional[Tuple[float, ...]] = None,
        **labels: str,
    ) -> Histogram:
        """A histogram child; bucket resolution order is explicit
        ``buckets`` > the catalog's per-metric override >
        :data:`DEFAULT_BUCKETS`."""
        family = self._family(name, "histogram")
        key = _label_key(labels)
        child = family.children.get(key)
        if child is None:
            if buckets is None:
                spec = METRIC_CATALOG.get(name)
                buckets = spec.buckets if spec is not None else None
            child = Histogram(buckets if buckets is not None else DEFAULT_BUCKETS)
            family.children[key] = child
        assert isinstance(child, Histogram)
        return child

    def families(self) -> Iterator[MetricFamily]:
        for name in sorted(self._families):
            yield self._families[name]

    # -- exporters ----------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """JSON-serializable snapshot of every family and child."""
        metrics: List[Dict[str, object]] = []
        for family in self.families():
            samples: List[Dict[str, object]] = []
            for key in sorted(family.children):
                child = family.children[key]
                labels = {k: v for k, v in key}
                if isinstance(child, Histogram):
                    samples.append(
                        {
                            "labels": labels,
                            "sum": child.sum,
                            "count": child.count,
                            "buckets": [
                                ["+Inf" if le == float("inf") else le, n]
                                for le, n in child.cumulative()
                            ],
                        }
                    )
                else:
                    samples.append({"labels": labels, "value": child.value})
            metrics.append(
                {
                    "name": family.name,
                    "kind": family.kind,
                    "help": family.help,
                    "samples": samples,
                }
            )
        return {"format": METRICS_FORMAT, "metrics": metrics}

    def render_prometheus(self) -> str:
        """Prometheus text exposition format (version 0.0.4)."""
        lines: List[str] = []
        for family in self.families():
            lines.append(f"# HELP {family.name} {_escape_help(family.help)}")
            lines.append(f"# TYPE {family.name} {family.kind}")
            for key in sorted(family.children):
                child = family.children[key]
                if isinstance(child, Histogram):
                    for le, n in child.cumulative():
                        bucket_labels = key + (("le", _fmt(le)),)
                        lines.append(
                            f"{family.name}_bucket{_render_labels(bucket_labels)} {n}"
                        )
                    lines.append(
                        f"{family.name}_sum{_render_labels(key)} {_fmt(child.sum)}"
                    )
                    lines.append(
                        f"{family.name}_count{_render_labels(key)} {child.count}"
                    )
                else:
                    lines.append(
                        f"{family.name}{_render_labels(key)} {_fmt(child.value)}"
                    )
        return "\n".join(lines) + "\n" if lines else ""

    def write(self, path: Union[str, Path]) -> Path:
        """Write the registry to ``path``.

        ``.prom``/``.txt`` extensions select the Prometheus text
        exposition; anything else gets the JSON snapshot.
        """
        target = Path(path)
        if target.suffix in (".prom", ".txt"):
            body = self.render_prometheus()
        else:
            body = json.dumps(self.snapshot(), indent=2, sort_keys=True) + "\n"
        target.parent.mkdir(parents=True, exist_ok=True)
        atomic_write(target, body)
        return target


def _escape_label_value(value: str) -> str:
    """Escape per the exposition text format: backslash first, then
    double-quote and newline, so unescaping is a left-to-right inverse."""
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _unescape_label_value(value: str) -> str:
    """Inverse of :func:`_escape_label_value` (left-to-right scan)."""
    out: List[str] = []
    i = 0
    while i < len(value):
        ch = value[i]
        if ch == "\\" and i + 1 < len(value):
            nxt = value[i + 1]
            if nxt == "\\":
                out.append("\\")
                i += 2
                continue
            if nxt == '"':
                out.append('"')
                i += 2
                continue
            if nxt == "n":
                out.append("\n")
                i += 2
                continue
        out.append(ch)
        i += 1
    return "".join(out)


def _escape_help(text: str) -> str:
    """HELP lines escape only backslash and newline (not quotes)."""
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _render_labels(pairs: LabelKey) -> str:
    if not pairs:
        return ""
    body = ",".join(f'{k}="{_escape_label_value(v)}"' for k, v in pairs)
    return "{" + body + "}"


__all__ = [
    "METRICS_FORMAT",
    "METRIC_CATALOG",
    "DEFAULT_BUCKETS",
    "FSYNC_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricSpec",
    "MetricsRegistry",
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
]
