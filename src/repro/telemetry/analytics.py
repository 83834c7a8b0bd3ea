"""Offline trace analytics over ``repro-span/v1`` trace directories.

:func:`analyze_trace_dir` turns the JSONL traces a ``--trace DIR`` run
left behind into the questions an operator actually asks:

* **Per-phase time attribution** -- how much of the session went to
  voltage stepping, log parsing, journal appends, worker overhead and
  engine overhead.  Attribution is a boundary sweep over every task
  trace's innermost-span segments (plus the session trace's per-chunk
  ``journal.fsync`` commits), clipped to the ``engine.run``
  session window(s); concurrent segments share their elementary
  interval equally, and uncovered session time books to
  ``engine_overhead`` -- so the phases sum to the total session span
  time exactly (one float rounding away).
* **Critical paths** -- per task, the deterministic longest-child walk
  from the root span down (ties broken by earlier start, then smaller
  span id).
* **Straggler/utilization reports** across parallel workers, and an
  ASCII flame/treemap rendering for terminals.

Everything is a pure function of the trace bytes: the same trace
directory analyzes to the same report bytes, every time.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .tracing import SESSION_TRACE_ID, SpanRecord, load_spans

ANALYSIS_FORMAT = "repro-analysis/v1"

#: Attribution phases, in report order.
PHASES = (
    "voltage_step",
    "parse",
    "journal_append",
    "watchdog",
    "worker_overhead",
    "engine_overhead",
)

#: span name -> phase; anything unlisted inside a task trace books to
#: ``worker_overhead`` (the task/campaign shells around the real work).
_PHASE_OF = {
    "voltage_step": "voltage_step",
    "parse": "parse",
    "journal.append": "journal_append",
    "journal.fsync": "journal_append",
    "watchdog.recovery": "watchdog",
}

#: Stragglers run longer than this multiple of the median task.
STRAGGLER_FACTOR = 1.5


@dataclasses.dataclass(frozen=True)
class CriticalPathStep:
    """One hop of a task's longest-child walk."""

    name: str
    span_id: int
    depth: int
    duration_s: float
    #: Duration not covered by the step's own children.
    self_s: float


@dataclasses.dataclass(frozen=True)
class TaskSummary:
    """One task trace, reduced."""

    trace_id: str
    benchmark: str
    core: int
    campaign: int
    start_s: float
    end_s: float
    spans: int
    errors: int
    watchdog_events: int
    #: Innermost-span self time per phase, unshared (this task alone).
    phase_seconds: Tuple[Tuple[str, float], ...]
    critical_path: Tuple[CriticalPathStep, ...]

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s


@dataclasses.dataclass(frozen=True)
class TraceAnalysis:
    """The full deterministic report over one trace directory."""

    trace_dir: str
    #: ``engine.run`` session windows (start, end), chronological.
    session_windows: Tuple[Tuple[float, float], ...]
    backend: str
    jobs: int
    tasks: Tuple[TaskSummary, ...]
    #: Fair-share attribution across the whole session; sums to
    #: :attr:`total_session_s` (within float rounding).
    phase_seconds: Tuple[Tuple[str, float], ...]
    #: Trace ids of tasks slower than ``STRAGGLER_FACTOR`` x median.
    stragglers: Tuple[str, ...]

    @property
    def total_session_s(self) -> float:
        return sum(end - start for start, end in self.session_windows)

    @property
    def utilization(self) -> float:
        """Busy task time / (jobs x session time); 0 when unknown."""
        capacity = self.jobs * self.total_session_s
        if capacity <= 0:
            return 0.0
        busy = sum(task.duration_s for task in self.tasks)
        return busy / capacity

    def to_json_dict(self) -> Dict[str, object]:
        return {
            "format": ANALYSIS_FORMAT,
            "trace_dir": self.trace_dir,
            "session_windows": [list(w) for w in self.session_windows],
            "total_session_s": self.total_session_s,
            "backend": self.backend,
            "jobs": self.jobs,
            "utilization": self.utilization,
            "phase_seconds": {phase: s for phase, s in self.phase_seconds},
            "stragglers": list(self.stragglers),
            "tasks": [
                {
                    "trace_id": task.trace_id,
                    "benchmark": task.benchmark,
                    "core": task.core,
                    "campaign": task.campaign,
                    "start_s": task.start_s,
                    "end_s": task.end_s,
                    "duration_s": task.duration_s,
                    "spans": task.spans,
                    "errors": task.errors,
                    "watchdog_events": task.watchdog_events,
                    "phase_seconds": {p: s for p, s in task.phase_seconds},
                    "critical_path": [
                        dataclasses.asdict(step) for step in task.critical_path
                    ],
                }
                for task in self.tasks
            ],
        }

    def serialize(self) -> str:
        """Canonical byte-comparable report (same dir -> same bytes)."""
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True) + "\n"


# -- span geometry ----------------------------------------------------------


def _innermost_segments(
    spans: Sequence[SpanRecord],
) -> List[Tuple[float, float, str]]:
    """``(start, end, phase)`` segments, innermost span winning.

    A boundary sweep over one trace: at every elementary interval the
    covering span that started last (ties: ends first, then larger
    span id) is "the" activity, which for properly nested spans is the
    innermost frame.  Zero-duration events contribute no segments.
    """
    timed = [s for s in spans if s.end_s > s.start_s]
    if not timed:
        return []
    bounds = sorted({t for s in timed for t in (s.start_s, s.end_s)})
    segments: List[Tuple[float, float, str]] = []
    for left, right in zip(bounds, bounds[1:]):
        covering = [s for s in timed if s.start_s <= left and s.end_s >= right]
        if not covering:
            continue
        inner = max(covering, key=lambda s: (s.start_s, -s.end_s, s.span_id))
        phase = _PHASE_OF.get(inner.name, "worker_overhead")
        if segments and segments[-1][2] == phase and segments[-1][1] == left:
            segments[-1] = (segments[-1][0], right, phase)
        else:
            segments.append((left, right, phase))
    return segments


def _fair_share_attribution(
    windows: Sequence[Tuple[float, float]],
    segments: Sequence[Tuple[float, float, str]],
) -> Dict[str, float]:
    """Partition every session window across concurrent segments.

    Each elementary interval's duration is split equally among the
    segments active in it; intervals no segment covers book to
    ``engine_overhead``.  The result sums to the total window time
    exactly, because every interval is assigned in full.
    """
    phases = {phase: 0.0 for phase in PHASES}
    for win_start, win_end in windows:
        clipped = [
            (max(s, win_start), min(e, win_end), phase)
            for s, e, phase in segments
            if min(e, win_end) > max(s, win_start)
        ]
        bounds = sorted(
            {win_start, win_end}
            | {t for s, e, _p in clipped for t in (s, e)}
        )
        for left, right in zip(bounds, bounds[1:]):
            active = [p for s, e, p in clipped if s <= left and e >= right]
            width = right - left
            if not active:
                phases["engine_overhead"] += width
            else:
                share = width / len(active)
                for phase in active:
                    phases[phase] += share
    return phases


def _critical_path(spans: Sequence[SpanRecord]) -> Tuple[CriticalPathStep, ...]:
    """Deterministic longest-child walk from the task root down."""
    timed = [s for s in spans if s.end_s > s.start_s]
    if not timed:
        return ()
    by_id = {s.span_id: s for s in timed}
    children: Dict[Optional[int], List[SpanRecord]] = {}
    for s in timed:
        parent = s.parent_id if s.parent_id in by_id else None
        children.setdefault(parent, []).append(s)
    roots = children.get(None, [])
    named_roots = [s for s in roots if s.name == "task"]
    pool = named_roots if named_roots else roots
    if not pool:
        return ()
    current = max(
        pool, key=lambda s: (s.end_s - s.start_s, -s.start_s, -s.span_id)
    )
    steps: List[CriticalPathStep] = []
    depth = 0
    while current is not None:
        kids = children.get(current.span_id, [])
        child_time = sum(k.end_s - k.start_s for k in kids)
        duration = current.end_s - current.start_s
        steps.append(
            CriticalPathStep(
                name=current.name,
                span_id=current.span_id,
                depth=depth,
                duration_s=duration,
                self_s=max(0.0, duration - child_time),
            )
        )
        if not kids:
            break
        current = max(
            kids, key=lambda s: (s.end_s - s.start_s, -s.start_s, -s.span_id)
        )
        depth += 1
    return tuple(steps)


# -- directory analysis -----------------------------------------------------


def _attr(span: SpanRecord, key: str, default: object = None) -> object:
    return dict(span.attributes).get(key, default)


def _summarize_task(
    trace_id: str, spans: Sequence[SpanRecord]
) -> Optional[TaskSummary]:
    timed = [s for s in spans if s.end_s > s.start_s]
    if not timed:
        return None
    roots = [s for s in spans if s.name == "task"]
    root = roots[0] if roots else None
    # The task span is the task's extent: spans the parent records
    # under the task's trace id afterwards (its journal append at the
    # chunk checkpoint) are not task time.  Without one, the hull.
    extent = [root] if root is not None else timed
    segments = _innermost_segments(spans)
    phase_self = {phase: 0.0 for phase in PHASES}
    for start, end, phase in segments:
        phase_self[phase] += end - start
    return TaskSummary(
        trace_id=trace_id,
        benchmark=str(_attr(root, "benchmark", trace_id.split(":")[0])
                      if root else trace_id.split(":")[0]),
        core=int(str(_attr(root, "core", -1))) if root else -1,
        campaign=int(str(_attr(root, "campaign", -1))) if root else -1,
        start_s=min(s.start_s for s in extent),
        end_s=max(s.end_s for s in extent),
        spans=len(spans),
        errors=sum(1 for s in spans if s.status == "error"),
        watchdog_events=sum(1 for s in spans if s.name == "watchdog.recovery"),
        phase_seconds=tuple(
            (phase, phase_self[phase]) for phase in PHASES
        ),
        critical_path=_critical_path(spans),
    )


def analyze_trace_dir(directory: Union[str, Path]) -> TraceAnalysis:
    """Analyze every ``trace-*.jsonl`` file under ``directory``.

    A trace torn by a killed run still analyzes (see
    :func:`~repro.telemetry.tracing.load_spans`).  Raises :class:`ValueError` when the directory
    holds no trace files at all.
    """
    root = Path(directory)
    paths = sorted(root.glob("trace-*.jsonl"))
    if not paths:
        raise ValueError(f"no trace-*.jsonl files under {root}")
    by_trace: Dict[str, List[SpanRecord]] = {}
    for path in paths:
        for record in load_spans(path):
            by_trace.setdefault(record.trace_id, []).append(record)

    session_spans = by_trace.get(SESSION_TRACE_ID, [])
    engine_runs = sorted(
        (s for s in session_spans if s.name == "engine.run"),
        key=lambda s: (s.start_s, s.span_id),
    )
    backend = "unknown"
    jobs = 1
    if engine_runs:
        windows = tuple((s.start_s, s.end_s) for s in engine_runs)
        backend = str(_attr(engine_runs[-1], "backend", "unknown"))
        jobs = int(str(_attr(engine_runs[-1], "jobs", 1)))
    else:
        # Traces recorded without the engine (or a torn session file):
        # fall back to the hull of everything observed.
        timed = [s for spans in by_trace.values() for s in spans
                 if s.end_s > s.start_s]
        if not timed:
            raise ValueError(f"no timed spans under {root}")
        windows = (
            (min(s.start_s for s in timed), max(s.end_s for s in timed)),
        )

    tasks: List[TaskSummary] = []
    all_segments: List[Tuple[float, float, str]] = []
    for trace_id in sorted(by_trace):
        if trace_id == SESSION_TRACE_ID:
            continue
        summary = _summarize_task(trace_id, by_trace[trace_id])
        if summary is None:
            continue
        tasks.append(summary)
        all_segments.extend(_innermost_segments(by_trace[trace_id]))
    # A chunk's journal commit is the parent's, outside any task trace.
    all_segments.extend(_innermost_segments(
        [s for s in session_spans if s.name in _PHASE_OF]
    ))

    phases = _fair_share_attribution(windows, all_segments)
    durations = sorted(task.duration_s for task in tasks)
    stragglers: Tuple[str, ...] = ()
    if durations:
        median = durations[len(durations) // 2]
        stragglers = tuple(
            task.trace_id
            for task in sorted(tasks, key=lambda t: -t.duration_s)
            if task.duration_s > STRAGGLER_FACTOR * median
        )
    return TraceAnalysis(
        trace_dir=str(directory),
        session_windows=windows,
        backend=backend,
        jobs=jobs,
        tasks=tuple(tasks),
        phase_seconds=tuple((phase, phases[phase]) for phase in PHASES),
        stragglers=stragglers,
    )


# -- rendering --------------------------------------------------------------


def _bar(fraction: float, width: int) -> str:
    filled = int(round(max(0.0, min(1.0, fraction)) * width))
    return "#" * filled + "." * (width - filled)


def render_analysis(analysis: TraceAnalysis, width: int = 60) -> str:
    """Deterministic terminal report: attribution, treemap, flame."""
    lines: List[str] = []
    total = analysis.total_session_s
    lines.append(f"trace analysis: {analysis.trace_dir}")
    lines.append(
        f"session: {total:.6f} s over {len(analysis.session_windows)} "
        f"engine run(s), backend {analysis.backend}, jobs {analysis.jobs}"
    )
    lines.append(
        f"tasks: {len(analysis.tasks)}, utilization "
        f"{100.0 * analysis.utilization:.1f} % of {analysis.jobs} worker(s)"
    )
    lines.append("phase attribution:")
    for phase, seconds in analysis.phase_seconds:
        fraction = seconds / total if total > 0 else 0.0
        lines.append(
            f"  {phase:<16} {seconds:>10.6f} s {100.0 * fraction:5.1f} %  "
            f"{_bar(fraction, width // 2)}"
        )
    if analysis.tasks:
        slowest = max(
            analysis.tasks, key=lambda t: (t.duration_s, t.trace_id)
        )
        longest = max(task.duration_s for task in analysis.tasks)
        lines.append("task treemap (duration-scaled):")
        for task in analysis.tasks:
            fraction = task.duration_s / longest if longest > 0 else 0.0
            flag = " *straggler*" if task.trace_id in analysis.stragglers \
                else ""
            lines.append(
                f"  {task.trace_id:<20} {task.duration_s:>10.6f} s "
                f"{_bar(fraction, width // 2)}{flag}"
            )
        lines.append(f"critical path of slowest task ({slowest.trace_id}):")
        for step in slowest.critical_path:
            lines.append(
                f"  {'  ' * step.depth}{step.name:<16} "
                f"{step.duration_s:>10.6f} s (self {step.self_s:.6f} s)"
            )
    if analysis.stragglers:
        lines.append(
            "stragglers (> {:.1f}x median): {}".format(
                STRAGGLER_FACTOR, ", ".join(analysis.stragglers)
            )
        )
    return "\n".join(lines) + "\n"


__all__ = [
    "ANALYSIS_FORMAT",
    "PHASES",
    "STRAGGLER_FACTOR",
    "CriticalPathStep",
    "TaskSummary",
    "TraceAnalysis",
    "analyze_trace_dir",
    "render_analysis",
]
