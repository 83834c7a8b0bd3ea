"""Structured event tracer emitting span-per-task JSONL traces.

Each campaign task gets a trace identified by ``(benchmark, core,
campaign)`` (see :func:`task_trace_id`).  Spans nest: the task root
span contains child spans for voltage steps, parses, watchdog
recoveries and journal appends.  Records are JSON dictionaries
validated against :data:`SPAN_SCHEMA`, one per line in a
``trace-<id>.jsonl`` file written by :class:`TraceWriter`.

Timestamps come from the injected :data:`~repro.telemetry.clock.Clock`
-- tracing never reads wall-clock time on its own, so a fake clock
makes traces fully deterministic in tests.

A :class:`Tracer` is single-threaded by construction: the engine gives
each worker task its own tracer recording into a local list, and the
recorded spans travel back to the parent on the result channel.
"""

from __future__ import annotations

import json
import re
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Set, Tuple, Union

from ..durable import AppendLog
from .clock import MONOTONIC_CLOCK, Clock

SPAN_FORMAT = "repro-span/v1"

#: Trace id used for spans emitted outside any campaign task (engine
#: lifecycle, CLI-level events).
SESSION_TRACE_ID = "session"

#: The parent-process tracer allocates span ids from this base so its
#: events can share a trace file with worker-recorded spans (which
#: number from 1) without id collisions.
PARENT_SPAN_ID_BASE = 1_000_000

AttrValue = Union[str, int, float, bool, None]

#: Published span schema: field name -> (type spec, required).
#: ``validate_span`` checks records against this table and it is the
#: contract documented in docs/observability.md.
SPAN_SCHEMA: Dict[str, Tuple[str, bool]] = {
    "format": ("str", True),
    "trace_id": ("str", True),
    "name": ("str", True),
    "span_id": ("int", True),
    "parent_id": ("int|null", True),
    "start_s": ("float", True),
    "end_s": ("float", True),
    "status": ("str", True),
    "attributes": ("object", True),
}

_SPAN_STATUSES = frozenset({"ok", "error"})


@dataclass(frozen=True)
class SpanRecord:
    """One completed span. Zero-duration spans model point events."""

    trace_id: str
    name: str
    span_id: int
    parent_id: Optional[int]
    start_s: float
    end_s: float
    status: str = "ok"
    attributes: Tuple[Tuple[str, AttrValue], ...] = ()

    def to_json_dict(self) -> Dict[str, object]:
        return {
            "format": SPAN_FORMAT,
            "trace_id": self.trace_id,
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_s": self.start_s,
            "end_s": self.end_s,
            "status": self.status,
            "attributes": {k: v for k, v in self.attributes},
        }

    @classmethod
    def from_json_dict(cls, data: Mapping[str, object]) -> "SpanRecord":
        problems = validate_span(data)
        if problems:
            raise ValueError(f"invalid span record: {'; '.join(problems)}")
        attributes = data["attributes"]
        assert isinstance(attributes, dict)
        parent = data["parent_id"]
        return cls(
            trace_id=str(data["trace_id"]),
            name=str(data["name"]),
            span_id=int(str(data["span_id"])),
            parent_id=None if parent is None else int(str(parent)),
            start_s=float(str(data["start_s"])),
            end_s=float(str(data["end_s"])),
            status=str(data["status"]),
            attributes=tuple(sorted(attributes.items())),
        )


def validate_span(data: Mapping[str, object]) -> List[str]:
    """Return a list of schema violations (empty == valid)."""
    problems: List[str] = []
    for key, (spec, required) in SPAN_SCHEMA.items():
        if key not in data:
            if required:
                problems.append(f"missing field {key!r}")
            continue
        value = data[key]
        if spec == "str" and not isinstance(value, str):
            problems.append(f"{key!r} must be a string, got {type(value).__name__}")
        elif spec == "int" and not (isinstance(value, int) and not isinstance(value, bool)):
            problems.append(f"{key!r} must be an int, got {type(value).__name__}")
        elif spec == "int|null" and value is not None and not (
            isinstance(value, int) and not isinstance(value, bool)
        ):
            problems.append(f"{key!r} must be an int or null, got {type(value).__name__}")
        elif spec == "float" and not isinstance(value, (int, float)):
            problems.append(f"{key!r} must be a number, got {type(value).__name__}")
        elif spec == "object" and not isinstance(value, dict):
            problems.append(f"{key!r} must be an object, got {type(value).__name__}")
    extra = set(data) - set(SPAN_SCHEMA)
    if extra:
        problems.append(f"unknown fields: {sorted(extra)}")
    if isinstance(data.get("format"), str) and data["format"] != SPAN_FORMAT:
        problems.append(f"format must be {SPAN_FORMAT!r}, got {data['format']!r}")
    if isinstance(data.get("status"), str) and data["status"] not in _SPAN_STATUSES:
        problems.append(f"status must be one of {sorted(_SPAN_STATUSES)}")
    return problems


def task_trace_id(benchmark: str, core: int, campaign: int) -> str:
    """Canonical trace id for one (benchmark, core, campaign) task."""
    return f"{benchmark}:c{core}:k{campaign}"


SpanSink = Callable[[SpanRecord], None]


@dataclass
class _OpenSpan:
    trace_id: str
    name: str
    span_id: int
    parent_id: Optional[int]
    start_s: float
    attributes: Dict[str, AttrValue] = field(default_factory=dict)


class Tracer:
    """Records spans into a sink. Single-threaded per instance."""

    def __init__(
        self,
        sink: SpanSink,
        clock: Clock = MONOTONIC_CLOCK,
        first_id: int = 1,
    ) -> None:
        self._sink = sink
        self._clock = clock
        self._next_id = first_id
        self._stack: List[_OpenSpan] = []

    def _allocate_id(self) -> int:
        span_id = self._next_id
        self._next_id += 1
        return span_id

    @property
    def current_trace_id(self) -> str:
        return self._stack[-1].trace_id if self._stack else SESSION_TRACE_ID

    @property
    def current_span_id(self) -> Optional[int]:
        return self._stack[-1].span_id if self._stack else None

    @contextmanager
    def span(
        self,
        name: str,
        trace_id: Optional[str] = None,
        **attributes: AttrValue,
    ) -> Iterator[None]:
        """Open a span; nested spans become children.

        ``trace_id`` defaults to the enclosing span's trace (or
        :data:`SESSION_TRACE_ID` at top level).  The span closes with
        status ``"error"`` if the body raises.
        """
        open_span = _OpenSpan(
            trace_id=trace_id if trace_id is not None else self.current_trace_id,
            name=name,
            span_id=self._allocate_id(),
            parent_id=self.current_span_id,
            start_s=self._clock(),
            attributes=dict(attributes),
        )
        self._stack.append(open_span)
        status = "ok"
        try:
            yield
        except BaseException:
            status = "error"
            raise
        finally:
            self._stack.pop()
            self._sink(
                SpanRecord(
                    trace_id=open_span.trace_id,
                    name=open_span.name,
                    span_id=open_span.span_id,
                    parent_id=open_span.parent_id,
                    start_s=open_span.start_s,
                    end_s=self._clock(),
                    status=status,
                    attributes=tuple(sorted(open_span.attributes.items())),
                )
            )

    def event(
        self,
        name: str,
        trace_id: Optional[str] = None,
        **attributes: AttrValue,
    ) -> None:
        """Emit a zero-duration span marking a point event."""
        now = self._clock()
        self._sink(
            SpanRecord(
                trace_id=trace_id if trace_id is not None else self.current_trace_id,
                name=name,
                span_id=self._allocate_id(),
                parent_id=self.current_span_id,
                start_s=now,
                end_s=now,
                attributes=tuple(sorted(attributes.items())),
            )
        )

    def emit(self, record: SpanRecord) -> None:
        """Route an externally recorded span (e.g. from a worker) to the sink."""
        self._sink(record)


_UNSAFE_TRACE_CHARS = re.compile(r"[^A-Za-z0-9._-]+")


class TraceWriter:
    """Span sink appending JSONL trace files, one file per trace id.

    Appends skip fsync (spans are diagnostics); a torn last line left
    by a killed run is healed when this writer first touches the file.
    """

    def __init__(self, directory: Union[str, Path]) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._healed: Set[Path] = set()

    def path_for(self, trace_id: str) -> Path:
        safe = _UNSAFE_TRACE_CHARS.sub("_", trace_id) or "trace"
        return self.directory / f"trace-{safe}.jsonl"

    def __call__(self, record: SpanRecord) -> None:
        path = self.path_for(record.trace_id)
        if path not in self._healed:
            log = AppendLog(path, "trace")
            for _entry in log.read():
                pass
            log.heal()
            self._healed.add(path)
        line = json.dumps(record.to_json_dict(), sort_keys=True)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(line + "\n")


def load_spans(path: Union[str, Path]) -> List[SpanRecord]:
    """Parse one JSONL trace file back into validated records.

    A torn trailing line -- the scar of a writer killed mid-append --
    is dropped; an undecodable line anywhere else raises
    :class:`~repro.errors.CorruptLogError` (see
    :class:`~repro.durable.AppendLog`).
    """
    records: List[SpanRecord] = []
    for _line, data in AppendLog(path, "trace").read():
        if not isinstance(data, dict):
            raise ValueError(f"trace line is not an object: {data!r}")
        records.append(SpanRecord.from_json_dict(data))
    return records


__all__ = [
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
]
