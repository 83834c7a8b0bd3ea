"""Span recording for the ledger's traced run.

The ledger times calls into each layer's public functions from its own
code: :class:`Patches` swaps an entry point for a wrapper and puts the
original back afterwards, and every wrapper reports to one
:class:`SpanRecorder`.  Nothing under ``src/`` is edited.

Two kinds of wrapper exist:

* a *span* records ``(name, start, end, parent)`` -- used at layer
  boundaries that run a handful of times per task;
* a *leaf* only adds its call count and duration to the innermost open
  span -- used for the per-run calls inside the batch kernel, so that
  tracing adds a counter, not a record, to the hot loop.

A span's self time is its duration minus the union of its child spans
(from any process) and minus the time its direct leaf calls took.

Forked pool workers inherit the wrappers together with the recorder.
The first span a worker opens starts a fresh record list; whenever the
worker's own stack empties again (one scheduling chunk), its records
are appended to ``spans-<pid>.jsonl`` in the spool directory, which
:meth:`SpanRecorder.collect` merges.  ``time.perf_counter`` reads
CLOCK_MONOTONIC on Linux, so timestamps compare across processes.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

#: ``attrs(args, kwargs, result) -> dict`` hook of a span wrapper.
AttrsHook = Callable[[tuple, dict, Any], Dict[str, Any]]


@dataclass
class Span:
    """One recorded call; ``leaves`` maps leaf name -> [calls, seconds, hits]."""

    id: str
    parent: Optional[str]
    name: str
    pid: int
    start: float
    end: float = 0.0
    attrs: Dict[str, Any] = field(default_factory=dict)
    leaves: Dict[str, List[float]] = field(default_factory=dict)
    #: Time inside leaf calls made directly under this span.
    leaf_s: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json(self, workload: str) -> Dict[str, Any]:
        return {
            "id": self.id,
            "parent": self.parent,
            "name": self.name,
            "pid": self.pid,
            "workload": workload,
            "start": self.start,
            "end": self.end,
            "attrs": self.attrs,
            "leaves": self.leaves,
            "leaf_s": self.leaf_s,
        }

    @classmethod
    def from_json(cls, data: Dict[str, Any]) -> "Span":
        return cls(
            id=data["id"],
            parent=data["parent"],
            name=data["name"],
            pid=data["pid"],
            start=data["start"],
            end=data["end"],
            attrs=data["attrs"],
            leaves=data["leaves"],
            leaf_s=data["leaf_s"],
        )


class SpanRecorder:
    """Collects the spans of one traced workload run."""

    def __init__(self, workload: str, spool: Path) -> None:
        self.workload = workload
        self.spool = spool
        self.root_pid = os.getpid()
        self._pid = self.root_pid
        self._records: List[Span] = []
        self._stack: List[Span] = []
        #: Stack depth inherited from the parent when this process forked.
        self._base_depth = 0
        self._leaf_depth = 0
        self._next = 0
        #: ``(name, enclosing span id, key, time)`` noted by mark wrappers.
        self.marks: List[Tuple[str, Optional[str], str, float]] = []

    # -- recording ----------------------------------------------------------

    def _open(self, name: str) -> Span:
        pid = os.getpid()
        if pid != self._pid:
            # First span in a forked worker: the parent's records stay
            # with the parent; its open spans remain our ancestry.
            self._pid = pid
            self._records = []
            self._base_depth = len(self._stack)
            self._leaf_depth = 0
        self._next += 1
        span = Span(
            id=f"{pid}.{self._next}",
            parent=self._stack[-1].id if self._stack else None,
            name=name,
            pid=pid,
            start=time.perf_counter(),
        )
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        if not span.end:
            span.end = time.perf_counter()
        self._stack.pop()
        self._records.append(span)
        if self._pid != self.root_pid and len(self._stack) == self._base_depth:
            self._flush()

    def _flush(self) -> None:
        path = self.spool / f"spans-{self._pid}.jsonl"
        with path.open("a") as handle:
            for span in self._records:
                handle.write(json.dumps(span.to_json(self.workload)) + "\n")
        self._records = []

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[Span]:
        """Record the enclosed block as one span."""
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def wrap_span(
        self, fn: Callable, name: str, attrs: Optional[AttrsHook] = None
    ) -> Callable:
        """``fn`` recording one span per call (plus ``attrs`` of it)."""

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
                span.end = time.perf_counter()
                # Before closing: a worker spools the span on close.
                if attrs is not None:
                    span.attrs.update(attrs(args, kwargs, result))
                return result
            finally:
                self._close(span)

        return wrapper

    def wrap_leaf(
        self, fn: Callable, name: str, hit: Optional[Callable[[Any], bool]] = None
    ) -> Callable:
        """``fn`` adding its calls, seconds and ``hit(result)`` count to
        the innermost open span."""

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            start = time.perf_counter()
            self._leaf_depth += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                self._leaf_depth -= 1
                elapsed = time.perf_counter() - start
                owner = self._stack[-1] if self._stack else None
                if owner is not None:
                    tally = owner.leaves.setdefault(name, [0, 0.0, 0])
                    tally[0] += 1
                    tally[1] += elapsed
                    if self._leaf_depth == 0:
                        owner.leaf_s += elapsed
            if hit is not None and owner is not None and hit(result):
                owner.leaves[name][2] += 1
            return result

        return wrapper

    def wrap_mark(
        self, fn: Callable, name: str, key: Callable[[tuple], Optional[str]]
    ) -> Callable:
        """``fn`` noting the time of each call ``key(args)`` names.

        Opens no span, so a worker pool forked inside the call keeps the
        caller's span as the parent of the workers' spans.
        """

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            mark = key(args)
            if mark is not None:
                parent = self._stack[-1].id if self._stack else None
                self.marks.append((name, parent, mark, time.perf_counter()))
            return fn(*args, **kwargs)

        return wrapper

    # -- output -------------------------------------------------------------

    def collect(self) -> List[Span]:
        """This process's spans plus every worker's spooled spans."""
        spans = list(self._records)
        for path in sorted(self.spool.glob("spans-*.jsonl")):
            with path.open() as handle:
                spans.extend(Span.from_json(json.loads(line)) for line in handle)
        return spans

    def write(self, spans: Sequence[Span], path: Path) -> None:
        with path.open("w") as handle:
            for span in spans:
                handle.write(json.dumps(span.to_json(self.workload)) + "\n")


class Patches:
    """Installs wrappers on entry points; :meth:`restore` undoes them.

    Entry points are looked up in the owner's own ``__dict__`` (a
    method inherited from a base class is refused), and classmethods /
    staticmethods are unwrapped and re-wrapped, so the wrapper sees the
    same arguments the original does.
    """

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self._saved: List[Tuple[Any, str, Any]] = []

    def set(self, owner: Any, attr: str, value: Any) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _wrap(self, owner: Any, attr: str, make: Callable[[Callable], Callable]) -> None:
        raw = vars(owner)[attr]
        if isinstance(raw, (classmethod, staticmethod)):
            self.set(owner, attr, type(raw)(make(raw.__func__)))
        else:
            self.set(owner, attr, make(raw))

    def span(
        self, owner: Any, attr: str, name: str, attrs: Optional[AttrsHook] = None
    ) -> None:
        self._wrap(owner, attr, lambda fn: self.recorder.wrap_span(fn, name, attrs))

    def leaf(
        self,
        owner: Any,
        attr: str,
        name: str,
        hit: Optional[Callable[[Any], bool]] = None,
    ) -> None:
        self._wrap(owner, attr, lambda fn: self.recorder.wrap_leaf(fn, name, hit))

    def restore(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)


# -- span arithmetic ----------------------------------------------------------


def union_length(intervals: Sequence[Tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping intervals."""
    covered = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                covered += current_end - current_start
            current_start, current_end = start, end
        elif end > current_end:
            current_end = end
    if current_end is not None:
        covered += current_end - current_start
    return covered


def self_times(spans: Sequence[Span]) -> Dict[str, float]:
    """Span id -> duration minus child-span coverage and direct leaf time.

    Children may live in other processes and overlap each other (pool
    workers running chunks side by side); their intervals are clipped
    to the parent and merged before subtraction.
    """
    children: Dict[str, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    result: Dict[str, float] = {}
    for span in spans:
        clipped = [
            (max(start, span.start), min(end, span.end))
            for start, end in children.get(span.id, ())
            if end > span.start and start < span.end
        ]
        result[span.id] = span.duration - union_length(clipped) - span.leaf_s
    return result
