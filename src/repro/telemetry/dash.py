"""The ``repro dash`` terminal dashboard.

A :class:`Dashboard` aggregates, for any store (a fleet, or a
standalone campaign store as its one-shard view): per-shard task
progress (re-derived from the journals, the same way ``repro status``
does), the metrics time-series journals written by
``--tsdb`` (read through warm :class:`~repro.telemetry.tsdb.TsdbCursor`
instances that persist across refreshes, so a ``--follow`` loop only
parses the bytes appended since the previous frame), an ETA from the
observed per-task latency histogram, and the health-rule verdicts.

Everything here is read-only over artifacts; the dashboard can watch a
live run from another process without perturbing it.

Because the metrics registry is session-global, every shard's tsdb
journal snapshots the *whole* registry: cross-shard scalar reads must
pick the freshest cursor, never sum across journals (that would
double-count the same counters).
"""

from __future__ import annotations

import dataclasses
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, Union

from .health import (
    HealthRule,
    HealthVerdict,
    default_health_rules,
    evaluate_rules,
    overall_status,
    render_health,
)
from .metrics import M_TASK_SECONDS, M_THROUGHPUT
from .status import _format_eta
from .tsdb import TsdbCursor

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..store import FleetStore


@dataclasses.dataclass(frozen=True)
class DashSnapshot:
    """One rendered-ready frame of the dashboard."""

    store_path: str
    kind: str  # "campaign" (a standalone store) | "fleet"
    tasks_total: int
    tasks_completed: int
    #: (shard name, done, of) progress rows, in manifest order.
    rows: Tuple[Tuple[str, int, int], ...]
    #: tsdb journals found / snapshot lines consumed across them.
    journals: int
    snapshots: int
    mean_task_seconds: Optional[float]
    throughput: Optional[float]
    verdicts: Tuple[HealthVerdict, ...]

    @property
    def tasks_remaining(self) -> int:
        return self.tasks_total - self.tasks_completed

    @property
    def fraction(self) -> float:
        return self.tasks_completed / self.tasks_total if self.tasks_total else 1.0

    @property
    def complete(self) -> bool:
        return self.tasks_remaining == 0

    @property
    def eta_s(self) -> Optional[float]:
        if self.mean_task_seconds is None:
            return None
        return self.mean_task_seconds * self.tasks_remaining

    @property
    def health(self) -> str:
        return overall_status(self.verdicts)


def _freshest(cursors: Sequence[TsdbCursor]) -> TsdbCursor:
    """The cursor with the most recent snapshot (registry is global)."""
    best: Optional[TsdbCursor] = None
    for cursor in cursors:
        if cursor.last_t_s is None:
            continue
        if (
            best is None
            or best.last_t_s is None
            or (cursor.last_t_s, cursor.snapshots)
            > (best.last_t_s, best.snapshots)
        ):
            best = cursor
    return best if best is not None else TsdbCursor()


class Dashboard:
    """Warm-state aggregator behind ``repro dash``.

    Keep one instance alive across ``--follow`` refreshes: the tsdb
    cursors and the shard stores advance incrementally instead of
    re-parsing the journals every frame.
    """

    def __init__(
        self,
        store: Union[str, Path],
        rules: Optional[Sequence[HealthRule]] = None,
        baseline: Optional[Union[str, Path]] = None,
    ) -> None:
        self.store = Path(store)
        self.rules: Tuple[HealthRule, ...] = (
            tuple(rules) if rules is not None
            else default_health_rules(baseline)
        )
        self._cursors: Dict[str, TsdbCursor] = {}
        self._fleet: Optional["FleetStore"] = None

    def _fleet_store(self) -> "FleetStore":
        """The store as a fleet, opened on first use and kept across
        frames."""
        if self._fleet is None:
            # Lazy: repro.store imports repro.telemetry at module level.
            from ..store import open_store

            self._fleet = open_store(self.store)
        return self._fleet

    def _advance_cursors(self) -> List[TsdbCursor]:
        fleet = self._fleet_store()
        cursors: List[TsdbCursor] = []
        for entry in fleet.manifest.shards:
            path = fleet.tsdb_path(entry)
            key = str(path)
            cursor = self._cursors.get(key)
            if cursor is None:
                cursor = TsdbCursor()
                self._cursors[key] = cursor
            cursor.advance(path)
            cursors.append(cursor)
        return cursors

    def refresh(self) -> DashSnapshot:
        """Advance the cursors and assemble one dashboard frame."""
        cursors = self._advance_cursors()
        freshest = _freshest(cursors)
        fleet = self._fleet_store()
        fleet.refresh()
        rows = tuple(
            (entry.name, len(shard.completed_keys()), entry.total)
            for entry, shard in fleet.shards()
        )
        return DashSnapshot(
            store_path=str(self.store),
            kind="campaign" if fleet.standalone else "fleet",
            tasks_total=sum(total for _, _, total in rows),
            tasks_completed=sum(done for _, done, _ in rows),
            rows=rows,
            journals=sum(1 for c in cursors if c.snapshots > 0),
            snapshots=sum(c.snapshots for c in cursors),
            mean_task_seconds=freshest.mean(M_TASK_SECONDS),
            throughput=freshest.last_total(M_THROUGHPUT),
            verdicts=evaluate_rules(freshest, self.rules),
        )


def _progress_bar(fraction: float, width: int = 30) -> str:
    filled = int(round(max(0.0, min(1.0, fraction)) * width))
    return "[" + "#" * filled + "." * (width - filled) + "]"


def render_dash(snapshot: DashSnapshot) -> str:
    """One terminal frame for ``repro dash``."""
    lines: List[str] = []
    lines.append(
        f"repro dash -- {snapshot.store_path} "
        f"[{snapshot.kind} store ({len(snapshot.rows)} shards)]"
    )
    lines.append(
        f"progress: {_progress_bar(snapshot.fraction)} "
        f"{snapshot.tasks_completed}/{snapshot.tasks_total} tasks "
        f"({snapshot.fraction * 100:.1f} %)"
        + (", complete" if snapshot.complete
           else f", {snapshot.tasks_remaining} remaining")
    )
    if snapshot.complete:
        pass
    elif snapshot.eta_s is not None and snapshot.mean_task_seconds is not None:
        lines.append(
            f"eta: {_format_eta(snapshot.eta_s)} "
            f"at {snapshot.mean_task_seconds:.3f} s/task"
        )
    else:
        lines.append("eta: n/a (no completed-task samples in the tsdb yet)")
    if snapshot.throughput is not None:
        lines.append(f"throughput: {snapshot.throughput:.3f} tasks/s")
    if snapshot.snapshots:
        lines.append(
            f"tsdb: {snapshot.snapshots} snapshots across "
            f"{snapshot.journals} journal(s)"
        )
    else:
        lines.append("tsdb: no snapshots yet (run with --tsdb to record them)")
    lines.append("shards:")
    for name, done, of in snapshot.rows:
        lines.append(f"  {name}: {done}/{of}")
    lines.append(render_health(snapshot.verdicts).rstrip("\n"))
    return "\n".join(lines) + "\n"


__all__ = [
    "DashSnapshot",
    "Dashboard",
    "render_dash",
]
