"""Declarative health rules over the metrics time-series journal.

A :class:`HealthRule` names a metric, a statistic over the tsdb cursor
(last value, p99, mean, or a ratio against another metric's last
value), a comparison and a bound.  :func:`evaluate_rules` turns a
:class:`~repro.telemetry.tsdb.TsdbCursor` into ``repro-health/v1``
verdicts; :func:`default_health_rules` is the stock rule set ``repro
dash`` ships with -- watchdog-rate ceiling, fsync-latency p99 bound,
model-drift ratio and a throughput floor derived from
``benchmarks/framework_baseline.json``.

Rules that reference a metric the journal has never reported verdict
``skip``, not ``fail``: an absent signal is an answer about coverage,
not about health.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from .metrics import (
    M_INTERVENTIONS,
    M_JOURNAL_FSYNC_SECONDS,
    M_MODEL_DRIFT,
    M_TASKS_COMPLETED,
    M_THROUGHPUT,
)
from .tsdb import TsdbCursor

HEALTH_FORMAT = "repro-health/v1"

#: Supported statistics over the cursor.
STATS = ("last", "mean", "p99", "per")

#: Supported comparison operators.
OPS = ("<=", ">=")

#: Throughput floor slack against the committed single-run baseline:
#: CI machines and laptops differ, pathological regressions do not.
BASELINE_THROUGHPUT_SLACK = 1000.0


@dataclasses.dataclass(frozen=True)
class HealthRule:
    """One declarative bound over a tsdb metric."""

    name: str
    metric: str
    stat: str
    bound: float
    op: str = "<="
    #: With ``stat="per"``: divide the metric's last total by this
    #: metric's last total (e.g. watchdog recoveries per completed task).
    per_metric: Optional[str] = None
    description: str = ""

    def __post_init__(self) -> None:
        if self.stat not in STATS:
            raise ValueError(
                f"rule {self.name!r}: stat must be one of {STATS}, "
                f"got {self.stat!r}"
            )
        if self.op not in OPS:
            raise ValueError(
                f"rule {self.name!r}: op must be one of {OPS}, "
                f"got {self.op!r}"
            )
        if (self.stat == "per") != (self.per_metric is not None):
            raise ValueError(
                f"rule {self.name!r}: per_metric is required exactly "
                f"when stat is 'per'"
            )

    def observe(self, cursor: TsdbCursor) -> Optional[float]:
        """The rule's statistic from the cursor; None when unobserved."""
        if self.stat == "last":
            return cursor.last_total(self.metric)
        if self.stat == "mean":
            return cursor.mean(self.metric)
        if self.stat == "p99":
            return cursor.quantile(self.metric, 0.99)
        assert self.per_metric is not None
        numerator = cursor.last_total(self.metric)
        denominator = cursor.last_total(self.per_metric)
        if numerator is None or denominator is None or denominator == 0:
            return None
        return numerator / denominator


@dataclasses.dataclass(frozen=True)
class HealthVerdict:
    """One rule's outcome: ok / fail / skip plus the observed value."""

    rule: str
    status: str
    bound: float
    op: str
    observed: Optional[float] = None
    description: str = ""

    def to_json_dict(self) -> Dict[str, Any]:
        return {
            "rule": self.rule,
            "status": self.status,
            "bound": self.bound,
            "op": self.op,
            "observed": self.observed,
            "description": self.description,
        }


def evaluate_rules(
    cursor: TsdbCursor, rules: Sequence[HealthRule]
) -> Tuple[HealthVerdict, ...]:
    """Evaluate every rule against one cursor, rule order preserved."""
    verdicts: List[HealthVerdict] = []
    for rule in rules:
        observed = rule.observe(cursor)
        if observed is None:
            status = "skip"
        elif rule.op == "<=":
            status = "ok" if observed <= rule.bound else "fail"
        else:
            status = "ok" if observed >= rule.bound else "fail"
        verdicts.append(
            HealthVerdict(
                rule=rule.name,
                status=status,
                bound=rule.bound,
                op=rule.op,
                observed=observed,
                description=rule.description,
            )
        )
    return tuple(verdicts)


def overall_status(verdicts: Sequence[HealthVerdict]) -> str:
    """Worst verdict wins: fail > ok > skip (all-skip is 'skip')."""
    if any(v.status == "fail" for v in verdicts):
        return "fail"
    if any(v.status == "ok" for v in verdicts):
        return "ok"
    return "skip"


def health_report(
    verdicts: Sequence[HealthVerdict], source: Optional[str] = None
) -> Dict[str, Any]:
    """The ``repro-health/v1`` report document."""
    return {
        "format": HEALTH_FORMAT,
        "source": source,
        "status": overall_status(verdicts),
        "verdicts": [v.to_json_dict() for v in verdicts],
    }


def serialize_health(
    verdicts: Sequence[HealthVerdict], source: Optional[str] = None
) -> str:
    """Canonical report bytes (what ``repro dash --health-out`` writes)."""
    return json.dumps(
        health_report(verdicts, source=source), indent=2, sort_keys=True
    ) + "\n"


def render_health(verdicts: Sequence[HealthVerdict]) -> str:
    """Terminal rendering of a verdict list."""
    lines = [f"health: {overall_status(verdicts)}"]
    for verdict in verdicts:
        observed = (
            f"{verdict.observed:.6g}" if verdict.observed is not None
            else "--"
        )
        lines.append(
            f"  [{verdict.status:>4}] {verdict.rule:<24} "
            f"{observed} {verdict.op} {verdict.bound:.6g}"
        )
    return "\n".join(lines) + "\n"


def default_health_rules(
    baseline: Optional[Union[str, Path, Dict[str, float]]] = None,
) -> Tuple[HealthRule, ...]:
    """The stock rule set.

    ``baseline`` -- a dict or a path to
    ``benchmarks/framework_baseline.json`` -- enables the throughput
    floor; without it the throughput rule is omitted (not skipped:
    there is no bound to compare against).
    """
    rules = [
        HealthRule(
            name="watchdog-rate",
            # M_INTERVENTIONS, not M_WATCHDOG: workers count recovery
            # actions under shielded local sessions, so the parent
            # registry (what the tsdb snapshots) only ever sees the
            # outcome-aggregated intervention counter.
            metric=M_INTERVENTIONS,
            stat="per",
            per_metric=M_TASKS_COMPLETED,
            bound=50.0,
            op="<=",
            description="watchdog interventions per completed task",
        ),
        HealthRule(
            name="fsync-p99",
            metric=M_JOURNAL_FSYNC_SECONDS,
            stat="p99",
            bound=0.25,
            op="<=",
            description="journal commit (one chunk) write+fsync p99 latency (s)",
        ),
        HealthRule(
            name="model-drift",
            metric=M_MODEL_DRIFT,
            stat="last",
            bound=1.5,
            op="<=",
            description="streaming-model RMSE vs naive baseline",
        ),
    ]
    if baseline is not None:
        if isinstance(baseline, (str, Path)):
            data = json.loads(Path(baseline).read_text(encoding="utf-8"))
        else:
            data = dict(baseline)
        campaign_min_s = float(data["campaign_min_s"])
        floor = 1.0 / (campaign_min_s * BASELINE_THROUGHPUT_SLACK)
        rules.append(
            HealthRule(
                name="throughput-floor",
                metric=M_THROUGHPUT,
                stat="last",
                bound=floor,
                op=">=",
                description=(
                    "tasks/s vs framework_baseline.json campaign_min_s "
                    f"with {BASELINE_THROUGHPUT_SLACK:g}x slack"
                ),
            )
        )
    return tuple(rules)


__all__ = [
    "BASELINE_THROUGHPUT_SLACK",
    "HEALTH_FORMAT",
    "HealthRule",
    "HealthVerdict",
    "default_health_rules",
    "evaluate_rules",
    "health_report",
    "overall_status",
    "render_health",
    "serialize_health",
]
