"""Store status: journal progress + live metrics snapshot.

:func:`fleet_status` opens any store read-only -- a fleet, or a
standalone campaign store as its one-shard view -- and per shard
tallies completed tasks, watchdog interventions, per-effect run counts
and per-cell campaign counts from the journal, plus each completed
cell's Vmin from the store's cell answers.  Given a metrics JSON
snapshot written by ``--metrics``, it also derives an ETA from the
observed per-task latency histogram.  :func:`render_fleet_status` formats the
result for ``repro status``; :func:`model_statuses` lists the store's
saved model artifacts for ``repro status --models``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple, Union

from ..effects import EFFECT_ORDER
from .metrics import METRICS_FORMAT, M_TASK_SECONDS

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..store import AnyStore, CampaignStore, ShardEntry


def _read_mean_task_seconds(path: Union[str, Path]) -> Optional[float]:
    """Mean task latency out of a ``repro-metrics/v1`` JSON snapshot."""
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(data, dict) or data.get("format") != METRICS_FORMAT:
        raise ValueError(
            f"{path}: not a {METRICS_FORMAT} snapshot "
            "(pass the JSON file written by --metrics)"
        )
    for metric in data.get("metrics", []):
        if metric.get("name") != M_TASK_SECONDS:
            continue
        for sample in metric.get("samples", []):
            # An empty or just-initialized histogram has count 0 (or no
            # sum at all); that is "no rate known yet", never an error.
            count = sample.get("count", 0)
            total = sample.get("sum")
            if count and total is not None:
                return float(total) / float(count)
    return None


@dataclass(frozen=True)
class ModelStatus:
    """Summary of the latest model artifact of one (target, core)."""

    target: str
    core: int
    version: int
    journal_offset: int
    n_samples: int
    servable: bool
    selected_features: Tuple[str, ...]
    #: Prequential model RMSE at save time, when evaluated batches exist.
    rmse: Optional[float] = None
    #: Prequential model/naive RMSE ratio (1.0 = no better than naive).
    drift: Optional[float] = None


def model_statuses(store: "AnyStore") -> Tuple[ModelStatus, ...]:
    """Latest ``repro-model/v1`` artifact per (target, core) series in
    the store's model store (a fleet's own, or a standalone store's)."""
    from ..store import open_store

    statuses = []
    for artifact in open_store(store).model_store().latest_artifacts():
        statuses.append(
            ModelStatus(
                target=artifact.target,
                core=artifact.core,
                version=artifact.version,
                journal_offset=artifact.journal_offset,
                n_samples=artifact.n_samples,
                servable=artifact.is_servable,
                selected_features=artifact.selected_features,
                rmse=artifact.metrics.get("prequential_rmse"),
                drift=artifact.metrics.get("drift"),
            )
        )
    return tuple(statuses)


def render_model_status(statuses: Tuple[ModelStatus, ...]) -> str:
    """Human-readable ``repro status --models`` section."""
    lines: List[str] = ["model artifacts:"]
    if not statuses:
        lines.append("  (none -- run `repro train STORE` to fit one)")
        return "\n".join(lines) + "\n"
    for status in statuses:
        rmse = f"{status.rmse:.3f}" if status.rmse is not None else "--"
        drift = f"{status.drift:.3f}" if status.drift is not None else "--"
        servable = "servable" if status.servable else "not servable yet"
        lines.append(
            f"  {status.target} c{status.core}: v{status.version} "
            f"@offset {status.journal_offset}, {status.n_samples} samples, "
            f"{servable}, prequential RMSE {rmse}, drift {drift}"
        )
        if status.selected_features:
            lines.append(
                "    features: " + ", ".join(status.selected_features)
            )
    return "\n".join(lines) + "\n"


def _format_eta(seconds: float) -> str:
    if seconds >= 3600:
        return f"{seconds / 3600:.1f} h"
    if seconds >= 60:
        return f"{seconds / 60:.1f} min"
    return f"{seconds:.1f} s"


@dataclass(frozen=True)
class FleetShardStatus:
    """Progress, tallies and per-cell Vmin answers of one store shard."""

    name: str
    spec_digest: str
    chip: str
    tasks_total: int
    tasks_completed: int
    compacted: bool
    interventions: int
    #: (effect value, run count) pairs in severity order (Table 3).
    effect_tallies: Tuple[Tuple[str, int], ...]
    #: (benchmark, core, completed campaigns) per grid cell, grid order.
    cells: Tuple[Tuple[str, int, int], ...]
    #: (benchmark, core, vmin_mv, crash_mv) per *completed* grid cell,
    #: in manifest grid order, from :meth:`CampaignStore.answers`.
    vmin_cells: Tuple[Tuple[str, int, int, Optional[int]], ...]

    @property
    def complete(self) -> bool:
        return self.tasks_completed >= self.tasks_total


@dataclass(frozen=True)
class FleetStatus:
    """Cross-shard progress summary of one store (any shape)."""

    fleet_path: str
    workloads: Tuple[str, ...]
    cores: Tuple[int, ...]
    campaigns_per_cell: int
    shards: Tuple[FleetShardStatus, ...]
    #: Mean per-task seconds from a live metrics snapshot, if provided.
    mean_task_seconds: Optional[float] = None
    #: Whether a metrics snapshot was supplied at all -- distinguishes
    #: "no snapshot" (omit the ETA line) from "snapshot without task
    #: samples yet" (render "n/a").
    metrics_provided: bool = False

    @property
    def tasks_total(self) -> int:
        return sum(shard.tasks_total for shard in self.shards)

    @property
    def tasks_completed(self) -> int:
        return sum(shard.tasks_completed for shard in self.shards)

    @property
    def tasks_remaining(self) -> int:
        return self.tasks_total - self.tasks_completed

    @property
    def fraction(self) -> float:
        return (
            self.tasks_completed / self.tasks_total if self.tasks_total else 1.0
        )

    @property
    def complete(self) -> bool:
        return self.tasks_remaining == 0

    @property
    def eta_s(self) -> Optional[float]:
        if self.mean_task_seconds is None:
            return None
        return self.mean_task_seconds * self.tasks_remaining


def _shard_status(
    entry: "ShardEntry", store: "CampaignStore"
) -> FleetShardStatus:
    """One shard's journal tallies plus its cells' Vmin answers."""
    manifest = store.manifest
    tallies: Dict[str, int] = {effect.value: 0 for effect in EFFECT_ORDER}
    interventions = 0
    per_cell: Dict[Tuple[str, int], int] = {
        (name, core): 0 for name in manifest.workloads for core in manifest.cores
    }
    for stored in store.campaigns():
        interventions += stored.interventions
        per_cell[(stored.benchmark, stored.core)] += 1
        for slot in stored.campaign_result().counts_by_voltage().values():
            for effect, runs in slot.items():
                tallies[effect.value] += runs
    chip = manifest.spec.chip
    chip_name = chip if isinstance(chip, str) else getattr(chip, "name", str(chip))
    return FleetShardStatus(
        name=entry.name,
        spec_digest=entry.spec_digest,
        chip=str(chip_name),
        tasks_total=entry.total,
        tasks_completed=len(store.completed_keys()),
        compacted=entry.compacted,
        interventions=interventions,
        effect_tallies=tuple(
            (effect.value, tallies[effect.value]) for effect in EFFECT_ORDER
        ),
        cells=tuple(
            (name, core, per_cell[(name, core)]) for name, core in per_cell
        ),
        vmin_cells=tuple(
            (name, core, answer.vmin_mv, answer.crash_mv)
            for (name, core), answer in store.answers().items()
        ),
    )


def fleet_status(
    store: "AnyStore",
    metrics_path: Optional[Union[str, Path]] = None,
) -> FleetStatus:
    """Summarize any store, shard by shard, with each cell's Vmin.

    Progress is re-derived from the shard journals on disk (a fleet
    manifest's watermarks may lag a concurrent appender); the per-cell
    Vmin answers come from each shard's
    :meth:`~repro.store.CampaignStore.answers` (status builds no
    feature rows).  Nothing is written to the store.
    """
    from ..store import open_store

    opened = open_store(store)
    mean_task_seconds = (
        _read_mean_task_seconds(metrics_path) if metrics_path is not None else None
    )
    return FleetStatus(
        fleet_path=str(opened.directory),
        workloads=opened.manifest.workloads,
        cores=opened.manifest.cores,
        campaigns_per_cell=opened.manifest.config.campaigns,
        shards=tuple(
            _shard_status(entry, shard) for entry, shard in opened.shards()
        ),
        mean_task_seconds=mean_task_seconds,
        metrics_provided=metrics_path is not None,
    )


def render_fleet_status(status: FleetStatus) -> str:
    """Human-readable report for ``repro status``."""
    count = len(status.shards)
    lines: List[str] = []
    plural = "" if count == 1 else "s"
    lines.append(f"store: {status.fleet_path} ({count} shard{plural})")
    lines.append(
        f"progress: {status.tasks_completed}/{status.tasks_total} tasks "
        f"({status.fraction * 100:.1f} %)"
        + (", complete" if status.complete
           else f", {status.tasks_remaining} remaining")
    )
    if status.eta_s is not None and not status.complete:
        assert status.mean_task_seconds is not None
        lines.append(
            f"eta: {_format_eta(status.eta_s)} "
            f"at {status.mean_task_seconds:.3f} s/task"
        )
    elif status.metrics_provided and not status.complete:
        # A snapshot was supplied but holds no completed-task samples
        # (empty or just-initialized journal): the rate is unknowable,
        # which is an answer, not an error.
        lines.append("eta: n/a (no completed-task samples yet)")
    per_cell = status.campaigns_per_cell
    for shard in status.shards:
        state = "complete" if shard.complete else "in progress"
        if shard.compacted:
            state += ", compacted"
        lines.append(
            f"  {shard.name} (chip {shard.chip}): "
            f"{shard.tasks_completed}/{shard.tasks_total} tasks, {state}"
        )
        lines.append(f"    watchdog interventions: {shard.interventions}")
        lines.append(
            "    effect classes (runs): "
            + ", ".join(f"{effect} {n}" for effect, n in shard.effect_tallies)
        )
        vmins = {(name, core): (v, c) for name, core, v, c in shard.vmin_cells}
        for benchmark, core, done in shard.cells:
            answer = vmins.get((benchmark, core))
            if answer is None:
                lines.append(
                    f"    {benchmark} c{core}: {done}/{per_cell} campaigns"
                )
                continue
            vmin_mv, crash_mv = answer
            crash = "--" if crash_mv is None else f"{crash_mv} mV"
            lines.append(
                f"    {benchmark} c{core}: Vmin {vmin_mv} mV, "
                f"crash {crash} ({done}/{per_cell} campaigns)"
            )
    return "\n".join(lines) + "\n"


__all__ = [
    "FleetShardStatus",
    "FleetStatus",
    "ModelStatus",
    "fleet_status",
    "model_statuses",
    "render_fleet_status",
    "render_model_status",
]
