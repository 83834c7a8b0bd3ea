"""Regression datasets and the 80/20 split (Section 4.3).

A *sample* is "an information vector ... consisting of the values of
the dependent and independent variables": here a feature vector (PMU
counters, optionally plus the characterization voltage), a target
(Vmin or severity) and a metadata tag identifying its origin.

Datasets can also be assembled straight from a journaled store
(:func:`vmin_dataset_from_store` / :func:`severity_dataset_from_store`,
over every shard of a fleet, shard by shard): the characterization
targets come from the journal and the PMU features from a machine
rebuilt from each shard's embedded spec -- so the training box never
needs the in-memory objects of the box that ran the campaigns.  Each
program is profiled on its *own* freshly built machine, which makes
the feature vectors a pure function of (spec, program): the same rows
come out whether a journal is consumed whole, in chunks, or out of
grid order.
That invariance is what the streaming cursors
(:func:`iter_journal_datasets`) rely on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from ..errors import DatasetError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..store import AnyStore, CampaignStore


@dataclass(frozen=True)
class RegressionDataset:
    """Feature matrix + targets + provenance."""

    x: np.ndarray
    y: np.ndarray
    feature_names: Tuple[str, ...]
    #: One tag per sample, e.g. "bwaves@895mV".
    tags: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        x = np.asarray(self.x, dtype=float)
        y = np.asarray(self.y, dtype=float)
        if x.ndim != 2:
            raise DatasetError("x must be 2-D (samples x features)")
        if y.ndim != 1 or y.shape[0] != x.shape[0]:
            raise DatasetError("y must be 1-D with one target per sample")
        if len(self.feature_names) != x.shape[1]:
            raise DatasetError("feature_names must match x columns")
        if self.tags and len(self.tags) != x.shape[0]:
            raise DatasetError("tags must match sample count")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    def __len__(self) -> int:
        return int(self.x.shape[0])

    def subset(self, indices: Sequence[int]) -> "RegressionDataset":
        """Row subset preserving order of ``indices``."""
        indices = list(indices)
        return RegressionDataset(
            x=self.x[indices],
            y=self.y[indices],
            feature_names=self.feature_names,
            tags=tuple(self.tags[i] for i in indices) if self.tags else (),
        )

    def select_features(self, names: Sequence[str]) -> "RegressionDataset":
        """Column subset by feature name (post-RFE restriction)."""
        missing = [n for n in names if n not in self.feature_names]
        if missing:
            raise DatasetError(f"unknown features: {missing}")
        cols = [self.feature_names.index(n) for n in names]
        return RegressionDataset(
            x=self.x[:, cols],
            y=self.y,
            feature_names=tuple(names),
            tags=self.tags,
        )

    def constant_feature_names(self) -> Tuple[str, ...]:
        """Names of zero-variance (single-valued) feature columns."""
        if len(self) == 0:
            return ()
        mask = self.x.min(axis=0) == self.x.max(axis=0)
        return tuple(
            name for name, c in zip(self.feature_names, mask) if c
        )

    def drop_constant_features(
        self,
    ) -> Tuple["RegressionDataset", Tuple[str, ...]]:
        """Drop zero-variance columns; returns (dataset, dropped names).

        Constant columns carry no ranking signal, and the estimator
        edges (RFE, cross-validation) refuse them outright -- this is
        the sanctioned way to clear them first.
        """
        dropped = self.constant_feature_names()
        if not dropped:
            return self, ()
        keep = [n for n in self.feature_names if n not in dropped]
        if not keep:
            raise DatasetError("every feature column is constant")
        return self.select_features(keep), dropped


def train_test_split(
    dataset: RegressionDataset,
    test_fraction: float = 0.2,
    seed: Optional[int] = 0,
) -> Tuple[RegressionDataset, RegressionDataset]:
    """Deterministic shuffled split; the paper uses 80 % / 20 %.

    ``seed=None`` disables shuffling (first rows train, last rows
    test), which is occasionally useful for time-ordered data.
    """
    if not 0.0 < test_fraction < 1.0:
        raise DatasetError("test_fraction must be in (0, 1)")
    n = len(dataset)
    n_test = max(1, int(round(n * test_fraction)))
    if n_test >= n:
        raise DatasetError(
            f"{n} samples cannot support a {test_fraction:.0%} test split"
        )
    indices = np.arange(n)
    if seed is not None:
        np.random.default_rng(seed).shuffle(indices)
    test_idx = indices[-n_test:]
    train_idx = indices[:-n_test]
    return dataset.subset(train_idx.tolist()), dataset.subset(test_idx.tolist())


# ---------------------------------------------------------------------------
# Assembly from a journaled campaign store.
# ---------------------------------------------------------------------------


class _ProgramProfiler:
    """Canonical per-program PMU profiles for store-backed datasets.

    Each program is profiled on a machine built fresh from the store's
    embedded spec, so the snapshot depends only on (spec, program) --
    not on how many profiles ran before it on a shared machine.  The
    profiles are cached per program name within one profiler.
    """

    def __init__(self, store: "CampaignStore") -> None:
        self._spec = store.manifest.spec
        self._cache: Dict[str, Mapping[str, float]] = {}

    def profile(self, program: Any) -> Mapping[str, float]:
        snapshot = self._cache.get(program.name)
        if snapshot is None:
            machine = self._spec.build()
            snapshot = machine.profile_program(program, core=0)
            self._cache[program.name] = snapshot
        return snapshot


def vmin_dataset_from_store(store: "AnyStore", core: int) -> RegressionDataset:
    """Case-1 dataset from a store: counters -> journaled safe Vmin.

    The PMU snapshots are profiled per program on machines rebuilt
    from each shard's embedded :class:`~repro.machines.MachineSpec`;
    the Vmin targets are read from the journal, so no campaign is
    re-run.  Rows follow fleet manifest order, then manifest grid
    order, regardless of the order the journals were appended in.
    """
    from ..store import open_store
    from .features import FeatureAssembler

    snapshots: List[Mapping[str, float]] = []
    targets: List[float] = []
    tags: List[str] = []
    for _entry, journal in open_store(store).shards():
        profiler = _ProgramProfiler(journal)
        for program in journal.manifest.programs():
            snapshots.append(profiler.profile(program))
            targets.append(
                float(journal.result_for(program.name, core).highest_vmin_mv)
            )
            tags.append(program.name)
    return FeatureAssembler().counters_dataset(snapshots, targets, tags=tags)


def _severity_rows(
    result: Any,
    snapshot: Mapping[str, float],
    weights: Any,
    name: str,
) -> List[Tuple[Mapping[str, float], int, float, str]]:
    """All unsafe-band (snapshot, voltage, severity, tag) rows of a cell."""
    regions = result.pooled_regions()
    severity = result.severity_by_voltage(weights)
    floor = (
        regions.crash_mv - 25
        if regions.crash_mv is not None
        else regions.lowest_tested_mv
    )
    return [
        (snapshot, voltage, severity[voltage], f"{name}@{voltage}mV")
        for voltage in sorted(severity, reverse=True)
        if voltage < regions.vmin_mv and voltage >= floor
    ]


def severity_dataset_from_store(
    store: "AnyStore",
    core: int,
    max_samples: Optional[int] = 100,
    seed: int = 2,
) -> RegressionDataset:
    """Case-2/3 dataset from a store: (counters, voltage) -> severity.

    Mirrors
    :meth:`~repro.prediction.pipeline.PredictionPipeline.build_severity_dataset`:
    one sample per 5 mV step below each program's safe Vmin down to 25
    mV past the crash level, deterministically shuffled and truncated
    to ``max_samples``.  Severity uses the weights pinned in the store
    manifest.  ``max_samples=None`` keeps *every* unsafe-band sample in
    manifest grid order (no shuffle) -- the exhaustive form the
    streaming trainer's batch-equivalence checks compare against.  A
    fleet contributes every shard's rows, in fleet manifest order.
    """
    from ..store import open_store

    rows: List[Tuple[Mapping[str, float], int, float, str]] = []
    for _entry, journal in open_store(store).shards():
        profiler = _ProgramProfiler(journal)
        weights = journal.manifest.weights
        for prog in journal.manifest.programs():
            result = journal.result_for(prog.name, core)
            rows.extend(_severity_rows(
                result, profiler.profile(prog), weights, prog.name
            ))
    return _severity_dataset(rows, max_samples, seed)


def _severity_dataset(
    rows: Sequence[Tuple[Mapping[str, float], int, float, str]],
    max_samples: Optional[int],
    seed: int,
) -> RegressionDataset:
    """The (counters, voltage) -> severity dataset of ``rows``,
    shuffled by ``seed`` and truncated to ``max_samples`` (``None``
    keeps every row, in order)."""
    from .features import FeatureAssembler

    if max_samples is None:
        chosen = list(rows)
    else:
        order = np.random.default_rng(seed).permutation(len(rows))
        chosen = [rows[i] for i in order[:max_samples]]
    if len(chosen) < 2:
        raise DatasetError(
            "not enough unsafe-region samples; deepen the sweep or "
            "characterize more programs"
        )
    samples = [(snap, volt, sev) for snap, volt, sev, _tag in chosen]
    tags = [tag for _snap, _volt, _sev, tag in chosen]
    return FeatureAssembler().counters_voltage_dataset(samples, tags=tags)


# ---------------------------------------------------------------------------
# Streaming cursors over the journal.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class JournalBatch:
    """One grid cell's worth of training data, cut from the journal.

    ``offset`` is the number of journal records consumed once this
    batch is trained on; persisting it (see
    :class:`repro.store.models.ModelArtifact`) lets a later run resume
    the cursor with ``start=offset`` and never re-train on a record.
    """

    #: Journal cursor after this batch: records consumed so far.
    offset: int
    #: The (benchmark, core) grid cell the batch completes.
    benchmark: str
    core: int
    dataset: RegressionDataset


def iter_journal_datasets(
    journal: "CampaignStore",
    core: int,
    start: int = 0,
    stop: Optional[int] = None,
    target: str = "vmin",
    profiler: Optional[_ProgramProfiler] = None,
) -> Iterator[JournalBatch]:
    """Incremental datasets from one shard's journal, resumable by offset.

    Walks journal records in append order and yields a
    :class:`JournalBatch` each time a (benchmark, ``core``) grid cell
    reaches its full campaign count -- i.e. as soon as the cell's
    target becomes well-defined.  Records for other cores advance the
    cursor without emitting samples.

    ``start`` resumes from a journal offset: cells already completed
    within ``records[:start]`` are treated as consumed and not
    re-emitted, while cells only partially covered by the prefix are
    completed (and emitted) as the cursor crosses their final record.
    ``stop`` bounds the walk for chunked replay.

    ``target`` selects the sample shape: ``"vmin"`` yields one
    counters->Vmin sample per completed cell; ``"severity"`` yields
    every unsafe-band (counters, voltage)->severity sample of the cell
    (matching ``severity_dataset_from_store(..., max_samples=None)``).

    ``profiler`` shares one store's program profiles across walks (one
    per core); by default each walk profiles afresh.
    """
    from .features import FeatureAssembler

    if target not in ("vmin", "severity"):
        raise DatasetError(f"unknown dataset target {target!r}")
    records = journal.campaigns()
    if start < 0 or start > len(records):
        raise DatasetError(
            f"journal offset {start} out of range (journal has "
            f"{len(records)} records)"
        )
    end = len(records) if stop is None else min(stop, len(records))
    needed = journal.manifest.config.campaigns
    if profiler is None:
        profiler = _ProgramProfiler(journal)
    assembler = FeatureAssembler()
    programs = {p.name: p for p in journal.manifest.programs()}

    cells: Dict[str, List[Any]] = {}
    for index, record in enumerate(records[:end]):
        if record.core != core:
            continue
        cell = cells.setdefault(record.benchmark, [])
        cell.append(record)
        if len(cell) != needed:
            continue
        if index < start:
            continue  # completed within the consumed prefix
        from ..core.campaign import CharacterizationResult

        result = CharacterizationResult(
            campaigns=tuple(
                c.campaign_result()
                for c in sorted(cell, key=lambda c: c.campaign_index)
            )
        )
        program = programs[record.benchmark]
        snapshot = profiler.profile(program)
        if target == "vmin":
            dataset = assembler.counters_dataset(
                [snapshot],
                [float(result.highest_vmin_mv)],
                tags=[program.name],
            )
        else:
            rows = _severity_rows(
                result, snapshot, journal.manifest.weights, program.name
            )
            if not rows:
                continue  # cell has no unsafe-band samples to learn from
            dataset = assembler.counters_voltage_dataset(
                [(snap, volt, sev) for snap, volt, sev, _tag in rows],
                tags=[tag for _snap, _volt, _sev, tag in rows],
            )
        yield JournalBatch(
            offset=index + 1,
            benchmark=record.benchmark,
            core=core,
            dataset=dataset,
        )
