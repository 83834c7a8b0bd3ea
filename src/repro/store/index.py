"""Warm in-memory query indexes over campaign journals.

The fleet service answers Vmin / severity / prediction-feature queries
continuously while campaigns stream in.  Re-parsing a journal per query
is O(journal) every time; these indexes keep the answers warm instead:

* :class:`VminIndex` -- safe Vmin and crash level per completed
  (benchmark, core) grid cell.
* :class:`SeverityIndex` -- the severity-by-voltage table per completed
  grid cell, under the store manifest's pinned Table-4 weights.
* :class:`PredictionFeatureIndex` -- the training feature rows per
  completed grid cell, advanced through the *same*
  :class:`~repro.prediction.dataset.JournalBatch` cursors the streaming
  trainer consumes.

All three update incrementally -- per appended record through
:meth:`~repro.store.journal.CampaignStore.subscribe`, or in bulk
through cursor-based :meth:`refresh` -- and are **answer-identical to a
full journal re-parse** by contract: every index has a
``from_reparse`` constructor that rebuilds the same answers through the
classic read path (:meth:`CampaignStore.results` and the store-backed
dataset assemblers), and ``serialize()`` is canonical, so equality is
byte-checkable.  ``tests/test_fleet.py`` asserts it across kill-points
and shard-append interleavings.

Serializing index answers anywhere outside :mod:`repro.store` is a
reprolint RPR007 violation: the journal stays the single source of
truth, and these are *caches* of it.
"""

from __future__ import annotations

import json
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Iterator,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from ..core.severity import SeverityWeights
from ..errors import StoreError
from .journal import CampaignManifest, CampaignStore, TaskKey
from .records import StoredCampaign

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..prediction.dataset import RegressionDataset

#: Format tag stamped into every serialized index payload.
INDEX_FORMAT = "repro-index/v1"

#: One grid cell: (benchmark name, core).
CellKey = Tuple[str, int]


def _cell_result(campaigns: List[StoredCampaign]) -> Any:
    """The in-memory aggregate of one complete grid cell.

    Campaigns sort by campaign index first, so the aggregate -- and
    every answer derived from it -- is independent of journal append
    order, which is what makes the indexes order-invariant.
    """
    from ..core.campaign import CharacterizationResult

    return CharacterizationResult(
        campaigns=tuple(
            c.campaign_result()
            for c in sorted(campaigns, key=lambda c: c.campaign_index)
        )
    )


class CellAnswers(NamedTuple):
    """The Vmin and severity answers of one complete grid cell, as a
    count snapshot (:mod:`repro.store.snapshot`) keeps them."""

    vmin_mv: int
    crash_mv: Optional[int]
    #: (voltage_mv, severity), descending by voltage.
    severity: List[Tuple[int, float]]


def _vmin_answer(result: Any) -> Tuple[int, Optional[int]]:
    crash = result.highest_crash_mv
    return int(result.highest_vmin_mv), None if crash is None else int(crash)


def _severity_answer(
    result: Any, weights: SeverityWeights
) -> List[Tuple[int, float]]:
    severity = result.severity_by_voltage(weights)
    return [
        (int(voltage), float(severity[voltage]))
        for voltage in sorted(severity, reverse=True)
    ]


def cell_answers(
    campaigns: Sequence[StoredCampaign], weights: SeverityWeights
) -> CellAnswers:
    """What :class:`VminIndex` and :class:`SeverityIndex` answer for a
    complete cell of ``campaigns``."""
    result = _cell_result(list(campaigns))
    return CellAnswers(*_vmin_answer(result), _severity_answer(result, weights))


class _CellAccumulator:
    """Shared per-cell buffering: records in, complete cells out."""

    def __init__(self, manifest: CampaignManifest) -> None:
        self.manifest = manifest
        self._needed = manifest.config.campaigns
        self._pending: Dict[CellKey, List[StoredCampaign]] = {}

    def add(self, stored: StoredCampaign) -> Optional[Tuple[CellKey, Any]]:
        """Buffer one record; returns (cell, aggregate) on completion."""
        cell = (stored.benchmark, stored.core)
        buffered = self._pending.setdefault(cell, [])
        buffered.append(stored)
        if len(buffered) < self._needed:
            return None
        del self._pending[cell]
        return cell, _cell_result(buffered)

    def ordered(self, cells: Dict[CellKey, Any]) -> Iterator[CellKey]:
        """The subset of ``cells`` present, in manifest grid order."""
        for name in self.manifest.workloads:
            for core in self.manifest.cores:
                if (name, core) in cells:
                    yield (name, core)


def _serialize(payload: Dict[str, Any]) -> str:
    """The one canonical byte form every index answer is compared in."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


class VminIndex:
    """Safe Vmin / crash level per completed (benchmark, core) cell."""

    kind = "vmin"

    def __init__(
        self,
        manifest: CampaignManifest,
        warm: Optional[Mapping[CellKey, CellAnswers]] = None,
    ) -> None:
        self._cells = _CellAccumulator(manifest)
        self._answers: Dict[CellKey, Tuple[int, Optional[int]]] = {}
        #: Answers known before ingest (a store's
        #: :attr:`~CampaignStore.cell_answers`), taken over computing.
        self._warm: Mapping[CellKey, CellAnswers] = (
            {} if warm is None else warm
        )

    def ingest(self, stored: StoredCampaign) -> None:
        completed = self._cells.add(stored)
        if completed is not None:
            self._settle(*completed)

    def _settle(self, cell: CellKey, result: Any) -> None:
        warm = self._warm.get(cell)
        self._answers[cell] = (
            _vmin_answer(result) if warm is None
            else (warm.vmin_mv, warm.crash_mv)
        )

    # -- queries -----------------------------------------------------------

    def cells(self) -> List[CellKey]:
        """Answerable cells, in manifest grid order."""
        return list(self._cells.ordered(self._answers))

    def vmin_mv(self, benchmark: str, core: int) -> int:
        return self._answer(benchmark, core)[0]

    def crash_mv(self, benchmark: str, core: int) -> Optional[int]:
        return self._answer(benchmark, core)[1]

    def _answer(self, benchmark: str, core: int) -> Tuple[int, Optional[int]]:
        try:
            return self._answers[(benchmark, core)]
        except KeyError:
            raise StoreError(
                f"vmin index has no completed cell for "
                f"({benchmark!r}, core {core})"
            )

    def to_json_dict(self) -> Dict[str, Any]:
        return {
            "format": INDEX_FORMAT,
            "kind": self.kind,
            "cells": [
                {
                    "benchmark": name,
                    "core": core,
                    "vmin_mv": self._answers[(name, core)][0],
                    "crash_mv": self._answers[(name, core)][1],
                }
                for name, core in self.cells()
            ],
        }

    def serialize(self) -> str:
        return _serialize(self.to_json_dict())

    @classmethod
    def from_reparse(cls, store: CampaignStore) -> "VminIndex":
        """The same answers through the classic full-journal read path
        (:meth:`CampaignStore.results`; a cell the store's count
        snapshot answers is taken from there)."""
        index = cls(store.manifest, store.cell_answers)
        for cell, result in store.results().items():
            index._settle(cell, result)
        return index


class SeverityIndex:
    """Severity-by-voltage per completed cell, manifest-pinned weights."""

    kind = "severity"

    def __init__(
        self,
        manifest: CampaignManifest,
        warm: Optional[Mapping[CellKey, CellAnswers]] = None,
    ) -> None:
        self._cells = _CellAccumulator(manifest)
        self._weights = manifest.weights
        #: cell -> [(voltage_mv, severity)] descending by voltage.
        self._answers: Dict[CellKey, List[Tuple[int, float]]] = {}
        #: Answers known before ingest, as for :class:`VminIndex`.
        self._warm: Mapping[CellKey, CellAnswers] = (
            {} if warm is None else warm
        )

    def ingest(self, stored: StoredCampaign) -> None:
        completed = self._cells.add(stored)
        if completed is not None:
            self._settle(*completed)

    def _settle(self, cell: CellKey, result: Any) -> None:
        warm = self._warm.get(cell)
        self._answers[cell] = (
            _severity_answer(result, self._weights) if warm is None
            else list(warm.severity)
        )

    # -- queries -----------------------------------------------------------

    def cells(self) -> List[CellKey]:
        return list(self._cells.ordered(self._answers))

    def severity_by_voltage(self, benchmark: str, core: int) -> Dict[int, float]:
        try:
            table = self._answers[(benchmark, core)]
        except KeyError:
            raise StoreError(
                f"severity index has no completed cell for "
                f"({benchmark!r}, core {core})"
            )
        return dict(table)

    def to_json_dict(self) -> Dict[str, Any]:
        return {
            "format": INDEX_FORMAT,
            "kind": self.kind,
            "cells": [
                {
                    "benchmark": name,
                    "core": core,
                    "severity": [
                        [voltage, value]
                        for voltage, value in self._answers[(name, core)]
                    ],
                }
                for name, core in self.cells()
            ],
        }

    def serialize(self) -> str:
        return _serialize(self.to_json_dict())

    @classmethod
    def from_reparse(cls, store: CampaignStore) -> "SeverityIndex":
        """As :meth:`VminIndex.from_reparse`."""
        index = cls(store.manifest, store.cell_answers)
        for cell, result in store.results().items():
            index._settle(cell, result)
        return index


class PredictionFeatureIndex:
    """Training feature rows per completed cell, cursor-advanced.

    Rows come out of the *same* :func:`iter_journal_datasets` cursors
    the streaming trainer consumes -- one
    :class:`~repro.prediction.dataset.JournalBatch` per completing
    cell -- so a warm query index and a training run can never disagree
    about what the journal says.  Profiling feature vectors is a pure
    function of (spec, program) (see
    :mod:`repro.prediction.dataset`), which is what makes the rows
    append-order invariant.
    """

    kind = "features"

    def __init__(self, manifest: CampaignManifest, target: str = "vmin") -> None:
        self._manifest = manifest
        self.target = target
        #: Per-core journal cursor: one past the last cell-completing
        #: record consumed for that core.
        self._cursors: Dict[int, int] = {core: 0 for core in manifest.cores}
        self._datasets: Dict[CellKey, "RegressionDataset"] = {}

    def refresh(
        self, store: CampaignStore, cores: Optional[Tuple[int, ...]] = None
    ) -> int:
        """Advance the cursors of ``cores`` (default: every core);
        returns batches folded in."""
        from ..prediction.dataset import iter_journal_datasets

        folded = 0
        for core in self._manifest.cores if cores is None else cores:
            for batch in iter_journal_datasets(
                store, core, start=self._cursors[core], target=self.target
            ):
                self._datasets[(batch.benchmark, core)] = batch.dataset
                self._cursors[core] = batch.offset
                folded += 1
        return folded

    # -- queries -----------------------------------------------------------

    def cells(self) -> List[CellKey]:
        accumulator = _CellAccumulator(self._manifest)
        return list(accumulator.ordered(self._datasets))

    def rows(self, core: int) -> List[Tuple[str, Tuple[float, ...], float]]:
        """(tag, feature vector, target) rows for ``core``, grid order."""
        rows: List[Tuple[str, Tuple[float, ...], float]] = []
        for name, cell_core in self.cells():
            if cell_core != core:
                continue
            dataset = self._datasets[(name, cell_core)]
            tags = dataset.tags or tuple(
                f"{name}#{i}" for i in range(len(dataset))
            )
            for tag, x, y in zip(tags, dataset.x, dataset.y):
                rows.append((tag, tuple(float(v) for v in x), float(y)))
        return rows

    def dataset(self, core: int) -> "RegressionDataset":
        """All indexed rows of ``core`` as one dataset, grid order.

        On a complete store with ``target="vmin"`` this equals
        :func:`~repro.prediction.dataset.vmin_dataset_from_store`
        row for row.
        """
        import numpy as np

        from ..prediction.dataset import RegressionDataset

        parts = [
            self._datasets[(name, cell_core)]
            for name, cell_core in self.cells()
            if cell_core == core
        ]
        if not parts:
            raise StoreError(
                f"feature index has no completed cells for core {core}"
            )
        return RegressionDataset(
            x=np.vstack([p.x for p in parts]),
            y=np.concatenate([p.y for p in parts]),
            feature_names=parts[0].feature_names,
            tags=tuple(tag for p in parts for tag in p.tags),
        )

    def feature_names(self) -> Tuple[str, ...]:
        for dataset in self._datasets.values():
            names: Tuple[str, ...] = dataset.feature_names
            return names
        raise StoreError("feature index has no completed cells yet")

    def to_json_dict(self) -> Dict[str, Any]:
        cells = self.cells()
        payload: Dict[str, Any] = {
            "format": INDEX_FORMAT,
            "kind": self.kind,
            "target": self.target,
            "cells": [],
        }
        if cells:
            payload["feature_names"] = list(self.feature_names())
        for name, core in cells:
            dataset = self._datasets[(name, core)]
            tags = dataset.tags or tuple(
                f"{name}#{i}" for i in range(len(dataset))
            )
            payload["cells"].append(
                {
                    "benchmark": name,
                    "core": core,
                    "rows": [
                        {
                            "tag": tag,
                            "x": [float(v) for v in x],
                            "y": float(y),
                        }
                        for tag, x, y in zip(tags, dataset.x, dataset.y)
                    ],
                }
            )
        return payload

    def serialize(self) -> str:
        return _serialize(self.to_json_dict())

    @classmethod
    def from_reparse(
        cls, store: CampaignStore, target: str = "vmin"
    ) -> "PredictionFeatureIndex":
        """The same rows through a from-scratch cursor walk.

        A fresh index refreshed once over the whole journal *is* the
        re-parse path: the cursors start at zero and consume every
        record, exactly as a cold reader would.
        """
        index = cls(store.manifest, target=target)
        index.refresh(store)
        return index


class StoreIndexes:
    """The warm index bundle of one open campaign store.

    Subscribes to the store's append stream, so every journaled record
    updates the indexes before ``append_campaign`` returns; cells
    journaled before attachment are folded in by the initial
    :meth:`refresh`.  For appends made by *other* store objects or
    processes, call the store's
    :meth:`~repro.store.journal.CampaignStore.refresh`: it feeds the
    new records through the same subscription.
    """

    def __init__(
        self, store: CampaignStore, feature_target: str = "vmin"
    ) -> None:
        self.store = store
        manifest = store.manifest
        self.vmin = VminIndex(manifest, store.cell_answers)
        self.severity = SeverityIndex(manifest, store.cell_answers)
        self.features = PredictionFeatureIndex(manifest, target=feature_target)
        self._needed = manifest.config.campaigns
        self._cell_counts: Dict[CellKey, int] = {}
        self._offset = 0
        store.subscribe(self._on_append)
        self.refresh()

    def _on_append(self, stored: StoredCampaign) -> None:
        self._offset += 1
        self.vmin.ingest(stored)
        self.severity.ingest(stored)
        cell = (stored.benchmark, stored.core)
        count = self._cell_counts.get(cell, 0) + 1
        self._cell_counts[cell] = count
        if count == self._needed:
            # A record just completed its grid cell: exactly when its
            # core's JournalBatch cursor has a batch to emit.
            self.features.refresh(self.store, cores=(stored.core,))

    def refresh(self) -> int:
        """Fold in records the bundle has not seen yet; returns count."""
        pending = self.store.campaigns()[self._offset:]
        for stored in pending:
            self._on_append(stored)
        return len(pending)

    def records_indexed(self) -> int:
        return self._offset

    def serialize(self) -> str:
        """Canonical byte form of every answer the bundle serves."""
        return (
            self.vmin.serialize()
            + self.severity.serialize()
            + self.features.serialize()
        )

    @classmethod
    def from_reparse(
        cls, store: CampaignStore, feature_target: str = "vmin"
    ) -> "StoreIndexes":
        """A cold rebuild over a freshly opened store's full journal."""
        return cls(store, feature_target=feature_target)


def reparse_serialization(
    store: CampaignStore, feature_target: str = "vmin"
) -> str:
    """Every index answer recomputed through the classic read paths.

    Byte-comparable with :meth:`StoreIndexes.serialize`: equality is
    the index-equals-reparse contract, checkable by ``repro fleet
    query --json`` vs ``--json --reparse`` without trusting any index
    code path twice.  For a recompute that trusts no count snapshot
    either, pass a store opened with ``snapshot=False`` (as
    ``--reparse`` does).
    """
    return (
        VminIndex.from_reparse(store).serialize()
        + SeverityIndex.from_reparse(store).serialize()
        + PredictionFeatureIndex.from_reparse(
            store, target=feature_target
        ).serialize()
    )


__all__ = [
    "INDEX_FORMAT",
    "CellKey",
    "PredictionFeatureIndex",
    "SeverityIndex",
    "StoreIndexes",
    "VminIndex",
    "reparse_serialization",
]
