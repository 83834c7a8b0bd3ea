"""Query indexes over campaign journals.

The fleet service answers Vmin / severity / prediction-feature queries
while campaigns stream in.  Re-parsing a journal per query is
O(journal) every time; these indexes answer from what the open store
already holds instead:

* :class:`VminIndex` -- safe Vmin and crash level per completed
  (benchmark, core) grid cell.
* :class:`SeverityIndex` -- the severity-by-voltage table per completed
  grid cell, under the store manifest's pinned Table-4 weights.
* :class:`PredictionFeatureIndex` -- the training feature rows per
  completed grid cell, advanced through the *same*
  :class:`~repro.prediction.dataset.JournalBatch` cursors the streaming
  trainer consumes.

The first two are read-only projections of
:meth:`~repro.store.journal.CampaignStore.answers`, the one place a
cell's Vmin and severity are computed (once, through
:func:`cell_answers`) or taken from the count snapshot that persists
them.  Every query reads the store as it stands, so there is nothing
to keep in step with appends.  ``serialize()`` is canonical, and the
contract is byte-checkable: answers served from the snapshot equal the
answers of a store opened with ``snapshot=False``, which computes every
one from validated counts (``repro fleet query --json`` vs ``--json
--reparse``).  ``tests/test_fleet.py`` asserts it across kill-points
and shard-append interleavings.

Serializing index answers anywhere outside :mod:`repro.store` is a
reprolint RPR007 violation: the journal stays the single source of
truth, and these answers are derived from it.
"""

from __future__ import annotations

import json
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from ..core.severity import SeverityWeights
from ..errors import StoreError
from .journal import CampaignStore
from .records import StoredCampaign

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..prediction.dataset import RegressionDataset

#: Format tag stamped into every serialized index payload.
INDEX_FORMAT = "repro-index/v1"

#: One grid cell: (benchmark name, core).
CellKey = Tuple[str, int]


class CellAnswers(NamedTuple):
    """The Vmin and severity answers of one complete grid cell, as
    :meth:`CampaignStore.answers` holds them and a count snapshot
    (:mod:`repro.store.snapshot`) persists them."""

    vmin_mv: int
    crash_mv: Optional[int]
    #: (voltage_mv, severity), descending by voltage.
    severity: List[Tuple[int, float]]


def cell_answers(
    campaigns: Sequence[StoredCampaign], weights: SeverityWeights
) -> CellAnswers:
    """The answers of a complete cell of ``campaigns`` (in campaign
    index order, so no answer depends on journal append order)."""
    from ..core.campaign import CharacterizationResult

    result = CharacterizationResult(
        campaigns=tuple(c.campaign_result() for c in campaigns)
    )
    crash = result.highest_crash_mv
    severity = result.severity_by_voltage(weights)
    return CellAnswers(
        int(result.highest_vmin_mv),
        None if crash is None else int(crash),
        [
            (int(voltage), float(severity[voltage]))
            for voltage in sorted(severity, reverse=True)
        ],
    )


def _serialize(payload: Dict[str, Any]) -> str:
    """The one canonical byte form every index answer is compared in."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


class _CellIndex:
    """A read-only projection of :meth:`CampaignStore.answers`: every
    query reads the store as it stands."""

    kind = ""

    def __init__(self, store: CampaignStore) -> None:
        self.store = store

    def cells(self) -> List[CellKey]:
        """Answerable cells, in manifest grid order."""
        return list(self.store.answers())

    def _answer(self, benchmark: str, core: int) -> CellAnswers:
        try:
            return self.store.answers()[(benchmark, core)]
        except KeyError:
            raise StoreError(
                f"{self.kind} index has no completed cell for "
                f"({benchmark!r}, core {core})"
            )

    def _cell_json(self, answer: CellAnswers) -> Dict[str, Any]:
        raise NotImplementedError

    def to_json_dict(self) -> Dict[str, Any]:
        return {
            "format": INDEX_FORMAT,
            "kind": self.kind,
            "cells": [
                {"benchmark": name, "core": core, **self._cell_json(answer)}
                for (name, core), answer in self.store.answers().items()
            ],
        }

    def serialize(self) -> str:
        return _serialize(self.to_json_dict())


class VminIndex(_CellIndex):
    """Safe Vmin / crash level per completed (benchmark, core) cell."""

    kind = "vmin"

    def vmin_mv(self, benchmark: str, core: int) -> int:
        return self._answer(benchmark, core).vmin_mv

    def crash_mv(self, benchmark: str, core: int) -> Optional[int]:
        return self._answer(benchmark, core).crash_mv

    def _cell_json(self, answer: CellAnswers) -> Dict[str, Any]:
        return {"vmin_mv": answer.vmin_mv, "crash_mv": answer.crash_mv}


class SeverityIndex(_CellIndex):
    """Severity-by-voltage per completed cell, manifest-pinned weights."""

    kind = "severity"

    def severity_by_voltage(self, benchmark: str, core: int) -> Dict[int, float]:
        return dict(self._answer(benchmark, core).severity)

    def _cell_json(self, answer: CellAnswers) -> Dict[str, Any]:
        return {
            "severity": [[voltage, value] for voltage, value in answer.severity]
        }


class PredictionFeatureIndex:
    """Training feature rows per completed cell, cursor-advanced.

    Rows come out of the *same* :func:`iter_journal_datasets` cursors
    the streaming trainer consumes -- one
    :class:`~repro.prediction.dataset.JournalBatch` per completing
    cell -- so a query index and a training run can never disagree
    about what the journal says.  Every query first advances the
    cursors over records the store gained since the last one.
    Profiling feature vectors is a pure function of (spec, program)
    (see :mod:`repro.prediction.dataset`), which is what makes the
    rows append-order invariant.
    """

    kind = "features"

    def __init__(self, store: CampaignStore, target: str = "vmin") -> None:
        self.store = store
        self.target = target
        #: Per-core journal cursor: one past the last cell-completing
        #: record consumed for that core.
        self._cursors: Dict[int, int] = {
            core: 0 for core in store.manifest.cores
        }
        #: Records the store held when the cursors last advanced.
        self._records = 0
        self._datasets: Dict[CellKey, "RegressionDataset"] = {}

    def refresh(self) -> int:
        """Advance every core's cursor to the store's end; returns
        batches folded in."""
        from ..prediction.dataset import iter_journal_datasets

        records = len(self.store.completed_keys())
        if records == self._records:
            return 0
        folded = 0
        for core in self.store.manifest.cores:
            for batch in iter_journal_datasets(
                self.store, core, start=self._cursors[core], target=self.target
            ):
                self._datasets[(batch.benchmark, core)] = batch.dataset
                self._cursors[core] = batch.offset
                folded += 1
        self._records = records
        return folded

    # -- queries -----------------------------------------------------------

    def cells(self) -> List[CellKey]:
        """Cells with feature rows, in manifest grid order."""
        self.refresh()
        manifest = self.store.manifest
        return [
            (name, core)
            for name in manifest.workloads
            for core in manifest.cores
            if (name, core) in self._datasets
        ]

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
        self.refresh()
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


class StoreIndexes:
    """The query index bundle of one open campaign store.

    Holds no answers of its own: every query reads the store as it
    stands.  A record appended through the same store object shows at
    the next query; appends by other store objects or processes show
    after the store's
    :meth:`~repro.store.journal.CampaignStore.refresh`.
    """

    def __init__(
        self, store: CampaignStore, feature_target: str = "vmin"
    ) -> None:
        self.store = store
        self.vmin = VminIndex(store)
        self.severity = SeverityIndex(store)
        self.features = PredictionFeatureIndex(store, target=feature_target)

    def records_indexed(self) -> int:
        return len(self.store.completed_keys())

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
    """Every index answer of ``store``, byte-comparable with
    :meth:`StoreIndexes.serialize`.

    Pass a store opened with ``snapshot=False`` (as ``repro fleet query
    --json --reparse`` does) and every answer is computed from counts
    validated line by line: its equality with the answers a
    snapshot-served store gives is the index-equals-reparse contract.
    """
    return StoreIndexes(store, feature_target=feature_target).serialize()


__all__ = [
    "INDEX_FORMAT",
    "CellKey",
    "PredictionFeatureIndex",
    "SeverityIndex",
    "StoreIndexes",
    "VminIndex",
    "reparse_serialization",
]
