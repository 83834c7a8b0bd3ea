"""The one serialization of a campaign store's query answers.

The fleet service answers Vmin / severity / prediction-feature queries
while campaigns stream in.
:meth:`~repro.store.journal.CampaignStore.answers` is the one place a
complete cell's Vmin and severity are computed (once, through
:func:`cell_answers`) or taken from the count snapshot that persists
them; :func:`serialize_answers` writes those answers, plus each
completed cell's training feature rows, in one canonical byte form.
The feature rows come from the *same*
:func:`~repro.prediction.dataset.iter_journal_datasets` walk the
streaming trainer consumes, one walk per core per call with each
program profiled once per call, so a query and a training run can never
disagree about what the journal says.

Nothing here holds state: every call reads the store as it stands, so
answers served from the count snapshot equal the answers of a store
opened with ``snapshot=False``, which computes every one from
validated counts (``repro fleet query --json`` vs ``--json
--reparse``).  ``tests/test_fleet.py`` asserts it across kill-points
and shard-append interleavings, and ``tests/test_store.py`` pins the
bytes against a committed fixture.

Serializing store answers anywhere outside :mod:`repro.store` is a
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
from .records import StoredCampaign

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .journal import CampaignStore

#: Format tag stamped into every serialized answer document.
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
    """The one canonical byte form every answer document is compared in."""
    return json.dumps(
        {"format": INDEX_FORMAT, **payload}, indent=2, sort_keys=True
    ) + "\n"


def _feature_document(store: "CampaignStore", target: str) -> Dict[str, Any]:
    """Every completed cell's (tag, x, y) training rows, in manifest
    grid order, from one journal walk per core, with each program
    profiled once."""
    from ..prediction.dataset import _ProgramProfiler, iter_journal_datasets

    manifest = store.manifest
    profiler = _ProgramProfiler(store)
    datasets = {
        (batch.benchmark, core): batch.dataset
        for core in manifest.cores
        for batch in iter_journal_datasets(
            store, core, target=target, profiler=profiler
        )
    }
    cells = [
        (name, core, datasets[name, core])
        for name in manifest.workloads
        for core in manifest.cores
        if (name, core) in datasets
    ]
    document: Dict[str, Any] = {
        "kind": "features",
        "target": target,
        "cells": [
            {
                "benchmark": name,
                "core": core,
                "rows": [
                    {"tag": tag, "x": [float(v) for v in x], "y": float(y)}
                    for tag, x, y in zip(dataset.tags, dataset.x, dataset.y)
                ],
            }
            for name, core, dataset in cells
        ],
    }
    if cells:
        document["feature_names"] = list(cells[0][2].feature_names)
    return document


def serialize_answers(
    store: "CampaignStore", feature_target: str = "vmin"
) -> str:
    """Every query answer of ``store`` in canonical bytes: the Vmin,
    severity and ``feature_target`` feature-row documents, in that order.

    Vmin and severity are :meth:`CampaignStore.answers`, so a cell whose
    campaigns do not aggregate raises its
    :class:`~repro.errors.CampaignError` here.  A store opened with
    ``snapshot=False`` (as ``repro fleet query --json --reparse`` opens
    one) computes every answer from counts validated line by line; its
    bytes equal a snapshot-served store's -- the index-equals-reparse
    contract.
    """
    answers = store.answers().items()
    vmin = [
        {"benchmark": name, "core": core,
         "vmin_mv": answer.vmin_mv, "crash_mv": answer.crash_mv}
        for (name, core), answer in answers
    ]
    severity = [
        {"benchmark": name, "core": core,
         "severity": [list(point) for point in answer.severity]}
        for (name, core), answer in answers
    ]
    return (
        _serialize({"kind": "vmin", "cells": vmin})
        + _serialize({"kind": "severity", "cells": severity})
        + _serialize(_feature_document(store, feature_target))
    )


__all__ = [
    "INDEX_FORMAT",
    "CellKey",
    "serialize_answers",
]
