"""Durable campaign persistence: journaled stores, fleet shards, indexes.

The paper's characterization ran unattended for six months, surviving
crashes and accumulating everything into uniform CSV artifacts
(Section 2.2) -- and Section 5 frames it as something a datacenter
operator runs continuously across many machines.  This package is that
durability layer for the reproduction: a schema-versioned
(``repro-campaign/v1``), append-only journal where every completed
campaign lands as its raw log (parsed back into typed records on
open) under a manifest that pins the machine
spec, grid, seed material and severity weights -- plus the fleet layer
(``repro-fleet/v1``) that shards one journal per machine under an
atomically written fleet manifest, and one serializer of the
Vmin/severity/prediction-feature answers every store query reads.

* :class:`CampaignStore` -- create/open a store directory, append
  completed campaigns, reconstruct results, and own every complete
  cell's Vmin/severity answers
  (:meth:`CampaignStore.answers`, computed once per cell).
* :class:`CampaignManifest` -- the grid definition embedded in
  ``manifest.json``.
* :class:`StoredCampaign` -- one journal line.
* ``journal.snapshot.json`` (:data:`SNAPSHOT_NAME`) -- a derived,
  discardable count snapshot beside each journal that lets a read
  skip re-validating unchanged bytes (:mod:`repro.store.snapshot`).
* :class:`FleetStore` / :class:`FleetManifest` -- one campaign shard
  per :class:`~repro.machines.MachineSpec` with write routing,
  watermark tracking and grid-order compaction
  (:mod:`repro.store.fleet`).  A standalone store opens as a one-shard
  fleet, and :func:`open_store` turns any store argument (fleet,
  standalone store, or the directory of either) into that one shape.
* :func:`serialize_answers` / :class:`FleetIndexes` -- the canonical
  bytes of a store's (or every fleet shard's) Vmin, severity and
  feature-row answers, read from the store at call time; answers
  served from the count snapshot equal those of a snapshot-free open
  (:mod:`repro.store.index`).
* :class:`ModelStore` / :class:`ModelArtifact` -- versioned
  ``repro-model/v1`` prediction-model artifacts under the same
  manifest (:mod:`repro.store.models`), the single sanctioned
  fitted-model serialization path.

The engine checkpoints into a store as tasks finish
(``ParallelCampaignEngine.run(..., store=...)``) and resumes from one
bit-identically (``resume=True`` / ``repro fleet run <store>``); a
fleet run routes each machine's tasks to its shard through the same
path.  A store directory holds one form of its runs -- the manifest,
the journal and its count snapshot; CSVs are written only where asked
for (``repro grid --out DIR``).
The analysis and prediction layers read stores directly, so a grid can
be characterized on one box and analyzed on another -- and the
streaming prediction trainer persists its models next to the data they
were trained on.
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from ..errors import StoreError
    from .fleet import (
        FLEET_FORMAT,
        FLEET_MANIFEST_NAME,
        SHARDS_DIR,
        AnyStore,
        FleetIndexes,
        FleetManifest,
        FleetStore,
        ShardEntry,
        artifact_cursor,
        open_store,
        store_exists,
    )
    from .index import INDEX_FORMAT, serialize_answers
    from .journal import (
        JOURNAL_NAME,
        MANIFEST_NAME,
        STORE_FORMAT,
        CampaignManifest,
        CampaignStore,
        TaskKey,
    )
    from .models import (
        MODEL_FORMAT,
        MODELS_DIR,
        ModelArtifact,
        ModelStore,
        train_set_digest,
    )
    from .records import StoredCampaign
    from .snapshot import SNAPSHOT_NAME

__getattr__, __dir__ = lazy_exports(__name__, {
    "..errors": ("StoreError",),
    ".fleet": (
        "FLEET_FORMAT", "FLEET_MANIFEST_NAME", "SHARDS_DIR", "AnyStore",
        "FleetIndexes", "FleetManifest", "FleetStore", "ShardEntry",
        "artifact_cursor", "open_store", "store_exists",
    ),
    ".index": ("INDEX_FORMAT", "serialize_answers"),
    ".journal": (
        "JOURNAL_NAME", "MANIFEST_NAME", "STORE_FORMAT", "CampaignManifest",
        "CampaignStore", "TaskKey",
    ),
    ".models": (
        "MODEL_FORMAT", "MODELS_DIR", "ModelArtifact", "ModelStore",
        "train_set_digest",
    ),
    ".records": ("StoredCampaign",),
    ".snapshot": ("SNAPSHOT_NAME",),
})

__all__ = [
    "AnyStore",
    "CampaignManifest",
    "CampaignStore",
    "FLEET_FORMAT",
    "FLEET_MANIFEST_NAME",
    "FleetIndexes",
    "FleetManifest",
    "FleetStore",
    "INDEX_FORMAT",
    "JOURNAL_NAME",
    "MANIFEST_NAME",
    "MODEL_FORMAT",
    "MODELS_DIR",
    "ModelArtifact",
    "ModelStore",
    "SHARDS_DIR",
    "SNAPSHOT_NAME",
    "STORE_FORMAT",
    "ShardEntry",
    "StoreError",
    "StoredCampaign",
    "TaskKey",
    "artifact_cursor",
    "open_store",
    "serialize_answers",
    "store_exists",
    "train_set_digest",
]
