"""The fleet store (``repro-fleet/v1``): one journal shard per machine.

The paper frames Vmin characterization as something a datacenter
operator runs *continuously across many machines* (Section 5); a fleet
store is the on-disk shape of that: a directory owning one
``repro-campaign/v1`` :class:`~repro.store.journal.CampaignStore`
shard per :class:`~repro.machines.MachineSpec`, under an atomically
written fleet manifest (``fleet.json``)::

    fleet-root/
      fleet.json                    <- format tag, grid, shard table
      shards/
        m00-5a3f2b1c/               <- one full repro-campaign/v1 store
          manifest.json
          journal.jsonl
        m01-9e0d4c77/
          ...

``fleet.json`` records, per shard: the machine-spec digest (the
routing key for writes), the shard path, and a completion watermark
(journaled tasks out of the grid total).  Watermarks are *derived*
state -- :meth:`FleetStore.refresh_watermarks` recomputes them from
the shard journals on disk and rewrites the manifest atomically, so
concurrent appenders in different processes converge on the same
manifest without any cross-shard locking: each shard journal has
exactly one writer, and the manifest is last-writer-wins over facts
read from disk.

Shards stay bit-identical to standalone single-machine stores: the
fleet layer adds routing, aggregation and compaction *around*
:class:`CampaignStore`, never a different write path through it.  The
converse holds too: :meth:`FleetStore.open` presents a plain
``repro-campaign/v1`` directory as a *one-shard fleet* -- an in-memory
view (shard path ``.``, watermark derived from the journal) that
writes no ``fleet.json`` -- so every consumer handles one store shape.
Compaction (:meth:`FleetStore.compact`) folds healed, complete shards
into canonical grid-order journal segments -- a pure permutation of
byte-identical lines, refused while versioned model artifacts hold
live mid-journal cursors.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..core.config import FrameworkConfig
from ..core.severity import DEFAULT_WEIGHTS, SeverityWeights
from ..durable import atomic_write
from ..errors import StoreError
from ..machines import MachineSpec
from .index import serialize_answers
from .journal import JOURNAL_NAME, MANIFEST_NAME, CampaignStore, TaskKey
from .records import StoredCampaign

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .models import ModelArtifact, ModelStore

#: Anything :func:`open_store` accepts: an open fleet, an open
#: standalone store, or the directory of either.
AnyStore = Union["FleetStore", CampaignStore, str, Path]

#: Format tag of the fleet schema, written into every fleet manifest.
FLEET_FORMAT = "repro-fleet/v1"
FLEET_MANIFEST_NAME = "fleet.json"
#: Subdirectory of the fleet root holding the per-machine shards.
SHARDS_DIR = "shards"


@dataclasses.dataclass(frozen=True)
class ShardEntry:
    """One machine's row in the fleet manifest shard table."""

    #: Stable shard name, also its directory name under ``shards/``.
    name: str
    #: Digest of the shard's :class:`MachineSpec` -- the routing key.
    spec_digest: str
    #: Shard directory, relative to the fleet root.
    path: str
    #: Journaled tasks (completion watermark), out of :attr:`total`.
    watermark: int
    #: Grid size of the shard (``len(expected_keys())``).
    total: int
    #: True once :meth:`FleetStore.compact` rewrote the shard journal
    #: into canonical grid order.
    compacted: bool = False

    def to_json_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "spec_digest": self.spec_digest,
            "path": self.path,
            "watermark": self.watermark,
            "total": self.total,
            "compacted": self.compacted,
        }

    @classmethod
    def from_json_dict(cls, data: Mapping[str, Any]) -> "ShardEntry":
        return cls(
            name=str(data["name"]),
            spec_digest=str(data["spec_digest"]),
            path=str(data["path"]),
            watermark=int(data["watermark"]),
            total=int(data["total"]),
            compacted=bool(data.get("compacted", False)),
        )


@dataclasses.dataclass(frozen=True)
class FleetManifest:
    """Everything that defines a fleet, JSON-round-trippable.

    The grid definition (config, workloads, cores, weights) is shared
    by every shard; only the machine spec varies per shard.  Shard
    manifests re-state the grid independently, so a shard remains a
    valid standalone store even if the fleet manifest is lost.
    """

    config: FrameworkConfig
    workloads: Tuple[str, ...]
    cores: Tuple[int, ...]
    shards: Tuple[ShardEntry, ...]
    weights: SeverityWeights = DEFAULT_WEIGHTS

    def __post_init__(self) -> None:
        if not self.shards:
            raise StoreError("a fleet manifest needs at least one shard")
        digests = [shard.spec_digest for shard in self.shards]
        if len(set(digests)) != len(digests):
            raise StoreError(
                "fleet shards must have distinct machine-spec digests; "
                "duplicate specs would make write routing ambiguous"
            )

    def entry_for(self, digest: str) -> ShardEntry:
        for shard in self.shards:
            if shard.spec_digest == digest:
                return shard
        raise StoreError(
            f"no shard of this store routes machine-spec digest {digest} "
            f"(different blueprint or seed material); known shards: "
            f"{[s.name for s in self.shards]}"
        )

    def entry_named(self, name: str) -> ShardEntry:
        for shard in self.shards:
            if shard.name == name:
                return shard
        raise StoreError(
            f"no fleet shard named {name!r}; known shards: "
            f"{[s.name for s in self.shards]}"
        )

    def tasks_total(self) -> int:
        return sum(shard.total for shard in self.shards)

    def tasks_done(self) -> int:
        return sum(shard.watermark for shard in self.shards)

    # -- JSON round-trip ---------------------------------------------------

    def to_json_dict(self) -> Dict[str, Any]:
        return {
            "format": FLEET_FORMAT,
            "config": dataclasses.asdict(self.config),
            "workloads": list(self.workloads),
            "cores": list(self.cores),
            "severity_weights": dataclasses.asdict(self.weights),
            "shards": [shard.to_json_dict() for shard in self.shards],
        }

    @classmethod
    def from_json_dict(
        cls,
        data: Mapping[str, Any],
        source: Optional[Union[str, Path]] = None,
    ) -> "FleetManifest":
        where = "" if source is None else f" at {source}"
        fmt = data.get("format")
        if fmt != FLEET_FORMAT:
            raise StoreError(
                f"unsupported fleet-store format {fmt!r}{where} "
                f"(expected {FLEET_FORMAT!r})"
            )
        try:
            return cls(
                config=FrameworkConfig(**dict(data["config"])),
                workloads=tuple(str(name) for name in data["workloads"]),
                cores=tuple(int(core) for core in data["cores"]),
                weights=SeverityWeights(**dict(data["severity_weights"])),
                shards=tuple(
                    ShardEntry.from_json_dict(entry)
                    for entry in data["shards"]
                ),
            )
        except (KeyError, ValueError, TypeError) as exc:
            raise StoreError(f"malformed fleet manifest{where}: {exc}")


class FleetStore:
    """A directory of per-machine campaign shards under one manifest.

    Construct through :meth:`create` or :meth:`open`.  Shard stores
    open lazily, once per fleet-store object, and :meth:`refresh`
    catches them up with their journals; every shard is a full,
    standalone :class:`CampaignStore`.
    """

    def __init__(self, directory: Path, manifest: FleetManifest) -> None:
        self.directory = directory
        self.manifest = manifest
        #: True for the in-memory one-shard view of a standalone store
        #: (see :meth:`of`): its manifest is never written to disk.
        self.standalone = False
        self._stores: Dict[str, CampaignStore] = {}

    # -- paths -------------------------------------------------------------

    @property
    def manifest_path(self) -> Path:
        return self.directory / FLEET_MANIFEST_NAME

    def shard_path(self, entry: ShardEntry) -> Path:
        return self.directory / entry.path

    def tsdb_path(self, entry: ShardEntry) -> Path:
        """Where ``--tsdb`` sampling lands for this shard (may not exist)."""
        from ..telemetry.tsdb import TSDB_NAME

        return self.shard_path(entry) / TSDB_NAME

    # -- lifecycle ---------------------------------------------------------

    @classmethod
    def create(
        cls,
        directory: Union[str, Path],
        specs: Sequence[MachineSpec],
        config: FrameworkConfig,
        workloads: Sequence[str],
        cores: Sequence[int],
        weights: SeverityWeights = DEFAULT_WEIGHTS,
    ) -> "FleetStore":
        """Create a fleet: one fresh shard per spec + atomic manifest.

        Shards are created *before* the fleet manifest, so a crash
        mid-create leaves either no fleet (no ``fleet.json``) or a
        complete one -- orphan shard directories without a manifest are
        not a fleet and :meth:`open` will not see them.
        """
        path = Path(directory)
        if (path / FLEET_MANIFEST_NAME).exists():
            raise StoreError(
                f"fleet store already exists at {path}; open it with "
                f"FleetStore.open instead of recreating"
            )
        if not specs:
            raise StoreError("a fleet needs at least one machine spec")
        entries: List[ShardEntry] = []
        seen: Dict[str, MachineSpec] = {}
        for position, spec in enumerate(specs):
            digest = spec.digest()
            if digest in seen:
                raise StoreError(
                    f"machine spec #{position} duplicates digest {digest}; "
                    f"every fleet shard needs a distinct spec"
                )
            seen[digest] = spec
            name = f"m{position:02d}-{digest[:8]}"
            shard_dir = Path(SHARDS_DIR) / name
            store = CampaignStore.create(
                path / shard_dir, spec, config, workloads, cores, weights
            )
            entries.append(
                ShardEntry(
                    name=name,
                    spec_digest=digest,
                    path=str(shard_dir),
                    watermark=0,
                    total=len(store.expected_keys()),
                )
            )
        manifest = FleetManifest(
            config=config,
            workloads=tuple(workloads),
            cores=tuple(cores),
            weights=weights,
            shards=tuple(entries),
        )
        fleet = cls(path, manifest)
        fleet._write_manifest()
        return fleet

    @classmethod
    def open(cls, directory: Union[str, Path]) -> "FleetStore":
        """Open a fleet, or a standalone campaign store as a one-shard
        fleet (:meth:`of`); shard journals load lazily."""
        path = Path(directory)
        manifest_path = path / FLEET_MANIFEST_NAME
        if not manifest_path.exists():
            if (path / MANIFEST_NAME).exists():
                return cls.of(CampaignStore.open(path))
            raise StoreError(
                f"no fleet store (and no campaign store) at {path}"
            )
        try:
            data = json.loads(manifest_path.read_text())
        except json.JSONDecodeError as exc:
            raise StoreError(f"corrupt fleet manifest {manifest_path}: {exc}")
        manifest = FleetManifest.from_json_dict(data, source=manifest_path)
        return cls(path, manifest)

    @classmethod
    def of(cls, store: CampaignStore) -> "FleetStore":
        """An open standalone store as a one-shard fleet.

        The view lives in memory only: the shard path is ``.``, the
        watermark is derived from the journal, and nothing -- no
        ``fleet.json`` -- is ever written for it.  The shard is named
        the way ``FleetStore.create`` would name a one-machine fleet's
        shard, so both serialize their answers identically.
        """
        manifest = store.manifest
        digest = manifest.spec.digest()
        entry = ShardEntry(
            name=f"m00-{digest[:8]}",
            spec_digest=digest,
            path=".",
            watermark=len(store.completed_keys()),
            total=len(store.expected_keys()),
        )
        fleet = cls(
            store.directory,
            FleetManifest(
                config=manifest.config,
                workloads=manifest.workloads,
                cores=manifest.cores,
                shards=(entry,),
                weights=manifest.weights,
            ),
        )
        fleet.standalone = True
        fleet._stores[digest] = store
        return fleet

    def _write_manifest(self) -> None:
        """Atomic rewrite: readers see old or new ``fleet.json``, never
        a torn one.  A one-shard view of a standalone store keeps its
        manifest in memory."""
        if self.standalone:
            return
        payload = json.dumps(
            self.manifest.to_json_dict(), indent=2, sort_keys=True
        )
        atomic_write(self.manifest_path, payload + "\n")

    # -- shard routing -----------------------------------------------------

    def shard(self, entry: ShardEntry) -> CampaignStore:
        """Open (cached) the shard store behind a manifest entry.

        The shard's own manifest must agree with the fleet entry on the
        machine-spec digest; a mismatch means the shard directory was
        swapped or edited underneath the fleet.
        """
        cached = self._stores.get(entry.spec_digest)
        if cached is not None:
            return cached
        store = CampaignStore.open(self.shard_path(entry))
        actual = store.manifest.spec.digest()
        if actual != entry.spec_digest:
            raise StoreError(
                f"fleet manifest routes digest {entry.spec_digest} to shard "
                f"{self.shard_path(entry)}, but that shard's manifest "
                f"digests to {actual} -- the shard was swapped or edited"
            )
        self._stores[entry.spec_digest] = store
        return store

    def shard_for(self, spec: MachineSpec) -> CampaignStore:
        """Route a machine spec to its shard store (the write path)."""
        return self.shard(self.manifest.entry_for(spec.digest()))

    def shard_named(self, name: str) -> CampaignStore:
        return self.shard(self.manifest.entry_named(name))

    def shards(self) -> List[Tuple[ShardEntry, CampaignStore]]:
        """Every (entry, open store) pair, in manifest order."""
        return [
            (entry, self.shard(entry)) for entry in self.manifest.shards
        ]

    # -- progress ----------------------------------------------------------

    def refresh_watermarks(self) -> FleetManifest:
        """Re-derive every watermark from disk and rewrite the manifest.

        Watermarks are facts about the shard journals, not independent
        state: each cached shard store advances from its last known
        journal end offset (:meth:`CampaignStore.refresh`).  After the
        write every journal is checked again; if one moved (another
        process appended meanwhile), the refresh and the write repeat.
        A refresher that read stale offsets therefore never leaves its
        manifest over a fresher one: the last writer wins with facts
        at least as new as every other writer's.
        """
        self.refresh()
        while True:
            self.manifest = dataclasses.replace(
                self.manifest,
                shards=tuple(
                    dataclasses.replace(
                        entry,
                        watermark=len(self.shard(entry).completed_keys()),
                    )
                    for entry in self.manifest.shards
                ),
            )
            self._write_manifest()
            if not self.refresh():
                return self.manifest

    def refresh(self) -> int:
        """Catch every shard store up with its journal on disk (see
        :meth:`CampaignStore.refresh`); returns the new records."""
        return sum(
            self.shard(entry).refresh() for entry in self.manifest.shards
        )

    def is_complete(self) -> bool:
        """Whether every shard journal holds its whole grid, read from
        the journals as :meth:`pending_tasks` is (the manifest's
        watermarks may lag them)."""
        return all(store.is_complete() for _, store in self.shards())

    def pending_tasks(self) -> Dict[str, List[TaskKey]]:
        """Per shard name, the grid tasks not yet journaled."""
        return {
            entry.name: store.pending_keys()
            for entry, store in self.shards()
        }

    # -- query answers -----------------------------------------------------

    def indexes(self, feature_target: str = "vmin") -> "FleetIndexes":
        """Every shard's query answers, serialized in manifest order."""
        return FleetIndexes(self, feature_target=feature_target)

    # -- model artifacts ---------------------------------------------------

    def fleet_digest(self) -> str:
        """Content digest of the fleet's machine population.

        A one-shard fleet's digest is its shard's machine-spec digest,
        so a standalone store's models keep the digest they always
        pinned.  Larger fleets hash the shard spec digests in manifest
        order.  Model artifacts pin this, so a model trained on one
        population cannot be silently served against another.
        """
        if len(self.manifest.shards) == 1:
            return self.manifest.shards[0].spec_digest
        digest = hashlib.sha256()
        for entry in self.manifest.shards:
            digest.update(entry.spec_digest.encode("ascii"))
            digest.update(b"\n")
        return "fleet:" + digest.hexdigest()[:16]

    def model_store(self) -> "ModelStore":
        """The fleet-level model-artifact store (``models/`` at the
        fleet root), bound to :meth:`fleet_digest`; for a standalone
        store that is its own ``models/`` directory."""
        from .models import ModelStore

        return ModelStore(
            self.directory, expected_spec_digest=self.fleet_digest()
        )

    # -- compaction --------------------------------------------------------

    def compact(self, force: bool = False) -> List[str]:
        """Fold complete shards into canonical grid-order segments.

        Journal lines re-serialize byte-identically (``json.dumps(...,
        sort_keys=True)``), so compaction is a pure permutation of the
        existing line bytes into manifest grid order (a line written
        before run records left the journal loses its unread
        ``records`` key) -- every read-path
        answer (results, indexes, exports) is append-order invariant
        and therefore unchanged; a compacted shard re-opens as if the
        grid had run serially.

        Invariants:

        * Only *complete* shards compact; partial journals keep their
          append order so a resuming engine's view is untouched.
        * A versioned model artifact holding a live mid-journal cursor
          (``0 < journal_offset < grid total``) blocks compaction --
          reordering would silently re-train that cursor on wrong
          records -- unless ``force=True`` discards the concern.
        * The rewrite is a :func:`~repro.durable.atomic_write`: a crash
          leaves the old or the new journal, never a mix.

        Returns the names of the shards that were rewritten.
        """
        compacted: List[str] = []
        entries: List[ShardEntry] = []
        for entry in self.manifest.shards:
            store = self.shard(entry)
            store.refresh()
            watermark = len(store.completed_keys())
            entry = dataclasses.replace(entry, watermark=watermark)
            if entry.compacted or not store.is_complete():
                entries.append(entry)
                continue
            self._check_cursors(entry, store, force)
            by_key: Dict[TaskKey, StoredCampaign] = {
                stored.key: stored for stored in store.campaigns()
            }
            lines = [
                json.dumps(by_key[key].to_json_dict(), sort_keys=True)
                for key in store.expected_keys()
            ]
            atomic_write(
                self.shard_path(entry) / JOURNAL_NAME, "\n".join(lines) + "\n"
            )
            # The cached store ordered its records pre-rewrite; the new
            # inode makes it reload in the canonical order.
            store.refresh()
            entry = dataclasses.replace(entry, compacted=True)
            compacted.append(entry.name)
            entries.append(entry)
        self.manifest = dataclasses.replace(
            self.manifest, shards=tuple(entries)
        )
        self._write_manifest()
        return compacted

    def _check_cursors(
        self, entry: ShardEntry, store: CampaignStore, force: bool
    ) -> None:
        """Refuse to reorder a journal under a live training cursor.

        Two model stores can hold a cursor into this shard: the shard's
        own ``models/`` (one cursor, ``journal_offset``) and the
        fleet-level one (a cursor per shard in ``fleet_cursors``).  The
        fleet-level store is read unbound: a cursor blocks compaction
        whatever population digest its artifact pins.
        """
        from .models import ModelStore

        if force:
            return
        total = len(store.expected_keys())
        own = store.model_store()
        cursors = [
            (artifact, artifact.journal_offset)
            for artifact in own.latest_artifacts()
        ]
        fleet_models = ModelStore(self.directory)
        if fleet_models.models_path != own.models_path:
            cursors += [
                (artifact, artifact_cursor(artifact, entry.name))
                for artifact in fleet_models.latest_artifacts()
            ]
        for artifact, offset in cursors:
            if 0 < offset < total:
                raise StoreError(
                    f"shard {entry.name} has model artifact "
                    f"{artifact.target}/core{artifact.core} v"
                    f"{artifact.version} with live journal cursor at "
                    f"offset {offset} of {total}; "
                    f"compacting would reorder records under it -- "
                    f"finish training or pass force=True"
                )


class FleetIndexes:
    """Every fleet shard's query answers, in canonical bytes.

    Holds only the fleet and the feature target: each call serializes
    the fleet's shard stores as they stand
    (:func:`~repro.store.index.serialize_answers`), so appends through
    the fleet's own shard stores show at the next call and appends by
    other processes after :meth:`FleetStore.refresh`.  The bytes are
    shard-ordered, so the index-equals-reparse contract is a byte
    comparison fleet-wide.
    """

    def __init__(self, fleet: FleetStore, feature_target: str = "vmin") -> None:
        self.fleet = fleet
        self.feature_target = feature_target

    def _serialize(
        self, shards: Iterable[Tuple[ShardEntry, CampaignStore]]
    ) -> str:
        return "".join(
            f"# shard {entry.name} spec {entry.spec_digest}\n"
            + serialize_answers(store, self.feature_target)
            for entry, store in shards
        )

    def serialize(self) -> str:
        """Canonical byte form of every answer across the fleet."""
        return self._serialize(self.fleet.shards())

    def serialize_reparse(self) -> str:
        """The same bytes recomputed through a full journal re-parse.

        Must equal :meth:`serialize` on every fleet -- the
        index-equals-reparse contract, fleet-wide.  Each shard is
        reopened without its count snapshot, so every line is
        validated and every answer computed again.
        """
        return self._serialize(
            (entry, CampaignStore.open(
                self.fleet.shard_path(entry), snapshot=False))
            for entry in self.fleet.manifest.shards
        )


def open_store(store: AnyStore) -> FleetStore:
    """Every store as a fleet: an open fleet is used as given, an open
    standalone store becomes its one-shard view, and a directory opens
    through :meth:`FleetStore.open`."""
    if isinstance(store, FleetStore):
        return store
    if isinstance(store, CampaignStore):
        return FleetStore.of(store)
    return FleetStore.open(store)


def store_exists(directory: Union[str, Path]) -> bool:
    """Whether ``directory`` holds a fleet or a standalone store."""
    path = Path(directory)
    return any(
        (path / name).exists() for name in (FLEET_MANIFEST_NAME, MANIFEST_NAME)
    )


def artifact_cursor(artifact: "ModelArtifact", shard: str) -> int:
    """A model artifact's journal cursor into the named shard.

    Artifacts carry a cursor per shard (``fleet_cursors``); one saved
    before the trainer kept per-shard cursors holds a single cursor,
    its ``journal_offset``.
    """
    cursors = artifact.trainer_state.get("fleet_cursors")
    if cursors is None:
        return artifact.journal_offset
    return int(cursors.get(shard, 0))


__all__ = [
    "AnyStore",
    "FLEET_FORMAT",
    "FLEET_MANIFEST_NAME",
    "SHARDS_DIR",
    "FleetIndexes",
    "FleetManifest",
    "FleetStore",
    "ShardEntry",
    "artifact_cursor",
    "open_store",
    "store_exists",
]
