"""The append-only campaign journal (``repro-campaign/v1``).

A campaign store is a directory with two files of record:

* ``manifest.json`` -- written once, atomically, when the store is
  created: the schema format tag, the full
  :class:`~repro.machines.MachineSpec` JSON (plus its content digest),
  the :class:`~repro.core.framework.FrameworkConfig`, the grid
  definition (workload names x cores), the parent seed material and
  the severity weights.  The manifest alone determines every task of
  the grid and every task's derived seed -- which is what makes a
  journal resumable bit-identically.
* ``journal.jsonl`` -- one line per completed (workload, core,
  campaign) task and its raw log, appended as tasks finish (see
  :class:`~repro.store.records.StoredCampaign`), kept as a
  :class:`~repro.durable.AppendLog`: a crash can tear at most the
  trailing line; corruption anywhere else is an error, never silently
  skipped.

Beside them sits one derived, discardable file, ``journal.snapshot.json``
(:mod:`repro.store.snapshot`): the counts of a journal prefix, keyed on
the sha256 of exactly those bytes, so a later read validates only the
lines past it.  A validating read writes it, and so does the engine
when a session that appended lines ends.  Deleting it changes no answer.
Model artifacts, when trained, live under ``models/``.

The store is the single durable persistence path of the stack, and the
journal its only record of the runs: the paper's Section-2.2 CSVs are
written where someone asks for them (``repro grid --out DIR``), never
into a store.
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
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from .. import telemetry
from ..core.campaign import CharacterizationResult
from ..core.config import FrameworkConfig
from ..core.parser import ParseMemo
from ..core.severity import DEFAULT_WEIGHTS, SeverityWeights
from ..durable import AppendLog, atomic_write
from ..errors import CampaignError, ConfigurationError, StoreError
from ..machines import MachineSpec
from ..workloads import get_program
from ..workloads.benchmark import Program
from .records import LineSpan, StoredCampaign

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .index import CellAnswers
    from .models import ModelStore
    from .snapshot import Span

#: Format tag of the store schema, written into every manifest.
STORE_FORMAT = "repro-campaign/v1"
MANIFEST_NAME = "manifest.json"
JOURNAL_NAME = "journal.jsonl"

#: Identity of one grid task: (benchmark name, core, campaign index).
TaskKey = Tuple[str, int, int]


@dataclasses.dataclass(frozen=True)
class CampaignManifest:
    """Everything that defines a campaign grid, JSON-round-trippable."""

    spec: MachineSpec
    config: FrameworkConfig
    #: Workload names in grid order (``"bench"`` or ``"bench/input"``).
    workloads: Tuple[str, ...]
    cores: Tuple[int, ...]
    weights: SeverityWeights = DEFAULT_WEIGHTS

    def __post_init__(self) -> None:
        if not self.workloads or not self.cores:
            raise ConfigurationError(
                "a campaign manifest needs at least one workload and one core"
            )

    def expected_keys(self) -> List[TaskKey]:
        """Every task of the grid, in reference (serial) order."""
        return [
            (name, core, campaign)
            for name in self.workloads
            for core in self.cores
            for campaign in range(1, self.config.campaigns + 1)
        ]

    def programs(self) -> List[Program]:
        """The workload names resolved back to program objects."""
        return [get_program(name) for name in self.workloads]

    # -- JSON round-trip ---------------------------------------------------

    def to_json_dict(self) -> Dict[str, Any]:
        return {
            "format": STORE_FORMAT,
            "machine_spec": self.spec.to_json_dict(),
            "spec_digest": self.spec.digest(),
            "seed": self.spec.seed,
            "config": dataclasses.asdict(self.config),
            "workloads": list(self.workloads),
            "cores": list(self.cores),
            "severity_weights": dataclasses.asdict(self.weights),
        }

    @classmethod
    def from_json_dict(
        cls,
        data: Mapping[str, Any],
        source: Optional[Union[str, Path]] = None,
    ) -> "CampaignManifest":
        """Inverse of :meth:`to_json_dict`.

        ``source`` names the manifest file (or shard path) the dict was
        read from, so integrity errors can point at the offending file.
        """
        where = "" if source is None else f" at {source}"
        fmt = data.get("format")
        if fmt != STORE_FORMAT:
            raise StoreError(
                f"unsupported campaign-store format {fmt!r}{where} "
                f"(expected {STORE_FORMAT!r})"
            )
        try:
            spec = MachineSpec.from_json_dict(data["machine_spec"])
            manifest = cls(
                spec=spec,
                config=FrameworkConfig(**dict(data["config"])),
                workloads=tuple(str(name) for name in data["workloads"]),
                cores=tuple(int(core) for core in data["cores"]),
                weights=SeverityWeights(**dict(data["severity_weights"])),
            )
        except (KeyError, ValueError, TypeError) as exc:
            raise StoreError(f"malformed store manifest{where}: {exc}")
        digest = data.get("spec_digest")
        if digest is not None and digest != spec.digest():
            raise StoreError(
                f"store manifest{where} pins spec_digest {digest}, but the "
                f"embedded machine spec digests to {spec.digest()} -- the "
                f"manifest was edited or corrupted"
            )
        return manifest


class CampaignStore:
    """A directory-backed, append-only journal of one campaign grid.

    Construct through :meth:`create` (new store) or :meth:`open`
    (existing store); the constructor itself is internal.
    """

    def __init__(
        self, directory: Path, manifest: CampaignManifest, snapshot: bool = True
    ) -> None:
        self.directory = directory
        self.manifest = manifest
        #: Whether loads read and write the count snapshot.
        self._snapshot = snapshot
        self._campaigns: List[StoredCampaign] = []
        #: The byte span of each of :attr:`_campaigns` in the journal.
        self._spans: List[Span] = []
        #: sha256 state over the journal bytes the store holds, the
        #: lines before ``self._log.end``, kept as they are read or
        #: appended; ``None`` without a snapshot, or once an append
        #: landed past bytes this store never read.
        self._digest: Any = hashlib.sha256() if snapshot else None
        # The grid is fixed at manifest time and appends are per-task,
        # so membership checks run off cached sets instead of rebuilding
        # the expected/completed sets O(grid) on every append.
        self._expected: Set[TaskKey] = set(manifest.expected_keys())
        self._completed: Set[TaskKey] = set()
        self._log = AppendLog(self.journal_path, "journal")
        #: Headers and bodies already parsed out of this journal's raw
        #: logs, shared by every line (see :class:`ParseMemo`).
        self._memo = ParseMemo()
        #: Vmin and severity answers of complete cells: those the count
        #: snapshot covered, then each one :meth:`answers` computed.
        self._answers: Dict[Tuple[str, int], CellAnswers] = {}
        #: Records held when :attr:`_answers` last covered every
        #: complete cell, in grid order (-1: not since the last load).
        self._answered = -1

    # -- paths -------------------------------------------------------------

    @property
    def manifest_path(self) -> Path:
        return self.directory / MANIFEST_NAME

    @property
    def journal_path(self) -> Path:
        return self.directory / JOURNAL_NAME

    # -- lifecycle ---------------------------------------------------------

    @classmethod
    def create(
        cls,
        directory: Union[str, Path],
        spec: MachineSpec,
        config: FrameworkConfig,
        workloads: Sequence[str],
        cores: Sequence[int],
        weights: SeverityWeights = DEFAULT_WEIGHTS,
    ) -> "CampaignStore":
        """Create a fresh store: directory + atomically written manifest."""
        path = Path(directory)
        if (path / MANIFEST_NAME).exists():
            raise CampaignError(
                f"campaign store already exists at {path}; open it with "
                f"CampaignStore.open (or resume it) instead of recreating"
            )
        manifest = CampaignManifest(
            spec=spec,
            config=config,
            workloads=tuple(workloads),
            cores=tuple(cores),
            weights=weights,
        )
        path.mkdir(parents=True, exist_ok=True)
        payload = json.dumps(manifest.to_json_dict(), indent=2, sort_keys=True)
        atomic_write(path / MANIFEST_NAME, payload + "\n")
        return cls(path, manifest)

    @classmethod
    def open(
        cls, directory: Union[str, Path], snapshot: bool = True
    ) -> "CampaignStore":
        """Open an existing store and load its journal.

        The load takes the journal prefix the count snapshot covers
        from the snapshot (:mod:`repro.store.snapshot`) and validates
        the rest; ``snapshot=False`` validates every line and neither
        reads nor writes the snapshot.
        """
        path = Path(directory)
        manifest_path = path / MANIFEST_NAME
        if not manifest_path.exists():
            raise CampaignError(f"no campaign store at {path}")
        try:
            manifest_data = json.loads(manifest_path.read_text())
        except json.JSONDecodeError as exc:
            raise StoreError(f"corrupt store manifest {manifest_path}: {exc}")
        manifest = CampaignManifest.from_json_dict(
            manifest_data, source=manifest_path
        )
        store = cls(path, manifest, snapshot)
        store.refresh()
        return store

    def refresh(self) -> int:
        """Fold in the journal lines appended since this store last
        looked; returns how many records are new to it.

        Reads from the journal's last known end offset, so appends by
        other store objects or processes cost only their own bytes;
        each new line's raw log is validated and counted here, and kept
        as its byte span (read back when first asked for), its records
        parsed only when first asked for.  A
        torn tail is left for later (the task simply reruns); a line
        that lacks a key or whose raw log does not parse raises
        :class:`~repro.errors.StoreError` naming the file and line, and
        a task outside the manifest grid or a duplicate raises
        :class:`~repro.errors.CampaignError`; either way the store is
        left as it was.  If the journal was replaced (compacted by another
        process) or shrank, or another writer appended between this
        store's catch-up and its commit, the store reloads it from byte
        0 and takes the on-disk order; a reload counts none of the
        records the store already held as new.

        A load from byte 0 takes the prefix the count snapshot covers
        from it when the snapshot matches the journal, and rewrites the
        snapshot (:meth:`save_snapshot`) when it validated lines past
        that prefix.
        """
        view = self._log.follow()
        reload = not view.start
        covered = None
        if reload and view.data and self._snapshot:
            from . import snapshot

            covered = snapshot.load(self, view)
        loaded: List[Tuple[StoredCampaign, Span]] = []
        if covered is not None:
            loaded = list(covered.campaigns)
            view = view._replace(start=covered.end, line=covered.lines)
        known = set() if reload else self._completed
        keys: Set[TaskKey] = {stored.key for stored, _span in loaded}
        reused = len(loaded)
        path = self.journal_path
        for line, data, span in self._log.scan(view):
            try:
                campaign = StoredCampaign.from_json_dict(
                    data, self._memo,
                    LineSpan(path, view.identity, *span, line),
                )
            except CampaignError as exc:
                raise StoreError(
                    f"journal line {line} in {self.journal_path}: {exc}"
                )
            if campaign.key not in self._expected:
                raise CampaignError(
                    f"journal line {line} records task "
                    f"{campaign.key!r}, which is not in the manifest grid"
                )
            if campaign.key in keys or campaign.key in known:
                raise CampaignError(
                    f"journal line {line} duplicates task {campaign.key!r}"
                )
            keys.add(campaign.key)
            loaded.append((campaign, span))
        campaigns = [stored for stored, _span in loaded]
        new = len(keys - self._completed)
        if reload:
            self._campaigns, self._spans, self._completed = [], [], set()
            self._answers = {} if covered is None else covered.answers
            self._answered = -1
            if self._snapshot:
                self._digest = (
                    hashlib.sha256() if covered is None else covered.digest
                )
        if self._digest is not None:
            self._digest.update(memoryview(view.data)[
                view.start - view.base:self._log.end - view.base])
        self._campaigns.extend(campaigns)
        self._spans.extend(span for _stored, span in loaded)
        self._completed |= keys
        if reload and self._snapshot and len(loaded) > reused:
            self.save_snapshot()
        return new

    def save_snapshot(self) -> bool:
        """Write the count snapshot of every line this store holds, from
        the byte spans and the hash kept as they were read or appended:
        the journal is never read back for it.  Returns False, writing
        nothing, when the store keeps no snapshot or an append landed
        past journal bytes it never read (a concurrent writer)."""
        if self._digest is None:
            return False
        from . import snapshot

        snapshot.save(self, self._digest, zip(self._campaigns, self._spans),
                      self._log.end, self._log.lines, self._log.identity)
        return True

    # -- append side -------------------------------------------------------

    def append_campaign(self, *lines: StoredCampaign) -> List[StoredCampaign]:
        """Journal the lines of completed campaigns (one chunk) as they
        are, in one write with one fsync before return, and keep and
        return them in the form a read builds: the per-voltage counts,
        the raw log as its byte span in the journal (read back on first
        access) and the records parsed through this store's
        :class:`ParseMemo` on first access.  Neither the text nor any
        run record the lines carry is kept, so a writer holds what a
        reader of its journal holds.  A chunk with a task outside the
        grid or already journaled writes nothing."""
        for stored in lines:
            if stored.key not in self._expected:
                raise CampaignError(
                    f"task {stored.key!r} is not part of this store's grid"
                )
        # Catch up first: the duplicate check then holds against disk,
        # and the append lands exactly at the journal's known end.
        self.refresh()
        keys: Set[TaskKey] = set()
        for stored in lines:
            if stored.key in self._completed or stored.key in keys:
                raise CampaignError(
                    f"task {stored.key!r} is already journaled"
                )
            keys.add(stored.key)
        texts: List[str] = []
        for stored in lines:
            # A real span (not a point event) in the task's trace: the
            # line's encoding, booked to the journal_append phase.
            with telemetry.span(
                "journal.append",
                trace_id=telemetry.task_trace_id(
                    stored.benchmark, stored.core, stored.campaign_index
                ),
                benchmark=stored.benchmark,
                core=stored.core,
                campaign=stored.campaign_index,
            ):
                texts.append(json.dumps(stored.to_json_dict(), sort_keys=True))
        fsync_started = telemetry.clock()
        with telemetry.span("journal.fsync", lines=len(texts),
                            bytes=sum(len(text) + 1 for text in texts)):
            appended = self._log.append(*texts)
        telemetry.observe(
            telemetry.M_JOURNAL_FSYNC_SECONDS, telemetry.clock() - fsync_started
        )
        telemetry.inc_counter(telemetry.M_JOURNAL_APPENDS, amount=len(texts))
        end, line = appended.offset, appended.line
        raced = line is None  # bytes landed before ours unread
        if line is None:
            line = self._log.lines_before(end)
        kept: List[StoredCampaign] = []
        path = self.journal_path
        for stored, text in zip(lines, texts):
            # json.dumps writes ASCII: one byte a char.
            span = (end, end + len(text) + 1)
            end, line = span[1], line + 1
            self._spans.append(span)
            kept.append(stored.journaled(
                LineSpan(path, appended.identity, *span, line), self._memo,
            ))
        if self._digest is not None:
            if raced:
                self._digest = None
            else:
                for text in texts:
                    self._digest.update(f"{text}\n".encode("ascii"))
        self._campaigns.extend(kept)
        self._completed |= keys
        return kept

    # -- progress ----------------------------------------------------------

    def campaigns(self) -> List[StoredCampaign]:
        """Journaled campaigns, in append order."""
        return list(self._campaigns)

    def completed_keys(self) -> Set[TaskKey]:
        return set(self._completed)

    def expected_keys(self) -> List[TaskKey]:
        return self.manifest.expected_keys()

    def pending_keys(self) -> List[TaskKey]:
        """Grid tasks not yet journaled, in reference order."""
        done = self.completed_keys()
        return [key for key in self.expected_keys() if key not in done]

    def is_complete(self) -> bool:
        return not self.pending_keys()

    def validate_run(
        self,
        spec: MachineSpec,
        config: FrameworkConfig,
        workloads: Sequence[str],
        cores: Sequence[int],
    ) -> None:
        """Reject appends/resumes under a different grid definition.

        A journal is only meaningful against the exact machine
        blueprint, configuration and grid it was recorded for; anything
        else would splice incompatible results into one store.
        """
        manifest = self.manifest
        if spec.digest() != manifest.spec.digest():
            raise CampaignError(
                "machine spec does not match the store manifest "
                "(different blueprint or seed material)"
            )
        if config != manifest.config:
            raise CampaignError(
                "framework configuration does not match the store manifest"
            )
        if tuple(workloads) != manifest.workloads:
            raise CampaignError(
                f"workload grid {tuple(workloads)!r} does not match the "
                f"store manifest {manifest.workloads!r}"
            )
        if tuple(cores) != manifest.cores:
            raise CampaignError(
                f"core grid {tuple(cores)!r} does not match the store "
                f"manifest {manifest.cores!r}"
            )

    # -- read side ---------------------------------------------------------

    def _grid(self) -> Dict[Tuple[str, int], List[StoredCampaign]]:
        """Journaled campaigns grouped by grid cell, in manifest order."""
        grid: Dict[Tuple[str, int], List[StoredCampaign]] = {}
        for campaign in self._campaigns:
            grid.setdefault((campaign.benchmark, campaign.core), []).append(
                campaign
            )
        ordered: Dict[Tuple[str, int], List[StoredCampaign]] = {}
        for name in self.manifest.workloads:
            for core in self.manifest.cores:
                cell = grid.get((name, core))
                if cell:
                    ordered[(name, core)] = sorted(
                        cell, key=lambda c: c.campaign_index
                    )
        return ordered

    def answers(self) -> Mapping[Tuple[str, int], "CellAnswers"]:
        """The Vmin and severity answers of every complete grid cell, in
        manifest grid order.

        A cell the count snapshot covered is taken as it stands; every
        other complete cell is computed once
        (:func:`~repro.store.index.cell_answers`) and kept, so the next
        snapshot persists it.  A cell whose campaigns do not aggregate
        raises its :class:`~repro.errors.CampaignError` here, on every
        call, and keeps no answer.
        """
        if self._answered == len(self._campaigns):
            return self._answers
        from .index import cell_answers

        answers: Dict[Tuple[str, int], CellAnswers] = {}
        failure: Optional[CampaignError] = None
        for cell, members in self._grid().items():
            if len(members) < self.manifest.config.campaigns:
                continue
            answer = self._answers.get(cell)
            if answer is None:
                try:
                    answer = cell_answers(members, self.manifest.weights)
                except CampaignError as exc:
                    failure = failure or exc
                    continue
            answers[cell] = answer
        self._answers = answers
        if failure is not None:
            raise failure
        self._answered = len(self._campaigns)
        return answers

    def results(self) -> Dict[Tuple[str, int], CharacterizationResult]:
        """Reconstruct every *complete* grid cell, in manifest order."""
        campaigns_per_cell = self.manifest.config.campaigns
        return {
            key: CharacterizationResult(
                campaigns=tuple(c.campaign_result() for c in cell)
            )
            for key, cell in self._grid().items()
            if len(cell) == campaigns_per_cell
        }

    def result_for(self, benchmark: str, core: int) -> CharacterizationResult:
        """Reconstruct one grid cell, requiring it to be complete."""
        cell = self._grid().get((benchmark, core))
        if cell is None:
            raise CampaignError(
                f"store has no journaled campaigns for "
                f"({benchmark!r}, core {core})"
            )
        missing = self.manifest.config.campaigns - len(cell)
        if missing:
            raise CampaignError(
                f"({benchmark!r}, core {core}) is incomplete: {missing} of "
                f"{self.manifest.config.campaigns} campaigns still pending"
            )
        return CharacterizationResult(
            campaigns=tuple(c.campaign_result() for c in cell)
        )

    def raw_logs(self) -> Dict[Tuple[str, int, int, int], str]:
        """Raw campaign logs keyed like the framework's log mapping,
        each read back from the journal."""
        logs: Dict[Tuple[str, int, int, int], str] = {}
        for name in self.manifest.workloads:
            for core in self.manifest.cores:
                for campaign in self._grid().get((name, core), []):
                    logs[campaign.raw_log_key] = campaign.raw_log
        return logs

    def interventions(self) -> int:
        """Total watchdog recoveries across all journaled campaigns."""
        return sum(campaign.interventions for campaign in self._campaigns)

    # -- model artifacts ---------------------------------------------------

    def model_store(self) -> "ModelStore":
        """The versioned model-artifact store under this directory.

        Artifacts are bound to this store's machine-spec digest:
        loading or saving one fitted against a different spec raises.
        """
        from .models import ModelStore

        return ModelStore(
            self.directory,
            expected_spec_digest=self.manifest.spec.digest(),
        )
