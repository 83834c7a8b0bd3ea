"""The count snapshot: what a validating read of a journal found.

``journal.snapshot.json`` sits beside a shard's journal.  It is derived
and discardable: deleting it changes no answer, only the time the next
read takes.  It holds, for a prefix of the journal that a read
validated line by line,

* the key it is valid under: a format tag and the package version, the
  sha256 of ``manifest.json``, the journal's (device, inode), the
  prefix's end offset and line count, and the sha256 of exactly the
  prefix's bytes;
* per covered line: the task key, seed, frequency, watchdog
  interventions, the line's byte span and the per-voltage counts of
  its raw log (:class:`~repro.core.parser.LogCounts`);
* per grid cell complete within the prefix: its Vmin, crash level and
  severity table, as :meth:`CampaignStore.answers
  <repro.store.CampaignStore.answers>` holds them.

A load of the journal from byte 0 (:meth:`CampaignStore.refresh
<repro.store.CampaignStore.refresh>`) hashes the prefix; on a full
match it takes the lines from here, decoding a raw log from its bytes
only when something asks for it, and validates only the tail.  Any
mismatch falls back to the full validating parse.

Two writers save it, both through
:meth:`CampaignStore.save_snapshot
<repro.store.CampaignStore.save_snapshot>`, from the byte spans and the
sha256 state the store kept while it read and appended its lines (never
a re-read, so bytes a concurrent writer appended meanwhile stay
uncovered): an open that validated at least one line past the snapshot,
and the engine, once, when a session that appended lines ends, so the
first read after a run finds a warm store.  A store whose append landed
past bytes it never read saves nothing.  Loading imports only
:mod:`json` and :mod:`hashlib`.
"""

from __future__ import annotations

import hashlib
import json
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Tuple,
)

from .. import telemetry
from .._version import __version__
from ..core.parser import LogCounts
from ..core.regions import _ZERO_COUNTS
from ..durable import LogView, atomic_write
from ..effects import EffectType
from ..errors import CampaignError
from .index import CellAnswers, CellKey
from .records import StoredCampaign

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .journal import CampaignStore

#: File name of the snapshot inside a store (shard) directory.
SNAPSHOT_NAME = "journal.snapshot.json"
#: Format tag stamped into every snapshot.
SNAPSHOT_FORMAT = "repro-count-snapshot/v1"

_LOG = telemetry.get_logger("repro.store.snapshot")

#: A journal line's bytes: (offset of its first byte, offset past it).
Span = Tuple[int, int]
_EFFECTS = tuple(EffectType)


class Covered(NamedTuple):
    """The journal prefix a matching snapshot covers."""

    end: int
    lines: int
    #: sha256 state over the prefix's bytes.
    digest: Any
    #: The covered lines, in journal order, each with its byte span.
    campaigns: List[Tuple[StoredCampaign, Span]]
    answers: Dict[CellKey, CellAnswers]


class _LineText:
    """The raw log of one journal line, decoded from its bytes on the
    first call."""

    def __init__(self, data: bytes, span: Span) -> None:
        self._source: Optional[Tuple[bytes, Span]] = (data, span)
        self._text = ""

    def __call__(self) -> str:
        if self._source is not None:
            data, (begin, end) = self._source
            self._text = json.loads(data[begin:end])["raw_log"]
            self._source = None
        return self._text


def _manifest_digest(store: "CampaignStore") -> str:
    return hashlib.sha256(store.manifest_path.read_bytes()).hexdigest()


def load(store: "CampaignStore", view: LogView) -> Optional[Covered]:
    """The prefix of ``view`` (a whole journal) the store's snapshot
    covers, or ``None``; books the outcome and its reason."""
    reason, covered = _match(store, view)
    telemetry.inc_counter(
        telemetry.M_SNAPSHOT_READS,
        outcome="miss" if covered is None else "hit",
        reason=reason,
    )
    return covered


def _match(store: "CampaignStore", view: LogView) -> Tuple[str, Optional[Covered]]:
    try:
        payload = json.loads((store.directory / SNAPSHOT_NAME).read_bytes())
    except FileNotFoundError:
        return "absent", None
    except (OSError, ValueError):
        return "unreadable", None
    try:
        if (
            payload["format"] != SNAPSHOT_FORMAT
            or payload["version"] != __version__
            or payload["effects"] != [effect.value for effect in _EFFECTS]
        ):
            return "format", None
        if payload["manifest_sha256"] != _manifest_digest(store):
            return "manifest", None
        journal = payload["journal"]
        if [journal["dev"], journal["ino"]] != list(view.identity or ()):
            return "inode", None
        end = journal["end"]
        if len(view.data) < end:
            return "short", None
        digest = hashlib.sha256(memoryview(view.data)[:end])
        if digest.hexdigest() != journal["sha256"]:
            return "hash", None
        campaigns = [
            (_campaign(entry, view.data, store), tuple(entry["span"]))
            for entry in payload["campaigns"]
        ]
        keys = {stored.key for stored, _span in campaigns}
        if len(keys) != len(campaigns) or not keys <= store._expected:
            return "unreadable", None
        answers = {
            (cell["benchmark"], cell["core"]): CellAnswers(
                cell["vmin_mv"],
                cell["crash_mv"],
                [(voltage, value) for voltage, value in cell["severity"]],
            )
            for cell in payload["cells"]
        }
        covered = Covered(end, journal["lines"], digest, campaigns, answers)
    except (KeyError, TypeError, ValueError, AttributeError, OSError):
        return "unreadable", None
    return "match", covered


def _campaign(
    entry: Dict[str, Any], data: bytes, store: "CampaignStore"
) -> StoredCampaign:
    counts: Dict[int, Dict[EffectType, int]] = {}
    run_counts: Dict[int, int] = {}
    for voltage, runs, *effects in entry["counts"]:
        slot = counts[voltage] = _ZERO_COUNTS.copy()
        for effect, count in zip(_EFFECTS, effects):
            if count:
                slot[effect] = count
        run_counts[voltage] = runs
    return StoredCampaign.from_counts(
        entry["benchmark"],
        entry["core"],
        entry["campaign"],
        entry["seed"],
        entry["freq_mhz"],
        entry["interventions"],
        _LineText(data, tuple(entry["span"])),
        LogCounts(entry["chip"], counts, run_counts),
        store._memo,
    )


def _entry(stored: StoredCampaign, span: Span) -> Dict[str, Any]:
    result = stored.result
    runs = result.run_counts_by_voltage()
    return {
        "span": list(span),
        "benchmark": stored.benchmark,
        "core": stored.core,
        "campaign": stored.campaign_index,
        "seed": stored.seed,
        "freq_mhz": stored.freq_mhz,
        "interventions": stored.interventions,
        "chip": result.chip,
        "counts": [
            [voltage, runs[voltage], *(slot[effect] for effect in _EFFECTS)]
            for voltage, slot in result.counts_by_voltage().items()
        ],
    }


def save(
    store: "CampaignStore",
    digest: Any,
    campaigns: Iterable[Tuple[StoredCampaign, Span]],
    end: int,
    lines: int,
    identity: Optional[Tuple[int, int]],
) -> None:
    """Cover the journal's first ``end`` bytes (``lines`` lines, whose
    sha256 state is ``digest``: ``campaigns``, all the store holds, in
    journal order) with a fresh snapshot.

    It persists :meth:`CampaignStore.answers`, which computes the cells
    the store has no answer for yet; a cell whose answer raises keeps
    none.  A failed write (a read-only directory, a full disk) is logged
    and otherwise ignored: the snapshot only ever saves time.
    """
    try:
        store.answers()
    except CampaignError:
        pass  # the cell that raised keeps no answer; queries raise it again
    dev, ino = identity or (None, None)
    payload = {
        "format": SNAPSHOT_FORMAT,
        "version": __version__,
        "effects": [effect.value for effect in _EFFECTS],
        "manifest_sha256": _manifest_digest(store),
        "journal": {
            "dev": dev,
            "ino": ino,
            "end": end,
            "lines": lines,
            "sha256": digest.hexdigest(),
        },
        "campaigns": [_entry(stored, span) for stored, span in campaigns],
        "cells": [
            {
                "benchmark": name,
                "core": core,
                "vmin_mv": answer.vmin_mv,
                "crash_mv": answer.crash_mv,
                "severity": [list(pair) for pair in answer.severity],
            }
            for (name, core), answer in store._answers.items()
        ],
    }
    path = store.directory / SNAPSHOT_NAME
    try:
        atomic_write(path, json.dumps(payload, separators=(",", ":")) + "\n")
    except OSError as exc:
        _LOG.warning("count snapshot not written", path=str(path),
                     error=str(exc))
