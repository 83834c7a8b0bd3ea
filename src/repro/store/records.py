"""Journal payloads of the campaign store.

One journal line is one completed campaign: the raw log text plus the
provenance a resume needs to prove bit-identity -- the derived machine
seed the campaign ran with and the watchdog intervention count.  The
raw log is the only persisted form of the runs, and every result is
derived from it, as the paper's framework derives its results from raw
logs in a separate parsing phase.

A line holds its raw log and the per-voltage counts of that log
(:class:`~repro.core.parser.LogCounts`), never its run records: those
are parsed (:func:`repro.core.parser.parse_records`) when something
first asks for them.  The worker that runs a campaign builds its line
from the kernel's counts (or, on the scalar path, from the records it
parsed), and a pickled line carries the raw log and the counts
(:meth:`StoredCampaign.__reduce__`).  The store appends that line as it
is.  Once journaled, a line's raw log has one form: a
:class:`JournalText` over the line's byte span in the journal, which
reads and decodes the text the first time it is called.  Lines the store
appends, lines a validating read loads and lines a count-snapshot read
loads all hold one.  Replaying a journal never re-runs anything.
"""

from __future__ import annotations

import json
import os
from dataclasses import FrozenInstanceError
from functools import partial
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    Mapping,
    NamedTuple,
    Optional,
    Tuple,
    Union,
)

from ..core.campaign import CampaignResult
from ..core.parser import LogCounts, ParseMemo, count_log, parse_records
from ..core.runs import RunRecord
from ..errors import CampaignError, ConfigurationError, ParseError, StoreError

#: A raw log, or a callable that returns it when first asked for.
RawLog = Union[str, Callable[[], str]]


class LineSpan(NamedTuple):
    """Where one journal line's bytes sit."""

    path: Path
    #: (device, inode) of the journal the span was measured in.
    identity: Optional[Tuple[int, int]]
    #: Offset of the line's first byte.
    begin: int
    #: Offset past the line's newline.
    end: int
    #: The line's number in the journal (from 1).
    line: int


class JournalText:
    """The raw log of one journal line, read back from its bytes.

    The first call reads the line's span from the journal and decodes
    it; the text is kept, so a line is decoded at most once.  A journal
    replaced since the span was measured (compacted, or rewritten by any
    atomic write) raises :class:`~repro.errors.StoreError` naming the
    journal and the line, and so do bytes at the span that are not this
    task's line: a reader never returns another line's text.
    """

    __slots__ = ("where", "task", "_text")

    def __init__(
        self, where: LineSpan, task: Tuple[str, int, int, int]
    ) -> None:
        self.where = where
        #: (benchmark, core, campaign, seed) of the line.
        self.task = task
        self._text: Optional[str] = None

    def __call__(self) -> str:
        if self._text is None:
            self._text = self._read()
        return self._text

    def _read(self) -> str:
        where = self.where
        line = f"journal line {where.line} of {where.path}"
        try:
            with open(where.path, "rb") as handle:
                info = os.fstat(handle.fileno())
                if (info.st_dev, info.st_ino) != where.identity:
                    raise StoreError(
                        f"{line} cannot be read back: the journal was "
                        f"replaced since the line was read"
                    )
                handle.seek(where.begin)
                data = handle.read(where.end - where.begin)
        except OSError as exc:
            raise StoreError(f"{line} cannot be read back: {exc}")
        task: Optional[Tuple[Any, ...]] = None
        text: Any = None
        try:
            value = json.loads(data)
            task = (value["benchmark"], value["core"], value["campaign"],
                    value["seed"])
            text = value["raw_log"]
        except (ValueError, KeyError, TypeError):
            pass
        if task != self.task or not isinstance(text, str):
            raise StoreError(
                f"{line} cannot be read back: bytes {where.begin}-"
                f"{where.end} no longer hold task {self.task[:3]!r}"
            )
        return text


class StoredCampaign:
    """One completed (benchmark, core, campaign) task, as journaled.

    Frozen; equality compares every field, the raw log included.
    """

    #: Unhashable, as the campaign aggregate is.
    __hash__ = None  # type: ignore[assignment]

    benchmark: str
    core: int
    campaign_index: int
    #: Derived machine seed the campaign executed with (see
    #: :func:`repro.parallel.tasks.derive_task_seed`); resumes verify
    #: it against a fresh derivation before trusting the line.
    seed: int
    freq_mhz: int
    #: Watchdog recoveries performed during this campaign.
    interventions: int
    #: The campaign aggregate, never journaled: the one the run built
    #: with its raw log (the kernel's counts, or the scalar path's
    #: records) on a line a worker made; on a line a store holds (read
    #: or appended) or an unpickled one, the counts of :attr:`raw_log`
    #: with its records parsed on first access.
    result: CampaignResult

    def __init__(
        self,
        benchmark: str,
        core: int,
        campaign_index: int,
        seed: int,
        freq_mhz: int,
        interventions: int,
        raw_log: RawLog,
        result: CampaignResult,
    ) -> None:
        self.__dict__.update(
            benchmark=benchmark, core=core, campaign_index=campaign_index,
            seed=seed, freq_mhz=freq_mhz, interventions=interventions,
            _raw_log=raw_log, result=result,
        )

    def __setattr__(self, name: str, value: Any) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self) -> Tuple[Any, ...]:
        # A pickled line is its raw log and counts: no run record, no
        # journal reader; it parses its records afresh when asked.
        return (self.from_counts, (*self._provenance(), self.raw_log,
                                   self.counts()))

    def _provenance(self) -> Tuple[str, int, int, int, int, int]:
        return (self.benchmark, self.core, self.campaign_index, self.seed,
                self.freq_mhz, self.interventions)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StoredCampaign):
            return NotImplemented
        return (self._provenance() == other._provenance()
                and self.raw_log == other.raw_log
                and self.result == other.result)

    def __repr__(self) -> str:
        return (
            f"StoredCampaign(benchmark={self.benchmark!r}, core={self.core!r}, "
            f"campaign_index={self.campaign_index!r}, seed={self.seed!r}, "
            f"freq_mhz={self.freq_mhz!r}, "
            f"interventions={self.interventions!r})"
        )

    @property
    def raw_log(self) -> str:
        """Raw campaign log text: the journaled form of the runs, and
        the source of the derived CSV/log exports of a resumed grid.
        A journaled line reads it back from the journal on first
        access."""
        raw: RawLog = self.__dict__["_raw_log"]
        return raw if isinstance(raw, str) else raw()

    @property
    def key(self) -> Tuple[str, int, int]:
        """The (benchmark, core, campaign) task this line completes."""
        return (self.benchmark, self.core, self.campaign_index)

    @property
    def raw_log_key(self) -> Tuple[str, int, int, int]:
        """Key of the raw log in the framework's log mapping."""
        return (self.benchmark, self.core, self.freq_mhz, self.campaign_index)

    @property
    def records(self) -> Tuple[RunRecord, ...]:
        """The classified runs (parsed from :attr:`raw_log` on first
        access, except on a scalar-path worker's line)."""
        return self.result.records

    def campaign_result(self) -> CampaignResult:
        """The in-memory campaign aggregate, one per line, so every
        index over it shares one per-voltage aggregation."""
        return self.result

    def counts(self) -> LogCounts:
        """The per-voltage counts of :attr:`raw_log` (copies)."""
        result = self.result
        return LogCounts(result.chip, result.counts_by_voltage(),
                         result.run_counts_by_voltage())

    def journaled(self, where: LineSpan, memo: ParseMemo) -> "StoredCampaign":
        """This line as a store keeps it once its bytes sit at
        ``where``: its counts, its raw log read back from the journal
        on first access, its records parsed through ``memo``."""
        provenance = self._provenance()
        return self.from_counts(
            *provenance, JournalText(where, provenance[:4]), self.counts(),
            memo,
        )

    # -- JSONL codec -------------------------------------------------------

    def to_json_dict(self) -> Dict[str, Any]:
        """Plain-dict form of one journal line (no run records)."""
        return {
            "benchmark": self.benchmark,
            "core": self.core,
            "campaign": self.campaign_index,
            "seed": self.seed,
            "freq_mhz": self.freq_mhz,
            "interventions": self.interventions,
            "raw_log": self.raw_log,
        }

    @classmethod
    def from_json_dict(
        cls,
        data: Mapping[str, Any],
        memo: Optional[ParseMemo] = None,
        where: Optional[LineSpan] = None,
    ) -> "StoredCampaign":
        """Inverse of :meth:`to_json_dict`.

        Every run block of ``raw_log`` is validated here, and its
        per-voltage counts kept; the records are parsed through the
        same ``memo`` (a fresh one by default) when first asked for.
        With ``where`` (the line's bytes in its journal) the line keeps
        a :class:`JournalText` there instead of the decoded text.  A
        ``records`` key (written by older versions) is never read.
        """
        memo = ParseMemo() if memo is None else memo
        try:
            benchmark = data["benchmark"]
            core = int(data["core"])
            campaign_index = int(data["campaign"])
            seed = int(data["seed"])
            freq_mhz = int(data["freq_mhz"])
            interventions = int(data["interventions"])
            raw_log = data["raw_log"]
            log = count_log(raw_log, memo)
        except KeyError as exc:
            raise CampaignError(f"journal campaign line lacks key {exc}")
        except (
            AttributeError, ValueError, TypeError, ParseError,
            ConfigurationError,
        ) as exc:
            raise CampaignError(f"malformed journal campaign line: {exc}")
        if where is not None:
            raw_log = JournalText(where, (benchmark, core, campaign_index,
                                          seed))
        return cls.from_counts(
            benchmark, core, campaign_index, seed, freq_mhz, interventions,
            raw_log, log, memo,
        )

    @classmethod
    def from_counts(
        cls,
        benchmark: str,
        core: int,
        campaign_index: int,
        seed: int,
        freq_mhz: int,
        interventions: int,
        raw_log: RawLog,
        log: LogCounts,
        memo: Optional[ParseMemo] = None,
    ) -> "StoredCampaign":
        """A line known by the per-voltage counts of its raw log (which
        it owns from here on); its records are parsed through ``memo``
        (a fresh one by default) when first asked for."""
        return cls(
            benchmark=benchmark,
            core=core,
            campaign_index=campaign_index,
            seed=seed,
            freq_mhz=freq_mhz,
            interventions=interventions,
            raw_log=raw_log,
            result=CampaignResult.from_counts(
                chip=log.chip,
                benchmark=benchmark,
                core=core,
                freq_mhz=freq_mhz,
                campaign_index=campaign_index,
                counts=log.counts,
                run_counts=log.run_counts,
                load=partial(_parse, raw_log, memo),
            ),
        )


def _parse(
    raw_log: RawLog, memo: Optional[ParseMemo]
) -> Tuple[RunRecord, ...]:
    return parse_records(raw_log if isinstance(raw_log, str) else raw_log(),
                         memo)
