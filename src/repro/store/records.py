"""Journal payloads of the campaign store.

One journal line is one completed campaign: the raw log text plus the
provenance a resume needs to prove bit-identity -- the derived machine
seed the campaign ran with and the watchdog intervention count.  The
worker that runs a campaign builds its line
(:meth:`StoredCampaign.from_result`), and the store appends that line
as it is.  The raw log is the only persisted form of the runs: reading
a line runs the framework's parsing phase on it, as the paper's
framework derives every result from its raw logs.  The read validates
every run block and keeps only the per-voltage counts
(:func:`repro.core.parser.count_log`); the run records are parsed
(:func:`repro.core.parser.parse_records`) when something first asks
for them.  A store keeps the line it appends in that same form
(:meth:`StoredCampaign.counted`), so it never holds a campaign's
records unless asked.  Replaying a journal never re-runs anything.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError
from functools import partial
from typing import Any, Callable, Dict, Mapping, Optional, Tuple, Union

from ..core.campaign import CampaignResult
from ..core.parser import LogCounts, ParseMemo, count_log, parse_records
from ..core.runs import RunRecord
from ..errors import CampaignError, ConfigurationError, ParseError

#: A raw log, or a callable that returns it when first asked for.
RawLog = Union[str, Callable[[], str]]


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
    #: with its raw log (kernel or parsing phase) on a line a worker
    #: made; on a line a store holds (read or appended), the counts of
    #: :attr:`raw_log` with its records parsed on first access.
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

    def __getstate__(self) -> Dict[str, Any]:
        # A pickled line carries its raw log, never the loader.
        return dict(self.__dict__, _raw_log=self.raw_log)

    def _fields(self) -> Tuple[Any, ...]:
        return (self.benchmark, self.core, self.campaign_index, self.seed,
                self.freq_mhz, self.interventions, self.raw_log, self.result)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StoredCampaign):
            return NotImplemented
        return self._fields() == other._fields()

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
        A line read through a count snapshot decodes it on first
        access."""
        raw: RawLog = self.__dict__["_raw_log"]
        if not isinstance(raw, str):
            raw = raw()
            self.__dict__["_raw_log"] = raw
        return raw

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
        access after a read)."""
        return self.result.records

    def campaign_result(self) -> CampaignResult:
        """The in-memory campaign aggregate, one per line, so every
        index over it shares one per-voltage aggregation."""
        return self.result

    @classmethod
    def from_result(
        cls, result: CampaignResult, raw_log: str, seed: int,
        interventions: int,
    ) -> "StoredCampaign":
        """The line of a campaign just run: ``result`` is the aggregate
        built with ``raw_log`` on a machine of seed ``seed``."""
        return cls(
            benchmark=result.benchmark,
            core=result.core,
            campaign_index=result.campaign_index,
            seed=seed,
            freq_mhz=result.freq_mhz,
            interventions=interventions,
            raw_log=raw_log,
            result=result,
        )

    def counted(self, memo: ParseMemo) -> "StoredCampaign":
        """This line in the form a read builds (:meth:`from_counts`):
        its raw log and per-voltage counts, with the records parsed
        through ``memo`` when first asked for.  Equal to this line."""
        result = self.result
        return self.from_counts(
            self.benchmark, self.core, self.campaign_index, self.seed,
            self.freq_mhz, self.interventions, self.__dict__["_raw_log"],
            LogCounts(result.chip, result.counts_by_voltage(),
                      result.run_counts_by_voltage()),
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
        cls, data: Mapping[str, Any], memo: Optional[ParseMemo] = None
    ) -> "StoredCampaign":
        """Inverse of :meth:`to_json_dict`.

        Every run block of ``raw_log`` is validated here, and its
        per-voltage counts kept; the records are parsed through the
        same ``memo`` (a fresh one by default) when first asked for.
        A ``records`` key (written by older versions) is never read.
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
        memo: ParseMemo,
    ) -> "StoredCampaign":
        """A line known by the counts a validating read of its raw log
        found; its records are parsed through ``memo`` when first asked
        for."""
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


def _parse(raw_log: RawLog, memo: ParseMemo) -> Tuple[RunRecord, ...]:
    return parse_records(raw_log if isinstance(raw_log, str) else raw_log(),
                         memo)
