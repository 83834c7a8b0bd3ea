"""Journal payloads of the campaign store.

One journal line is one completed campaign: the raw log text plus the
provenance a resume needs to prove bit-identity -- the derived machine
seed the campaign ran with and the watchdog intervention count.  The
raw log is the only persisted form of the runs: reading a line runs the
framework's parsing phase (:func:`repro.core.parser.parse_records`) on
it, as the paper's framework derives every result from its raw logs.
Replaying a journal never re-runs anything.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Mapping, Tuple

from ..core.campaign import CampaignResult
from ..core.memo import frozen_cached_property
from ..core.parser import parse_records
from ..core.runs import RunRecord
from ..errors import CampaignError, ConfigurationError, ParseError


@dataclass(frozen=True)
class StoredCampaign:
    """One completed (benchmark, core, campaign) task, as journaled."""

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
    #: Raw campaign log text: the journaled form of the runs, and the
    #: source of the derived CSV/log exports of a resumed grid.
    raw_log: str
    #: The classified runs: kept from the kernel on append, parsed from
    #: :attr:`raw_log` on read; never journaled.
    records: Tuple[RunRecord, ...]

    def __post_init__(self) -> None:
        if not self.records:
            raise CampaignError("a stored campaign needs at least one record")

    @property
    def key(self) -> Tuple[str, int, int]:
        """The (benchmark, core, campaign) task this line completes."""
        return (self.benchmark, self.core, self.campaign_index)

    @property
    def raw_log_key(self) -> Tuple[str, int, int, int]:
        """Key of the raw log in the framework's log mapping."""
        return (self.benchmark, self.core, self.freq_mhz, self.campaign_index)

    @frozen_cached_property
    def _result(self) -> CampaignResult:
        return CampaignResult(
            chip=self.records[0].chip,
            benchmark=self.benchmark,
            core=self.core,
            freq_mhz=self.freq_mhz,
            campaign_index=self.campaign_index,
            records=self.records,
        )

    def campaign_result(self) -> CampaignResult:
        """The in-memory campaign aggregate, built once per line, so
        every index over it shares one per-voltage aggregation."""
        return self._result

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
    def from_json_dict(cls, data: Mapping[str, Any]) -> "StoredCampaign":
        """Inverse of :meth:`to_json_dict`: the records are parsed from
        ``raw_log``.  A ``records`` key (written by older versions) is
        never read."""
        try:
            return cls(
                benchmark=data["benchmark"],
                core=int(data["core"]),
                campaign_index=int(data["campaign"]),
                seed=int(data["seed"]),
                freq_mhz=int(data["freq_mhz"]),
                interventions=int(data["interventions"]),
                raw_log=data["raw_log"],
                records=parse_records(data["raw_log"]),
            )
        except KeyError as exc:
            raise CampaignError(f"journal campaign line lacks key {exc}")
        except (
            AttributeError, ValueError, TypeError, ParseError,
            ConfigurationError,
        ) as exc:
            raise CampaignError(f"malformed journal campaign line: {exc}")
