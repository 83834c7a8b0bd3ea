"""Journal payloads of the campaign store.

One journal line is one completed campaign: the parsed
:class:`~repro.core.runs.RunRecord` set plus the provenance a resume
needs to prove bit-identity -- the derived machine seed the campaign
ran with, the watchdog intervention count and the raw log text.  The
line is self-contained on purpose; replaying a journal never requires
re-running or re-parsing anything.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, Mapping, Tuple

from ..core.campaign import CampaignResult
from ..core.runs import CharacterizationSetup, RunRecord
from ..effects import EffectType
from ..errors import CampaignError


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
    #: Raw campaign log text, so the derived CSV/log exports of a
    #: resumed grid equal those of an uninterrupted one.
    raw_log: str
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

    def campaign_result(self) -> CampaignResult:
        """Rebuild the in-memory campaign aggregate."""
        return CampaignResult(
            chip=self.records[0].chip,
            benchmark=self.benchmark,
            core=self.core,
            freq_mhz=self.freq_mhz,
            campaign_index=self.campaign_index,
            records=self.records,
        )

    # -- JSONL codec -------------------------------------------------------

    def to_json_dict(self) -> Dict[str, Any]:
        """Plain-dict form of one journal line."""
        return {
            "benchmark": self.benchmark,
            "core": self.core,
            "campaign": self.campaign_index,
            "seed": self.seed,
            "freq_mhz": self.freq_mhz,
            "interventions": self.interventions,
            "raw_log": self.raw_log,
            "records": [record.to_json_dict() for record in self.records],
        }

    @classmethod
    def from_json_dict(cls, data: Mapping[str, Any]) -> "StoredCampaign":
        """Inverse of :meth:`to_json_dict`.

        The run records of one line share few distinct setups and
        effect sets, so each is decoded once per line (see
        :meth:`RunRecord.from_json_dict`).
        """
        setups: Dict[Any, CharacterizationSetup] = {}
        effect_sets: Dict[Any, FrozenSet[EffectType]] = {}
        try:
            return cls(
                benchmark=data["benchmark"],
                core=int(data["core"]),
                campaign_index=int(data["campaign"]),
                seed=int(data["seed"]),
                freq_mhz=int(data["freq_mhz"]),
                interventions=int(data["interventions"]),
                raw_log=data["raw_log"],
                records=tuple(
                    RunRecord.from_json_dict(entry, setups, effect_sets)
                    for entry in data["records"]
                ),
            )
        except (KeyError, ValueError, TypeError) as exc:
            raise CampaignError(f"malformed journal campaign line: {exc}")
