"""Campaign aggregates.

Paper terminology (Section 2.2): a *characterization run* is one
execution of a benchmark under one setup; the set of all runs of the
same benchmark over different setups is a *campaign*.  The study runs
every campaign ten times to capture non-determinism; Figures 3/4 plot
the highest Vmin / highest crash voltage over those repetitions and
Figure 5 the severity aggregated across them.

Both aggregate classes are frozen, so every derived view (per-voltage
index, pooled counts, regions) is computed once per instance with
:class:`~repro.core.memo.frozen_cached_property` and shared by all
subsequent queries.  A ten-campaign characterization over a 50-level
sweep used to rescan every record once per voltage level
(O(records x voltages)); the cached single-pass index makes every
aggregate O(records) once and O(voltages) afterwards, which is what
lets the parallel engine hammer these paths at fleet scale.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import FrozenInstanceError, dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    NamedTuple,
    Optional,
    Tuple,
)

from ..effects import EffectType
from ..errors import CampaignError
from .memo import frozen_cached_property
from .regions import (
    OperatingRegions,
    counts_from_pairs,
    merge_counts,
    regions_from_counts,
)
from .runs import RunRecord
from .severity import DEFAULT_WEIGHTS, SeverityWeights, severity_value

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..store import AnyStore


class _VoltageIndex(NamedTuple):
    """Per-voltage counts of a record set (internal).

    The dict values are owned by the index and must never be handed to
    callers directly -- the public accessors return copies.
    """

    #: voltage -> effect -> number of runs the effect appeared in.
    counts: Dict[int, Dict[EffectType, int]]
    #: voltage -> number of runs executed at that level.
    run_counts: Dict[int, int]


def _index_records(records: Tuple[RunRecord, ...]) -> _VoltageIndex:
    """Build the per-voltage index in one pass over the records: a
    campaign holds a handful of distinct (voltage, effect set) pairs,
    so each is counted once and then expanded."""
    return _VoltageIndex(*counts_from_pairs(Counter(
        (record.setup.voltage_mv, record.effects) for record in records
    )))


class CampaignResult:
    """One campaign: a benchmark swept over voltages on one core.

    Built from its run records (the kernel and the framework's parsing
    phase), or by :meth:`from_counts` from the per-voltage counts a
    journal read aggregates while it validates the raw log: such a
    campaign parses its records only when something asks for them
    (:attr:`records`, :meth:`runs_at`, the CSV export).  Frozen like
    the records it aggregates; equality compares the identity fields
    and the records, so a journaled campaign equals the kernel's.
    """

    chip: str
    benchmark: str
    core: int
    freq_mhz: int
    campaign_index: int

    #: Unhashable, as the records are (their ``detail`` is a dict).
    __hash__ = None  # type: ignore[assignment]

    def __init__(
        self,
        chip: str,
        benchmark: str,
        core: int,
        freq_mhz: int,
        campaign_index: int,
        records: Tuple[RunRecord, ...],
    ) -> None:
        if not records:
            raise CampaignError("a campaign needs at least one record")
        self._fill(chip, benchmark, core, freq_mhz, campaign_index,
                   _records=tuple(records), _counts=None, _load=None)

    @classmethod
    def from_counts(
        cls,
        chip: str,
        benchmark: str,
        core: int,
        freq_mhz: int,
        campaign_index: int,
        counts: Dict[int, Dict[EffectType, int]],
        run_counts: Dict[int, int],
        load: Callable[[], Tuple[RunRecord, ...]],
    ) -> "CampaignResult":
        """A campaign known by its per-voltage counts (which it owns
        from here on); ``load`` returns the records those counts index
        and is called on first access."""
        if not run_counts:
            raise CampaignError("a campaign needs at least one record")
        result = cls.__new__(cls)
        result._fill(chip, benchmark, core, freq_mhz, campaign_index,
                     _records=None, _counts=_VoltageIndex(counts, run_counts),
                     _load=load)
        return result

    def _fill(self, chip: str, benchmark: str, core: int, freq_mhz: int,
              campaign_index: int, **state: Any) -> None:
        self.__dict__.update(
            chip=chip, benchmark=benchmark, core=core, freq_mhz=freq_mhz,
            campaign_index=campaign_index, **state,
        )

    def __setattr__(self, name: str, value: Any) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __getstate__(self) -> Dict[str, Any]:
        # A pickled campaign carries its records, never the loader.
        return dict(self.__dict__, _records=self.records, _load=None)

    def _identity(self) -> Tuple[str, str, int, int, int]:
        return (self.chip, self.benchmark, self.core, self.freq_mhz,
                self.campaign_index)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CampaignResult):
            return NotImplemented
        return (self._identity() == other._identity()
                and self.records == other.records)

    def __repr__(self) -> str:
        chip, benchmark, core, freq_mhz, campaign_index = self._identity()
        return (
            f"CampaignResult(chip={chip!r}, benchmark={benchmark!r}, "
            f"core={core!r}, freq_mhz={freq_mhz!r}, "
            f"campaign_index={campaign_index!r}, "
            f"runs={sum(self._index.run_counts.values())})"
        )

    @property
    def records(self) -> Tuple[RunRecord, ...]:
        """The run records, in execution order."""
        records: Optional[Tuple[RunRecord, ...]] = self.__dict__["_records"]
        if records is None:
            # Two threads racing here both parse, to equal records.
            records = self.__dict__["_load"]()
            object.__setattr__(self, "_records", records)
        return records

    # -- aggregation ------------------------------------------------------

    @frozen_cached_property
    def _index(self) -> _VoltageIndex:
        counts: Optional[_VoltageIndex] = self.__dict__["_counts"]
        return _index_records(self.records) if counts is None else counts

    @frozen_cached_property
    def _runs_by_voltage(self) -> Dict[int, Tuple[RunRecord, ...]]:
        grouped: Dict[int, List[RunRecord]] = {}
        for record in self.records:
            grouped.setdefault(record.setup.voltage_mv, []).append(record)
        return {voltage: tuple(runs) for voltage, runs in grouped.items()}

    @frozen_cached_property
    def _regions(self) -> OperatingRegions:
        return regions_from_counts(self._index.counts)

    def voltages(self) -> Tuple[int, ...]:
        """Tested voltage levels, descending."""
        return tuple(sorted(self._index.run_counts, reverse=True))

    def runs_at(self, voltage_mv: int) -> List[RunRecord]:
        return list(self._runs_by_voltage.get(voltage_mv, ()))

    def counts_by_voltage(self) -> Dict[int, Dict[EffectType, int]]:
        """Per-voltage effect counts (runs in which each effect appeared)."""
        return {voltage: dict(slot) for voltage, slot in self._index.counts.items()}

    def run_counts_by_voltage(self) -> Dict[int, int]:
        """Number of runs executed at each tested voltage level."""
        return dict(self._index.run_counts)

    def severity_by_voltage(
        self, weights: SeverityWeights = DEFAULT_WEIGHTS
    ) -> Dict[int, float]:
        """Severity at each tested voltage level."""
        index = self._index
        return {
            voltage: severity_value(counts, index.run_counts[voltage], weights)
            for voltage, counts in index.counts.items()
        }

    def regions(self) -> OperatingRegions:
        """This campaign's region decomposition."""
        return self._regions

    @property
    def vmin_mv(self) -> int:
        """This campaign's safe Vmin."""
        return self._regions.vmin_mv

    @property
    def crash_mv(self) -> Optional[int]:
        return self._regions.crash_mv


@dataclass(frozen=True)
class CharacterizationResult:
    """All repetitions of one campaign (the paper runs ten).

    This is the unit Figures 3-5 are drawn from.
    """

    campaigns: Tuple[CampaignResult, ...]

    @classmethod
    def from_store(
        cls, store: "AnyStore", benchmark: str, core: int
    ) -> "CharacterizationResult":
        """Reconstruct one grid cell from a one-machine journaled store.

        ``store`` is anything :func:`repro.store.open_store` accepts
        that holds a single shard.  Imported lazily: ``repro.store``
        sits above the core layer and importing it here at module level
        would create a cycle.
        """
        from ..store import open_store

        shards = open_store(store).shards()
        if len(shards) != 1:
            raise CampaignError(
                f"a grid cell belongs to one machine, but this store has "
                f"{len(shards)} shards; pass one shard's store"
            )
        return shards[0][1].result_for(benchmark, core)

    def __post_init__(self) -> None:
        if not self.campaigns:
            raise CampaignError("need at least one campaign")
        first = self.campaigns[0]
        for campaign in self.campaigns[1:]:
            if (campaign.chip, campaign.benchmark, campaign.core,
                    campaign.freq_mhz) != (first.chip, first.benchmark,
                                           first.core, first.freq_mhz):
                raise CampaignError(
                    "all campaigns of a characterization must share "
                    "chip/benchmark/core/frequency"
                )

    @property
    def chip(self) -> str:
        return self.campaigns[0].chip

    @property
    def benchmark(self) -> str:
        return self.campaigns[0].benchmark

    @property
    def core(self) -> int:
        return self.campaigns[0].core

    @property
    def freq_mhz(self) -> int:
        return self.campaigns[0].freq_mhz

    # -- the published aggregates ---------------------------------------------

    @property
    def highest_vmin_mv(self) -> int:
        """Highest safe Vmin across campaigns (Figures 3/4 bars)."""
        return max(c.vmin_mv for c in self.campaigns)

    @property
    def mean_vmin_mv(self) -> float:
        """Average Vmin across campaigns (Figure 4 green line)."""
        return sum(c.vmin_mv for c in self.campaigns) / len(self.campaigns)

    @property
    def highest_crash_mv(self) -> Optional[int]:
        """Highest crash voltage across campaigns (Figure 4 black tops)."""
        crashes = [c.crash_mv for c in self.campaigns if c.crash_mv is not None]
        return max(crashes) if crashes else None

    @property
    def mean_crash_mv(self) -> Optional[float]:
        """Average crash voltage across campaigns (Figure 4 red line)."""
        crashes = [c.crash_mv for c in self.campaigns if c.crash_mv is not None]
        return sum(crashes) / len(crashes) if crashes else None

    @frozen_cached_property
    def _pooled_counts(self) -> Dict[int, Dict[EffectType, int]]:
        return merge_counts(c._index.counts for c in self.campaigns)

    @frozen_cached_property
    def _pooled_run_counts(self) -> Dict[int, int]:
        pooled: Dict[int, int] = {}
        for campaign in self.campaigns:
            for voltage, n_runs in campaign._index.run_counts.items():
                pooled[voltage] = pooled.get(voltage, 0) + n_runs
        return pooled

    @frozen_cached_property
    def _pooled_regions(self) -> OperatingRegions:
        return regions_from_counts(self._pooled_counts)

    def pooled_counts(self) -> Dict[int, Dict[EffectType, int]]:
        """Effect counts pooled over all campaigns, per voltage."""
        return {voltage: dict(slot) for voltage, slot in self._pooled_counts.items()}

    def pooled_regions(self) -> OperatingRegions:
        """Regions from all campaigns pooled -- equals (highest Vmin,
        highest crash) by construction."""
        return self._pooled_regions

    def severity_by_voltage(
        self, weights: SeverityWeights = DEFAULT_WEIGHTS
    ) -> Dict[int, float]:
        """Severity per voltage over *all* runs of all campaigns --
        the Figure-5 cell values (mean severity across repetitions)."""
        runs_per_level = self._pooled_run_counts
        return {
            voltage: severity_value(counts, runs_per_level[voltage], weights)
            for voltage, counts in self._pooled_counts.items()
        }

    def all_records(self) -> List[RunRecord]:
        """Every run record of every campaign."""
        return [record for campaign in self.campaigns for record in campaign.records]
