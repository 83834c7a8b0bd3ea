"""Regions of operation and Vmin extraction (Section 3.1).

From the aggregated per-voltage run classifications of a benchmark on a
core, three regions emerge as the voltage drops:

* **safe** (Figure 4 blue): every run at and above this voltage was
  normal;
* **unsafe** (grey): abnormal behaviour (SDC/CE/UE/AC) but no system
  crash;
* **crash** (black): at least one run led to a system crash.

The safe Vmin is the floor of the safe region.  The extraction is
conservative against non-monotone observations: one abnormal run at a
high voltage pushes the safe floor above it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Tuple

from ..effects import EffectType
from ..errors import CampaignError
from ..units import VOLTAGE_STEP_MV


class Region(enum.Enum):
    """Operating region of one voltage level."""

    SAFE = "safe"
    UNSAFE = "unsafe"
    CRASH = "crash"


@dataclass(frozen=True)
class OperatingRegions:
    """Region decomposition of one (chip, benchmark, core, frequency).

    ``vmin_mv`` is the safe Vmin; ``crash_mv`` the highest voltage with
    at least one system crash (None if the sweep never crashed);
    ``censored`` flags sweeps that never left the safe region, whose
    Vmin is only an upper bound.
    """

    vmin_mv: int
    crash_mv: Optional[int]
    lowest_tested_mv: int
    highest_tested_mv: int
    censored: bool = False

    def classify(self, voltage_mv: int) -> Region:
        """Region of a voltage level within the tested range."""
        if self.crash_mv is not None and voltage_mv <= self.crash_mv:
            return Region.CRASH
        if voltage_mv >= self.vmin_mv:
            return Region.SAFE
        return Region.UNSAFE

    @property
    def unsafe_width_mv(self) -> int:
        """Width of the unsafe band (0 when crashes start right below
        the safe region)."""
        floor = self.crash_mv if self.crash_mv is not None else (
            self.lowest_tested_mv - VOLTAGE_STEP_MV
        )
        return max(0, self.vmin_mv - floor - VOLTAGE_STEP_MV)

    def guardband_mv(self, nominal_mv: int) -> int:
        """Voltage guardband relative to a nominal supply."""
        return nominal_mv - self.vmin_mv


def regions_from_counts(
    counts_by_voltage: Mapping[int, Mapping[EffectType, int]],
) -> OperatingRegions:
    """Derive the regions from per-voltage effect counts.

    ``counts_by_voltage`` maps each tested voltage to its aggregated
    effect counts (all campaigns pooled -- Figures 3/4 plot the
    highest Vmin and highest crash voltage of the ten campaigns, which
    pooling yields directly).
    """
    if not counts_by_voltage:
        raise CampaignError("no voltage levels to derive regions from")
    voltages = sorted(counts_by_voltage, reverse=True)
    abnormal_levels = [
        v for v in voltages
        if any(
            count > 0 and effect is not EffectType.NO
            for effect, count in counts_by_voltage[v].items()
        )
    ]
    crash_levels = [
        v for v in voltages
        if counts_by_voltage[v].get(EffectType.SC, 0) > 0
    ]
    highest, lowest = voltages[0], voltages[-1]
    if abnormal_levels:
        vmin = max(abnormal_levels) + VOLTAGE_STEP_MV
        censored = False
        if vmin > highest:
            raise CampaignError(
                f"abnormal behaviour at the highest tested voltage "
                f"({highest} mV); extend the sweep upward"
            )
    else:
        vmin = lowest
        censored = True
    crash = max(crash_levels) if crash_levels else None
    return OperatingRegions(
        vmin_mv=vmin,
        crash_mv=crash,
        lowest_tested_mv=lowest,
        highest_tested_mv=highest,
        censored=censored,
    )


def region_map(
    regions: OperatingRegions, voltages: Iterable[int]
) -> Dict[int, Region]:
    """Region of every voltage in a sweep (Figure-4 column rendering)."""
    return {v: regions.classify(v) for v in voltages}


def campaign_vmins(
    per_campaign_counts: Iterable[Mapping[int, Mapping[EffectType, int]]],
) -> List[int]:
    """Safe Vmin of each campaign separately.

    Figures 3/4 report the *highest* of these; the green "average Vmin"
    line of Figure 4 averages them.
    """
    return [regions_from_counts(counts).vmin_mv for counts in per_campaign_counts]


#: One all-zero count per effect; copying it rehashes no key.
_ZERO_COUNTS: Dict[EffectType, int] = dict.fromkeys(EffectType, 0)


def merge_counts(
    parts: Iterable[Mapping[int, Mapping[EffectType, int]]],
) -> Dict[int, Dict[EffectType, int]]:
    """Pool per-voltage effect counts across campaigns."""
    merged: Dict[int, Dict[EffectType, int]] = {}
    for part in parts:
        for voltage, counts in part.items():
            slot = merged.get(voltage)
            if slot is None:
                slot = merged[voltage] = _ZERO_COUNTS.copy()
            for effect, count in counts.items():
                if count:  # most effects never occur at a level
                    slot[effect] = slot.get(effect, 0) + count
    return merged


def counts_from_pairs(
    pairs: Mapping[Tuple[int, FrozenSet[EffectType]], int],
) -> Tuple[Dict[int, Dict[EffectType, int]], Dict[int, int]]:
    """Per-voltage effect counts and run counts from how many runs
    showed each distinct (voltage, effect set) pair; voltages keep the
    order the pairs first show them in."""
    counts: Dict[int, Dict[EffectType, int]] = {}
    run_counts: Dict[int, int] = {}
    for (voltage, effects), runs in pairs.items():
        slot = counts.get(voltage)
        if slot is None:
            slot = counts[voltage] = _ZERO_COUNTS.copy()
            run_counts[voltage] = 0
        run_counts[voltage] += runs
        for effect in effects:
            slot[effect] += runs
    return counts, run_counts


def tested_voltages(
    counts_by_voltage: Mapping[int, Mapping[EffectType, int]],
) -> Tuple[int, ...]:
    """Descending tuple of tested voltage levels."""
    return tuple(sorted(counts_by_voltage, reverse=True))
