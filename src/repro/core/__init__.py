"""The paper's primary contribution: the characterization framework.

* :mod:`repro.core.effects` -- Table-3 effect classes and per-run
  classification rules.
* :mod:`repro.core.severity` -- the severity function (contribution 2,
  Section 3.4.1) with the Table-4 weights.
* :mod:`repro.core.runs` / :mod:`repro.core.campaign` -- run and
  campaign records.
* :mod:`repro.core.watchdog` -- the Raspberry-Pi-style watchdog monitor
  that recovers the machine after system crashes.
* :mod:`repro.core.framework` -- the three-phase automation of
  Figure 2: initialization, execution, parsing.
* :mod:`repro.core.parser` -- log parsing into classified results.
* :mod:`repro.core.regions` -- safe/unsafe/crash regions and Vmin.
* :mod:`repro.core.results` -- CSV persistence of everything above.
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from ..effects import EFFECT_DESCRIPTIONS, EFFECT_ORDER, EffectType
    from .effects import classify_run, effect_counts
    from .severity import (
        DEFAULT_WEIGHTS,
        SeverityWeights,
        deepest_voltage_within,
        severity_value,
        severity_of_runs,
    )
    from .runs import CharacterizationSetup, RunRecord
    from .campaign import CampaignResult, CharacterizationResult
    from .watchdog import WatchdogMonitor
    from .config import FrameworkConfig
    from .framework import CharacterizationFramework
    from .regions import OperatingRegions, Region, regions_from_counts
    from .results import ResultStore

__getattr__, __dir__ = lazy_exports(__name__, {
    "..effects": ("EFFECT_DESCRIPTIONS", "EFFECT_ORDER", "EffectType"),
    ".effects": ("classify_run", "effect_counts"),
    ".severity": (
        "DEFAULT_WEIGHTS", "SeverityWeights", "deepest_voltage_within",
        "severity_value", "severity_of_runs",
    ),
    ".runs": ("CharacterizationSetup", "RunRecord"),
    ".campaign": ("CampaignResult", "CharacterizationResult"),
    ".watchdog": ("WatchdogMonitor",),
    ".config": ("FrameworkConfig",),
    ".framework": ("CharacterizationFramework",),
    ".regions": ("OperatingRegions", "Region", "regions_from_counts"),
    ".results": ("ResultStore",),
})

__all__ = [
    "EFFECT_DESCRIPTIONS",
    "EFFECT_ORDER",
    "EffectType",
    "classify_run",
    "effect_counts",
    "DEFAULT_WEIGHTS",
    "SeverityWeights",
    "deepest_voltage_within",
    "severity_value",
    "severity_of_runs",
    "CharacterizationSetup",
    "RunRecord",
    "CampaignResult",
    "CharacterizationResult",
    "WatchdogMonitor",
    "CharacterizationFramework",
    "FrameworkConfig",
    "OperatingRegions",
    "Region",
    "regions_from_counts",
    "ResultStore",
]
