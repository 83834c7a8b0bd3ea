"""Run-level records of the characterization framework.

A :class:`CharacterizationSetup` is the paper's "characterization
setup": the (voltage, frequency, core) coordinates a benchmark is run
at.  A :class:`RunRecord` is one execution under one setup, carrying
both the raw observables and the parsed classification -- the unit
everything downstream (severity, regions, CSVs, prediction samples)
aggregates over.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, Mapping, Optional

from ..effects import EffectType
from ..errors import CampaignError, ConfigurationError
from ..units import validate_frequency_mhz, validate_voltage_mv


@dataclass(frozen=True)
class CharacterizationSetup:
    """One point of the characterization space."""

    voltage_mv: int
    freq_mhz: int
    core: int

    def __post_init__(self) -> None:
        validate_voltage_mv(self.voltage_mv)
        validate_frequency_mhz(self.freq_mhz)
        if not 0 <= self.core <= 7:
            raise ConfigurationError(f"core must be 0..7, got {self.core}")

    def label(self) -> str:
        """Stable human-readable key, e.g. ``"c0@905mV/2400MHz"``."""
        return f"c{self.core}@{self.voltage_mv}mV/{self.freq_mhz}MHz"


@dataclass(frozen=True)
class RunRecord:
    """One classified characterization run."""

    chip: str
    benchmark: str
    setup: CharacterizationSetup
    campaign_index: int
    run_index: int
    effects: FrozenSet[EffectType]
    exit_code: Optional[int]
    output_matches: Optional[bool]
    edac_ce: int = 0
    edac_ue: int = 0
    #: True when the watchdog had to power-cycle the machine after
    #: this run.
    watchdog_intervened: bool = False
    detail: Mapping[str, int] = field(default_factory=dict)

    @property
    def is_normal(self) -> bool:
        return self.effects == frozenset({EffectType.NO})

    @property
    def crashed_system(self) -> bool:
        return EffectType.SC in self.effects

    def csv_row(self) -> Mapping[str, object]:
        """Flat mapping for the CSV result files."""
        return {
            "chip": self.chip,
            "benchmark": self.benchmark,
            "core": self.setup.core,
            "voltage_mv": self.setup.voltage_mv,
            "freq_mhz": self.setup.freq_mhz,
            "campaign": self.campaign_index,
            "run": self.run_index,
            "effects": "+".join(sorted(e.value for e in self.effects)),
            "exit_code": "" if self.exit_code is None else self.exit_code,
            "output_matches": "" if self.output_matches is None else int(self.output_matches),
            "edac_ce": self.edac_ce,
            "edac_ue": self.edac_ue,
            "watchdog": int(self.watchdog_intervened),
        }

    @classmethod
    def from_csv_row(cls, row: Mapping[str, str]) -> "RunRecord":
        """Typed inverse of :meth:`csv_row`.

        CSV cells are strings; this coerces them back to the record's
        int/bool/enum types so downstream consumers never see raw
        ``Dict[str, str]`` rows.  The per-location ``detail`` mapping is
        not part of the CSV schema and comes back empty.
        """
        try:
            exit_code = row["exit_code"]
            output_matches = row["output_matches"]
            return cls(
                chip=row["chip"],
                benchmark=row["benchmark"],
                setup=CharacterizationSetup(
                    voltage_mv=int(row["voltage_mv"]),
                    freq_mhz=int(row["freq_mhz"]),
                    core=int(row["core"]),
                ),
                campaign_index=int(row["campaign"]),
                run_index=int(row["run"]),
                effects=frozenset(
                    EffectType(value) for value in row["effects"].split("+")
                ),
                exit_code=None if exit_code == "" else int(exit_code),
                output_matches=(
                    None if output_matches == ""
                    else bool(int(output_matches))
                ),
                edac_ce=int(row["edac_ce"]),
                edac_ue=int(row["edac_ue"]),
                watchdog_intervened=bool(int(row["watchdog"])),
            )
        except (KeyError, ValueError) as exc:
            raise CampaignError(f"malformed run CSV row {dict(row)!r}: {exc}")
