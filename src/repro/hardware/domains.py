"""Power domains and the voltage regulator of the X-Gene 2.

Section 2.1: three independently regulated domains --

* **PMD**: all four processor modules (8 cores) share one plane,
  scalable in 5 mV steps from 980 mV;
* **PCP/SoC**: L3, DRAM controllers, central switch, I/O bridge,
  scalable in 5 mV steps from 950 mV;
* **Standby**: SLIMpro/PMpro and the I2C fabric, not scalable.

A key design constraint the paper analyses (Section 6, "finer-grained
voltage domains"): the single PMD plane means the chip voltage is set by
its *weakest* core.  :class:`VoltageRegulator` also supports an optional
per-PMD mode used by the finer-domain ablation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..errors import ConfigurationError, VoltageRangeError
from ..units import PMD_NOMINAL_MV, SOC_NOMINAL_MV, validate_voltage_mv

#: Number of processor modules (PMDs) on the chip.
NUM_PMDS = 4
#: Cores per PMD.
CORES_PER_PMD = 2
#: Total core count.
NUM_CORES = NUM_PMDS * CORES_PER_PMD


def pmd_of_core(core: int) -> int:
    """PMD index (0..3) hosting a core (0..7)."""
    if not 0 <= core < NUM_CORES:
        raise ConfigurationError(f"core index must be 0..{NUM_CORES - 1}, got {core}")
    return core // CORES_PER_PMD


def cores_of_pmd(pmd: int) -> Tuple[int, int]:
    """The two core indices of a PMD."""
    if not 0 <= pmd < NUM_PMDS:
        raise ConfigurationError(f"PMD index must be 0..{NUM_PMDS - 1}, got {pmd}")
    return (pmd * CORES_PER_PMD, pmd * CORES_PER_PMD + 1)


@dataclass
class PowerDomain:
    """One independently regulated supply domain."""

    name: str
    nominal_mv: int
    scalable: bool = True
    _voltage_mv: int = field(default=0, repr=False)

    def __post_init__(self) -> None:
        self._voltage_mv = self.nominal_mv
        # Last request that passed grid validation (not a dataclass
        # field: a pure cache, excluded from eq/repr).
        self._validated_mv = self.nominal_mv

    @property
    def voltage_mv(self) -> int:
        """Currently programmed supply voltage."""
        return self._voltage_mv

    def set_voltage_mv(self, voltage_mv: int) -> None:
        """Program a new supply voltage (5 mV grid, at or below nominal)."""
        if not self.scalable:
            raise VoltageRangeError(f"domain {self.name!r} is not scalable")
        if voltage_mv == self._validated_mv:
            self._voltage_mv = self._validated_mv
            return
        self._voltage_mv = validate_voltage_mv(voltage_mv, nominal_mv=self.nominal_mv)
        self._validated_mv = self._voltage_mv

    def restore_nominal(self) -> None:
        """Return to the nominal supply (always allowed)."""
        self._voltage_mv = self.nominal_mv

    @property
    def undervolt_mv(self) -> int:
        """How far below nominal the domain currently sits."""
        return self.nominal_mv - self._voltage_mv


class VoltageRegulator:
    """The chip's supply regulators, as SLIMpro exposes them.

    In stock configuration there is a single PMD plane; constructing
    with ``per_pmd_domains=True`` models the Section-6 design
    enhancement of one plane per PMD.
    """

    def __init__(self, per_pmd_domains: bool = False) -> None:
        self.per_pmd_domains = bool(per_pmd_domains)
        self.soc = PowerDomain("PCP/SoC", SOC_NOMINAL_MV)
        self.standby = PowerDomain("Standby", SOC_NOMINAL_MV, scalable=False)
        if self.per_pmd_domains:
            self._pmd_domains = [
                PowerDomain(f"PMD{i}", PMD_NOMINAL_MV) for i in range(NUM_PMDS)
            ]
        else:
            shared = PowerDomain("PMD", PMD_NOMINAL_MV)
            self._pmd_domains = [shared] * NUM_PMDS
        #: The physically distinct PMD planes (one shared plane in
        #: stock configuration) -- what per-plane operations iterate.
        self._distinct_pmd_domains = tuple(
            {id(domain): domain for domain in self._pmd_domains}.values()
        )
        #: Transaction log mirroring what the I2C instrumentation
        #: interface would show (domain name, programmed mV).
        self.transactions: List[Tuple[str, int]] = []
        # Precomputed restore-to-nominal log entries (immutable tuples,
        # safe to append repeatedly).
        self._nominal_transactions = tuple(
            (domain.name, domain.nominal_mv)
            for domain in self._distinct_pmd_domains
        ) + ((self.soc.name, self.soc.nominal_mv),)

    # -- PMD plane(s) -----------------------------------------------------

    def pmd_voltage_mv(self, pmd: int = 0) -> int:
        """Voltage of a PMD's plane (all equal in stock configuration)."""
        self._check_pmd(pmd)
        return self._pmd_domains[pmd].voltage_mv

    def core_voltage_mv(self, core: int) -> int:
        """Supply voltage currently feeding a core."""
        return self.pmd_voltage_mv(pmd_of_core(core))

    def set_pmd_voltage_mv(self, voltage_mv: int, pmd: int = None) -> None:
        """Program the PMD plane (or one plane in per-PMD mode).

        With the stock shared plane, ``pmd`` must be omitted or the call
        raises -- programming "one PMD" is physically impossible, which
        is precisely the limitation the Section-6 ablation removes.
        """
        if pmd is None:
            for domain in self._distinct_pmd_domains:
                domain.set_voltage_mv(voltage_mv)
                self.transactions.append((domain.name, voltage_mv))
            return
        self._check_pmd(pmd)
        if not self.per_pmd_domains:
            raise VoltageRangeError(
                "stock X-Gene 2 has a single PMD voltage plane; "
                "per-PMD programming requires per_pmd_domains=True"
            )
        self._pmd_domains[pmd].set_voltage_mv(voltage_mv)
        self.transactions.append((self._pmd_domains[pmd].name, voltage_mv))

    def cycle_pmd_voltage_mv(self, voltage_mv: int, cycles: int) -> None:
        """``cycles`` rounds of :meth:`set_pmd_voltage_mv` (every plane)
        then :meth:`restore_nominal`: one real round, whose
        transactions are then repeated -- every later round programs
        and restores the same values."""
        start = len(self.transactions)
        self.set_pmd_voltage_mv(voltage_mv)
        self.restore_nominal()
        if cycles > 1:
            self.transactions.extend(self.transactions[start:] * (cycles - 1))

    def set_soc_voltage_mv(self, voltage_mv: int) -> None:
        """Program the PCP/SoC domain (950 mV nominal, 5 mV steps)."""
        self.soc.set_voltage_mv(voltage_mv)
        self.transactions.append((self.soc.name, voltage_mv))

    def restore_nominal(self) -> None:
        """Return every scalable domain to nominal (safe-state entry)."""
        for domain in self._distinct_pmd_domains:
            domain.restore_nominal()
        self.soc.restore_nominal()
        self.transactions.extend(self._nominal_transactions)

    def domains(self) -> Dict[str, PowerDomain]:
        """All distinct domains by name (diagnostics view)."""
        out: Dict[str, PowerDomain] = {}
        for domain in self._pmd_domains:
            out[domain.name] = domain
        out[self.soc.name] = self.soc
        out[self.standby.name] = self.standby
        return out

    @staticmethod
    def _check_pmd(pmd: int) -> None:
        if not 0 <= pmd < NUM_PMDS:
            raise ConfigurationError(f"PMD index must be 0..{NUM_PMDS - 1}, got {pmd}")
