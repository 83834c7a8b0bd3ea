"""The simulated APM X-Gene 2 micro-server.

This package is the paper's *testbed substitute*: a behavioural model of
the 8-core ARMv8 X-Gene 2 with the same topology, control interfaces and
error-reporting surfaces the real machine exposes to the
characterization framework:

* four PMDs of two cores each on one shared voltage plane (5 mV steps
  from 980 mV) with per-PMD frequency control (300 MHz..2.4 GHz,
  Section 2.1);
* a PCP/SoC domain (L3, DRAM controllers, fabric) at 950 mV nominal;
* the SLIMpro/PMpro management processors on a standby domain,
  reachable "over I2C" for voltage regulation and error reporting;
* parity-protected L1 caches, SECDED-protected L2/L3 backed by real
  codecs, reported through a Linux-EDAC-like driver;
* a 101-event PMU, a temperature sensor + fan, a serial console with a
  boot banner and heartbeat for the external watchdog.
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .corners import ProcessCorner, corner_for_chip
    from .domains import PowerDomain, VoltageRegulator
    from .clocking import ClockController, ClockMechanism
    from .sram import SramArray
    from .caches import CacheLevel, CacheStack
    from .timing import AlphaPowerTimingModel
    from .pmu import PerformanceMonitoringUnit
    from .edac import EdacDriver, EdacRecord
    from .sensors import FanController, TemperatureSensor
    from .slimpro import SlimPro
    from .pmpro import AcpiState, PmPro
    from .serial_console import SerialConsole
    from .power import PowerModel
    from .xgene2 import MachineState, RunOutcome, XGene2Chip, XGene2Machine
    from .dynamics import (
        AdaptiveClockingUnit,
        AgingModel,
        RollbackUnit,
        SupplyDroopModel,
        TemperatureSensitivity,
    )
    from .variation import ChipGenerator, fleet_vmin_distribution

__getattr__, __dir__ = lazy_exports(__name__, {
    ".corners": ("ProcessCorner", "corner_for_chip"),
    ".domains": ("PowerDomain", "VoltageRegulator"),
    ".clocking": ("ClockController", "ClockMechanism"),
    ".sram": ("SramArray",),
    ".caches": ("CacheLevel", "CacheStack"),
    ".timing": ("AlphaPowerTimingModel",),
    ".pmu": ("PerformanceMonitoringUnit",),
    ".edac": ("EdacDriver", "EdacRecord"),
    ".sensors": ("FanController", "TemperatureSensor"),
    ".slimpro": ("SlimPro",),
    ".pmpro": ("AcpiState", "PmPro"),
    ".serial_console": ("SerialConsole",),
    ".power": ("PowerModel",),
    ".xgene2": ("MachineState", "RunOutcome", "XGene2Chip", "XGene2Machine"),
    ".dynamics": (
        "AdaptiveClockingUnit", "AgingModel", "RollbackUnit",
        "SupplyDroopModel", "TemperatureSensitivity",
    ),
    ".variation": ("ChipGenerator", "fleet_vmin_distribution"),
})

__all__ = [
    "ProcessCorner",
    "corner_for_chip",
    "PowerDomain",
    "VoltageRegulator",
    "ClockController",
    "ClockMechanism",
    "SramArray",
    "CacheLevel",
    "CacheStack",
    "AlphaPowerTimingModel",
    "PerformanceMonitoringUnit",
    "EdacDriver",
    "EdacRecord",
    "FanController",
    "TemperatureSensor",
    "SlimPro",
    "AcpiState",
    "PmPro",
    "SerialConsole",
    "PowerModel",
    "MachineState",
    "RunOutcome",
    "XGene2Chip",
    "XGene2Machine",
    "AdaptiveClockingUnit",
    "AgingModel",
    "RollbackUnit",
    "SupplyDroopModel",
    "TemperatureSensitivity",
    "ChipGenerator",
    "fleet_vmin_distribution",
]
