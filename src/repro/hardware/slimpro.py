"""SLIMpro: the Scalable Lightweight Intelligent Management processor.

Section 2.1: *"The dedicated SLIMpro processor monitors system sensors,
configures system attributes (e.g. regulate supply voltage, change DRAM
refresh rate etc.) and accesses all error reporting infrastructure,
using an integrated I2C controller as the instrumentation interface...
SLIMpro can be accessed by the system's running Linux Kernel."*

This model is exactly that interface: voltage regulation, sensor reads
and error-report access, each recorded as an I2C transaction.  The
characterization framework only ever touches the machine through
SLIMpro (plus the serial console and the physical buttons), matching
how the real framework drives the real board.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .domains import VoltageRegulator
from .edac import EdacDriver
from .sensors import FanController

#: Immutable log entry appended on every safe-state restore.
_RESTORE_LOG_ENTRY = ("set_voltage", "all=nominal")


class SlimPro:
    """Management-processor front-end over regulator, sensors and EDAC."""

    def __init__(
        self,
        regulator: VoltageRegulator,
        fan: FanController,
        edac: EdacDriver,
    ) -> None:
        self._regulator = regulator
        self._fan = fan
        self._edac = edac
        #: I2C transaction log: (operation, argument) tuples.
        self.i2c_log: List[Tuple[str, str]] = []
        self._last_power_w = 0.0
        # (voltage_mv, log tuple) of the last shared-plane programming.
        self._pmd_log_cache: Optional[Tuple[int, Tuple[str, str]]] = None

    # -- voltage regulation ----------------------------------------------

    def set_pmd_voltage_mv(self, voltage_mv: int, pmd: int = None) -> None:
        """Program the PMD plane (or one plane in the per-PMD ablation)."""
        self._regulator.set_pmd_voltage_mv(voltage_mv, pmd=pmd)
        if pmd is None:
            self.i2c_log.append(self._pmd_log_entry(voltage_mv))
        else:
            self.i2c_log.append(("set_voltage", f"PMD{pmd}={voltage_mv}mV"))

    def cycle_pmd_voltage_mv(self, voltage_mv: int, cycles: int) -> None:
        """``cycles`` rounds of :meth:`set_pmd_voltage_mv` (every plane)
        then :meth:`restore_nominal_voltages`, in one call.

        The regulator ends and logs exactly as after that many rounds;
        this is the safe-state cycle around each clean run of a
        campaign level.
        """
        self._regulator.cycle_pmd_voltage_mv(voltage_mv, cycles)
        self.i2c_log.extend(
            (self._pmd_log_entry(voltage_mv), _RESTORE_LOG_ENTRY) * cycles
        )

    def _pmd_log_entry(self, voltage_mv: int) -> Tuple[str, str]:
        # Steady-voltage reprogramming (one entry per run at a level)
        # reuses the immutable log tuple.
        cache = self._pmd_log_cache
        if cache is None or cache[0] != voltage_mv:
            cache = (voltage_mv, ("set_voltage", f"PMD={voltage_mv}mV"))
            self._pmd_log_cache = cache
        return cache[1]

    def get_pmd_voltage_mv(self, pmd: int = 0) -> int:
        return self._regulator.pmd_voltage_mv(pmd)

    def set_soc_voltage_mv(self, voltage_mv: int) -> None:
        self._regulator.set_soc_voltage_mv(voltage_mv)
        self.i2c_log.append(("set_voltage", f"SoC={voltage_mv}mV"))

    def get_soc_voltage_mv(self) -> int:
        return self._regulator.soc.voltage_mv

    def restore_nominal_voltages(self) -> None:
        """Safe-state entry before log collection (Section 2.2.1)."""
        self._regulator.restore_nominal()
        self.i2c_log.append(_RESTORE_LOG_ENTRY)

    # -- sensors / thermal -------------------------------------------------

    def update_power_estimate(self, power_w: float) -> None:
        """The machine reports its current draw for the thermal loop."""
        self._last_power_w = float(power_w)

    def read_temperature_c(self) -> float:
        """Regulated die temperature at the current power draw."""
        temp = self._fan.regulate(self._last_power_w)
        self.i2c_log.append(("read_sensor", f"temp={temp:.1f}C"))
        return temp

    def set_fan_setpoint_c(self, setpoint_c: float) -> None:
        self._fan.setpoint_c = float(setpoint_c)
        self.i2c_log.append(("set_fan", f"setpoint={setpoint_c:.1f}C"))

    # -- error reporting access ----------------------------------------------

    def read_error_counters(self) -> Dict[str, int]:
        """EDAC aggregate counters, through the instrumentation path."""
        counters = self._edac.counters()
        self.i2c_log.append(
            ("read_edac", f"ce={counters['ce_count']},ue={counters['ue_count']}")
        )
        return counters
