"""The external watchdog monitor (Figure 2's Raspberry Pi).

The paper wires a Raspberry Pi to the X-Gene 2's serial port and to its
power and reset buttons, because undervolting campaigns crash the
machine constantly and unattended recovery is what makes "massive"
campaigns possible.

:class:`WatchdogMonitor` is that box: it never touches the simulator's
internals -- it only reads the serial console (heartbeat, boot banner)
and presses the two physical buttons, escalating from reset to a full
power cycle when the reset does not bring the banner back.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional

from .. import telemetry
from ..errors import WatchdogError
from ..hardware.serial_console import BOOT_BANNER
from ..hardware import MachineState
from ..machines import Machine


class WatchdogAction(enum.Enum):
    """What the watchdog did on one liveness check."""

    NONE = "none"
    RESET = "reset"
    POWER_CYCLE = "power_cycle"


@dataclass(frozen=True)
class Intervention:
    """Log entry for one recovery action."""

    action: WatchdogAction
    tick: int
    reason: str


class WatchdogMonitor:
    """Serial-and-buttons recovery automaton.

    Parameters
    ----------
    machine:
        The board under test (only its console/button surface is used).
    timeout_ticks:
        Heartbeat staleness threshold, logical ticks; ``None`` uses the
        machine's own ``HEARTBEAT_TIMEOUT_TICKS``.
    max_power_cycles:
        Consecutive failed power cycles before declaring the board dead
        (raises :class:`~repro.errors.WatchdogError` -- a real campaign
        would page a human at this point).
    """

    def __init__(
        self,
        machine: Machine,
        timeout_ticks: Optional[int] = None,
        max_power_cycles: int = 3,
    ) -> None:
        self.machine = machine
        self.timeout_ticks = int(
            machine.HEARTBEAT_TIMEOUT_TICKS if timeout_ticks is None
            else timeout_ticks
        )
        self.max_power_cycles = int(max_power_cycles)
        self.interventions: List[Intervention] = []

    # -- liveness -----------------------------------------------------------

    def machine_alive(self) -> bool:
        """Serial-side liveness: a fresh heartbeat on the console."""
        return self.machine.console.is_alive(self.machine.tick, self.timeout_ticks)

    def _banner_seen(self) -> bool:
        return any(
            BOOT_BANNER in line for line in self.machine.console.read_new_lines()
        )

    # -- recovery -----------------------------------------------------------------

    def ensure_alive(self) -> WatchdogAction:
        """Check liveness; recover if needed.  Returns the action taken."""
        if self.machine.state is MachineState.RUNNING and self.machine_alive():
            return WatchdogAction.NONE

        # First escalation step: the reset button.
        if self.machine.state is not MachineState.OFF:
            self.machine.press_reset()
            if self._banner_seen() and self.machine_alive():
                self._log(WatchdogAction.RESET, "heartbeat stale; reset recovered")
                return WatchdogAction.RESET

        # Second step: power cycle (possibly repeatedly).
        for _attempt in range(self.max_power_cycles):
            if self.machine.state is not MachineState.OFF:
                self.machine.power_off()
            self.machine.power_on()
            if self._banner_seen() and self.machine_alive():
                self._log(WatchdogAction.POWER_CYCLE, "power cycle recovered")
                return WatchdogAction.POWER_CYCLE
        raise WatchdogError(
            f"machine did not come back after {self.max_power_cycles} power cycles"
        )

    def _log(self, action: WatchdogAction, reason: str) -> None:
        self.interventions.append(
            Intervention(action=action, tick=self.machine.tick, reason=reason)
        )
        telemetry.event(
            "watchdog.recovery",
            action=action.value,
            tick=self.machine.tick,
            reason=reason,
        )
        telemetry.inc_counter(telemetry.M_WATCHDOG, action=action.value)

    def repeat_last(self, times: int, tick_step: int) -> None:
        """Log the last intervention ``times`` more times, ``tick_step``
        ticks apart: the interventions, ``watchdog.recovery`` events and
        counter increments of ``times`` more identical recoveries (see
        :meth:`XGene2Machine.kernel_repeat`)."""
        last = self.interventions[-1]
        for k in range(1, times + 1):
            tick = last.tick + k * tick_step
            self.interventions.append(
                Intervention(action=last.action, tick=tick, reason=last.reason)
            )
            telemetry.event(
                "watchdog.recovery",
                action=last.action.value,
                tick=tick,
                reason=last.reason,
            )
        telemetry.inc_counter(
            telemetry.M_WATCHDOG, amount=times, action=last.action.value
        )

    @property
    def intervention_count(self) -> int:
        return len(self.interventions)
