"""The characterization framework's user-declared configuration.

Kept apart from :mod:`repro.core.framework` (which imports the batch
kernel, the simulator and numpy) so stores, manifests and the CLI can
name a :class:`FrameworkConfig` without loading any of them;
``repro.core.framework.FrameworkConfig`` re-exports it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..errors import ConfigurationError
from ..units import FREQ_MAX_MHZ, validate_frequency_mhz


@dataclass(frozen=True)
class FrameworkConfig:
    """User-declared configuration of a characterization (phase 1).

    The defaults mirror the paper: 10 runs per voltage level, 10
    campaign repetitions, 5 mV descending schedule.  ``start_mv`` of
    ``None`` starts at nominal; ``stop_mv`` of ``None`` sweeps until
    ``stop_after_crash_levels`` consecutive all-crash levels, which is
    how the study detects the "cannot operate" floor without a
    predeclared stop.
    """

    start_mv: Optional[int] = None
    stop_mv: Optional[int] = None
    freq_mhz: int = FREQ_MAX_MHZ
    runs_per_level: int = 10
    campaigns: int = 10
    stop_after_crash_levels: int = 2
    run_timeout_s: float = 3600.0

    def __post_init__(self) -> None:
        validate_frequency_mhz(self.freq_mhz)
        if self.runs_per_level <= 0:
            raise ConfigurationError("runs_per_level must be positive")
        if self.campaigns <= 0:
            raise ConfigurationError("campaigns must be positive")
        if self.stop_after_crash_levels <= 0:
            raise ConfigurationError("stop_after_crash_levels must be positive")
