"""Top-level experiment configuration.

One object that names everything a full reproduction run needs --
which chips, which benchmarks, how many campaigns -- with the paper's
setup as the default.  The example scripts and the benchmark harness
both start from here, so "what the paper did" is written down in
exactly one place.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from .core.config import FrameworkConfig
from .data.calibration import CHIP_NAMES
from .errors import ConfigurationError
from .machines import MachineSpec
from .units import FREQ_MAX_MHZ
from .workloads.spec2006 import FIGURE_BENCHMARKS


@dataclass(frozen=True)
class StudyConfig:
    """Configuration of a full reproduction study."""

    #: Parts to characterize.
    chips: Tuple[str, ...] = CHIP_NAMES
    #: Benchmarks of the characterization sweeps (Figures 3-5).
    benchmarks: Tuple[str, ...] = FIGURE_BENCHMARKS
    #: Cores to characterize.
    cores: Tuple[int, ...] = tuple(range(8))
    #: Frequencies of interest; the paper characterizes the two
    #: timing-distinct points (Section 3.2).
    frequencies_mhz: Tuple[int, ...] = (FREQ_MAX_MHZ, 1200)
    #: Campaign configuration (paper defaults: 10 campaigns x 10 runs).
    framework: FrameworkConfig = field(
        default_factory=lambda: FrameworkConfig(start_mv=930)
    )
    #: Master seed of every machine.
    seed: int = 2017

    def __post_init__(self) -> None:
        unknown = set(self.chips) - set(CHIP_NAMES)
        if unknown:
            raise ConfigurationError(f"unknown chips: {sorted(unknown)}")
        if not self.benchmarks:
            raise ConfigurationError("need at least one benchmark")
        bad_cores = [c for c in self.cores if not 0 <= c <= 7]
        if bad_cores:
            raise ConfigurationError(f"invalid cores: {bad_cores}")

    # -- machine construction (see repro.machines) ------------------------

    def machine_spec(self, chip: Optional[str] = None) -> MachineSpec:
        """Blueprint of one study machine (defaults to the first chip)."""
        return MachineSpec(
            chip=self.chips[0] if chip is None else chip, seed=self.seed
        )

    def machine_specs(self) -> Tuple[MachineSpec, ...]:
        """One blueprint per configured chip, in study order."""
        return tuple(self.machine_spec(chip) for chip in self.chips)

    def build_machine(self, chip: Optional[str] = None, power_on: bool = True):
        """Construct (and by default power on) one study machine."""
        return self.machine_spec(chip).build(power_on=power_on)


#: The paper's full setup.
PAPER_STUDY = StudyConfig()

#: A reduced setup for quick runs (one chip, three benchmarks, two
#: cores, three campaigns) -- the examples default to this.
QUICK_STUDY = StudyConfig(
    chips=("TTT",),
    benchmarks=("bwaves", "leslie3d", "mcf"),
    cores=(0, 4),
    framework=FrameworkConfig(start_mv=930, campaigns=3),
)
