"""repro: a full reproduction of *"Harnessing Voltage Margins for
Energy Efficiency in Multicore CPUs"* (Papadimitriou et al., MICRO-50,
2017) on a behavioural X-Gene 2 simulator.

The package mirrors the paper's structure:

* :mod:`repro.hardware` -- the simulated APM X-Gene 2 micro-server
  (8 ARMv8 cores in 4 PMDs on a shared voltage plane, SLIMpro/PMpro
  management, parity/ECC caches, EDAC, PMU, serial console).
* :mod:`repro.faults` -- voltage-dependent failure models and real
  ECC codecs.
* :mod:`repro.workloads` -- the synthetic SPEC CPU2006 suite and the
  Section-3.4 self-tests.
* :mod:`repro.core` -- **contribution 1 & 2**: the automated
  characterization framework (Figure 2) and the severity function.
* :mod:`repro.machines` -- declarative machine construction: the
  ``Machine`` protocol, the component-codec registry and the
  JSON/pickle-round-trippable ``MachineSpec``.
* :mod:`repro.parallel` -- deterministic campaign fan-out: whole
  characterization grids over a worker pool, bit-identical to serial.
* :mod:`repro.telemetry` -- structured traces, metrics and logging
  over running campaigns; observes without perturbing determinism.
* :mod:`repro.prediction` -- **contribution 3**: Vmin/severity
  prediction from performance counters (Figure 6).
* :mod:`repro.energy` -- **contribution 4**: energy-performance
  trade-offs (Figure 9) and the headline savings.
* :mod:`repro.scheduling` -- severity-aware scheduling, the online
  voltage governor, DVFS baseline and Section-4.4 mitigations.
* :mod:`repro.analysis` -- regeneration of every table and figure.

Quick start::

    from repro import CharacterizationFramework, MachineSpec, build_machine
    from repro.workloads import get_benchmark

    machine = build_machine(MachineSpec(chip="TTT", seed=2017))
    framework = CharacterizationFramework(machine)
    result = framework.characterize(get_benchmark("bwaves"), core=0)
    print(result.highest_vmin_mv, result.severity_by_voltage())
"""

from typing import TYPE_CHECKING

from ._lazy import lazy_exports
from ._version import __version__

if TYPE_CHECKING:
    from .effects import EffectType
    from .errors import ReproError
    from .config import PAPER_STUDY, QUICK_STUDY, StudyConfig
    from .core import (
        CharacterizationFramework,
        CharacterizationResult,
        FrameworkConfig,
        SeverityWeights,
        WatchdogMonitor,
        severity_value,
    )
    # The package root is the one sanctioned place consumers may still
    # reach the reference machine class; new code should build machines
    # through repro.machines.MachineSpec instead.
    # reprolint: disable=RPR003 -- public-API backwards-compat re-export
    from .hardware import XGene2Chip, XGene2Machine
    from .machines import (
        Machine,
        MachineSpec,
        build_machine,
        load_machine_spec,
        machine_to_spec,
        register_component,
        save_machine_spec,
    )
    from .parallel import ParallelCampaignEngine
    from .prediction import PredictionPipeline, PredictionReport
    from .energy import figure9_ladder, headline_savings
    from .scheduling import SeverityAwareScheduler, VoltageGovernor

# Every export but the version is imported on first use, so ``import
# repro`` (and with it every ``repro`` command) loads no numpy and no
# simulator until a name that needs them is touched.
__getattr__, __dir__ = lazy_exports(__name__, {
    ".effects": ("EffectType",),
    ".errors": ("ReproError",),
    ".config": ("PAPER_STUDY", "QUICK_STUDY", "StudyConfig"),
    ".core": (
        "CharacterizationFramework", "CharacterizationResult",
        "FrameworkConfig", "SeverityWeights", "WatchdogMonitor",
        "severity_value",
    ),
    ".hardware": ("XGene2Chip", "XGene2Machine"),
    ".machines": (
        "Machine", "MachineSpec", "build_machine", "load_machine_spec",
        "machine_to_spec", "register_component", "save_machine_spec",
    ),
    ".parallel": ("ParallelCampaignEngine",),
    ".prediction": ("PredictionPipeline", "PredictionReport"),
    ".energy": ("figure9_ladder", "headline_savings"),
    ".scheduling": ("SeverityAwareScheduler", "VoltageGovernor"),
})

__all__ = [
    "__version__",
    "EffectType",
    "ReproError",
    "PAPER_STUDY",
    "QUICK_STUDY",
    "StudyConfig",
    "CharacterizationFramework",
    "CharacterizationResult",
    "FrameworkConfig",
    "SeverityWeights",
    "WatchdogMonitor",
    "severity_value",
    "XGene2Chip",
    "XGene2Machine",
    "Machine",
    "MachineSpec",
    "build_machine",
    "load_machine_spec",
    "machine_to_spec",
    "register_component",
    "save_machine_spec",
    "ParallelCampaignEngine",
    "PredictionPipeline",
    "PredictionReport",
    "figure9_ladder",
    "headline_savings",
    "SeverityAwareScheduler",
    "VoltageGovernor",
]
