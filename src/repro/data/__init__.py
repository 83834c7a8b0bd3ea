"""Static data tables: PMU event catalogue and Vmin calibration anchors.

These modules hold the numbers everything else is calibrated against:

* :mod:`repro.data.counters` -- the 101 performance-monitoring events the
  simulated X-Gene 2 PMU exposes, with the synthesis model that turns a
  workload's architectural *traits* into counter readings.
* :mod:`repro.data.calibration` -- per-chip / per-core / per-benchmark
  anchor voltages digitised from the paper's Figures 3-5 and prose.
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .counters import (
        COUNTER_NAMES,
        NUM_COUNTERS,
        RFE_SELECTED_FEATURES,
        CounterCatalog,
    )
    from .calibration import (
        CHIP_NAMES,
        ChipCalibration,
        chip_calibration,
        crash_voltage_mv,
        unsafe_width_mv,
        vmin_mv,
    )

__getattr__, __dir__ = lazy_exports(__name__, {
    ".counters": (
        "COUNTER_NAMES", "NUM_COUNTERS", "RFE_SELECTED_FEATURES",
        "CounterCatalog",
    ),
    ".calibration": (
        "CHIP_NAMES", "ChipCalibration", "chip_calibration",
        "crash_voltage_mv", "unsafe_width_mv", "vmin_mv",
    ),
})

__all__ = [
    "COUNTER_NAMES",
    "NUM_COUNTERS",
    "RFE_SELECTED_FEATURES",
    "CounterCatalog",
    "CHIP_NAMES",
    "ChipCalibration",
    "chip_calibration",
    "crash_voltage_mv",
    "unsafe_width_mv",
    "vmin_mv",
]
