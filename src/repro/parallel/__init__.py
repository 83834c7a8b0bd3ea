"""Parallel characterization: shared-nothing campaign fan-out.

The paper's methodology is serial by physical necessity (one board,
one serial console, one watchdog); its six-month characterization
wall-clock is the cost.  In simulation every campaign owns its machine
and RNG stream, so the grid parallelizes without changing a single
result bit -- see :mod:`repro.parallel.engine` for the determinism
contract.

Public surface:

* :class:`ParallelCampaignEngine` -- fans (workload, core, campaign)
  grids over a process pool, serial fallback included.
* :func:`run_fleet` -- runs/resumes every shard of a
  :class:`~repro.store.FleetStore`, one engine per machine spec
  (:mod:`repro.parallel.fleet`).
* :class:`MachineSpec` -- re-exported from :mod:`repro.machines`: the
  picklable blueprint workers rebuild, covering every registered
  extension model (droop, aging, adaptive clocking, ...).
* :func:`derive_task_seed` -- the per-task seed derivation.
* :class:`ProgressReporter` / :class:`ConsoleProgress` -- progress
  hooks (no-op by default).
"""

from .engine import EngineReport, ParallelCampaignEngine
from .fleet import FleetRunReport, run_fleet
from .progress import (
    NULL_PROGRESS,
    ConsoleProgress,
    ProgressEvent,
    ProgressReporter,
    ProgressTracker,
)
from .tasks import (
    CampaignTask,
    CampaignTaskResult,
    MachineSpec,
    derive_task_seed,
)

__all__ = [
    "CampaignTask",
    "CampaignTaskResult",
    "ConsoleProgress",
    "EngineReport",
    "FleetRunReport",
    "MachineSpec",
    "NULL_PROGRESS",
    "ParallelCampaignEngine",
    "ProgressEvent",
    "ProgressReporter",
    "ProgressTracker",
    "derive_task_seed",
    "run_fleet",
]
