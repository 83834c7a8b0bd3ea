"""Workload models: the synthetic SPEC CPU2006 suite and self-tests.

The paper characterizes with SPEC CPU2006 (10 benchmarks for the full
voltage sweeps, 26 benchmarks / 40 program+input pairs for the
prediction study) plus hand-written self-tests that stress individual
components (Section 3.4).  SPEC binaries and their inputs are licensed
material and in any case meaningless to a behavioural simulator, so
each program is modelled by what the study actually consumes:

* a 19-dimensional architectural *trait* vector that synthesises its
  101-event PMU profile (:mod:`repro.data.counters`);
* a scalar ``stress`` in [0, 1]: how hard the program drives the
  critical timing paths, which (through the calibration anchors) sets
  its per-core Vmin;
* a scalar ``smoothness`` in [0, 1]: how wide/gradual its unsafe region
  is (bwaves at 1.0 has the paper's widest, smoothest severity ramp);
* a per-functional-unit relative stress vector shaping the effect mix.
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports
from .benchmark import Benchmark, Program, WorkloadTraits, stress_from_traits
from .spec2006 import (
    FIGURE_BENCHMARKS,
    SPEC2006_SUITE,
    all_programs,
    figure_benchmarks,
)
# Re-exported under get_* names: the bare names would shadow the
# `workloads.benchmark` submodule on the package object.
from .spec2006 import benchmark as get_benchmark
from .spec2006 import program as get_program

if TYPE_CHECKING:
    from .selftests import SELF_TESTS, self_test
    from .generator import SyntheticWorkloadGenerator
    from .execution import reference_output, runtime_seconds
    from .stressmark import StressmarkResult, generate_didt_stressmark

# The suite above is eager (stores and the CLI name benchmarks); the
# generator (numpy) and the stressmark (supply-droop model) load on
# first use.
__getattr__, __dir__ = lazy_exports(__name__, {
    ".selftests": ("SELF_TESTS", "self_test"),
    ".generator": ("SyntheticWorkloadGenerator",),
    ".execution": ("reference_output", "runtime_seconds"),
    ".stressmark": ("StressmarkResult", "generate_didt_stressmark"),
})

__all__ = [
    "Benchmark",
    "Program",
    "WorkloadTraits",
    "stress_from_traits",
    "FIGURE_BENCHMARKS",
    "SPEC2006_SUITE",
    "all_programs",
    "figure_benchmarks",
    "get_benchmark",
    "get_program",
    "SELF_TESTS",
    "self_test",
    "SyntheticWorkloadGenerator",
    "reference_output",
    "runtime_seconds",
    "StressmarkResult",
    "generate_didt_stressmark",
]
