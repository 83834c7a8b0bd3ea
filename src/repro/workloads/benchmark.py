"""Benchmark and program models.

A :class:`Benchmark` is a named workload with an architectural trait
vector; a :class:`Program` is a benchmark paired with one input dataset
(the paper's 26 benchmarks yield 40 programs).

**The stress identity.**  The paper's prediction works because the
performance counters carry a signal about how hard a program drives the
chip's marginal timing paths.  The model makes that linkage explicit:
a program's ``stress`` is *by definition* the following function of its
(normalised, per-instruction) trait rates::

    stress = 0.55 * (1 - stall_n)     # a busy pipeline toggles datapaths
           + 0.15 * (1 - memrd_n)     # compute-bound, not load-bound
           + 0.15 * btb_n             # deep speculation stresses fetch
           + 0.10 * branch_n
           + 0.05 * exc_n

The five rates are exactly the per-instruction forms of the five
RFE-selected events of Section 4.2 (dispatch stalls, read accesses, BTB
mispredictions, conditional/indirect branches, exceptions), so a linear
model over the PMU counters can in principle recover the stress -- and
with it the Vmin/severity behaviour -- which is the paper's empirical
finding.  Suite construction works backwards: given a benchmark's
target stress and its class trait template, the two most pliable rates
(dispatch stalls, then exceptions) are solved to satisfy the identity.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Mapping, Optional, Tuple

from ..errors import ConfigurationError
from ..faults.models import FunctionalUnit

# Normalisation ranges of the five stress-relevant rates.
_STALL_RANGE = (0.05, 0.60)       # dispatch_stall_ratio
_MEMRD_RANGE = (0.10, 0.35)       # load_ratio
_BTB_RANGE = (0.0, 0.020)         # btb_misp_rate
_BRANCH_RANGE = (0.05, 0.25)      # branch_ratio
_EXC_RANGE = (0.0, 0.50)          # exception_rate (per kilo-instruction)

_STRESS_WEIGHTS = {
    "stall": 0.55,
    "memrd": 0.15,
    "btb": 0.15,
    "branch": 0.10,
    "exc": 0.05,
}


def _norm(value: float, lo_hi: Tuple[float, float]) -> float:
    lo, hi = lo_hi
    return min(1.0, max(0.0, (value - lo) / (hi - lo)))


def _denorm(norm: float, lo_hi: Tuple[float, float]) -> float:
    lo, hi = lo_hi
    return lo + min(1.0, max(0.0, norm)) * (hi - lo)


@dataclass(frozen=True)
class WorkloadTraits:
    """Architectural trait vector of one program.

    Rates are per instruction unless stated; ``instructions`` is the
    total dynamic instruction count of one full execution.
    """

    instructions: float = 2.0e11
    ipc: float = 1.2
    load_ratio: float = 0.22
    store_ratio: float = 0.10
    fp_ratio: float = 0.05
    simd_ratio: float = 0.01
    branch_ratio: float = 0.15
    branch_misp_rate: float = 0.03
    btb_misp_rate: float = 0.006
    l1d_miss_rate: float = 0.03
    l1i_mpki: float = 1.0
    l2_miss_rate: float = 0.25
    l3_miss_rate: float = 0.30
    dtlb_mpki: float = 0.8
    itlb_mpki: float = 0.1
    dispatch_stall_ratio: float = 0.30
    exception_rate: float = 0.10
    prefetch_ratio: float = 0.10
    unaligned_ratio: float = 0.002

    def as_dict(self) -> Dict[str, float]:
        """Mapping view consumed by the PMU counter synthesis."""
        return {name: getattr(self, name) for name in self.__dataclass_fields__}

    def __post_init__(self) -> None:
        for name in ("instructions", "ipc"):
            if getattr(self, name) <= 0:
                raise ConfigurationError(f"{name} must be positive")
        for name in (
            "load_ratio", "store_ratio", "fp_ratio", "simd_ratio",
            "branch_ratio", "branch_misp_rate", "btb_misp_rate",
            "l1d_miss_rate", "l2_miss_rate", "l3_miss_rate",
            "dispatch_stall_ratio", "prefetch_ratio", "unaligned_ratio",
        ):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigurationError(f"{name} must be within [0, 1], got {value}")


def _fixed_contribution(traits: WorkloadTraits) -> float:
    """Stress contribution of the three class-template rates."""
    w = _STRESS_WEIGHTS
    return (
        w["memrd"] * (1.0 - _norm(traits.load_ratio, _MEMRD_RANGE))
        + w["btb"] * _norm(traits.btb_misp_rate, _BTB_RANGE)
        + w["branch"] * _norm(traits.branch_ratio, _BRANCH_RANGE)
    )


def stress_from_traits(traits: WorkloadTraits) -> float:
    """The stress identity: timing-path stress from the trait rates."""
    stall_n = _norm(traits.dispatch_stall_ratio, _STALL_RANGE)
    memrd_n = _norm(traits.load_ratio, _MEMRD_RANGE)
    btb_n = _norm(traits.btb_misp_rate, _BTB_RANGE)
    branch_n = _norm(traits.branch_ratio, _BRANCH_RANGE)
    exc_n = _norm(traits.exception_rate, _EXC_RANGE)
    w = _STRESS_WEIGHTS
    return (
        w["stall"] * (1.0 - stall_n)
        + w["memrd"] * (1.0 - memrd_n)
        + w["btb"] * btb_n
        + w["branch"] * branch_n
        + w["exc"] * exc_n
    )


def latent_stress_for(name: str, amplitude: float = 0.45) -> float:
    """Deterministic per-program *latent* stress component.

    Section 4.3.1's empirical finding is that performance counters
    predict Vmin barely better than the naive mean (R-squared near 0)
    even though they predict severity very well.  That is only possible
    if part of a program's timing-path stress is invisible to the
    counters -- data-dependent switching patterns that no architectural
    event captures.  This helper models that hidden part: a hash-derived
    offset in ``[-amplitude, +amplitude]`` that shifts the program's
    Vmin but leaves its counter profile untouched.
    """
    digest = 0
    for char in name:
        digest = (digest * 131 + ord(char)) % 100_003
    return (digest / 100_003 * 2.0 - 1.0) * amplitude


def solve_traits_for_stress(
    base: WorkloadTraits, stress: float, clamp: bool = False
) -> WorkloadTraits:
    """Adjust the pliable rates of a trait template to hit a stress.

    Dispatch-stall ratio absorbs as much of the residual as it can,
    the exception rate takes the remainder; the other three rates keep
    their class-template values so the suite stays architecturally
    diverse.  Raises when the target is unreachable from the template
    (keeps suite definitions honest) unless ``clamp`` is set, in which
    case the nearest reachable stress is used (needed when a latent
    offset pushes the visible stress outside the template's range).
    """
    if not 0.0 <= stress <= 1.0:
        if not clamp:
            raise ConfigurationError("stress must be within [0, 1]")
        stress = min(1.0, max(0.0, stress))
    w = _STRESS_WEIGHTS
    fixed = (
        w["memrd"] * (1.0 - _norm(base.load_ratio, _MEMRD_RANGE))
        + w["btb"] * _norm(base.btb_misp_rate, _BTB_RANGE)
        + w["branch"] * _norm(base.branch_ratio, _BRANCH_RANGE)
    )
    residual = stress - fixed
    if not clamp and (residual < -1e-9 or residual > w["stall"] + w["exc"] + 1e-9):
        raise ConfigurationError(
            f"stress {stress:.2f} unreachable from template "
            f"(fixed contribution {fixed:.2f})"
        )
    residual = min(max(residual, 0.0), w["stall"] + w["exc"])
    stall_term = min(residual, w["stall"])
    exc_term = residual - stall_term
    stall_n = 1.0 - stall_term / w["stall"]
    exc_n = exc_term / w["exc"]
    return replace(
        base,
        dispatch_stall_ratio=_denorm(stall_n, _STALL_RANGE),
        exception_rate=_denorm(exc_n, _EXC_RANGE),
    )


def _default_unit_stress(traits: WorkloadTraits) -> Dict[FunctionalUnit, float]:
    """Relative per-unit exercise derived from the instruction mix."""
    compute = traits.fp_ratio + traits.simd_ratio
    mem = traits.load_ratio + traits.store_ratio
    return {
        FunctionalUnit.FPU: min(1.0, compute / 0.35),
        FunctionalUnit.ALU: min(1.0, (1.0 - compute - mem) / 0.5),
        FunctionalUnit.LSU: min(1.0, mem / 0.4),
        FunctionalUnit.CONTROL: min(1.0, traits.branch_ratio / 0.2),
        FunctionalUnit.L1_SRAM: min(1.0, mem / 0.35),
        FunctionalUnit.L2_SRAM: min(1.0, 8.0 * traits.l1d_miss_rate),
        FunctionalUnit.L3_SRAM: min(1.0, 8.0 * traits.l1d_miss_rate * traits.l2_miss_rate + 0.1),
    }


@dataclass(frozen=True)
class Benchmark:
    """One named workload.

    ``stress`` drives the Vmin anchors; ``latent_stress`` is the part
    of it that is invisible to the performance counters (see
    :func:`latent_stress_for`).  The *visible* remainder is validated
    against the stress identity of the traits (the two views must agree
    within rounding) so a suite definition cannot silently decouple
    counters from Vmin behaviour.
    """

    name: str
    suite: str
    description: str
    traits: WorkloadTraits
    stress: float
    smoothness: float
    latent_stress: float = 0.0
    unit_stress: Mapping[FunctionalUnit, float] = field(default_factory=dict)
    input_sets: Tuple[str, ...] = ("ref",)

    def __post_init__(self) -> None:
        if not 0.0 <= self.stress <= 1.0:
            raise ConfigurationError("stress must be within [0, 1]")
        if not 0.0 <= self.smoothness <= 1.0:
            raise ConfigurationError("smoothness must be within [0, 1]")
        if not -0.6 <= self.latent_stress <= 0.6:
            raise ConfigurationError("latent_stress must be within [-0.6, 0.6]")
        if not self.input_sets:
            raise ConfigurationError("a benchmark needs at least one input set")
        implied = stress_from_traits(self.traits)
        # The traits can only express stresses within the template's
        # feasible band [fixed, fixed + 0.6]; the visible stress is
        # clamped into it before comparing (large latent offsets clip).
        fixed = _fixed_contribution(self.traits)
        expressible = min(
            max(self.visible_stress, fixed),
            fixed + _STRESS_WEIGHTS["stall"] + _STRESS_WEIGHTS["exc"],
        )
        if abs(implied - expressible) > 0.02:
            raise ConfigurationError(
                f"{self.name}: expressible visible stress {expressible:.3f} does "
                f"not match the trait-implied stress {implied:.3f}"
            )
        if not self.unit_stress:
            object.__setattr__(
                self, "unit_stress", _default_unit_stress(self.traits)
            )

    @property
    def visible_stress(self) -> float:
        """The counter-observable part of the stress."""
        return min(1.0, max(0.0, self.stress - self.latent_stress))

    def programs(self) -> Tuple["Program", ...]:
        """All (benchmark, input) programs of this benchmark."""
        return tuple(
            Program(benchmark=self, input_set=name) for name in self.input_sets
        )


@dataclass(frozen=True)
class Program:
    """A benchmark paired with one input dataset.

    Inputs perturb the dynamic behaviour slightly -- different data,
    same code -- modelled as a small deterministic trait perturbation
    derived from the input name.
    """

    benchmark: Benchmark
    input_set: str

    def __post_init__(self) -> None:
        if self.input_set not in self.benchmark.input_sets:
            raise ConfigurationError(
                f"{self.benchmark.name} has no input set {self.input_set!r}"
            )

    @property
    def name(self) -> str:
        """Canonical program name, e.g. ``"gcc/200"``."""
        if self.input_set == "ref":
            return self.benchmark.name
        return f"{self.benchmark.name}/{self.input_set}"

    def _perturbation(self) -> float:
        """Deterministic input-specific offset in [-1, 1]."""
        if self.input_set == "ref":
            return 0.0
        digest = 0
        for char in f"{self.benchmark.name}:{self.input_set}":
            digest = (digest * 131 + ord(char)) % 10_007
        return digest / 10_007 * 2.0 - 1.0

    @property
    def stress(self) -> float:
        """Program stress: the benchmark's, nudged by the input."""
        return min(1.0, max(0.0, self.benchmark.stress + 0.03 * self._perturbation()))

    @property
    def smoothness(self) -> float:
        return self.benchmark.smoothness

    @property
    def unit_stress(self) -> Mapping[FunctionalUnit, float]:
        return self.benchmark.unit_stress

    @property
    def traits(self) -> WorkloadTraits:
        """Trait vector with the input perturbation folded in.

        The perturbation is applied through the stress identity so the
        counters move consistently with the Vmin behaviour (minus the
        benchmark's latent component, which counters never see).
        """
        if self.input_set == "ref":
            return self.benchmark.traits
        visible = min(1.0, max(0.0, self.stress - self.benchmark.latent_stress))
        return solve_traits_for_stress(self.benchmark.traits, visible, clamp=True)

    def trait_dict(self) -> Dict[str, float]:
        return self.traits.as_dict()


def as_program(workload: object) -> Program:
    """``workload`` as a program: a :class:`Program` as given, a
    :class:`Benchmark` as its first input set."""
    if isinstance(workload, Program):
        return workload
    if isinstance(workload, Benchmark):
        return workload.programs()[0]
    raise ConfigurationError(
        f"expected a Program or Benchmark, got {type(workload).__name__}"
    )
