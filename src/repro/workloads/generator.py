"""Randomized synthetic workload generation.

The fixed SPEC suite reproduces the paper; the generator produces
*additional* workloads with the same internal consistency (traits that
honour the stress identity), which the extension studies use for:

* training-set augmentation for the predictor,
* stress-testing the scheduler with workload mixes the paper never ran,
* property-based tests over the whole workload space.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..errors import ConfigurationError
from .benchmark import (
    Benchmark,
    WorkloadTraits,
    solve_traits_for_stress,
    stress_from_traits,
)


class SyntheticWorkloadGenerator:
    """Draws internally consistent random benchmarks.

    Each draw samples a target stress and a class-flavoured trait
    template, then solves the template's pliable rates to satisfy the
    stress identity exactly -- so generated workloads behave like suite
    members everywhere in the library.
    """

    def __init__(self, seed: int = 0) -> None:
        self._rng = np.random.default_rng(seed)
        self._counter = 0

    def draw(
        self,
        stress: Optional[float] = None,
        smoothness: Optional[float] = None,
    ) -> Benchmark:
        """Generate one benchmark; stress/smoothness may be pinned."""
        rng = self._rng
        if stress is None:
            stress = float(rng.uniform(0.0, 1.0))
        if not 0.0 <= stress <= 1.0:
            raise ConfigurationError("stress must be within [0, 1]")
        if smoothness is None:
            smoothness = float(rng.uniform(0.0, 1.0))

        # Sample the three fixed stress-relevant rates such that their
        # combined contribution stays solvable for this stress
        # (contribution <= stress and >= stress - 0.6).  Their caps are
        # memrd 0.15, btb 0.15, branch 0.10 (sum 0.40), so any target in
        # [max(0, stress - 0.6), min(0.40, stress)] is allocatable.
        lo_needed = max(0.0, stress - 0.60)
        hi_allowed = min(0.40, stress)
        fixed_target = float(rng.uniform(lo_needed, hi_allowed))
        caps = {"memrd": 0.15, "btb": 0.15, "branch": 0.10}
        weights = rng.dirichlet([2.0, 2.0, 2.0])
        parts = {name: 0.0 for name in caps}
        remaining = fixed_target
        # Proportional allocation, then greedy spill into leftover caps.
        for name, weight in zip(caps, weights):
            parts[name] = min(caps[name], fixed_target * float(weight))
            remaining -= parts[name]
        for name in caps:
            if remaining <= 1e-12:
                break
            room = caps[name] - parts[name]
            take = min(room, remaining)
            parts[name] += take
            remaining -= take
        memrd_part, btb_part, branch_part = parts["memrd"], parts["btb"], parts["branch"]

        load_ratio = 0.35 - (memrd_part / 0.15) * 0.25
        btb_rate = (btb_part / 0.15) * 0.020
        branch_ratio = 0.05 + (branch_part / 0.10) * 0.20

        fp_ratio = float(rng.uniform(0.0, 0.5))
        template = WorkloadTraits(
            instructions=float(rng.uniform(0.5e11, 5e11)),
            ipc=float(rng.uniform(0.4, 2.2)),
            load_ratio=round(load_ratio, 4),
            store_ratio=round(load_ratio * 0.45, 4),
            fp_ratio=round(fp_ratio, 4),
            simd_ratio=round(float(rng.uniform(0.0, 0.08)), 4),
            branch_ratio=round(branch_ratio, 4),
            branch_misp_rate=round(float(rng.uniform(0.01, 0.08)), 4),
            btb_misp_rate=round(btb_rate, 5),
            l1d_miss_rate=round(float(rng.uniform(0.005, 0.12)), 4),
            l1i_mpki=round(float(rng.uniform(0.1, 12.0)), 2),
            l2_miss_rate=round(float(rng.uniform(0.1, 0.6)), 3),
            l3_miss_rate=round(float(rng.uniform(0.1, 0.7)), 3),
            dtlb_mpki=round(float(rng.uniform(0.05, 8.0)), 2),
            itlb_mpki=round(float(rng.uniform(0.01, 2.0)), 2),
            prefetch_ratio=round(float(rng.uniform(0.0, 0.25)), 3),
            unaligned_ratio=round(float(rng.uniform(0.0, 0.01)), 4),
        )
        # Rounding the template's rates can move their fixed contribution
        # (by < 1e-4) just outside the band solvable for this stress when
        # the sampled target sits at its edge; the nearest reachable
        # stress is used then.
        traits = solve_traits_for_stress(template, stress, clamp=True)
        implied = stress_from_traits(traits)
        self._counter += 1
        return Benchmark(
            name=f"synth-{self._counter:04d}",
            suite="synthetic",
            description="generated workload",
            traits=traits,
            stress=round(implied, 6),
            smoothness=round(float(smoothness), 6),
        )

    def draw_many(self, count: int, **kwargs) -> List[Benchmark]:
        """Generate several benchmarks."""
        if count < 0:
            raise ConfigurationError("count must be non-negative")
        return [self.draw(**kwargs) for _ in range(count)]
