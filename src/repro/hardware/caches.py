"""Cache hierarchy with real protection codecs in the error path.

Table 2 of the paper:

========  =======================  ====================
Level     Size                     Protection
========  =======================  ====================
L1 instr  32 KB per core           parity
L1 data   32 KB per core           parity
L2        256 KB per PMD           ECC (SECDED)
L3        8 MB shared              ECC (SECDED)
========  =======================  ====================

Every sampled SRAM disturbance is pushed through the *actual* codec of
its level (:mod:`repro.faults.ecc`): an event only becomes a corrected
error if the codec really corrects the flipped codeword, and an
uncorrected error if the codec really detects-without-correcting.  This
keeps the simulated EDAC reports honest -- e.g. swapping SECDED for the
DEC-TED code (Section-6 ablation) changes the CE/UE balance because the
decode outcomes change, not because a probability constant was edited.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ..errors import ConfigurationError
from ..faults.ecc import (
    DecodeStatus,
    DectedCode,
    EvenParityCode,
    SecdedCode,
    flip_bits,
)
from ..faults.models import FailureCurve, FunctionalUnit, UnitFailureModel
from .sram import SramArray


@dataclass(frozen=True)
class CacheErrorCounts:
    """Errors observed in the cache hierarchy during one run."""

    ce: int = 0
    ue: int = 0

    def __add__(self, other: "CacheErrorCounts") -> "CacheErrorCounts":
        return CacheErrorCounts(self.ce + other.ce, self.ue + other.ue)


class CacheLevel:
    """One cache level: an SRAM array plus its protection codec.

    ``dirty_fraction`` matters for parity-protected levels: a detected
    parity error on a *clean* line is recoverable (refetch -> corrected
    error semantics), on a *dirty* line the data is lost (uncorrected).
    """

    def __init__(
        self,
        name: str,
        size_kb: int,
        protection: str,
        cell_curve: FailureCurve,
        dirty_fraction: float = 0.0,
    ) -> None:
        if protection not in ("parity", "secded", "dected"):
            raise ConfigurationError(f"unknown protection {protection!r}")
        if not 0.0 <= dirty_fraction <= 1.0:
            raise ConfigurationError("dirty_fraction must be within [0, 1]")
        self.name = name
        self.protection = protection
        self.dirty_fraction = float(dirty_fraction)
        self.array = SramArray(f"{name}.data", size_kb, cell_curve)
        if protection == "parity":
            self._codec = EvenParityCode()
        elif protection == "secded":
            self._codec = SecdedCode()
        else:
            self._codec = DectedCode()

    @property
    def size_kb(self) -> int:
        return self.array.size_kb

    def classify_event(
        self, flipped_bits, rng: np.random.Generator, payload: Optional[int] = None
    ) -> CacheErrorCounts:
        """Run one disturbance event through the real codec.

        A random (or given) payload word is encoded, the event's bit
        positions are flipped *in the codeword*, and the decode outcome
        is mapped to EDAC semantics.
        """
        if payload is None:
            payload = int(rng.integers(0, 1 << 63))
        codeword = self._codec.encode(payload)
        width = self._codec.codeword_bits
        positions = [pos % width for pos in flipped_bits]
        corrupted = flip_bits(codeword, positions)
        result = self._codec.decode(corrupted)
        if result.status is DecodeStatus.CLEAN:
            # Flips cancelled out (same position twice) -- invisible.
            return CacheErrorCounts()
        if result.status is DecodeStatus.CORRECTED:
            return CacheErrorCounts(ce=1)
        if self.protection == "parity":
            # Parity detects but cannot correct; recoverability depends
            # on whether the line was dirty.
            if rng.random() < self.dirty_fraction:
                return CacheErrorCounts(ue=1)
            return CacheErrorCounts(ce=1)
        return CacheErrorCounts(ue=1)

    def sample_errors(
        self, voltage_mv: float, rng: np.random.Generator
    ) -> CacheErrorCounts:
        """Sample and classify this level's disturbances for one run."""
        total = CacheErrorCounts()
        for _index, bits in self.array.sample_disturbances(voltage_mv, rng):
            total = total + self.classify_event(bits, rng)
        return total


class CacheStack:
    """The cache hierarchy visible to one characterized core.

    Exposes ``sample_errors(voltage_mv, rng)`` in the shape
    :class:`repro.faults.manifestation.EffectSampler` expects for its
    ``cache_stack`` hook.
    """

    def __init__(self, levels: List[CacheLevel]) -> None:
        if not levels:
            raise ConfigurationError("cache stack needs at least one level")
        self.levels = list(levels)

    @classmethod
    def for_core(
        cls,
        unit_models: Dict[FunctionalUnit, UnitFailureModel],
        protection_ecc: str = "secded",
    ) -> "CacheStack":
        """Build the Table-2 hierarchy around a core's failure models.

        The per-level cell curves are scaled by the unit-stress factors
        so a workload that barely touches memory also rarely exposes
        marginal cells.
        """
        l1_model = unit_models[FunctionalUnit.L1_SRAM]
        l2_model = unit_models[FunctionalUnit.L2_SRAM]
        l3_model = unit_models[FunctionalUnit.L3_SRAM]

        def scaled(model: UnitFailureModel, activity: float) -> FailureCurve:
            curve = model.curve
            return FailureCurve(
                midpoint_mv=curve.midpoint_mv,
                scale_mv=curve.scale_mv,
                ceiling=curve.ceiling * model.stress * activity,
            )

        return cls(
            [
                CacheLevel("L1I", 32, "parity", scaled(l1_model, 0.35)),
                CacheLevel("L1D", 32, "parity", scaled(l1_model, 0.35),
                           dirty_fraction=0.3),
                CacheLevel("L2", 256, protection_ecc, scaled(l2_model, 0.6)),
                CacheLevel("L3", 8192, protection_ecc, scaled(l3_model, 0.4)),
            ]
        )

    def poisson_rate_table(self, voltages) -> np.ndarray:
        """Per-voltage Poisson event rates of every level's array.

        Row ``i`` holds, for voltage ``voltages[i]``, the channels in
        the exact order :meth:`sample_errors` consumes them: per level
        (stack order) the single-event rate then the double-event rate.
        Built from :meth:`SramArray.event_rate_table` so each rate is
        bit-equal to the scalar path's -- the batch kernel derives its
        zero-event uniform thresholds from these.
        """
        out = np.empty((len(voltages), 2 * len(self.levels)), dtype=np.float64)
        for j, level in enumerate(self.levels):
            singles, doubles = level.array.event_rate_table(voltages)
            out[:, 2 * j] = singles
            out[:, 2 * j + 1] = doubles
        return out

    def sample_errors(self, voltage_mv: float, rng: np.random.Generator) -> Dict[str, int]:
        """Aggregate CE/UE counts across all levels for one run.

        Besides the ``"ce"``/``"ue"`` totals the result carries
        per-level keys (``"ce_L2"``, ``"ue_L3"``, ...) so the EDAC model
        can attribute each error to its reporting location.
        """
        out: Dict[str, int] = {"ce": 0, "ue": 0}
        for level in self.levels:
            counts = level.sample_errors(voltage_mv, rng)
            out["ce"] += counts.ce
            out["ue"] += counts.ue
            if counts.ce:
                out[f"ce_{level.name}"] = counts.ce
            if counts.ue:
                out[f"ue_{level.name}"] = counts.ue
        return out
