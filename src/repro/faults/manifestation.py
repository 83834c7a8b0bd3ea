"""From component failures to the architectural effects of Table 3.

:class:`EffectSampler` combines the per-unit failure models of
:mod:`repro.faults.models` into the observable outcome of one
characterization run:

* a clock/uncore failure hangs the machine -> **SC** (and nothing else
  is observable, the run never completes and its logs are lost);
* a control-path or LSU timing failure kills the process -> **AC**
  (EDAC logs survive, so corrected/uncorrected errors can accompany it);
* an ALU/FPU timing failure corrupts the retired result -> **SDC**
  (the hallmark X-Gene behaviour of Section 3.4);
* SRAM bit-cell failures go through the (real or analytic) ECC path:
  single flips in ECC-protected arrays -> **CE**, doubles -> **UE**;
  parity-protected L1 flips -> **CE** when the line is clean (refetch)
  or **UE** when dirty data is lost.

The Section-6 design-enhancement knobs live in
:class:`ProtectionConfig`: stronger codes and wider protection coverage
convert SDC/UE probability mass into CE, which is exactly the paper's
"significant probability to be transformed to corrected errors".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Mapping, Optional, Sequence

import numpy as np

from ..effects import EffectType, normalize_effects
from ..errors import ConfigurationError
from .models import FunctionalUnit, UnitFailureModel
from .protection import ProtectionConfig  # re-exported: the old import path stays valid


@dataclass(frozen=True)
class SampledRunEffects:
    """Outcome of one simulated run.

    ``effects`` is the Table-3 classification set; ``detail`` carries
    per-source event counts for the log files (e.g. how many corrected
    errors the EDAC driver would report).
    """

    effects: FrozenSet[EffectType]
    detail: Mapping[str, int] = field(default_factory=dict)

    @property
    def completed(self) -> bool:
        """True when the benchmark process ran to completion."""
        return not (
            EffectType.SC in self.effects or EffectType.AC in self.effects
        )

    @property
    def is_normal(self) -> bool:
        return self.effects == frozenset({EffectType.NO})


class EffectSampler:
    """Samples the Table-3 outcome of one run at one supply voltage.

    Parameters
    ----------
    unit_models:
        Output of :func:`repro.faults.models.build_unit_models`.
    protection:
        Error-protection configuration (Section-6 ablations).
    cache_stack:
        Optional object with a
        ``sample_errors(voltage_mv, rng) -> dict`` method (the real
        cache models of :mod:`repro.hardware.caches`); when omitted, the
        analytic SRAM curves stand in.
    """

    #: Probability that an ALU timing failure lands in address
    #: generation and kills the process instead of silently corrupting
    #: the output.
    _ALU_AC_FRACTION = 0.2
    #: Probability that consuming an uncorrectable error aborts the
    #: process (machine-check style) rather than being reported only.
    _UE_AC_FRACTION = 0.35

    def __init__(
        self,
        unit_models: Mapping[FunctionalUnit, UnitFailureModel],
        protection: ProtectionConfig = ProtectionConfig(),
        cache_stack: Optional[object] = None,
        injector: Optional[object] = None,
    ) -> None:
        missing = set(FunctionalUnit) - set(unit_models)
        if missing:
            raise ConfigurationError(f"unit_models missing units: {sorted(m.value for m in missing)}")
        self._models = dict(unit_models)
        self.protection = protection
        self._cache_stack = cache_stack
        #: Optional :class:`repro.faults.injection.FaultInjector`:
        #: scripted faults consumed at the start of each sampled run,
        #: on top of (not instead of) the probabilistic model.
        self._injector = injector

    # -- probability views ---------------------------------------------------

    @property
    def cache_stack(self) -> Optional[object]:
        """The wired cache hierarchy (``None`` on the analytic path)."""
        return self._cache_stack

    @property
    def ue_ac_fraction(self) -> float:
        """Probability that a consumed uncorrectable error aborts the run."""
        return self._UE_AC_FRACTION

    def probability(self, unit: FunctionalUnit, voltage_mv: float) -> float:
        """Per-run failure probability of one unit at a voltage."""
        return self._models[unit].probability(voltage_mv)

    def probability_table(self, voltages: Sequence[int]) -> Dict[str, np.ndarray]:
        """Every per-run draw threshold of :meth:`sample`, tabulated.

        Evaluated by calling the same scalar methods :meth:`sample` uses
        (never re-derived arithmetic), so each entry is bit-equal to the
        per-run value -- the exactness contract of the batch kernel
        (:mod:`repro.core.kernel`) rests on this.  Keys: ``sc`` (clock/
        uncore hang), ``ac_timing`` (control/LSU process kill), ``sdc``,
        ``sdc_to_ce`` (coverage conversion), ``ce``/``ue`` (analytic
        SRAM path; unused when a cache stack is wired).
        """
        n = len(voltages)
        table = {
            key: np.empty(n, dtype=np.float64)
            for key in ("sc", "ac_timing", "sdc", "sdc_to_ce", "ce", "ue")
        }
        for i, voltage_mv in enumerate(voltages):
            table["sc"][i] = self.probability(FunctionalUnit.CLOCK_UNCORE, voltage_mv)
            p_control = self.probability(FunctionalUnit.CONTROL, voltage_mv)
            p_lsu = self.probability(FunctionalUnit.LSU, voltage_mv)
            table["ac_timing"][i] = 1.0 - (1.0 - p_control) * (1.0 - p_lsu)
            table["sdc"][i] = self._sdc_probability(voltage_mv)
            table["sdc_to_ce"][i] = self._sdc_conversion_to_ce(voltage_mv)
            p_ce, p_ue = self._sram_probabilities(voltage_mv)
            table["ce"][i] = p_ce
            table["ue"][i] = p_ue
        return table

    def _sdc_probability(self, voltage_mv: float) -> float:
        p_alu = self.probability(FunctionalUnit.ALU, voltage_mv)
        p_fpu = self.probability(FunctionalUnit.FPU, voltage_mv)
        p_raw = 1.0 - (1.0 - p_alu * (1.0 - self._ALU_AC_FRACTION)) * (1.0 - p_fpu)
        # Section-6 enhancement: wider protection coverage converts SDCs
        # into corrected errors.
        return p_raw * (1.0 - self.protection.coverage)

    def _sram_probabilities(self, voltage_mv: float):
        """(p_ce, p_ue) per run from the SRAM arrays (analytic path)."""
        p_l1 = self.probability(FunctionalUnit.L1_SRAM, voltage_mv)
        p_l2 = self.probability(FunctionalUnit.L2_SRAM, voltage_mv)
        p_l3 = self.probability(FunctionalUnit.L3_SRAM, voltage_mv)
        # Singles dominate; doubles scale with the square of the cell
        # failure level in each protected array.
        p_single = 1.0 - (1.0 - p_l2) * (1.0 - p_l3) * (1.0 - p_l1 * 0.7)
        p_double = min(1.0, 0.35 * (p_l2**2 + p_l3**2) + 0.3 * p_l1**2)
        if self.protection.ecc == "dected":
            # The stronger code corrects the doubles too.
            p_single = min(1.0, p_single + 0.9 * p_double)
            p_double *= 0.1
        p_sdc_converted = self._sdc_conversion_to_ce(voltage_mv)
        return min(1.0, p_single + p_sdc_converted), p_double

    def _sdc_conversion_to_ce(self, voltage_mv: float) -> float:
        if self.protection.coverage <= 0.0:
            return 0.0
        p_alu = self.probability(FunctionalUnit.ALU, voltage_mv)
        p_fpu = self.probability(FunctionalUnit.FPU, voltage_mv)
        p_raw = 1.0 - (1.0 - p_alu * (1.0 - self._ALU_AC_FRACTION)) * (1.0 - p_fpu)
        return p_raw * self.protection.coverage

    # -- sampling -------------------------------------------------------------

    def sample(self, voltage_mv: float, rng: np.random.Generator) -> SampledRunEffects:
        """Sample the observable outcome of one run.

        The precedence mirrors what a real campaign can log: a system
        crash hides everything else; an application crash still leaves
        EDAC logs behind; SDCs require the run to complete.
        """
        detail: Dict[str, int] = {}
        forced = self._consume_injections(rng, detail)

        if EffectType.SC in forced or rng.random() < self.probability(
            FunctionalUnit.CLOCK_UNCORE, voltage_mv
        ):
            return SampledRunEffects(frozenset({EffectType.SC}), {"system_crash": 1})

        effects = set(forced)

        # SRAM / ECC path -- may use the real cache models when wired.
        if self._cache_stack is not None:
            counts = self._cache_stack.sample_errors(voltage_mv, rng)
            ce_events = int(counts.get("ce", 0))
            ue_events = int(counts.get("ue", 0))
            # Keep the per-location attribution for the EDAC report.
            detail.update(
                {key: int(val) for key, val in counts.items() if key not in ("ce", "ue")}
            )
            conv = self._sdc_conversion_to_ce(voltage_mv)
            if conv > 0.0 and rng.random() < conv:
                ce_events += 1
        else:
            p_ce, p_ue = self._sram_probabilities(voltage_mv)
            ce_events = 1 if rng.random() < p_ce else 0
            ue_events = 1 if rng.random() < p_ue else 0
        if ce_events:
            effects.add(EffectType.CE)
            detail["corrected_errors"] = (
                detail.get("corrected_errors", 0) + ce_events
            )
        if ue_events:
            effects.add(EffectType.UE)
            detail["uncorrected_errors"] = (
                detail.get("uncorrected_errors", 0) + ue_events
            )

        # Timing failures that kill the process.
        p_control = self.probability(FunctionalUnit.CONTROL, voltage_mv)
        p_lsu = self.probability(FunctionalUnit.LSU, voltage_mv)
        crashed = EffectType.AC in effects or (
            rng.random() < 1.0 - (1.0 - p_control) * (1.0 - p_lsu)
        )
        if not crashed and ue_events:
            crashed = rng.random() < self._UE_AC_FRACTION
        if crashed:
            effects.add(EffectType.AC)
            detail["application_crash"] = 1
            return SampledRunEffects(normalize_effects(effects), detail)

        # The run completes: silent corruption of the output?
        if EffectType.SDC in effects or rng.random() < self._sdc_probability(voltage_mv):
            effects.add(EffectType.SDC)
            detail["output_mismatch"] = 1

        return SampledRunEffects(normalize_effects(effects), detail)

    # -- scripted injection ----------------------------------------------------

    _SRAM_LEVELS = {
        FunctionalUnit.L1_SRAM: "L1D",
        FunctionalUnit.L2_SRAM: "L2",
        FunctionalUnit.L3_SRAM: "L3",
    }

    def _consume_injections(
        self, rng: np.random.Generator, detail: Dict[str, int]
    ):
        """Pop and apply any scripted faults due this run (FIFO)."""
        forced = set()
        if self._injector is None:
            return forced
        self._injector.begin_run()
        for unit in FunctionalUnit:
            while True:
                injection = self._injector.take(unit)
                if injection is None:
                    break
                forced |= self._apply_injection(unit, injection, rng, detail)
        return forced

    def _apply_injection(self, unit, injection, rng, detail: Dict[str, int]):
        if unit is FunctionalUnit.CLOCK_UNCORE:
            detail["injected_sc"] = detail.get("injected_sc", 0) + 1
            return {EffectType.SC}
        if unit in (FunctionalUnit.CONTROL, FunctionalUnit.LSU):
            detail["injected_ac"] = detail.get("injected_ac", 0) + 1
            return {EffectType.AC}
        if unit in (FunctionalUnit.ALU, FunctionalUnit.FPU):
            detail["injected_sdc"] = detail.get("injected_sdc", 0) + 1
            return {EffectType.SDC}
        # SRAM injections go through the real codec when a cache stack
        # is wired -- the injected flip count decides CE vs UE through
        # the actual decode, not a table.
        effects = set()
        if self._cache_stack is not None:
            level_name = self._SRAM_LEVELS[unit]
            level = next(
                lvl for lvl in self._cache_stack.levels if lvl.name == level_name
            )
            counts = level.classify_event(tuple(injection.bit_positions), rng)
            ce_events, ue_events = counts.ce, counts.ue
        else:
            single = len(set(injection.bit_positions)) == 1
            ce_events, ue_events = (1, 0) if single else (0, 1)
        if ce_events:
            effects.add(EffectType.CE)
            detail["corrected_errors"] = detail.get("corrected_errors", 0) + ce_events
        if ue_events:
            effects.add(EffectType.UE)
            detail["uncorrected_errors"] = (
                detail.get("uncorrected_errors", 0) + ue_events
            )
        return effects
