"""Fault substrate: ECC codecs, voltage->failure curves, manifestation.

* :mod:`repro.faults.ecc` -- working error-correcting codes: even parity
  (L1 arrays), SECDED(72,64) Hamming (L2/L3 arrays, Table 2) and a
  BCH-based DEC-TED code for the Section-6 "stronger error protection"
  design-enhancement ablation.
* :mod:`repro.faults.models` -- logistic voltage-to-failure-probability
  curves for timing paths and SRAM bit-cells, anchored on the
  calibration data.
* :mod:`repro.faults.manifestation` -- turns component-level failures
  into the architectural effects of Table 3 (SDC/CE/UE/AC/SC).
* :mod:`repro.faults.injection` -- deterministic fault injection used by
  the tests.
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .ecc import (
        DecodeStatus,
        DectedCode,
        EccDecodeResult,
        EvenParityCode,
        SecdedCode,
        flip_bits,
    )
    from .models import FailureCurve, UnitFailureModel, build_unit_models
    from .manifestation import EffectSampler, SampledRunEffects

__getattr__, __dir__ = lazy_exports(__name__, {
    ".ecc": (
        "DecodeStatus", "DectedCode", "EccDecodeResult", "EvenParityCode",
        "SecdedCode", "flip_bits",
    ),
    ".models": ("FailureCurve", "UnitFailureModel", "build_unit_models"),
    ".manifestation": ("EffectSampler", "SampledRunEffects"),
})

__all__ = [
    "DecodeStatus",
    "DectedCode",
    "EccDecodeResult",
    "EvenParityCode",
    "SecdedCode",
    "flip_bits",
    "FailureCurve",
    "UnitFailureModel",
    "build_unit_models",
    "EffectSampler",
    "SampledRunEffects",
]
