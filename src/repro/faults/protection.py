"""The Section-6 error-protection knobs of a simulated part.

Kept apart from :mod:`repro.faults.manifestation` (which imports numpy)
so a :class:`~repro.machines.MachineSpec` can carry a
:class:`ProtectionConfig` without loading it;
``repro.faults.manifestation.ProtectionConfig`` re-exports it.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigurationError


@dataclass(frozen=True)
class ProtectionConfig:
    """Error-protection configuration of the simulated part (Section 6).

    ``ecc`` selects the L2/L3 code ("secded" stock, "dected" the
    stronger-code enhancement).  ``coverage`` is the fraction of
    previously unprotected state (pipeline latches, more blocks) brought
    under protection; it converts that fraction of would-be SDCs into
    corrected errors.
    """

    ecc: str = "secded"
    coverage: float = 0.0

    def __post_init__(self) -> None:
        if self.ecc not in ("secded", "dected"):
            raise ConfigurationError(f"ecc must be 'secded' or 'dected', got {self.ecc!r}")
        if not 0.0 <= self.coverage <= 1.0:
            raise ConfigurationError("coverage must be within [0, 1]")
