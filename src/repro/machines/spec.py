"""The declarative machine blueprint.

:class:`MachineSpec` is everything needed to rebuild a machine from
scratch -- constructor configuration, extension component models and
the lifetime state that shifts failure anchors (accumulated stress
hours, fan setpoint).  It is

* **picklable** -- worker processes of the parallel engine receive the
  spec and rebuild their own machine (see :mod:`repro.parallel`);
* **JSON-serializable** -- :meth:`to_json_dict`/:meth:`from_json_dict`
  round-trip through plain dicts, so specs live in config files
  (``repro grid --machine spec.json``);
* **complete** -- ``spec.build().to_spec() == spec`` for every
  registered component model, which is what makes parallel
  characterization bit-identical to serial for *every* machine.

Component models round-trip through the codec registry
(:mod:`repro.machines.registry`); a machine carrying an unregistered
third-party model raises :class:`~repro.errors.ConfigurationError`
at capture time with a pointer to
:func:`~repro.machines.registry.register_component`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional

from ..data.calibration import CHIP_NAMES, ChipCalibration
from ..errors import ConfigurationError
from ..faults.protection import ProtectionConfig
from ..units import CHARACTERIZATION_TEMP_C
from .registry import (
    COMPONENT_SLOTS,
    clone_component,
    codec_for,
    component_from_spec,
    component_to_spec,
    is_registered,
)

#: Format tag written into serialized spec files.
SPEC_FORMAT = "repro-machine-spec/v1"


def chip_to_json(chip: Any) -> Any:
    """Serialize a chip reference: a part name stays a string, a full
    chip object becomes a plain dict (identity + calibration + corner)."""
    if isinstance(chip, str):
        return chip
    return {
        "name": chip.name,
        "serial": chip.serial,
        "calibration": dataclasses.asdict(chip.calibration),
        "corner": dataclasses.asdict(chip.corner),
    }


def chip_from_json(data: Any) -> Any:
    """Inverse of :func:`chip_to_json`."""
    if isinstance(data, str):
        return data
    from ..hardware.corners import ProcessCorner
    from ..hardware.xgene2 import XGene2Chip

    calibration = dict(data["calibration"])
    calibration["core_offsets_mv"] = tuple(calibration["core_offsets_mv"])
    return XGene2Chip(
        name=data["name"],
        calibration=ChipCalibration(**calibration),
        corner=ProcessCorner(**data["corner"]),
        serial=data.get("serial", ""),
    )


@dataclass(frozen=True)
class MachineSpec:
    """Everything needed to rebuild a machine from scratch.

    ``chip`` is a part name ("TTT"/"TFF"/"TSS") or a full
    :class:`~repro.hardware.xgene2.XGene2Chip` (e.g. a generated fleet
    part).  The component slots hold registered extension models (see
    :mod:`repro.machines.registry`); ``stress_hours`` and
    ``fan_setpoint_c`` capture the lifetime state those models read,
    so an aged or hot machine rebuilds into an equally aged or hot one.
    """

    chip: Any = "TTT"
    seed: int = 2017
    protection: ProtectionConfig = field(default_factory=ProtectionConfig)
    per_pmd_domains: bool = False
    failure_profile: Optional[str] = None
    use_cache_models: bool = True
    droop_model: Optional[Any] = None
    adaptive_clock: Optional[Any] = None
    temperature_sensitivity: Optional[Any] = None
    aging_model: Optional[Any] = None
    rollback_unit: Optional[Any] = None
    injector: Optional[Any] = None
    #: Accumulated full-activity operating hours (aging-model input).
    stress_hours: float = 0.0
    #: Fan setpoint when it differs from the 43 C characterization
    #: default; ``None`` means "as characterized".
    fan_setpoint_c: Optional[float] = None

    def __post_init__(self) -> None:
        if self.stress_hours < 0:
            raise ConfigurationError("stress_hours must be non-negative")
        for slot, model in self.components().items():
            codec = codec_for(model)  # raises for unregistered types
            if codec.slot != slot:
                raise ConfigurationError(
                    f"{type(model).__name__} is registered for slot "
                    f"{codec.slot!r} but was passed as {slot!r}"
                )

    # -- component access --------------------------------------------------

    def components(self) -> Dict[str, Any]:
        """The populated component slots, in constructor order."""
        return {
            slot: getattr(self, slot)
            for slot in COMPONENT_SLOTS
            if getattr(self, slot) is not None
        }

    # -- capture -----------------------------------------------------------

    @classmethod
    def from_machine(cls, machine: Any) -> "MachineSpec":
        """Capture a machine's rebuildable configuration.

        Raises :class:`~repro.errors.ConfigurationError` when the
        machine carries component models no codec is registered for
        (register third-party models with
        :func:`repro.machines.register_component`).
        """
        unregistered = [
            f"{slot} ({type(getattr(machine, slot)).__name__})"
            for slot in COMPONENT_SLOTS
            if getattr(machine, slot) is not None
            and not is_registered(type(getattr(machine, slot)))
        ]
        if unregistered:
            raise ConfigurationError(
                "machine carries component models without a registered "
                "codec: " + ", ".join(unregistered) + "; register them "
                "with repro.machines.register_component so specs can "
                "rebuild them"
            )
        chip: Any = machine.chip
        if chip.name in CHIP_NAMES and chip == type(chip).part(chip.name):
            chip = chip.name  # canonical part: ship the name, not the object
        fan_setpoint = float(machine.fan.setpoint_c)
        if fan_setpoint == CHARACTERIZATION_TEMP_C:
            fan_setpoint = None
        return cls(
            chip=chip,
            seed=machine.seed,
            protection=machine.protection,
            per_pmd_domains=machine.regulator.per_pmd_domains,
            failure_profile=machine.failure_profile,
            use_cache_models=machine.use_cache_models,
            stress_hours=machine.stress_hours,
            fan_setpoint_c=fan_setpoint,
            **{
                slot: getattr(machine, slot)
                for slot in COMPONENT_SLOTS
                if getattr(machine, slot) is not None
            },
        )

    # -- construction ------------------------------------------------------

    def build(self, seed: Optional[int] = None, power_on: bool = True) -> Any:
        """Construct a fresh machine from this spec.

        Component models are *cloned* through their codecs, so every
        built machine owns its own copies -- scripted mutable state
        (e.g. an injector queue) is never shared between machines, and
        repeated builds are independent and identical.
        """
        from ..hardware.xgene2 import XGene2Machine

        machine = XGene2Machine(
            chip=self.chip,
            seed=self.seed if seed is None else seed,
            protection=self.protection,
            per_pmd_domains=self.per_pmd_domains,
            failure_profile=self.failure_profile,
            use_cache_models=self.use_cache_models,
            **{
                slot: clone_component(model)
                for slot, model in self.components().items()
            },
        )
        if self.stress_hours:
            machine.age(self.stress_hours)
        if self.fan_setpoint_c is not None:
            machine.slimpro.set_fan_setpoint_c(self.fan_setpoint_c)
        if power_on:
            machine.power_on()
        return machine

    # -- JSON round-trip ---------------------------------------------------

    def to_json_dict(self) -> Dict[str, Any]:
        """Plain-dict form, safe for ``json.dumps``."""
        return {
            "format": SPEC_FORMAT,
            "chip": chip_to_json(self.chip),
            "seed": self.seed,
            "protection": dataclasses.asdict(self.protection),
            "per_pmd_domains": self.per_pmd_domains,
            "failure_profile": self.failure_profile,
            "use_cache_models": self.use_cache_models,
            "stress_hours": self.stress_hours,
            "fan_setpoint_c": self.fan_setpoint_c,
            "components": {
                slot: component_to_spec(model)
                for slot, model in self.components().items()
            },
        }

    def digest(self) -> str:
        """Stable content hash of the serialized spec.

        Campaign stores embed this next to the spec JSON so a resume
        can cheaply verify it is replaying onto the machine blueprint
        the journal was recorded against.
        """
        payload = json.dumps(self.to_json_dict(), sort_keys=True)
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    @classmethod
    def from_json_dict(cls, data: Mapping[str, Any]) -> "MachineSpec":
        """Inverse of :meth:`to_json_dict`."""
        fmt = data.get("format", SPEC_FORMAT)
        if fmt != SPEC_FORMAT:
            raise ConfigurationError(
                f"unsupported machine-spec format {fmt!r} "
                f"(expected {SPEC_FORMAT!r})"
            )
        components = {
            slot: component_from_spec(payload)
            for slot, payload in dict(data.get("components", {})).items()
        }
        unknown_slots = set(components) - set(COMPONENT_SLOTS)
        if unknown_slots:
            raise ConfigurationError(
                f"unknown component slots in spec: {sorted(unknown_slots)}"
            )
        return cls(
            chip=chip_from_json(data.get("chip", "TTT")),
            seed=int(data.get("seed", 2017)),
            protection=ProtectionConfig(**dict(data.get("protection", {}))),
            per_pmd_domains=bool(data.get("per_pmd_domains", False)),
            failure_profile=data.get("failure_profile"),
            use_cache_models=bool(data.get("use_cache_models", True)),
            stress_hours=float(data.get("stress_hours", 0.0)),
            fan_setpoint_c=data.get("fan_setpoint_c"),
            **components,
        )
