"""Building machines from specs, and specs from machines/files.

Thin convenience layer over :class:`~repro.machines.spec.MachineSpec`
used by :mod:`repro.config`, the CLI and the examples: one function to
build, one to capture, and a JSON file round-trip for
``--machine spec.json`` style workflows.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Optional, Union

from ..durable import atomic_write
from ..errors import ConfigurationError
from .spec import MachineSpec

SpecLike = Union[MachineSpec, str, Any]


def as_machine_spec(spec: SpecLike) -> MachineSpec:
    """Coerce a spec-like value to a :class:`MachineSpec`.

    Accepts a spec (returned unchanged), a chip name or
    :class:`~repro.hardware.xgene2.XGene2Chip` (wrapped into a default
    spec), or a machine (captured via ``to_spec()``).
    """
    if isinstance(spec, MachineSpec):
        return spec
    if isinstance(spec, str):
        return MachineSpec(chip=spec)
    if hasattr(spec, "calibration") and hasattr(spec, "corner"):
        return MachineSpec(chip=spec)  # a chip object
    if hasattr(spec, "to_spec"):
        return spec.to_spec()
    raise ConfigurationError(
        f"cannot interpret {type(spec).__name__} as a machine spec; "
        "pass a MachineSpec, a chip name/chip, or a machine"
    )


def build_machine(
    spec: SpecLike,
    seed: Optional[int] = None,
    power_on: bool = True,
) -> Any:
    """Build a fresh machine from any spec-like value."""
    return as_machine_spec(spec).build(seed=seed, power_on=power_on)


def machine_to_spec(machine: Any) -> MachineSpec:
    """Capture a machine's rebuildable configuration as a spec."""
    return MachineSpec.from_machine(machine)


def spec_to_json(spec: MachineSpec, indent: int = 2) -> str:
    """Serialize a spec to a JSON document."""
    return json.dumps(spec.to_json_dict(), indent=indent)


def spec_from_json(text: str) -> MachineSpec:
    """Parse a spec from a JSON document."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"machine spec is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigurationError(
            f"machine spec must be a JSON object, got {type(data).__name__}"
        )
    return MachineSpec.from_json_dict(data)


def save_machine_spec(spec: MachineSpec, path: Union[str, Path]) -> Path:
    """Write a spec to a JSON file; returns the path written."""
    path = Path(path)
    atomic_write(path, spec_to_json(spec) + "\n")
    return path


def load_machine_spec(path: Union[str, Path]) -> MachineSpec:
    """Read a spec from a JSON file."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigurationError(f"cannot read machine spec {path}: {exc}") from exc
    return spec_from_json(text)
