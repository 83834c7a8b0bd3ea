"""Registry of spec-constructible machine component models.

A :class:`~repro.machines.spec.MachineSpec` must round-trip every
extension model a machine carries -- droop, adaptive clocking,
temperature sensitivity, aging, rollback, scripted injection -- through
a picklable, JSON-serializable payload, because worker processes
rebuild machines from specs (see :mod:`repro.parallel`).  This module
is the extension point that makes that possible for models the library
has never seen: register a codec and your component ships to workers
and config files like the built-in ones.

A codec maps one component *class* to

* ``kind`` -- a stable string naming the model in JSON payloads;
* ``slot`` -- the machine constructor argument the model fills
  (one of :data:`COMPONENT_SLOTS`);
* ``to_payload`` / ``from_payload`` -- the JSON-dict round-trip.
  The defaults cover frozen dataclasses of plain data
  (``dataclasses.asdict`` / ``cls(**payload)``).

The built-in codecs register on first use of any public function
here, not at import: reading a store's spec needs no extension model
module (:mod:`repro.hardware.dynamics` and friends), and the order
(built-ins first, then user codecs) and the duplicate checks are the
same as if they had registered at import.

Lookup is by *exact* type: a subclass of a registered model is a
different model (it may override behaviour the payload cannot
express) and must register itself.  Cloning through the codec
(:func:`clone_component`) is how builders hand every rebuilt machine
its own copy of mutable components, so scripted state (e.g. a
:class:`~repro.faults.injection.FaultInjector` queue) is never shared
across machines.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass
from typing import Any, Callable, Dict, Mapping, Optional, Tuple

from ..errors import ConfigurationError

#: Machine constructor slots that accept extension component models,
#: in constructor order.
COMPONENT_SLOTS: Tuple[str, ...] = (
    "droop_model",
    "adaptive_clock",
    "temperature_sensitivity",
    "aging_model",
    "rollback_unit",
    "injector",
)


@dataclass(frozen=True)
class ComponentCodec:
    """How one component class round-trips through spec payloads."""

    kind: str
    cls: type
    slot: str
    to_payload: Callable[[Any], Dict[str, Any]]
    from_payload: Callable[[Mapping[str, Any]], Any]


_BY_KIND: Dict[str, ComponentCodec] = {}
_BY_CLASS: Dict[type, ComponentCodec] = {}


def register_component(
    kind: str,
    cls: type,
    slot: str,
    to_payload: Optional[Callable[[Any], Dict[str, Any]]] = None,
    from_payload: Optional[Callable[[Mapping[str, Any]], Any]] = None,
) -> ComponentCodec:
    """Register a component model class for spec round-tripping.

    ``to_payload``/``from_payload`` default to the dataclass identity
    (``dataclasses.asdict`` / ``cls(**payload)``); models that are not
    plain dataclasses must provide both.
    """
    _builtins()
    return _register(kind, cls, slot, to_payload, from_payload)


def _register(
    kind: str,
    cls: type,
    slot: str,
    to_payload: Optional[Callable[[Any], Dict[str, Any]]] = None,
    from_payload: Optional[Callable[[Mapping[str, Any]], Any]] = None,
) -> ComponentCodec:
    if slot not in COMPONENT_SLOTS:
        raise ConfigurationError(
            f"slot must be one of {COMPONENT_SLOTS}, got {slot!r}"
        )
    if kind in _BY_KIND:
        raise ConfigurationError(f"component kind {kind!r} is already registered")
    if cls in _BY_CLASS:
        raise ConfigurationError(
            f"component class {cls.__name__} is already registered "
            f"as {_BY_CLASS[cls].kind!r}"
        )
    if to_payload is None or from_payload is None:
        if not dataclasses.is_dataclass(cls):
            raise ConfigurationError(
                f"{cls.__name__} is not a dataclass; provide explicit "
                "to_payload/from_payload callables"
            )
        to_payload = to_payload or dataclasses.asdict
        from_payload = from_payload or (lambda payload: cls(**payload))
    codec = ComponentCodec(
        kind=kind, cls=cls, slot=slot,
        to_payload=to_payload, from_payload=from_payload,
    )
    _BY_KIND[kind] = codec
    _BY_CLASS[cls] = codec
    return codec


def unregister_component(kind: str) -> None:
    """Remove a registration (primarily for tests and plugin teardown)."""
    _builtins()
    codec = _BY_KIND.pop(kind, None)
    if codec is None:
        raise ConfigurationError(f"component kind {kind!r} is not registered")
    _BY_CLASS.pop(codec.cls, None)


def registered_components() -> Tuple[ComponentCodec, ...]:
    """All registered codecs, in registration order."""
    _builtins()
    return tuple(_BY_KIND.values())


def is_registered(cls: type) -> bool:
    """Whether a component class has a codec (exact type match)."""
    _builtins()
    return cls in _BY_CLASS


def codec_for(model: Any) -> ComponentCodec:
    """Codec of a component instance; raises for unregistered types."""
    _builtins()
    codec = _BY_CLASS.get(type(model))
    if codec is None:
        raise ConfigurationError(
            f"no registered machine-component codec for "
            f"{type(model).__name__}; register it with "
            "repro.machines.register_component(kind, cls, slot) so specs "
            "can rebuild it in worker processes and config files"
        )
    return codec


def component_to_spec(model: Any) -> Dict[str, Any]:
    """Serialize one component instance to its JSON-ready spec dict."""
    codec = codec_for(model)
    return {"kind": codec.kind, "params": codec.to_payload(model)}


def component_from_spec(data: Mapping[str, Any]) -> Any:
    """Rebuild a component instance from a spec dict."""
    _builtins()
    try:
        kind = data["kind"]
    except KeyError:
        raise ConfigurationError(
            f"component spec is missing its 'kind' key: {dict(data)!r}"
        ) from None
    codec = _BY_KIND.get(kind)
    if codec is None:
        raise ConfigurationError(
            f"unknown component kind {kind!r}; registered kinds: "
            f"{sorted(_BY_KIND)}"
        )
    return codec.from_payload(dict(data.get("params", {})))


def clone_component(model: Any) -> Any:
    """A fresh, equal copy of a component via its codec round-trip.

    Immutable models come back as equal instances; mutable ones (the
    fault injector) come back with their own state, which is what
    per-machine rebuilds require.
    """
    codec = codec_for(model)
    return codec.from_payload(codec.to_payload(model))


# -- built-in registrations ------------------------------------------------

@functools.lru_cache(maxsize=None)
def _builtins() -> None:
    """Register the built-in codecs, once, the first time any public
    function here runs."""
    from ..faults.injection import FaultInjector, Injection
    from ..faults.models import FunctionalUnit
    from ..hardware.dynamics import (
        AdaptiveClockingUnit,
        AgingModel,
        RollbackUnit,
        SupplyDroopModel,
        TemperatureSensitivity,
    )

    _register("supply_droop", SupplyDroopModel, slot="droop_model")
    _register("adaptive_clocking", AdaptiveClockingUnit, slot="adaptive_clock")
    _register(
        "temperature_sensitivity", TemperatureSensitivity,
        slot="temperature_sensitivity",
    )
    _register("aging", AgingModel, slot="aging_model")
    _register("rollback", RollbackUnit, slot="rollback_unit")

    def injector_payload(injector: FaultInjector) -> Dict[str, Any]:
        return {
            "injections": [
                {
                    "unit": injection.unit.name,
                    "bit_positions": list(injection.bit_positions),
                    "run_index": injection.run_index,
                }
                for injection in injector.pending()
            ]
        }

    def injector_from_payload(payload: Mapping[str, Any]) -> FaultInjector:
        return FaultInjector(
            Injection(
                unit=FunctionalUnit[entry["unit"]],
                bit_positions=tuple(entry["bit_positions"]),
                run_index=entry.get("run_index"),
            )
            for entry in payload.get("injections", ())
        )

    _register(
        "fault_injector", FaultInjector, slot="injector",
        to_payload=injector_payload, from_payload=injector_from_payload,
    )
