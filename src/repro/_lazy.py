"""Lazy package exports (PEP 562).

A package that re-exports names from its submodules hands this helper
a ``{submodule: names}`` map instead of importing every submodule up
front::

    __getattr__, __dir__ = lazy_exports(__name__, {
        ".tracing": ("Tracer", "TraceWriter"),
    })

``import repro.telemetry`` then costs the package file alone; the first
``repro.telemetry.Tracer`` imports ``repro.telemetry.tracing`` and
caches the name in the package namespace, so later lookups never come
back here.  Packages keep an ``if TYPE_CHECKING:`` block with the same
imports so static checkers still see every exported name.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, List, Mapping, Sequence, Tuple


def lazy_exports(
    package: str, exports: Mapping[str, Sequence[str]]
) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """Module ``__getattr__`` and ``__dir__`` for ``package``.

    ``exports`` maps a submodule (relative to ``package``, e.g.
    ``".tracing"`` or ``"..errors"``) to the names it provides.
    """
    origin = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> Any:
        try:
            module = origin[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = getattr(importlib.import_module(module, package), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(origin))

    return __getattr__, __dir__
