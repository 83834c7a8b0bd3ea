"""Rule registry and the per-file analysis context.

A rule is a class with a stable ``rule_id`` (``RPR00x``), a short
``name`` and a ``check(ctx)`` generator that yields
:class:`~repro.analysis.lint.diagnostics.Diagnostic` records.
Registration is declarative::

    @register_rule
    class MyRule(Rule):
        rule_id = "RPR042"
        name = "my-invariant"

        def check(self, ctx):
            ...

:class:`FileContext` carries everything a rule needs about one file:
the parsed tree, the dotted module name (for files under ``src/repro``)
and an import-alias table that resolves ``np.random.default_rng``-style
attribute chains back to absolute dotted paths -- including relative
imports, which resolve against the file's package.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple, Type

from ...errors import ConfigurationError
from .diagnostics import Diagnostic


@dataclass
class FileContext:
    """One file under analysis."""

    #: Path as reported in diagnostics (as given on the command line).
    path: str
    source: str
    tree: ast.Module
    #: Dotted module name for files under ``src/repro`` (e.g.
    #: ``repro.scheduling.simulation``); None for tests/examples/etc.
    module: Optional[str] = None
    #: name -> absolute dotted path bound by an import statement.
    imports: Dict[str, str] = field(default_factory=dict)

    @property
    def package(self) -> Optional[str]:
        """The package relative imports resolve against."""
        if self.module is None:
            return None
        if self.path.endswith("__init__.py"):
            return self.module
        return self.module.rsplit(".", 1)[0] if "." in self.module else ""

    @property
    def path_parts(self) -> Tuple[str, ...]:
        return tuple(self.path.replace("\\", "/").split("/"))

    def in_dirs(self, *names: str) -> bool:
        """True when any directory segment of the path is in ``names``."""
        return any(part in names for part in self.path_parts[:-1])

    # -- import resolution -------------------------------------------------

    def _resolve_relative(self, node: ast.ImportFrom) -> Optional[str]:
        if self.package is None:
            return None
        parts = self.package.split(".") if self.package else []
        if node.level - 1 > len(parts):
            return None
        base = parts[: len(parts) - (node.level - 1)]
        if node.module:
            base = base + node.module.split(".")
        return ".".join(base) or None

    def import_target(self, node: ast.ImportFrom) -> Optional[str]:
        """Absolute dotted module an ``ImportFrom`` pulls from."""
        if node.level == 0:
            return node.module
        return self._resolve_relative(node)

    def build_import_table(self) -> None:
        """Map every import-bound name to its absolute dotted path."""
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else alias.name.split(".")[0]
                    self.imports[bound] = target
            elif isinstance(node, ast.ImportFrom):
                target = self.import_target(node)
                if target is None:
                    continue
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    bound = alias.asname or alias.name
                    self.imports[bound] = f"{target}.{alias.name}"

    def resolve(self, node: ast.AST) -> Optional[str]:
        """Absolute dotted path of a ``Name``/``Attribute`` chain.

        ``np.random.default_rng`` resolves to
        ``numpy.random.default_rng`` when ``np`` was imported as numpy;
        chains whose base is not an imported name resolve to None (so
        ``rng.shuffle(...)`` on a Generator is never mistaken for the
        module-level ``numpy.random.shuffle``).
        """
        chain: List[str] = []
        while isinstance(node, ast.Attribute):
            chain.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        base = self.imports.get(node.id)
        if base is None:
            return None
        return ".".join([base] + list(reversed(chain)))


class Rule:
    """Base class for reprolint rules."""

    rule_id: str = ""
    name: str = ""

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        raise NotImplementedError

    def diagnostic(
        self, ctx: FileContext, node: ast.AST, message: str
    ) -> Diagnostic:
        return Diagnostic(
            path=ctx.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            rule=self.rule_id,
            name=self.name,
            message=message,
        )


_REGISTRY: Dict[str, Type[Rule]] = {}


def register_rule(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the global registry."""
    if not cls.rule_id or not cls.name:
        raise ConfigurationError(
            f"rule {cls.__name__} must define rule_id and name"
        )
    if cls.rule_id in _REGISTRY:
        raise ConfigurationError(
            f"duplicate rule id {cls.rule_id} "
            f"({cls.__name__} vs {_REGISTRY[cls.rule_id].__name__})"
        )
    _REGISTRY[cls.rule_id] = cls
    return cls


def _load_builtin_rules() -> None:
    """Import the module whose ``@register_rule`` classes are the
    built-in rules (RPR001-RPR010)."""
    from . import rules  # noqa: F401


def all_rules() -> List[Rule]:
    """Instances of every registered rule, ordered by id."""
    _load_builtin_rules()
    return [_REGISTRY[rule_id]() for rule_id in sorted(_REGISTRY)]

