"""Diagnostic records and their text/JSON renderings."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict

#: Rule id of the linter's own integrity findings (syntax errors,
#: malformed or unjustified suppression comments).  Deliberately not
#: suppressible: a broken suppression must never hide itself.
META_RULE_ID = "RPR000"


@dataclass(frozen=True, order=True)
class Diagnostic:
    """One finding: file/line/column-precise, tied to a rule.

    Ordering is (path, line, col, rule) so reports are stable and
    diffable across runs regardless of rule execution order.
    """

    path: str
    line: int
    col: int
    rule: str
    name: str
    message: str

    def render(self) -> str:
        """The one-line ``path:line:col: RPR00x [name] message`` form."""
        return (
            f"{self.path}:{self.line}:{self.col}: "
            f"{self.rule} [{self.name}] {self.message}"
        )

    def to_json_dict(self) -> Dict[str, Any]:
        """Plain-dict form (the result-cache format)."""
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "name": self.name,
            "message": self.message,
        }

    @classmethod
    def from_json_dict(cls, payload: Dict[str, Any]) -> "Diagnostic":
        """Inverse of :meth:`to_json_dict`."""
        return cls(
            path=payload["path"], line=payload["line"], col=payload["col"],
            rule=payload["rule"], name=payload["name"],
            message=payload["message"],
        )
