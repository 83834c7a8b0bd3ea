"""Per-line ``# reprolint: disable=...`` suppression comments.

Syntax::

    x = risky()  # reprolint: disable=RPR001 -- seeded upstream by the engine

* The rule list is comma-separated (``disable=RPR001,RPR004``).
* The ``-- justification`` tail is **mandatory**: the repo policy is
  "no blanket suppressions", so a suppression without a reason is
  itself reported (as :data:`~repro.analysis.lint.diagnostics.META_RULE_ID`).
* A trailing comment suppresses findings on its own line; a comment
  alone on a line suppresses findings on the next line (useful ahead
  of long statements).

There is deliberately no file-level or block-level disable.  And a
suppression must *earn its keep*: the runner records which entries
actually shielded a diagnostic, and a ``disable=`` clause that
suppressed nothing is itself reported -- stale suppressions hide
future regressions behind dead comments.
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Set, Tuple

from .diagnostics import META_RULE_ID, Diagnostic

_SUPPRESS_RE = re.compile(
    r"#\s*reprolint:\s*disable=([A-Z0-9, ]+?)\s*(?:--\s*(.*?)\s*)?$"
)
_RULE_ID_RE = re.compile(r"^RPR\d{3}$")


@dataclass(frozen=True)
class SuppressionEntry:
    """One well-formed ``disable=`` clause and the line it shields."""

    comment_line: int
    col: int
    target_line: int
    rules: Tuple[str, ...]

    def to_json_dict(self) -> List[Any]:
        return [self.comment_line, self.col, self.target_line,
                list(self.rules)]

    @classmethod
    def from_json_dict(cls, payload: List[Any]) -> "SuppressionEntry":
        return cls(comment_line=payload[0], col=payload[1],
                   target_line=payload[2], rules=tuple(payload[3]))


@dataclass
class SuppressionTable:
    """Which rules are suppressed on which physical lines of one file."""

    #: line number -> rule ids suppressed there.
    by_line: Dict[int, Set[str]] = field(default_factory=dict)
    #: the well-formed clauses, for stale-suppression accounting.
    entries: List[SuppressionEntry] = field(default_factory=list)
    #: integrity problems found while parsing the comments.
    problems: List[Diagnostic] = field(default_factory=list)

    def is_suppressed(self, line: int, rule: str) -> bool:
        return rule in self.by_line.get(line, set())

    def add_entry(self, entry: SuppressionEntry) -> None:
        self.entries.append(entry)
        self.by_line.setdefault(entry.target_line, set()).update(entry.rules)

    @classmethod
    def from_parts(
        cls,
        entries: Iterable[SuppressionEntry],
        problems: Iterable[Diagnostic],
    ) -> "SuppressionTable":
        """Rebuild a table from cached entries and problems."""
        table = cls(problems=list(problems))
        for entry in entries:
            table.add_entry(entry)
        return table


def _comment_tokens(source: str) -> List[Tuple[int, int, str, str]]:
    """(line, col, comment_text, line_text) for every comment token."""
    comments = []
    lines = source.splitlines()
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for token in tokens:
            if token.type == tokenize.COMMENT:
                row, col = token.start
                line_text = lines[row - 1] if row - 1 < len(lines) else ""
                comments.append((row, col, token.string, line_text))
    except (tokenize.TokenError, IndentationError):
        # The AST parse reports syntax errors; nothing more to add here.
        pass
    return comments


def scan_suppressions(path: str, source: str) -> SuppressionTable:
    """Build the suppression table of one file.

    Malformed rule lists and missing justifications become
    :data:`META_RULE_ID` problems instead of silently (not) applying.
    """
    table = SuppressionTable()
    for row, col, comment, line_text in _comment_tokens(source):
        if "reprolint:" not in comment:
            continue
        match = _SUPPRESS_RE.search(comment)
        if match is None:
            table.problems.append(Diagnostic(
                path=path, line=row, col=col + 1, rule=META_RULE_ID,
                name="malformed-suppression",
                message="cannot parse reprolint comment; expected "
                        "'# reprolint: disable=RPR00x -- justification'",
            ))
            continue
        rule_ids = [r.strip() for r in match.group(1).split(",") if r.strip()]
        justification = match.group(2)
        bad = [r for r in rule_ids if not _RULE_ID_RE.match(r)]
        if bad or not rule_ids:
            table.problems.append(Diagnostic(
                path=path, line=row, col=col + 1, rule=META_RULE_ID,
                name="malformed-suppression",
                message=f"unknown rule id(s) {bad or ['<empty>']} in "
                        "reprolint suppression",
            ))
            continue
        if META_RULE_ID in rule_ids:
            table.problems.append(Diagnostic(
                path=path, line=row, col=col + 1, rule=META_RULE_ID,
                name="unsuppressible-rule",
                message=f"{META_RULE_ID} (lint integrity) cannot be "
                        "suppressed",
            ))
            continue
        if not justification:
            table.problems.append(Diagnostic(
                path=path, line=row, col=col + 1, rule=META_RULE_ID,
                name="unjustified-suppression",
                message="suppression needs a justification: "
                        "'# reprolint: disable="
                        + ",".join(rule_ids) + " -- <why this is safe>'",
            ))
            continue
        # A comment alone on its line shields the next line; a trailing
        # comment shields its own.
        standalone = line_text[:col].strip() == ""
        target = row + 1 if standalone else row
        table.add_entry(SuppressionEntry(
            comment_line=row, col=col + 1, target_line=target,
            rules=tuple(rule_ids),
        ))
    return table
