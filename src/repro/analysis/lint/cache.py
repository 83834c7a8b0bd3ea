"""The incremental result cache (``.reprolint_cache.json``).

One :class:`FileAnalysis` is everything a lint run learns from one
file: its rule findings and its suppression table.  Every rule checks
one file at a time, so all of it is derived from the file's path and
bytes alone: a record is reused while the file at that path keeps the
content SHA-256 it was analyzed with, and an edit re-analyzes only the
edited file.

The cache file carries a fingerprint over the schema version and the
registered rule inventory: adding, removing or renaming a rule
invalidates everything.  Writes go through
:func:`repro.durable.atomic_write`, so an interrupted run never leaves
a torn cache, and any unreadable or mismatched cache is silently
treated as empty -- the cache is an optimization, never a source of
truth.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Sequence, Tuple

from ...durable import atomic_write
from .diagnostics import Diagnostic
from .registry import Rule
from .suppressions import SuppressionEntry

#: Bump when the cached record shape changes.
CACHE_SCHEMA = 2


def content_sha(source: str) -> str:
    """The cache key of one file's content."""
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


def rule_fingerprint(rules: Sequence[Rule]) -> str:
    """Fingerprint of the rule inventory a cache was built with."""
    payload = json.dumps(
        [CACHE_SCHEMA] + sorted(r.rule_id for r in rules)
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass
class FileAnalysis:
    """The cacheable result of analyzing one file."""

    path: str
    sha: str
    #: Per-file rule findings, *before* suppression filtering (the
    #: assembly step applies suppressions so it can track which
    #: entries earned their keep).
    findings: List[Diagnostic] = field(default_factory=list)
    supp_entries: List[SuppressionEntry] = field(default_factory=list)
    supp_problems: List[Diagnostic] = field(default_factory=list)

    def to_json_dict(self) -> Dict[str, Any]:
        return {
            "path": self.path,
            "sha": self.sha,
            "findings": [d.to_json_dict() for d in self.findings],
            "supp_entries": [e.to_json_dict() for e in self.supp_entries],
            "supp_problems": [d.to_json_dict() for d in self.supp_problems],
        }

    @classmethod
    def from_json_dict(cls, payload: Dict[str, Any]) -> "FileAnalysis":
        return cls(
            path=payload["path"],
            sha=payload["sha"],
            findings=[
                Diagnostic.from_json_dict(d) for d in payload["findings"]
            ],
            supp_entries=[
                SuppressionEntry.from_json_dict(e)
                for e in payload["supp_entries"]
            ],
            supp_problems=[
                Diagnostic.from_json_dict(d) for d in payload["supp_problems"]
            ],
        )


def load_cache(
    path: Path, fingerprint: str
) -> Tuple[Dict[str, FileAnalysis], bool]:
    """(cached entries by path label, cache-was-usable).

    Any unreadable, unparsable or fingerprint-mismatched cache loads
    as empty: the next run rebuilds and overwrites it.
    """
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError):
        return {}, False
    if not isinstance(payload, dict) or \
            payload.get("schema") != CACHE_SCHEMA or \
            payload.get("fingerprint") != fingerprint:
        return {}, False
    entries: Dict[str, FileAnalysis] = {}
    try:
        for key, entry in payload.get("files", {}).items():
            entries[key] = FileAnalysis.from_json_dict(entry)
    except (KeyError, TypeError, IndexError, AttributeError):
        return {}, False
    return entries, True


def save_cache(
    path: Path, fingerprint: str, entries: Dict[str, FileAnalysis]
) -> None:
    """Atomically persist the cache; failures are non-fatal silence."""
    payload = {
        "schema": CACHE_SCHEMA,
        "fingerprint": fingerprint,
        "files": {
            key: entry.to_json_dict()
            for key, entry in sorted(entries.items())
        },
    }
    try:
        atomic_write(path, json.dumps(payload, separators=(",", ":")))
    except OSError:
        pass
