"""File discovery, per-file analysis and aggregation.

Every rule checks one file at a time.  A lint run reads and hashes
each requested file, serves it from the cache
(:mod:`repro.analysis.lint.cache`) when the record stored for that
path has the same content SHA-256, and otherwise parses it, runs the
rules and scans its suppression comments (:func:`analyze_file`).  The
findings are then suppression-filtered, and suppressions that
shielded nothing are reported as stale.  ``--stats`` reports the wall
time of this ``parse`` phase.
"""

from __future__ import annotations

import ast
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ...errors import ConfigurationError
from .cache import FileAnalysis, content_sha, load_cache, rule_fingerprint, save_cache
from .diagnostics import META_RULE_ID, Diagnostic
from .registry import FileContext, Rule, all_rules
from .suppressions import SuppressionTable, scan_suppressions

#: Directory names never descended into.
_SKIP_DIRS = frozenset({
    "__pycache__", ".git", ".hg", ".tox", ".venv", "venv",
    "build", "dist", ".eggs", "node_modules",
})

@dataclass
class LintReport:
    """Everything one lint run produced."""

    diagnostics: List[Diagnostic] = field(default_factory=list)
    files_checked: int = 0
    #: Files analyzed fresh this run vs. served from the cache.
    files_analyzed: int = 0
    files_cached: int = 0
    #: Phase wall time in seconds (``parse``).
    timings: Dict[str, float] = field(default_factory=dict)

    @property
    def clean(self) -> bool:
        return not self.diagnostics

    def counts_by_rule(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for diagnostic in self.diagnostics:
            counts[diagnostic.rule] = counts.get(diagnostic.rule, 0) + 1
        return dict(sorted(counts.items()))

    def render_text(self) -> str:
        lines = [d.render() for d in self.diagnostics]
        summary = (
            f"{len(self.diagnostics)} finding(s) in "
            f"{self.files_checked} file(s)"
        )
        if self.diagnostics:
            per_rule = ", ".join(
                f"{rule}: {count}"
                for rule, count in self.counts_by_rule().items()
            )
            summary += f" ({per_rule})"
        return "\n".join(lines + [summary])

    def render_stats(self) -> str:
        """The ``--stats`` block: per-rule counts and phase wall time."""
        lines = [
            f"files checked: {self.files_checked}",
            f"files analyzed: {self.files_analyzed}",
            f"files cached: {self.files_cached}",
        ]
        counts = self.counts_by_rule()
        if counts:
            lines.append("findings by rule:")
            lines.extend(
                f"  {rule}: {count}" for rule, count in counts.items()
            )
        else:
            lines.append("findings by rule: none")
        lines.append("phase wall time:")
        lines.append(f"  parse: {self.timings.get('parse', 0.0) * 1000.0:.1f} ms")
        return "\n".join(lines)


def module_name_for(path: Path) -> Optional[str]:
    """Dotted module name for files under a ``repro`` package tree.

    Works for both the in-repo ``src/repro/...`` layout and an
    installed ``.../site-packages/repro/...`` layout; returns None for
    tests, examples and scripts outside the package.
    """
    parts = list(path.parts)
    for index, part in enumerate(parts[:-1]):
        if part == "repro" and (index == 0 or parts[index - 1] != "tests"):
            dotted = parts[index:-1] + [path.stem]
            if path.stem == "__init__":
                dotted = parts[index:-1]
            return ".".join(dotted)
    return None


def _make_context(path_label: str, source: str) -> FileContext:
    tree = ast.parse(source, filename=path_label)
    ctx = FileContext(
        path=path_label,
        source=source,
        tree=tree,
        module=module_name_for(Path(path_label)),
    )
    ctx.build_import_table()
    return ctx


def analyze_file(
    path_label: str, source: str, rules: Sequence[Rule]
) -> FileAnalysis:
    """Analyze one file: the cacheable unit of work.

    Runs the rules and scans suppressions.  Findings are recorded
    *before* suppression filtering -- assembly applies suppressions so
    it can tell which ones earned their keep.
    """
    sha = content_sha(source)
    try:
        ctx = _make_context(path_label, source)
    except SyntaxError as exc:
        return FileAnalysis(
            path=path_label, sha=sha,
            findings=[Diagnostic(
                path=path_label, line=exc.lineno or 1,
                col=(exc.offset or 0) + 1 or 1,
                rule=META_RULE_ID, name="syntax-error",
                message=f"cannot parse file: {exc.msg}",
            )],
        )
    table = scan_suppressions(path_label, source)
    findings: List[Diagnostic] = []
    for rule in rules:
        findings.extend(rule.check(ctx))
    return FileAnalysis(
        path=path_label, sha=sha,
        findings=sorted(findings),
        supp_entries=list(table.entries),
        supp_problems=list(table.problems),
    )


def _stale_suppression_findings(
    analysis: FileAnalysis, hits: Set[Tuple[int, str]]
) -> List[Diagnostic]:
    """RPR000 findings for ``disable=`` clauses that shielded nothing."""
    stale: List[Diagnostic] = []
    for entry in analysis.supp_entries:
        for rule_id in entry.rules:
            if (entry.target_line, rule_id) in hits:
                continue
            stale.append(Diagnostic(
                path=analysis.path, line=entry.comment_line, col=entry.col,
                rule=META_RULE_ID, name="stale-suppression",
                message=(
                    f"suppression of {rule_id} matched no diagnostic on "
                    f"line {entry.target_line}; remove it (stale "
                    "suppressions hide future regressions)"
                ),
            ))
    return stale


def _relabel(analysis: FileAnalysis, label: str) -> FileAnalysis:
    """The analysis with every path field rewritten to ``label``.

    Cache records are stored under resolved paths but a run may request
    the same file under a different spelling (relative vs. absolute);
    findings must carry the requested spelling.
    """
    if analysis.path == label:
        return analysis
    return replace(
        analysis,
        path=label,
        findings=[replace(d, path=label) for d in analysis.findings],
        supp_problems=[
            replace(d, path=label) for d in analysis.supp_problems
        ],
    )


def _assemble_file(
    analysis: FileAnalysis, stale_check: bool
) -> List[Diagnostic]:
    """Suppression-filter one file's findings; report stale clauses."""
    table = SuppressionTable.from_parts(
        analysis.supp_entries, analysis.supp_problems
    )
    out: List[Diagnostic] = list(analysis.supp_problems)
    hits: Set[Tuple[int, str]] = set()
    for diagnostic in analysis.findings:
        if table.is_suppressed(diagnostic.line, diagnostic.rule):
            hits.add((diagnostic.line, diagnostic.rule))
        else:
            out.append(diagnostic)
    if stale_check:
        out.extend(_stale_suppression_findings(analysis, hits))
    return out


def lint_source(
    source: str,
    path: str = "<string>",
    stale_check: bool = False,
) -> List[Diagnostic]:
    """Lint one source string; the unit-test/fixture entry point.

    ``path`` participates in scoping (e.g. ``src/repro/core/x.py``
    puts the snippet inside the package boundary), so fixtures can
    exercise both sides of every rule.  ``stale_check`` is off by
    default here -- fixtures routinely carry suppressions for rules
    they deliberately do not trigger.
    """
    analysis = analyze_file(path, source, all_rules())
    return sorted(_assemble_file(analysis, stale_check))


def discover_files(paths: Iterable[str]) -> List[Path]:
    """Expand files/directories into the ordered ``.py`` work list.

    Raises :class:`~repro.errors.ConfigurationError` for paths that do
    not exist -- a usage error, not a clean run.
    """
    files: List[Path] = []
    for raw in paths:
        path = Path(raw)
        if not path.exists():
            raise ConfigurationError(f"path does not exist: {raw}")
        if path.is_file():
            files.append(path)
            continue
        for found in sorted(path.rglob("*.py")):
            if not any(part in _SKIP_DIRS for part in found.parts):
                files.append(found)
    deduped: List[Path] = []
    seen: set = set()
    for path in files:
        key = str(path)
        if key not in seen:
            seen.add(key)
            deduped.append(path)
    return deduped


def lint_paths(
    paths: Sequence[str],
    cache_path: Optional[str] = None,
    stale_check: bool = True,
) -> LintReport:
    """Lint files and directories; the CLI entry point.

    ``cache_path`` enables the incremental cache (None disables it);
    ``stale_check`` reports suppressions that shielded nothing.
    """
    rules = all_rules()
    use_cache = cache_path is not None
    report = LintReport()

    started = time.perf_counter()
    fingerprint = rule_fingerprint(rules)
    # Records are keyed on *resolved* paths so a run that spells the
    # same file differently (relative from the repo root, absolute from
    # a hook) still matches; the caller's spelling is the display label.
    records: Dict[str, FileAnalysis] = {}
    if use_cache:
        assert cache_path is not None
        loaded, _ = load_cache(Path(cache_path), fingerprint)
        for stored_key, entry in loaded.items():
            records[str(Path(stored_key).resolve())] = entry

    seen_keys: Set[str] = set()
    for path in discover_files(paths):
        label = str(path)
        key = str(path.resolve())
        if key in seen_keys:
            continue
        seen_keys.add(key)
        try:
            source = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            report.diagnostics.append(Diagnostic(
                path=label, line=1, col=1,
                rule=META_RULE_ID, name="unreadable-file",
                message=f"cannot read file: {exc}",
            ))
            continue
        report.files_checked += 1
        old = records.get(key)
        if use_cache and old is not None and old.sha == content_sha(source):
            analysis = _relabel(old, label)
            report.files_cached += 1
        else:
            analysis = analyze_file(label, source, rules)
            records[key] = _relabel(analysis, key)
            report.files_analyzed += 1
        report.diagnostics.extend(_assemble_file(analysis, stale_check))
    report.timings["parse"] = time.perf_counter() - started

    if use_cache:
        assert cache_path is not None
        # Records of files outside this run's paths stay valid for the
        # next run that requests them (pre-commit passes only the
        # changed files); records of deleted files are dropped.
        save_cache(Path(cache_path), fingerprint, {
            key: record for key, record in records.items()
            if key in seen_keys or Path(key).exists()
        })
    report.diagnostics.sort()
    return report
