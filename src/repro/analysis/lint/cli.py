"""The ``reprolint`` command line.

Reached two ways -- ``repro lint ...`` (subcommand of the main CLI)
and ``python -m repro.analysis ...`` (standalone, usable before the
package is installed).  Exit codes follow the classic linter contract:

* ``0`` -- every checked file is clean;
* ``1`` -- findings were reported;
* ``2`` -- usage error (unknown path, bad flags).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from ...errors import ConfigurationError

#: Default lint targets when none are given, filtered to what exists.
DEFAULT_PATHS = ("src", "tests", "examples")

#: Default location of the incremental result cache.
DEFAULT_CACHE_PATH = ".reprolint_cache.json"


def build_lint_parser(
    parser: Optional[argparse.ArgumentParser] = None,
) -> argparse.ArgumentParser:
    """Build (or extend) the argument parser of the lint CLI."""
    if parser is None:
        parser = argparse.ArgumentParser(
            prog="reprolint",
            description="AST-based checker for the repo's "
                        "invariants (docs/linting.md lists the rules).",
        )
    parser.add_argument(
        "paths", nargs="*", metavar="PATH",
        help="files or directories to lint (default: src tests examples)",
    )
    parser.add_argument(
        "--stats", action="store_true",
        help="print per-rule finding counts and the analysis wall time",
    )
    parser.add_argument(
        "--cache", default=DEFAULT_CACHE_PATH, metavar="FILE",
        help="incremental result cache location "
             f"(default: {DEFAULT_CACHE_PATH})",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="analyze every file fresh; neither read nor write the cache",
    )
    return parser


def run_lint(args: argparse.Namespace) -> int:
    """Execute a parsed lint invocation; returns the exit code."""
    from .runner import lint_paths

    paths: List[str] = list(args.paths)
    if not paths:
        paths = [p for p in DEFAULT_PATHS if Path(p).exists()]
        if not paths:
            print("error: no PATH given and no default target "
                  "(src/tests/examples) exists here", file=sys.stderr)
            return 2
    cache_path = None if args.no_cache else args.cache
    try:
        report = lint_paths(paths, cache_path=cache_path)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(report.render_text())
    if args.stats:
        print(report.render_stats())
    return 0 if report.clean else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Standalone entry point (``python -m repro.analysis``)."""
    parser = build_lint_parser()
    args = parser.parse_args(argv)
    return run_lint(args)
