"""``reprolint`` -- the repo's AST-based invariant checker.

The characterization methodology only holds if every run is
bit-reproducible: the same (workload, core, voltage, seed) must always
classify into the same Table-3 effect class and severity must always
use the Table-4 weights.  After the parallel engine (SeedSequence
determinism) and the machine protocol (no concrete-machine coupling
outside :mod:`repro.hardware`), those invariants are load-bearing --
this package machine-checks them on every commit.

* :mod:`repro.analysis.lint.registry` -- the rule base class, registry and
  per-file analysis context (import resolution, module scoping).
* :mod:`repro.analysis.lint.rules` -- the RPR001-RPR010 rules.
* :mod:`repro.analysis.lint.suppressions` -- per-line
  ``# reprolint: disable=RPR00x -- why`` comments (a justification is
  mandatory; unjustified and stale suppressions are themselves
  findings).
* :mod:`repro.analysis.lint.cache` -- the incremental per-file result
  cache keyed on content SHA-256.
* :mod:`repro.analysis.lint.runner` -- file discovery, per-file
  analysis and aggregation.
* :mod:`repro.analysis.lint.cli` -- the ``repro lint`` /
  ``python -m repro.analysis`` entry points.
"""

from typing import TYPE_CHECKING

from ..._lazy import lazy_exports

if TYPE_CHECKING:
    from .diagnostics import Diagnostic
    from .registry import FileContext, Rule, all_rules, register_rule
    from .runner import LintReport, lint_paths, lint_source

__getattr__, __dir__ = lazy_exports(__name__, {
    ".diagnostics": ("Diagnostic",),
    ".registry": ("FileContext", "Rule", "all_rules", "register_rule"),
    ".runner": ("LintReport", "lint_paths", "lint_source"),
})

__all__ = [
    "Diagnostic",
    "FileContext",
    "LintReport",
    "Rule",
    "all_rules",
    "lint_paths",
    "lint_source",
    "register_rule",
]
