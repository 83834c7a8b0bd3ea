"""``reprolint`` -- the repo's AST- and dataflow-based invariant checker.

The characterization methodology only holds if every run is
bit-reproducible: the same (workload, core, voltage, seed) must always
classify into the same Table-3 effect class and severity must always
use the Table-4 weights.  After the parallel engine (SeedSequence
determinism) and the machine protocol (no concrete-machine coupling
outside :mod:`repro.hardware`), those invariants are load-bearing --
this package machine-checks them on every commit.

* :mod:`repro.analysis.lint.registry` -- rule base classes, registry and
  per-file analysis context (import resolution, module scoping).
* :mod:`repro.analysis.lint.rules` -- the per-file RPR001-RPR010 rules.
* :mod:`repro.analysis.lint.project` -- the whole-program project
  model: module/import graph, symbol table, call graph.
* :mod:`repro.analysis.lint.dataflow` -- per-function dataflow
  summaries (seed taint, mV/V unit tags, shared-state writes) and
  their whole-program fixed point.
* :mod:`repro.analysis.lint.interproc` -- the interprocedural
  RPR011-RPR013 rules built on the two modules above.
* :mod:`repro.analysis.lint.suppressions` -- per-line
  ``# reprolint: disable=RPR00x -- why`` comments (a justification is
  mandatory; unjustified and stale suppressions are themselves
  findings).
* :mod:`repro.analysis.lint.cache` -- the incremental result cache
  keyed on content SHA-256 with reverse-dependency-cone invalidation.
* :mod:`repro.analysis.lint.sarif` -- SARIF 2.1.0 rendering for
  GitHub code scanning.
* :mod:`repro.analysis.lint.runner` -- file discovery, the
  parse/graph/dataflow pipeline and aggregation.
* :mod:`repro.analysis.lint.cli` -- the ``repro lint`` /
  ``python -m repro.analysis`` entry points.
"""

from typing import TYPE_CHECKING

from ..._lazy import lazy_exports

if TYPE_CHECKING:
    from .diagnostics import Diagnostic
    from .project import ModuleModel, ProjectModel, build_module_model
    from .registry import (
        FileContext,
        ProjectRule,
        Rule,
        all_rules,
        get_rule,
        register_rule,
    )
    from .runner import LintReport, lint_paths, lint_source
    from .sarif import render_sarif

__getattr__, __dir__ = lazy_exports(__name__, {
    ".diagnostics": ("Diagnostic",),
    ".project": ("ModuleModel", "ProjectModel", "build_module_model"),
    ".registry": (
        "FileContext", "ProjectRule", "Rule", "all_rules", "get_rule",
        "register_rule",
    ),
    ".runner": ("LintReport", "lint_paths", "lint_source"),
    ".sarif": ("render_sarif",),
})

__all__ = [
    "Diagnostic",
    "FileContext",
    "LintReport",
    "ModuleModel",
    "ProjectModel",
    "ProjectRule",
    "Rule",
    "all_rules",
    "build_module_model",
    "get_rule",
    "lint_paths",
    "lint_source",
    "register_rule",
    "render_sarif",
]
