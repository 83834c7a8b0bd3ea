"""Analysis & regeneration of every table and figure in the paper.

* :mod:`repro.analysis.variation` -- core-to-core / chip-to-chip /
  workload-to-workload variation statistics (Section 3.3).
* :mod:`repro.analysis.tables` -- Tables 1-4 as data + text rendering.
* :mod:`repro.analysis.figures` -- Figures 3, 4, 5, 7, 8, 9 as data
  series, from either the calibration anchors (instant) or measured
  characterization results.
* :mod:`repro.analysis.ascii_plots` -- terminal rendering.
* :mod:`repro.analysis.report` -- paper-vs-measured comparison report.
* :mod:`repro.analysis.lint` -- ``reprolint``, the AST-based checker
  of the repo's determinism / unit-safety / machine-protocol
  invariants (``repro lint`` or ``python -m repro.analysis``).
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .variation import (
        VariationSummary,
        chip_to_chip_summary,
        core_to_core_spread,
        workload_ordering_consistency,
    )
    from .tables import table1_prior_work, table2_parameters, table3_effects, table4_weights
    from .figures import (
        figure3_vmin_series,
        figure4_region_grid,
        figure5_severity_map,
        figure7_prediction_series,
        figure9_series,
    )
    from .ascii_plots import bar_chart, heatmap, scatter
    from .error_locations import LocationProfile, location_profiles, onset_table
    from .export import FigureExporter
    from .lint import Diagnostic, LintReport, lint_paths, lint_source
    from .report import PAPER_CLAIMS, ClaimCheck, check_claims

__getattr__, __dir__ = lazy_exports(__name__, {
    ".variation": (
        "VariationSummary", "chip_to_chip_summary", "core_to_core_spread",
        "workload_ordering_consistency",
    ),
    ".tables": (
        "table1_prior_work", "table2_parameters", "table3_effects",
        "table4_weights",
    ),
    ".figures": (
        "figure3_vmin_series", "figure4_region_grid", "figure5_severity_map",
        "figure7_prediction_series", "figure9_series",
    ),
    ".ascii_plots": ("bar_chart", "heatmap", "scatter"),
    ".error_locations": (
        "LocationProfile", "location_profiles", "onset_table",
    ),
    ".export": ("FigureExporter",),
    ".lint": ("Diagnostic", "LintReport", "lint_paths", "lint_source"),
    ".report": ("PAPER_CLAIMS", "ClaimCheck", "check_claims"),
})

__all__ = [
    "VariationSummary",
    "chip_to_chip_summary",
    "core_to_core_spread",
    "workload_ordering_consistency",
    "table1_prior_work",
    "table2_parameters",
    "table3_effects",
    "table4_weights",
    "figure3_vmin_series",
    "figure4_region_grid",
    "figure5_severity_map",
    "figure7_prediction_series",
    "figure9_series",
    "bar_chart",
    "heatmap",
    "scatter",
    "FigureExporter",
    "LocationProfile",
    "location_profiles",
    "onset_table",
    "PAPER_CLAIMS",
    "ClaimCheck",
    "check_claims",
    "Diagnostic",
    "LintReport",
    "lint_paths",
    "lint_source",
]
