"""Figure-data export: the paper's plots as machine-readable CSVs.

Every figure regenerator in :mod:`repro.analysis.figures` returns data
series; this module writes them in the shape a plotting script (or a
spreadsheet) consumes directly -- the "artifact" version of the
reproduction.  One file per figure:

* ``figure3_vmin.csv``       -- chip, benchmark, vmin_mv
* ``figure4_regions.csv``    -- chip, benchmark, core, vmin_mv,
  crash_mv, unsafe_width_mv
* ``figure5_severity.csv``   -- voltage_mv, core, severity
* ``figure7_prediction.csv`` -- tag, observed, predicted
* ``figure9_tradeoffs.csv``  -- label, voltage_mv, perf_pct, power_pct
"""

from __future__ import annotations

import csv
import io
from pathlib import Path
from typing import Dict, Mapping, Optional, Sequence, Tuple

from ..core.campaign import CharacterizationResult
from ..data.calibration import chip_calibration
from ..durable import atomic_write
from ..energy.tradeoffs import TradeoffPoint
from ..errors import CampaignError, ConfigurationError
from ..prediction.pipeline import PredictionReport
from ..store import AnyStore, CampaignStore, open_store
from .figures import (
    figure3_vmin_series,
    figure4_region_grid,
    figure5_severity_map,
    figure7_prediction_series,
    figure9_series,
)


class FigureExporter:
    """Writes the figure data series as CSV files into one directory."""

    def __init__(self, directory: "str | Path") -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    def _write(self, filename: str, header: Sequence[str],
               rows: Sequence[Sequence[object]]) -> Path:
        path = self.directory / filename
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(header)
        writer.writerows(rows)
        atomic_write(path, buffer.getvalue())
        return path

    # -- per figure --------------------------------------------------------

    def figure3(
        self,
        measured: Optional[Mapping[Tuple[str, str], CharacterizationResult]] = None,
    ) -> Path:
        series = figure3_vmin_series(measured=measured)
        rows = [
            (chip, bench, vmin)
            for chip, per_bench in series.items()
            for bench, vmin in per_bench.items()
        ]
        return self._write(
            "figure3_vmin.csv", ("chip", "benchmark", "vmin_mv"), rows)

    def figure4(
        self,
        measured: Optional[
            Mapping[Tuple[str, str, int], CharacterizationResult]
        ] = None,
    ) -> Path:
        columns = figure4_region_grid(measured=measured)
        rows = [
            (c.chip, c.benchmark, c.core, c.vmin_mv,
             "" if c.crash_mv is None else c.crash_mv,
             "" if c.crash_mv is None else c.vmin_mv - c.crash_mv)
            for c in columns
        ]
        return self._write(
            "figure4_regions.csv",
            ("chip", "benchmark", "core", "vmin_mv", "crash_mv",
             "unsafe_width_mv"),
            rows,
        )

    def figure5(
        self, results_by_core: Mapping[int, CharacterizationResult]
    ) -> Path:
        matrix = figure5_severity_map(results_by_core)
        rows = [
            (voltage, core, f"{severity:.4f}")
            for voltage, per_core in sorted(matrix.items(), reverse=True)
            for core, severity in per_core.items()
            if severity is not None
        ]
        return self._write(
            "figure5_severity.csv", ("voltage_mv", "core", "severity"), rows)

    def figure7(self, report: PredictionReport,
                filename: str = "figure7_prediction.csv") -> Path:
        series = figure7_prediction_series(report)
        rows = [
            (tag, f"{observed:.4f}", f"{predicted:.4f}")
            for tag, observed, predicted in series
        ]
        return self._write(filename, ("sample", "observed", "predicted"), rows)

    def figure9(self, points: Optional[Sequence[TradeoffPoint]] = None) -> Path:
        points = list(points) if points is not None else figure9_series()
        if not points:
            raise ConfigurationError("figure 9 needs at least one point")
        rows = [
            (p.label, p.chip_voltage_mv,
             f"{100 * p.performance_rel:.1f}", f"{100 * p.power_rel:.1f}")
            for p in points
        ]
        return self._write(
            "figure9_tradeoffs.csv",
            ("label", "voltage_mv", "performance_pct", "power_pct"),
            rows,
        )

    # -- from a store --------------------------------------------------------

    def figure3_from_store(self, journal: CampaignStore) -> Path:
        """Figure 3 with the journaled measurements filled in.

        The figure plots each chip's *most robust* core; store cells
        for that core override the calibration anchors, every other
        (chip, benchmark) pair falls back to the model.
        """
        measured: Dict[Tuple[str, str], CharacterizationResult] = {}
        for (bench, core), result in journal.results().items():
            if core == chip_calibration(result.chip).most_robust_core():
                measured[(result.chip, bench)] = result
        return self.figure3(measured=measured)

    def figure4_from_store(self, journal: CampaignStore) -> Path:
        """Figure 4 with every journaled (chip, benchmark, core) cell."""
        measured = {
            (result.chip, bench, core): result
            for (bench, core), result in journal.results().items()
        }
        return self.figure4(measured=measured)

    def figure5_from_store(
        self,
        journal: CampaignStore,
        benchmark: Optional[str] = None,
    ) -> Path:
        """Figure 5 for one journaled benchmark across its cores.

        ``benchmark`` defaults to the first workload of the manifest
        grid (the figure shows a single benchmark's heat-map).
        """
        name = benchmark if benchmark is not None else journal.manifest.workloads[0]
        results_by_core = {
            core: result
            for (bench, core), result in journal.results().items()
            if bench == name
        }
        if not results_by_core:
            raise CampaignError(
                f"store has no completed cells for benchmark {name!r}"
            )
        return self.figure5(results_by_core)

    def export_store_figures(
        self, store: AnyStore
    ) -> Mapping[str, Mapping[str, Path]]:
        """Every measurement figure a store can feed, shard by shard.

        Each shard (a standalone store is one) writes its figure 3/4/5
        CSVs under ``<export dir>/<shard name>/``; the result maps shard
        name to figure name to path.
        """
        exports: Dict[str, Mapping[str, Path]] = {}
        for entry, journal in open_store(store).shards():
            exporter = FigureExporter(self.directory / entry.name)
            exports[entry.name] = {
                "figure3": exporter.figure3_from_store(journal),
                "figure4": exporter.figure4_from_store(journal),
                "figure5": exporter.figure5_from_store(journal),
            }
        return exports

    def export_model_figures(self) -> Mapping[str, Path]:
        """Export every figure derivable without measurements."""
        return {
            "figure3": self.figure3(),
            "figure4": self.figure4(),
            "figure9": self.figure9(),
        }
