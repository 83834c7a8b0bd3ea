"""Result persistence: the framework's CSV outputs.

The paper's parsing phase ends in CSV files ("all the collected results
concerning the characterization and the severity function of each run
are reported in CSV files", Section 2.2).  :class:`ResultStore` writes
and reads those files: a run-level CSV, a severity CSV and the raw
campaign logs.
"""

from __future__ import annotations

import csv
import io
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from ..durable import atomic_write
from ..errors import CampaignError
from .campaign import CharacterizationResult
from .runs import RunRecord
from .severity import DEFAULT_WEIGHTS, SeverityWeights

RUN_FIELDS = (
    "chip", "benchmark", "core", "voltage_mv", "freq_mhz", "campaign",
    "run", "effects", "exit_code", "output_matches", "edac_ce", "edac_ue",
    "watchdog",
)

SEVERITY_FIELDS = (
    "chip", "benchmark", "core", "freq_mhz", "voltage_mv", "severity",
)


class ResultStore:
    """Directory-backed store of characterization outputs."""

    def __init__(self, directory) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    # -- run-level CSV ----------------------------------------------------

    def write_runs_csv(
        self,
        results: Iterable[CharacterizationResult],
        filename: str = "runs.csv",
    ) -> Path:
        """Write every run of every result to one CSV."""
        path = self.directory / filename
        buffer = io.StringIO()
        writer = csv.DictWriter(buffer, fieldnames=RUN_FIELDS)
        writer.writeheader()
        for result in results:
            for record in result.all_records():
                writer.writerow(record.csv_row())
        atomic_write(path, buffer.getvalue())
        return path

    def read_runs_csv(self, filename: str = "runs.csv") -> List[RunRecord]:
        """Read a run-level CSV back as typed :class:`RunRecord` rows.

        The ``detail`` mapping is not part of the CSV schema, so it is
        empty on the records returned here; everything else round-trips
        exactly through :meth:`RunRecord.from_csv_row`.
        """
        path = self.directory / filename
        if not path.exists():
            raise CampaignError(f"no such results file: {path}")
        with path.open(newline="") as handle:
            return [RunRecord.from_csv_row(row) for row in csv.DictReader(handle)]

    # -- severity CSV ---------------------------------------------------------

    def write_severity_csv(
        self,
        results: Iterable[CharacterizationResult],
        filename: str = "severity.csv",
        weights: SeverityWeights = DEFAULT_WEIGHTS,
    ) -> Path:
        """Severity per (chip, benchmark, core, voltage) to CSV."""
        path = self.directory / filename
        buffer = io.StringIO()
        writer = csv.DictWriter(buffer, fieldnames=SEVERITY_FIELDS)
        writer.writeheader()
        for result in results:
            severity = result.severity_by_voltage(weights)
            for voltage in sorted(severity, reverse=True):
                writer.writerow({
                    "chip": result.chip,
                    "benchmark": result.benchmark,
                    "core": result.core,
                    "freq_mhz": result.freq_mhz,
                    "voltage_mv": voltage,
                    "severity": f"{severity[voltage]:.4f}",
                })
        atomic_write(path, buffer.getvalue())
        return path

    def read_severity_csv(
        self, filename: str = "severity.csv"
    ) -> Dict[Tuple[str, str, int, int, int], float]:
        """Severity CSV back as a {(chip, bench, core, freq, mV): S} map."""
        path = self.directory / filename
        if not path.exists():
            raise CampaignError(f"no such results file: {path}")
        out: Dict[Tuple[str, str, int, int, int], float] = {}
        with path.open(newline="") as handle:
            for row in csv.DictReader(handle):
                key = (
                    row["chip"], row["benchmark"], int(row["core"]),
                    int(row["freq_mhz"]), int(row["voltage_mv"]),
                )
                out[key] = float(row["severity"])
        return out

    # -- raw logs --------------------------------------------------------------

    def write_raw_log(
        self, key: Tuple[str, int, int, int], text: str
    ) -> Path:
        """Persist one campaign's raw log under a stable name."""
        benchmark, core, freq, campaign = key
        safe_bench = benchmark.replace("/", "_")
        path = (
            self.directory
            / f"log_{safe_bench}_c{core}_f{freq}_camp{campaign}.txt"
        )
        atomic_write(path, text)
        return path

    def write_all_raw_logs(
        self, raw_logs: Mapping[Tuple[str, int, int, int], str]
    ) -> List[Path]:
        """Persist every raw campaign log of a framework."""
        return [self.write_raw_log(key, text) for key, text in raw_logs.items()]

    def read_raw_log(self, path) -> Optional[str]:
        """Read one raw log back (None if missing)."""
        path = Path(path)
        if not path.exists():
            return None
        return path.read_text()
