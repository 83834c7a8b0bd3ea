"""Feature assembly: PMU snapshots -> regression feature matrices.

Counter magnitudes span nine orders (cycles vs barriers), so features
are normalised per kilo-instruction before entering the model --
run-length-invariant rates, which is also what makes profiles of
different programs comparable.  Severity samples additionally carry the
characterization voltage as a feature (Section 4.3.2: each sample
"consists of the microarchitectural counters ... and the voltage value
of the characterization step").
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..data.counters import COUNTER_NAMES
from ..errors import DatasetError
from .dataset import RegressionDataset

#: Name of the appended supply-voltage feature.
VOLTAGE_FEATURE = "VOLTAGE_MV"


class FeatureAssembler:
    """Builds :class:`RegressionDataset` objects from PMU snapshots."""

    def __init__(self, per_kilo_instruction: bool = True) -> None:
        self.per_kilo_instruction = bool(per_kilo_instruction)

    def _vector(self, snapshot: Mapping[str, float]) -> np.ndarray:
        missing = [name for name in COUNTER_NAMES if name not in snapshot]
        if missing:
            raise DatasetError(f"snapshot missing events: {missing[:3]}...")
        values = np.array([float(snapshot[name]) for name in COUNTER_NAMES])
        if self.per_kilo_instruction:
            instructions = float(snapshot["INST_RETIRED"])
            if instructions <= 0:
                raise DatasetError("INST_RETIRED must be positive to normalise")
            values = values / instructions * 1000.0
        return values

    def vector_by_name(
        self,
        snapshot: Mapping[str, float],
        voltage_mv: Optional[int] = None,
    ) -> Dict[str, float]:
        """One sample as a feature-name -> value mapping.

        The serving-side counterpart of the dataset builders: model
        artifacts (:meth:`repro.store.models.ModelArtifact.predict_row`)
        consume exactly this shape.  ``voltage_mv`` appends the voltage
        feature for severity models.
        """
        values = self._vector(snapshot)
        names = list(COUNTER_NAMES)
        if voltage_mv is not None:
            values = np.concatenate([values, [float(voltage_mv)]])
            names.append(VOLTAGE_FEATURE)
        return dict(zip(names, (float(v) for v in values)))

    def counters_dataset(
        self,
        snapshots: Sequence[Mapping[str, float]],
        targets: Sequence[float],
        tags: Optional[Sequence[str]] = None,
    ) -> RegressionDataset:
        """Dataset of counter features only (the Vmin study shape)."""
        if len(snapshots) != len(targets):
            raise DatasetError("one target per snapshot required")
        x = np.vstack([self._vector(s) for s in snapshots])
        return RegressionDataset(
            x=x,
            y=np.asarray(targets, dtype=float),
            feature_names=tuple(COUNTER_NAMES),
            tags=tuple(tags) if tags else (),
        )

    def counters_voltage_dataset(
        self,
        samples: Sequence[Tuple[Mapping[str, float], int, float]],
        tags: Optional[Sequence[str]] = None,
    ) -> RegressionDataset:
        """Dataset of (counters, voltage) -> target samples (severity).

        ``samples`` are (snapshot, voltage_mv, target) triples.
        """
        if not samples:
            raise DatasetError("need at least one sample")
        x_rows: List[np.ndarray] = []
        y: List[float] = []
        for snapshot, voltage_mv, target in samples:
            row = np.concatenate([self._vector(snapshot), [float(voltage_mv)]])
            x_rows.append(row)
            y.append(float(target))
        return RegressionDataset(
            x=np.vstack(x_rows),
            y=np.asarray(y, dtype=float),
            feature_names=tuple(COUNTER_NAMES) + (VOLTAGE_FEATURE,),
            tags=tuple(tags) if tags else (),
        )
