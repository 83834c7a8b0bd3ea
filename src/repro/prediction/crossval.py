"""Cross-validation and cross-core transfer for the prediction models.

Two generalisation questions the paper raises but evaluates only with a
single 80/20 split:

* **k-fold cross-validation** -- how stable are the RMSE/R-squared
  numbers across splits?  (The Vmin study's "R-squared close to 0" is
  split-sensitive; CV quantifies that.)
* **cross-core transfer** (Section 4.4: the model "can fit effectively
  for each core, taking into account the process variation") -- train
  on one core's samples, predict another core's after compensating the
  known variation offset.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from ..errors import DatasetError
from .dataset import RegressionDataset
from .linreg import OrdinaryLeastSquares
from .metrics import r2_score, rmse


@dataclass(frozen=True)
class CrossValidationReport:
    """Per-fold and aggregate metrics of a k-fold run."""

    k: int
    fold_rmse: Tuple[float, ...]
    fold_r2: Tuple[float, ...]

    @property
    def mean_rmse(self) -> float:
        return float(np.mean(self.fold_rmse))

    @property
    def std_rmse(self) -> float:
        return float(np.std(self.fold_rmse))

    @property
    def mean_r2(self) -> float:
        return float(np.mean(self.fold_r2))

    @property
    def r2_range(self) -> Tuple[float, float]:
        return (min(self.fold_r2), max(self.fold_r2))


def kfold_cross_validate(
    dataset: RegressionDataset,
    k: int = 5,
    model_factory: Optional[Callable[[], OrdinaryLeastSquares]] = None,
    seed: int = 0,
) -> CrossValidationReport:
    """k-fold CV of an OLS-style model over a dataset."""
    if k < 2:
        raise DatasetError("k must be at least 2")
    n = len(dataset)
    if n < k:
        raise DatasetError(f"{n} samples cannot form {k} folds")
    constant_mask = dataset.x.min(axis=0) == dataset.x.max(axis=0)
    if constant_mask.any():
        constant = [
            name for name, c in zip(dataset.feature_names, constant_mask) if c
        ]
        raise DatasetError(
            f"zero-variance feature columns cannot be cross-validated: "
            f"{sorted(constant)}; drop constant features first"
        )
    model_factory = model_factory or OrdinaryLeastSquares

    indices = np.arange(n)
    np.random.default_rng(seed).shuffle(indices)
    folds = np.array_split(indices, k)

    fold_rmse: List[float] = []
    fold_r2: List[float] = []
    for fold in folds:
        test_idx = set(int(i) for i in fold)
        train_rows = [i for i in range(n) if i not in test_idx]
        test_rows = [int(i) for i in fold]
        train = dataset.subset(train_rows)
        test = dataset.subset(test_rows)
        model = model_factory()
        model.fit(train.x, train.y, feature_names=dataset.feature_names)
        predictions = model.predict(test.x)
        fold_rmse.append(rmse(test.y, predictions))
        fold_r2.append(r2_score(test.y, predictions))
    return CrossValidationReport(
        k=k, fold_rmse=tuple(fold_rmse), fold_r2=tuple(fold_r2))


@dataclass(frozen=True)
class TransferReport:
    """Cross-core transfer outcome."""

    source_core: int
    target_core: int
    offset_mv: float
    rmse_transferred: float
    rmse_native: float

    @property
    def transfer_penalty(self) -> float:
        """Extra error of the transferred model vs a natively trained
        one (can be ~0 when variation is purely an offset)."""
        return self.rmse_transferred - self.rmse_native


def cross_core_transfer(
    source: RegressionDataset,
    target: RegressionDataset,
    source_core: int,
    target_core: int,
    offset_mv: float,
    model_factory: Optional[Callable[[], OrdinaryLeastSquares]] = None,
) -> TransferReport:
    """Train on one core's Vmin samples, evaluate on another's.

    ``offset_mv`` is the known process-variation gap between the cores
    (from the characterization); the transferred prediction is
    ``model(source features) + offset``.
    """
    if source.feature_names != target.feature_names:
        raise DatasetError("source and target must share the feature space")
    model_factory = model_factory or OrdinaryLeastSquares

    transferred = model_factory()
    transferred.fit(source.x, source.y, feature_names=source.feature_names)
    predictions = transferred.predict(target.x) + offset_mv
    rmse_transferred = rmse(target.y, predictions)

    native = model_factory()
    native.fit(target.x, target.y, feature_names=target.feature_names)
    rmse_native = rmse(target.y, native.predict(target.x))

    return TransferReport(
        source_core=source_core,
        target_core=target_core,
        offset_mv=float(offset_mv),
        rmse_transferred=rmse_transferred,
        rmse_native=rmse_native,
    )
