"""Prediction of Vmin and severity from performance counters (Section 4).

The four-phase flow of Figure 6:

1. **Characterization** (offline) -- :mod:`repro.core` produces Vmin and
   severity tables.
2. **Profiling** -- the machine's PMU collects all 101 events per
   program at nominal conditions.
3. **Model training** -- Recursive Feature Elimination down to the five
   most informative events, then ordinary-least-squares regression.
4. **Prediction** -- held-out evaluation with R-squared and RMSE
   against the naive mean-of-training-targets baseline.

Beyond the paper's offline loop, the package trains *while campaigns
are still running*: :func:`iter_journal_datasets` cuts resumable
dataset cursors from a campaign-store journal,
:class:`OnlineLeastSquares` accumulates them into a recursive
least-squares model matching the batch refit to floating-point
tolerance, and :class:`StreamingTrainer` wraps both -- one cursor per
store shard, so one model spans a whole fleet -- with prequential
drift tracking and versioned ``repro-model/v1`` artifacts
(:mod:`repro.store.models`).
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .metrics import r2_score, rmse
    from .linreg import RFE_RIDGE_ALPHA, OnlineLeastSquares, OrdinaryLeastSquares
    from .rfe import RecursiveFeatureElimination
    from .naive import NaiveMeanPredictor
    from .dataset import (
        JournalBatch,
        RegressionDataset,
        iter_journal_datasets,
        severity_dataset_from_store,
        train_test_split,
        vmin_dataset_from_store,
    )
    from .features import FeatureAssembler, VOLTAGE_FEATURE
    from .pipeline import (
        FittedModel,
        PredictionReport,
        PredictionPipeline,
        batch_fit,
        fit_severity_model_from_store,
        fit_vmin_model_from_store,
    )
    from .streaming import TRAINABLE_TARGETS, StreamingTrainer
    from .crossval import (
        CrossValidationReport,
        TransferReport,
        cross_core_transfer,
        kfold_cross_validate,
    )

__getattr__, __dir__ = lazy_exports(__name__, {
    ".metrics": ("r2_score", "rmse"),
    ".linreg": (
        "RFE_RIDGE_ALPHA", "OnlineLeastSquares", "OrdinaryLeastSquares",
    ),
    ".rfe": ("RecursiveFeatureElimination",),
    ".naive": ("NaiveMeanPredictor",),
    ".dataset": (
        "JournalBatch", "RegressionDataset", "iter_journal_datasets",
        "severity_dataset_from_store", "train_test_split",
        "vmin_dataset_from_store",
    ),
    ".features": ("FeatureAssembler", "VOLTAGE_FEATURE"),
    ".pipeline": (
        "FittedModel", "PredictionReport", "PredictionPipeline", "batch_fit",
        "fit_severity_model_from_store", "fit_vmin_model_from_store",
    ),
    ".streaming": ("TRAINABLE_TARGETS", "StreamingTrainer"),
    ".crossval": (
        "CrossValidationReport", "TransferReport", "cross_core_transfer",
        "kfold_cross_validate",
    ),
})

__all__ = [
    "r2_score",
    "rmse",
    "OnlineLeastSquares",
    "OrdinaryLeastSquares",
    "RFE_RIDGE_ALPHA",
    "RecursiveFeatureElimination",
    "NaiveMeanPredictor",
    "JournalBatch",
    "RegressionDataset",
    "iter_journal_datasets",
    "severity_dataset_from_store",
    "train_test_split",
    "vmin_dataset_from_store",
    "FeatureAssembler",
    "VOLTAGE_FEATURE",
    "FittedModel",
    "PredictionReport",
    "PredictionPipeline",
    "batch_fit",
    "fit_severity_model_from_store",
    "fit_vmin_model_from_store",
    "StreamingTrainer",
    "TRAINABLE_TARGETS",
    "CrossValidationReport",
    "TransferReport",
    "cross_core_transfer",
    "kfold_cross_validate",
]
