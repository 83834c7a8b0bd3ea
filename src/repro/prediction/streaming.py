"""Streaming model training from the campaign journal.

:class:`StreamingTrainer` is the incremental counterpart of a
from-scratch :func:`~repro.prediction.pipeline.batch_fit`: it consumes
journal records through :func:`~repro.prediction.dataset.iter_journal_datasets`
cursors, folds each completed grid cell into a recursive-least-squares
:class:`~repro.prediction.linreg.OnlineLeastSquares`, and on demand
runs Recursive Feature Elimination directly against the accumulated
moments (:meth:`~repro.prediction.rfe.RecursiveFeatureElimination.fit_online`).
Selection and coefficients match a batch refit on the same sample set
to floating-point accumulation order.

Drift is tracked *prequentially* (test-then-train): every incoming
batch is first scored against the current model and the running naive
baseline, then trained on.  The two gauges
:data:`~repro.telemetry.M_MODEL_RMSE` and
:data:`~repro.telemetry.M_MODEL_DRIFT` expose the accumulated
prequential RMSE and its ratio to the naive baseline -- a ratio
climbing toward 1 means the model is no better than predicting the
mean, i.e. the relationship drifted.

The trainer takes any store shape (:func:`repro.store.open_store`): it
holds one journal cursor per shard, so a standalone store trains on its
one shard and a fleet trains one model across its machine population.
The full trainer state (moments, consumed training pairs, prequential
accumulators, per-shard cursors) round-trips through the
``repro-model/v1`` artifact (:mod:`repro.store.models`), so a killed
``repro train`` resumes exactly where it stopped without replaying
consumed records.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Mapping, Optional, Tuple

import numpy as np

from .. import telemetry
from ..data.counters import COUNTER_NAMES
from ..errors import PredictionError
from ..store.models import TRAINABLE_TARGETS
from .dataset import iter_journal_datasets
from .features import VOLTAGE_FEATURE
from .linreg import OnlineLeastSquares
from .rfe import RecursiveFeatureElimination

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..store import AnyStore
    from ..store.models import ModelArtifact

def _feature_space(target: str) -> Tuple[str, ...]:
    """Full model input space for one target."""
    if target == "vmin":
        return tuple(COUNTER_NAMES)
    if target == "severity":
        return tuple(COUNTER_NAMES) + (VOLTAGE_FEATURE,)
    raise PredictionError(f"unknown training target {target!r}")


class StreamingTrainer:
    """Incremental RFE + RLS training bound to one (store, core, target).

    Holds a journal cursor **per shard** of the store and folds each
    shard's :class:`~repro.prediction.dataset.JournalBatch` stream into
    the same recursive-least-squares moments, so the fitted model spans
    the whole machine population -- the paper's fleet framing, where one
    operator model predicts margins across heterogeneous chips.  A
    standalone store is a one-shard fleet with one cursor.

    Artifacts pin :meth:`~repro.store.FleetStore.fleet_digest` (a
    standalone store's machine-spec digest) and belong in
    ``open_store(store).model_store()``; the per-shard cursors ride
    along in ``trainer_state``, so kill-and-resume never replays a
    consumed record on any shard.
    """

    def __init__(
        self,
        store: "AnyStore",
        core: int,
        target: str = "vmin",
        n_features: int = 5,
        rfe_step: int = 8,
    ) -> None:
        from ..store import open_store

        if target not in TRAINABLE_TARGETS:
            raise PredictionError(
                f"unknown training target {target!r}; "
                f"expected one of {TRAINABLE_TARGETS}"
            )
        self.fleet = open_store(store)
        self.core = int(core)
        self.target = target
        self.n_features = int(n_features)
        self.rfe_step = int(rfe_step)
        self.forced_features: Tuple[str, ...] = (
            (VOLTAGE_FEATURE,) if target == "severity" else ()
        )
        #: Per-shard journal cursors, keyed by shard name.
        self.cursors: Dict[str, int] = {
            entry.name: 0 for entry in self.fleet.manifest.shards
        }
        self._estimator = OnlineLeastSquares(_feature_space(target))
        self._train_pairs: List[Tuple[str, float]] = []
        self._sse_model = 0.0
        self._sse_naive = 0.0
        self._n_eval = 0

    # -- progress ----------------------------------------------------------

    @property
    def n_samples(self) -> int:
        return self._estimator.n_samples

    @property
    def prequential_rmse(self) -> Optional[float]:
        """Accumulated test-then-train RMSE of the model, if any."""
        if self._n_eval == 0:
            return None
        return float(np.sqrt(self._sse_model / self._n_eval))

    @property
    def prequential_naive_rmse(self) -> Optional[float]:
        """Accumulated test-then-train RMSE of the naive baseline."""
        if self._n_eval == 0:
            return None
        return float(np.sqrt(self._sse_naive / self._n_eval))

    @property
    def drift_ratio(self) -> Optional[float]:
        """Model/naive prequential RMSE ratio (1.0 = no better)."""
        model = self.prequential_rmse
        naive = self.prequential_naive_rmse
        if model is None or naive is None or naive == 0.0:
            return None
        return model / naive

    @property
    def journal_offset(self) -> int:
        """Journal records consumed, summed over every shard cursor."""
        return sum(self.cursors.values())

    # -- streaming consumption ---------------------------------------------

    def consume(self, stop: Optional[int] = None) -> int:
        """Train on journal records landed since the cursors; returns
        the number of grid-cell batches folded in.

        Shards are walked in fleet-manifest order and each cached shard
        store is refreshed first, so records appended by other
        processes (the campaign runners) are picked up without any
        shared state beyond the journals themselves.  ``stop`` bounds
        every shard's walk for chunked replay.  Each batch is scored
        against the current model before being trained on
        (prequential evaluation), which is what feeds the drift gauges
        without needing a held-out split.
        """
        consumed = 0
        for entry in self.fleet.manifest.shards:
            shard = self.fleet.shard(entry)
            shard.refresh()
            for batch in iter_journal_datasets(
                shard,
                self.core,
                start=self.cursors[entry.name],
                stop=stop,
                target=self.target,
            ):
                self._fold_batch(batch)
                self.cursors[entry.name] = batch.offset
                consumed += 1
        return consumed

    def _fold_batch(self, batch: Any) -> None:
        """Score (prequentially) then train on one grid-cell batch.

        Which shard the batch came from does not change how it folds
        into the moments, which is why one model can train from a whole
        fleet.
        """
        dataset = batch.dataset
        if self._estimator.n_samples >= 2:
            predictions = self._estimator.predict(dataset.x)
            self._sse_model += float(
                np.sum((dataset.y - predictions) ** 2)
            )
            naive = self._estimator.target_mean()
            self._sse_naive += float(np.sum((dataset.y - naive) ** 2))
            self._n_eval += len(dataset)
            self._publish_drift()
        self._estimator.partial_fit(dataset.x, dataset.y)
        tags = dataset.tags or tuple(
            f"{batch.benchmark}#{i}" for i in range(len(dataset))
        )
        self._train_pairs.extend(
            (tag, float(y)) for tag, y in zip(tags, dataset.y)
        )

    def _publish_drift(self) -> None:
        model = self.prequential_rmse
        if model is not None:
            telemetry.set_gauge(
                telemetry.M_MODEL_RMSE, model,
                target=self.target, core=str(self.core),
            )
        drift = self.drift_ratio
        if drift is not None:
            telemetry.set_gauge(
                telemetry.M_MODEL_DRIFT, drift,
                target=self.target, core=str(self.core),
            )

    # -- fitting ------------------------------------------------------------

    def _selection(self) -> Tuple[Tuple[str, ...], Tuple[str, ...]]:
        """(selected features incl. forced, dropped constant columns)."""
        constant = tuple(
            name
            for name in self._estimator.constant_features()
            if name not in self.forced_features
        )
        eliminable = [
            i
            for i, name in enumerate(self._estimator.feature_names)
            if name not in self.forced_features and name not in constant
        ]
        if self._estimator.n_samples < 2 or len(eliminable) <= self.n_features:
            return (), constant  # journal too shallow to select yet
        rfe = RecursiveFeatureElimination(
            n_features=self.n_features, step=self.rfe_step
        )
        result = rfe.fit_online(self._estimator.subset(eliminable))
        return tuple(result.selected) + self.forced_features, constant

    def fit(self) -> "ModelArtifact":
        """Solve the current moments into an unversioned model artifact.

        Returns a :class:`repro.store.models.ModelArtifact` carrying
        the model (when the journal is deep enough to select features)
        plus the full trainer state; persist it with
        ``open_store(store).model_store().save(artifact)``.
        """
        from ..store.models import ModelArtifact, train_set_digest

        selected, constant = self._selection()
        coefficients: Dict[str, float] = {}
        intercept = 0.0
        naive_mean = 0.0
        metrics: Dict[str, float] = {}
        if self.n_samples:
            naive_mean = self._estimator.target_mean()
            metrics["rmse_naive"] = self._estimator.target_rmse()
        if selected:
            index = {
                name: i
                for i, name in enumerate(self._estimator.feature_names)
            }
            final = self._estimator.subset([index[n] for n in selected])
            coefficients = final.coefficients_by_name()
            intercept = final.intercept
            metrics["rmse_train"] = final.residual_rmse()
        if self.prequential_rmse is not None:
            metrics["prequential_rmse"] = self.prequential_rmse
        if self.prequential_naive_rmse is not None:
            metrics["prequential_naive_rmse"] = self.prequential_naive_rmse
        if self.drift_ratio is not None:
            metrics["drift"] = self.drift_ratio
        return ModelArtifact(
            target=self.target,
            core=self.core,
            version=0,
            journal_offset=self.journal_offset,
            spec_digest=self.fleet.fleet_digest(),
            feature_names=self._estimator.feature_names,
            selected_features=selected,
            dropped_constant=constant,
            coefficients=coefficients,
            intercept=intercept,
            naive_mean=naive_mean,
            n_samples=self.n_samples,
            train_digest=train_set_digest(self._train_pairs),
            metrics=metrics,
            trainer_state={
                "n_features": self.n_features,
                "rfe_step": self.rfe_step,
                "estimator": self._estimator.to_json_dict(),
                "train_pairs": [[tag, y] for tag, y in self._train_pairs],
                "prequential": {
                    "sse_model": self._sse_model,
                    "sse_naive": self._sse_naive,
                    "n_eval": self._n_eval,
                },
                "fleet_cursors": dict(self.cursors),
            },
        )

    # -- kill-and-resume ----------------------------------------------------

    @classmethod
    def resume(
        cls, store: "AnyStore", artifact: "ModelArtifact"
    ) -> "StreamingTrainer":
        """Rebuild a trainer from a saved artifact's state.

        The resumed trainer continues every shard cursor where the
        artifact left it; records consumed before the save are never
        replayed.  An artifact saved before the trainer kept per-shard
        cursors carries one cursor, its ``journal_offset``; its digest
        is a machine-spec digest, which only a one-shard store matches.
        """
        from ..store import artifact_cursor, open_store

        fleet = open_store(store)
        if artifact.spec_digest != fleet.fleet_digest():
            raise PredictionError(
                "model artifact was trained against a different machine "
                "spec than this store (or a different fleet population)"
            )
        state: Mapping[str, Any] = artifact.trainer_state
        try:
            trainer = cls(
                fleet,
                core=artifact.core,
                target=artifact.target,
                n_features=int(state["n_features"]),
                rfe_step=int(state["rfe_step"]),
            )
            known = state.get("fleet_cursors", trainer.cursors)
            cursors = {
                str(name): artifact_cursor(artifact, str(name))
                for name in dict(known)
            }
        except (KeyError, ValueError, TypeError) as exc:
            raise PredictionError(
                f"model artifact carries unusable trainer state: {exc}"
            )
        unknown = set(cursors) - set(trainer.cursors)
        if unknown:
            raise PredictionError(
                f"model artifact references unknown fleet shards "
                f"{sorted(unknown)}"
            )
        trainer._restore_state(state)
        trainer.cursors.update(cursors)
        return trainer

    def _restore_state(self, state: Mapping[str, Any]) -> None:
        """Load moments + prequential accumulators from artifact state."""
        try:
            self._estimator = OnlineLeastSquares.from_json_dict(
                state["estimator"]
            )
            self._train_pairs = [
                (str(tag), float(y)) for tag, y in state["train_pairs"]
            ]
            prequential = state["prequential"]
            self._sse_model = float(prequential["sse_model"])
            self._sse_naive = float(prequential["sse_naive"])
            self._n_eval = int(prequential["n_eval"])
        except (KeyError, ValueError, TypeError) as exc:
            raise PredictionError(
                f"model artifact carries unusable trainer state: {exc}"
            )


__all__ = [
    "StreamingTrainer",
    "TRAINABLE_TARGETS",
]
