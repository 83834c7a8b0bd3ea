"""The four-phase prediction flow of Figure 6.

``PredictionPipeline`` wires a simulated machine into the paper's
offline-training / online-prediction loop:

1. *Characterization* -- run undervolting campaigns to obtain Vmin and
   severity tables (:mod:`repro.core`).
2. *Profiling* -- collect all 101 PMU events per program at nominal
   conditions.
3. *Model training* -- RFE to the five most informative events, then
   OLS on the 80 % training split.
4. *Prediction* -- held-out evaluation: R-squared, RMSE, and the naive
   mean baseline.

The three canonical studies of Section 4.3 are one call each:
``vmin_study`` (case 1), and ``severity_study`` on the most sensitive
core (case 2) or the most robust core (case 3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from .. import telemetry
from ..core.campaign import CharacterizationResult
from ..core.config import FrameworkConfig
from ..core.framework import CharacterizationFramework
from ..core.severity import DEFAULT_WEIGHTS, SeverityWeights
from ..machines import Machine
from ..workloads.benchmark import as_program
from .dataset import (
    RegressionDataset,
    _severity_dataset,
    _severity_rows,
    train_test_split,
)
from .features import VOLTAGE_FEATURE, FeatureAssembler
from .linreg import OrdinaryLeastSquares
from .metrics import r2_score, rmse
from .naive import NaiveMeanPredictor
from .rfe import RecursiveFeatureElimination

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..store import AnyStore


@dataclass(frozen=True)
class PredictionReport:
    """Outcome of one study: model vs naive on a held-out test set."""

    target: str
    chip: str
    core: int
    selected_features: Tuple[str, ...]
    r2: float
    rmse_model: float
    rmse_naive: float
    n_train: int
    n_test: int
    #: (tag, truth, prediction) for every test sample (Figures 7/8).
    test_points: Tuple[Tuple[str, float, float], ...] = ()

    @property
    def improvement_over_naive(self) -> float:
        """How many times smaller the model's RMSE is vs the baseline."""
        if self.rmse_model == 0:
            return float("inf")
        return self.rmse_naive / self.rmse_model

    def summary(self) -> str:
        """One-line human-readable result."""
        return (
            f"{self.target} on {self.chip} core {self.core}: "
            f"RMSE {self.rmse_model:.2f} (naive {self.rmse_naive:.2f}), "
            f"R^2 {self.r2:.2f}, features {', '.join(self.selected_features)}"
        )


class PredictionPipeline:
    """Figure-6 flow bound to one machine."""

    def __init__(
        self,
        machine: Machine,
        characterization: Optional[FrameworkConfig] = None,
        n_features: int = 5,
        test_fraction: float = 0.2,
        split_seed: int = 2,
        rfe_step: int = 8,
    ) -> None:
        self.machine = machine
        # Three campaign repetitions keep the study fast while retaining
        # the non-determinism the severity function aggregates; sweeps
        # record several crash levels so the severity ramp reaches its
        # SC plateau.  The paper's full ten campaigns are available by
        # passing an explicit config.
        self.characterization = characterization or FrameworkConfig(
            campaigns=3, stop_after_crash_levels=5
        )
        self.n_features = int(n_features)
        self.test_fraction = float(test_fraction)
        self.split_seed = int(split_seed)
        self.rfe_step = int(rfe_step)
        self.assembler = FeatureAssembler()
        self._profile_cache: Dict[str, Mapping[str, float]] = {}
        self._characterization_cache: Dict[Tuple[str, int], CharacterizationResult] = {}

    # -- phase 2: profiling -------------------------------------------------

    def profile(self, program: object) -> Mapping[str, float]:
        """Nominal-conditions PMU profile of one program (cached)."""
        program = as_program(program)
        if program.name not in self._profile_cache:
            with telemetry.span("prediction.profile", benchmark=program.name):
                if self.machine.state.value != "running":
                    self.machine.power_on()
                self._profile_cache[program.name] = self.machine.profile_program(
                    program, core=0
                )
            telemetry.inc_counter(telemetry.M_PREDICTION_PROFILES)
        return self._profile_cache[program.name]

    # -- phase 1: characterization -----------------------------------------------

    def characterize(self, program: object, core: int) -> CharacterizationResult:
        """Characterization result of one program on one core (cached)."""
        program = as_program(program)
        key = (program.name, core)
        if key not in self._characterization_cache:
            with telemetry.span(
                "prediction.characterize", benchmark=program.name, core=core
            ):
                if self.machine.state.value != "running":
                    self.machine.power_on()
                framework = CharacterizationFramework(
                    self.machine, self.characterization
                )
                self._characterization_cache[key] = framework.characterize(
                    program, core
                )
            telemetry.inc_counter(telemetry.M_PREDICTION_CHARACTERIZATIONS)
        return self._characterization_cache[key]

    # -- dataset assembly -------------------------------------------------------------

    def build_vmin_dataset(
        self, programs: Sequence[object], core: int
    ) -> RegressionDataset:
        """One sample per program: counters -> observed safe Vmin."""
        programs = [as_program(p) for p in programs]
        snapshots = [self.profile(p) for p in programs]
        targets = [
            float(self.characterize(p, core).highest_vmin_mv) for p in programs
        ]
        return self.assembler.counters_dataset(
            snapshots, targets, tags=[p.name for p in programs]
        )

    def build_severity_dataset(
        self,
        programs: Sequence[object],
        core: int,
        max_samples: int = 100,
        weights: SeverityWeights = DEFAULT_WEIGHTS,
    ) -> RegressionDataset:
        """Beyond-Vmin samples: (counters, voltage) -> severity.

        One sample per 5 mV characterization step below each program's
        safe Vmin (Section 4.3.2), spanning the whole severity ramp the
        way Figures 7/8 do (their test points reach severity 16, i.e.
        the samples extend through the unsafe band into the upper crash
        region).  A deterministic shuffle truncates to ``max_samples``
        without biasing toward any depth.
        """
        rows: List[Tuple[Mapping[str, float], int, float, str]] = []
        for prog in [as_program(p) for p in programs]:
            result = self.characterize(prog, core)
            rows.extend(
                _severity_rows(result, self.profile(prog), weights, prog.name)
            )
        return _severity_dataset(rows, max_samples, self.split_seed)

    # -- phases 3 & 4: training and evaluation --------------------------------------------

    def evaluate(
        self,
        dataset: RegressionDataset,
        target: str,
        core: int,
        forced_features: Tuple[str, ...] = (),
    ) -> PredictionReport:
        """:func:`batch_fit` on the 80 % split, metrics on the held-out
        20 %.

        ``forced_features`` are excluded from elimination and always
        kept (the severity studies force the voltage feature; the five
        RFE slots then go to PMU events, matching the paper's "5 most
        efficient events" framing).
        """
        train, test = train_test_split(
            dataset, test_fraction=self.test_fraction, seed=self.split_seed
        )
        fitted = batch_fit(
            train, target=target, core=core, n_features=self.n_features,
            rfe_step=self.rfe_step, forced_features=forced_features,
        )
        predictions = fitted.predict(test)
        tags = test.tags if test.tags else tuple(
            f"sample-{i}" for i in range(len(test))
        )
        r2 = r2_score(test.y, predictions)
        rmse_model = rmse(test.y, predictions)
        telemetry.event(
            "prediction.report",
            target=target,
            core=core,
            r2=float(r2),
            rmse_model=float(rmse_model),
        )
        return PredictionReport(
            target=target,
            chip=self.machine.chip.name,
            core=core,
            selected_features=fitted.selected_features,
            r2=r2,
            rmse_model=rmse_model,
            rmse_naive=rmse(test.y, np.full(len(test), fitted.naive_mean)),
            n_train=len(train),
            n_test=len(test),
            test_points=tuple(
                (tag, float(truth), float(pred))
                for tag, truth, pred in zip(tags, test.y, predictions)
            ),
        )

    # -- the canonical studies ----------------------------------------------------------

    def vmin_study(self, programs: Sequence[object], core: int) -> PredictionReport:
        """Case 1: predict a core's per-program safe Vmin."""
        dataset = self.build_vmin_dataset(programs, core)
        return self.evaluate(dataset, target="vmin_mv", core=core)

    def severity_study(
        self,
        programs: Sequence[object],
        core: int,
        max_samples: int = 100,
        weights: SeverityWeights = DEFAULT_WEIGHTS,
    ) -> PredictionReport:
        """Cases 2/3: predict severity at (program, voltage) points."""
        dataset = self.build_severity_dataset(
            programs, core, max_samples=max_samples, weights=weights
        )
        return self.evaluate(
            dataset, target="severity", core=core,
            forced_features=(VOLTAGE_FEATURE,),
        )


# ---------------------------------------------------------------------------
# Batch fits on whole datasets (the streaming trainer's reference).
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FittedModel:
    """An RFE + OLS model trained on *all* rows of one dataset.

    This is the from-scratch counterpart of a streaming
    :class:`~repro.prediction.streaming.StreamingTrainer` fit: the
    trainer's online selection and coefficients must match a
    ``batch_fit`` on the same sample set to floating-point tolerance.
    :meth:`PredictionPipeline.evaluate` fits one on its training split;
    a served model uses every journaled sample.
    """

    target: str
    core: int
    #: Surviving features (forced features appended), in column order.
    selected_features: Tuple[str, ...]
    #: Zero-variance columns removed before elimination.
    dropped_constant: Tuple[str, ...]
    model: OrdinaryLeastSquares
    naive_mean: float
    n_samples: int
    rmse_train: float
    rmse_naive: float

    def predict(self, dataset: RegressionDataset) -> np.ndarray:
        """Predict targets for a full-feature-space dataset."""
        return self.model.predict(
            dataset.select_features(self.selected_features).x
        )


def batch_fit(
    dataset: RegressionDataset,
    target: str,
    core: int,
    n_features: int = 5,
    rfe_step: int = 8,
    forced_features: Tuple[str, ...] = (),
) -> FittedModel:
    """RFE + OLS over every row of ``dataset`` (no held-out split)."""
    constant = tuple(
        name
        for name in dataset.constant_feature_names()
        if name not in forced_features
    )
    eliminable = [
        name
        for name in dataset.feature_names
        if name not in forced_features and name not in constant
    ]
    sub = dataset.select_features(eliminable)
    rfe = RecursiveFeatureElimination(n_features=n_features, step=rfe_step)
    selected = tuple(
        rfe.fit(sub.x, sub.y, sub.feature_names).selected
    ) + tuple(forced_features)
    chosen = dataset.select_features(selected)
    model = OrdinaryLeastSquares().fit(
        chosen.x, chosen.y, feature_names=selected
    )
    naive = NaiveMeanPredictor().fit(chosen.x, chosen.y)
    return FittedModel(
        target=target,
        core=core,
        selected_features=selected,
        dropped_constant=constant,
        model=model,
        naive_mean=naive.mean,
        n_samples=len(dataset),
        rmse_train=rmse(chosen.y, model.predict(chosen.x)),
        rmse_naive=rmse(chosen.y, naive.predict(chosen.x)),
    )


def fit_vmin_model_from_store(
    store: "AnyStore",
    core: int,
    n_features: int = 5,
    rfe_step: int = 8,
) -> FittedModel:
    """From-scratch Vmin model over a completed store's full grid
    (every shard of a fleet)."""
    from .dataset import vmin_dataset_from_store

    dataset = vmin_dataset_from_store(store, core)
    return batch_fit(
        dataset, target="vmin", core=core,
        n_features=n_features, rfe_step=rfe_step,
    )


def fit_severity_model_from_store(
    store: "AnyStore",
    core: int,
    n_features: int = 5,
    rfe_step: int = 8,
) -> FittedModel:
    """From-scratch severity model over every unsafe-band sample."""
    from .dataset import severity_dataset_from_store

    dataset = severity_dataset_from_store(store, core, max_samples=None)
    return batch_fit(
        dataset, target="severity", core=core,
        n_features=n_features, rfe_step=rfe_step,
        forced_features=(VOLTAGE_FEATURE,),
    )
