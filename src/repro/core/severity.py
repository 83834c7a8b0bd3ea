"""The severity function (contribution 2, Section 3.4.1).

    S_v = W_SDC*SDC/N + W_CE*CE/N + W_UE*UE/N + W_AC*AC/N + W_SC*SC/N

where each parameter counts the runs (out of N at voltage v) in which
the effect appeared, and the weights translate behaviours to numbers.
Table 4's values are the defaults:

    W_SC = 16, W_AC = 8, W_SDC = 4, W_UE = 2, W_CE = 1, W_NO = 0

The function aggregates multiple campaigns of non-deterministic runs
into one number per (core, voltage) that a software daemon -- or the
Section-4 predictor -- can consume directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Mapping

from ..effects import SEVERITY_WEIGHTS, EffectType
from ..errors import ConfigurationError
from .effects import effect_counts


#: The :class:`SeverityWeights` field of each weighted effect class.
_WEIGHT_FIELDS = {
    EffectType.SC: "sc",
    EffectType.AC: "ac",
    EffectType.SDC: "sdc",
    EffectType.UE: "ue",
    EffectType.CE: "ce",
}


@dataclass(frozen=True)
class SeverityWeights:
    """Weight assignment for the severity function (Table 4).

    Different weights can be supplied "according to the importance of
    each observed abnormal behavior in a particular system study"; the
    defaults come from the canonical Table-4 mapping in
    :data:`repro.effects.SEVERITY_WEIGHTS`.
    """

    sc: float = SEVERITY_WEIGHTS[EffectType.SC]
    ac: float = SEVERITY_WEIGHTS[EffectType.AC]
    sdc: float = SEVERITY_WEIGHTS[EffectType.SDC]
    ue: float = SEVERITY_WEIGHTS[EffectType.UE]
    ce: float = SEVERITY_WEIGHTS[EffectType.CE]

    def __post_init__(self) -> None:
        for name in ("sc", "ac", "sdc", "ue", "ce"):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"weight {name} must be non-negative")

    def weight(self, effect: EffectType) -> float:
        """Weight of one effect class (NO weighs zero)."""
        if effect is EffectType.NO:
            return 0.0
        weight: float = getattr(self, _WEIGHT_FIELDS[effect])
        return weight

    @property
    def maximum(self) -> float:
        """Largest achievable severity (every run crashes the system)."""
        return self.sc


#: The paper's weights.
DEFAULT_WEIGHTS = SeverityWeights()


def severity_value(
    counts: Mapping[EffectType, int],
    n_runs: int,
    weights: SeverityWeights = DEFAULT_WEIGHTS,
) -> float:
    """Severity from per-effect run counts out of ``n_runs`` runs."""
    if n_runs <= 0:
        raise ConfigurationError("n_runs must be positive")
    for effect, count in counts.items():
        if count < 0 or count > n_runs:
            raise ConfigurationError(
                f"count for {effect} must be within [0, {n_runs}], got {count}"
            )
    return sum(
        weights.weight(effect) * count / n_runs for effect, count in counts.items()
    )


def severity_of_runs(
    runs: Iterable[FrozenSet[EffectType]],
    weights: SeverityWeights = DEFAULT_WEIGHTS,
) -> float:
    """Severity of a collection of classified runs at one voltage."""
    run_list = list(runs)
    if not run_list:
        raise ConfigurationError("severity needs at least one run")
    return severity_value(effect_counts(run_list), len(run_list), weights)


def severity_table(
    runs_by_voltage: Mapping[int, Iterable[FrozenSet[EffectType]]],
    weights: SeverityWeights = DEFAULT_WEIGHTS,
) -> Dict[int, float]:
    """Severity per voltage level -- one column of Figure 5."""
    return {
        voltage: severity_of_runs(runs, weights)
        for voltage, runs in runs_by_voltage.items()
    }


def deepest_voltage_within(
    severity_by_voltage: Mapping[int, float],
    tolerance: float = 0.0,
) -> int:
    """The severity function's headline use (Section 3.4.1): "according
    to the severity value for each voltage level, one can decide if and
    when it is possible to reduce the voltage further".

    Returns the lowest voltage such that it and every level above it
    stay within ``tolerance`` -- the contiguity requirement matters: a
    lucky quiet level below a violating one is not usable, because
    operation passes through every level's behaviour class.
    """
    if tolerance < 0:
        raise ConfigurationError("tolerance must be non-negative")
    if not severity_by_voltage:
        raise ConfigurationError("severity table must not be empty")
    deepest = None
    for voltage in sorted(severity_by_voltage, reverse=True):
        if severity_by_voltage[voltage] > tolerance:
            break
        deepest = voltage
    if deepest is None:
        raise ConfigurationError(
            f"no voltage level satisfies severity <= {tolerance}"
        )
    return deepest
