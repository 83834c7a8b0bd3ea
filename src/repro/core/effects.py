"""Run classification: from observables to Table-3 effect classes.

The machine reports raw observables (exit code, output digest, EDAC
deltas, responsiveness); this module applies the paper's classification
rules.  A single run can manifest several effects at once
(Section 3.4.1: "each characterization run can manifest multiple
effects; for instance, in a run both SDC and CE can be observed").
"""

from __future__ import annotations

from collections import Counter
from operator import itemgetter
from typing import Dict, FrozenSet, Iterable, Mapping, Optional

from ..effects import EffectType, normalize_effects

#: Shared singletons for the two single-effect outcomes every campaign
#: produces in bulk; classification is allocation-free for them.
_SC_RUN = frozenset({EffectType.SC})
_NO_RUN = frozenset({EffectType.NO})


def classify_run(
    responsive: bool,
    exit_code: Optional[int],
    output: Optional[str],
    expected_output: str,
    edac_ce: int = 0,
    edac_ue: int = 0,
) -> FrozenSet[EffectType]:
    """Classify one run from its observables.

    * machine unresponsive / run never finished -> **SC** (terminal: a
      hung machine yields no further observables);
    * non-zero exit code -> **AC**;
    * output digest mismatch on a completed run -> **SDC**;
    * EDAC corrected / uncorrected deltas -> **CE** / **UE** (these can
      accompany AC and SDC);
    * none of the above -> **NO**.
    """
    if not responsive or exit_code is None:
        return _SC_RUN
    if (
        exit_code == 0
        and edac_ce <= 0
        and edac_ue <= 0
        and output == expected_output
    ):
        return _NO_RUN
    effects = set()
    if edac_ce > 0:
        effects.add(EffectType.CE)
    if edac_ue > 0:
        effects.add(EffectType.UE)
    if exit_code != 0:
        effects.add(EffectType.AC)
    elif output != expected_output:
        effects.add(EffectType.SDC)
    return normalize_effects(effects)


def effect_counts(
    runs: Iterable[FrozenSet[EffectType]],
) -> Dict[EffectType, int]:
    """Aggregate per-effect occurrence counts over runs.

    Counts *runs in which the effect appeared*, not event multiplicity
    -- matching the severity function's definition ("the actual number
    of uncorrected errors during each run is not taken into
    consideration", Section 3.4.1).  A campaign holds a handful of
    distinct effect sets, so each is counted once and then expanded.
    """
    counts: Dict[EffectType, int] = {effect: 0 for effect in EffectType}
    for effects, runs_with in Counter(runs).items():
        for effect in effects:
            counts[effect] += runs_with
    return counts


def book_effects(counts: Iterable[Mapping[EffectType, int]]) -> None:
    """Add per-effect run counts, each keyed by every effect class
    (:func:`effect_counts` of some runs, or one voltage level of a
    campaign's counts), to the effects counter: one increment per
    effect class the counts show."""
    # Imported here: classification and parsing (cold CLI verbs such
    # as ``tables``) do not load the telemetry stack.
    from .. import telemetry

    parts = list(counts)
    for effect in EffectType:
        amount = sum(map(itemgetter(effect), parts))
        if amount:
            telemetry.inc_counter(
                telemetry.M_EFFECTS, effect=effect.value, amount=amount
            )
