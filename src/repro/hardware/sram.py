"""SRAM array model with voltage-dependent bit-cell disturbance.

A cache data array is modelled as a sparse store of 64-bit words plus a
statistical bit-cell failure process: at low supply voltages marginal
cells flip with a probability given by a :class:`~repro.faults.models.
FailureCurve`.  The array does not pre-materialise its capacity (an 8 MB
L3 would be 1M words); only written lines are stored, and disturbance
events are sampled per run from the aggregate rate.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from ..errors import ConfigurationError
from ..faults.models import FailureCurve

#: Bits per protected word (the ECC granule).
WORD_BITS = 64


class SramArray:
    """One SRAM data array (an L1/L2/L3 data or tag macro).

    Parameters
    ----------
    name:
        Diagnostic label, e.g. ``"L2.PMD0.data"``.
    size_kb:
        Array capacity; sets the number of 64-bit words and hence the
        number of cells exposed to disturbance.
    cell_curve:
        Per-run probability that at least one *accessed* marginal cell
        flips in this array, as a function of supply voltage.  The curve
        already folds in the array's activity factor, so the expected
        number of disturbance events per run is
        ``-ln(1 - p_single(v))`` (a Poisson thinning).
    double_fraction:
        Relative rate of two-bit events (two flips landing in the same
        ECC word) versus single-bit events, at equal voltage.  Doubles
        scale with an extra power of the cell failure level.
    """

    def __init__(
        self,
        name: str,
        size_kb: int,
        cell_curve: FailureCurve,
        double_fraction: float = 0.35,
    ) -> None:
        if size_kb <= 0:
            raise ConfigurationError("size_kb must be positive")
        if not 0.0 <= double_fraction <= 1.0:
            raise ConfigurationError("double_fraction must be within [0, 1]")
        self.name = name
        self.size_kb = int(size_kb)
        #: voltage -> (single, double) event rates of the current curve
        #: and double fraction; reassigning either clears it.
        self._rates: Dict[float, Tuple[float, float]] = {}
        self.cell_curve = cell_curve
        self.double_fraction = float(double_fraction)
        self._store: Dict[int, int] = {}

    @property
    def cell_curve(self) -> FailureCurve:
        """Per-run disturbance probability curve (see the class doc)."""
        return self._cell_curve

    @cell_curve.setter
    def cell_curve(self, curve: FailureCurve) -> None:
        self._cell_curve = curve
        self._rates = {}

    @property
    def double_fraction(self) -> float:
        """Relative rate of two-bit events (see the class doc)."""
        return self._double_fraction

    @double_fraction.setter
    def double_fraction(self, fraction: float) -> None:
        self._double_fraction = float(fraction)
        self._rates = {}

    # -- functional word store ------------------------------------------

    @property
    def num_words(self) -> int:
        """Capacity in 64-bit words."""
        return self.size_kb * 1024 // (WORD_BITS // 8)

    def write(self, index: int, word: int) -> None:
        """Store a word (sparse; unwritten words read as zero)."""
        self._check_index(index)
        if word < 0 or word >> WORD_BITS:
            raise ConfigurationError("word must fit in 64 bits")
        self._store[index] = word

    def read(self, index: int) -> int:
        """Read a word back (zero if never written)."""
        self._check_index(index)
        return self._store.get(index, 0)

    def occupied(self) -> int:
        """Number of words explicitly written."""
        return len(self._store)

    def _check_index(self, index: int) -> None:
        if not 0 <= index < self.num_words:
            raise ConfigurationError(
                f"word index {index} out of range 0..{self.num_words - 1} in {self.name}"
            )

    # -- disturbance sampling -----------------------------------------------

    def single_event_rate(self, voltage_mv: float) -> float:
        """Expected single-bit disturbance events per run."""
        return self._event_rates(voltage_mv)[0]

    def double_event_rate(self, voltage_mv: float) -> float:
        """Expected double-bit (same ECC word) events per run."""
        return self._event_rates(voltage_mv)[1]

    def _event_rates(self, voltage_mv: float) -> Tuple[float, float]:
        """Both rates at one voltage, computed once per curve and
        double fraction (the frozen curve cannot change in place)."""
        rates = self._rates.get(voltage_mv)
        if rates is None:
            p = min(self._cell_curve.probability(voltage_mv), 0.999999)
            single = -float(np.log1p(-p))
            rates = (single, self._double_fraction * p * single)
            self._rates[voltage_mv] = rates
        return rates

    def event_rate_table(
        self, voltages: "Tuple[int, ...]"
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(single_rates, double_rates)`` over a voltage grid.

        Tabulated by calling the scalar rate methods per voltage (not
        vectorized arithmetic), so each entry is bit-equal to what
        :meth:`sample_disturbances` would compute at run time -- the
        batch kernel's Poisson zero-test thresholds depend on that.
        """
        n = len(voltages)
        singles = np.empty(n, dtype=np.float64)
        doubles = np.empty(n, dtype=np.float64)
        for i, voltage_mv in enumerate(voltages):
            singles[i] = self.single_event_rate(voltage_mv)
            doubles[i] = self.double_event_rate(voltage_mv)
        return singles, doubles

    def sample_disturbances(
        self, voltage_mv: float, rng: np.random.Generator, max_events: int = 16
    ) -> List[Tuple[int, Tuple[int, ...]]]:
        """Sample the disturbance events of one run.

        Returns a list of ``(word_index, flipped_bit_positions)``; the
        event count is Poisson with the configured rates, clipped at
        ``max_events`` to bound worst-case work deep below the crash
        point.
        """
        events: List[Tuple[int, Tuple[int, ...]]] = []
        n_single = int(rng.poisson(self.single_event_rate(voltage_mv)))
        n_double = int(rng.poisson(self.double_event_rate(voltage_mv)))
        for _ in range(min(n_single, max_events)):
            index = int(rng.integers(self.num_words))
            bit = int(rng.integers(WORD_BITS))
            events.append((index, (bit,)))
        for _ in range(min(n_double, max_events)):
            index = int(rng.integers(self.num_words))
            first, second = rng.choice(WORD_BITS, size=2, replace=False)
            events.append((index, (int(first), int(second))))
        return events

    def march_test(self, pattern: int, words: Optional[int] = None) -> int:
        """Self-test helper (Section 3.4 cache tests): fill ``words``
        words with ``pattern`` and its complement alternately, read them
        back, and return the number of mismatching words.

        At nominal voltage the model never disturbs stored words, so the
        march test returns 0; the cache-test *workload* models voltage-
        dependent behaviour through the fault path instead.
        """
        limit = self.num_words if words is None else min(words, self.num_words)
        mask = (1 << WORD_BITS) - 1
        mismatches = 0
        for index in range(limit):
            expected = pattern if index % 2 == 0 else (~pattern & mask)
            self.write(index, expected)
            if self.read(index) != expected:
                mismatches += 1
        return mismatches
