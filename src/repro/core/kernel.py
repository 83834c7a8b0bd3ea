"""Vectorized batch-evaluation kernel for voltage-sweep campaigns.

The scalar path (:meth:`CharacterizationFramework.run_campaign` ->
:meth:`XGene2Machine.run_program` -> :meth:`EffectSampler.sample`)
rebuilds the per-unit failure models and re-walks every probability
curve once per run.  For a campaign that is pure overhead: within one
campaign the curves are fixed functions of voltage, and the voltage
schedule is known up front.

This module compiles that fault surface **once per campaign** into a
:class:`VoltageTable` -- per-voltage arrays of every quantity the
scalar path evaluates (clock/uncore SC probability, the SRAM Poisson
event rates of every cache level, SDC and timing-crash probabilities,
the SDC->CE conversion of the protection-coverage ablation), indexed by
``(nominal_mv - vdd_mv) // step_mv`` -- and then replays the campaign
loop against O(1) table lookups.

Bit-identical randomness
------------------------

The contract is that the batch path produces **bit-identical**
:class:`~repro.core.runs.RunRecord` streams (and raw log bytes) to the
scalar path.  Every run draws from the same per-run ``Generator`` the
machine would have built (same SHA-256 digest of
``seed|chip|program|core|voltage|freq|run_counter``, same PCG64
stream), reproduced without per-run ``default_rng`` construction by
:class:`RunGeneratorFactory`, which vectorizes numpy's ``SeedSequence``
entropy pool mix across all runs of a schedule chunk and then programs
a single reusable PCG64 with the resulting 128-bit state per run.

The per-run draw order of the scalar path (see
:meth:`EffectSampler.sample`) is collapsed into **one**
``rng.random(n)`` block per run using two stream facts of numpy's
PCG64 double path:

* ``rng.random(n)`` yields exactly the same values as ``n`` successive
  ``rng.random()`` calls (prefix property), so over-drawing is
  harmless as long as nothing reads the stream afterwards -- and every
  conditional draw of the scalar path is resolved inside the block;
* for ``lam < 10`` numpy's Poisson sampler uses the multiplication
  method, whose count is zero **iff** its first uniform is
  ``<= exp(-lam)``, consuming exactly one uniform from the same double
  stream (``lam == 0`` consumes nothing, ``lam >= 10`` switches to the
  PTRS algorithm and disqualifies the shortcut).

A run whose block shows any non-zero cache event count (or a voltage
step where some rate reaches the PTRS regime) is *replayed*: the
generator state is reset to the run's start and the campaign-persistent
:class:`EffectSampler` samples it scalar-style -- bit-identical by
construction, and rare by design (non-zero counts cluster in the crash
region where SC dominates).  A replay walks the real cache codecs, so
its cost is the SECDED encode/decode of each disturbance event; the
codec is table driven (:class:`~repro.faults.ecc.SecdedCode`) and the
SRAM event rates are memoized per voltage
(:class:`~repro.hardware.sram.SramArray`).

Stretches
---------

Most runs of a sweep need no per-run work.  One vectorized pass per
seeding chunk gives every run its outcome class from its uniform block
(:meth:`CampaignKernel._row_classes`, with the columns and thresholds
each :class:`_StepPlan` carries): clean, SDC, AC, SC, or per-run for a
run that draws an EDAC event or would replay.

* Clean, SDC-only and AC-only runs are *quiet*: they leave the machine
  exactly as a clean run does.  The quiet runs in a row at a level are
  applied in O(1) machine calls: the framework's ``clean_cycles``
  performs their prepare/restore rounds (one real round, the rest's
  I2C traffic repeated), :meth:`XGene2Machine.kernel_clean_runs`
  advances the run counter, power estimate, tick and heartbeat, the
  log blocks come from per-class templates and the records share
  per-class classifications.
* System crashes in a row at a level run the first crash for real; the
  reset that recovers it reboots the board to the same state every
  time, so the others repeat its recorded deltas
  (:meth:`XGene2Machine.kernel_repeat`,
  :meth:`WatchdogMonitor.repeat_last`).  A recovery that is not a
  plain reset is not repeated.

Only runs with an EDAC event or a scalar replay pay for ``sample_u``,
``kernel_execute`` and a formatted block.

Run streams are seeded a chunk of levels at a time, each chunk reaching
through the level where the crash-level stop rule is predicted to end
the campaign (:class:`_ScheduleStates`).

One table per cell
------------------

A table depends on what the machine spec fixes (chip, program, core,
frequency, protection, extension models, lifetime state), never on the
per-task seed: the seed only keys the run streams.  So the campaigns of
one (workload, core) cell can share a compiled table, and with it every
plan row already built.  :func:`repro.parallel.tasks.run_campaign_chunk`
hands each task's table to the next task of its chunk (tasks arrive in
(workload, core, campaign) order); the receiving framework uses it when
the cell and its machine's ``batch_surface_token`` match.

The kernel is engaged by :class:`CharacterizationFramework` via the
machine's ``compile_batch_table`` hook and falls back to the scalar
path whenever the machine declines to compile (scripted injections
pending, unknown extension components, an undervolted SoC domain --
see :meth:`XGene2Machine.compile_batch_table`).
"""

from __future__ import annotations

import bisect
import hashlib
import math
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from .. import telemetry
from ..effects import EffectType, normalize_effects
from ..errors import CampaignError
from ..units import CHARACTERIZATION_TEMP_C, PMD_NOMINAL_MV, VOLTAGE_FLOOR_MV, VOLTAGE_STEP_MV
from ..workloads.execution import corrupted_output
from .campaign import CampaignResult
from .effects import classify_run
from .runs import CharacterizationSetup, RunRecord
from .watchdog import WatchdogAction

__all__ = [
    "CampaignKernel",
    "RunGeneratorFactory",
    "VoltageTable",
    "compile_voltage_table",
]

#: numpy switches from the multiplication method to the PTRS algorithm
#: at this Poisson rate; only below it does the one-uniform zero test
#: hold.
_POISSON_PTRS_LAM = 10.0

_SC_EFFECTS = frozenset({EffectType.SC})
_NO_EFFECTS = frozenset({EffectType.NO})

# ---------------------------------------------------------------------------
# Per-run generator states without per-run SeedSequence construction
# ---------------------------------------------------------------------------

# numpy SeedSequence entropy-pool constants (Melissa O'Neill's seeding
# algorithm, as implemented in numpy.random.bit_generator).
_INIT_A = np.uint32(0x43B0D7E5)
_MULT_A = np.uint32(0x931E8875)
_INIT_B = np.uint32(0x8B51F9DD)
_MULT_B = np.uint32(0x58F38DED)
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
#: PCG64's 128-bit LCG multiplier, split into 64-bit limbs for the
#: vectorized seeding arithmetic.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_PCG_MULT_HI = np.uint64(_PCG_MULT >> 64)
_PCG_MULT_LO = np.uint64(_PCG_MULT & 0xFFFFFFFFFFFFFFFF)
_MASK32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)


def _hashmix_chain(init: int, mult: int, count: int) -> np.ndarray:
    """The deterministic hash-constant chain ``hc *= mult`` (mod 2**32).

    SeedSequence's pool mix advances ``hc`` once per hashmix call, so
    the whole chain is known ahead of time and every per-source batch
    of hashmixes can run with a precomputed constant column.
    """
    out = [init]
    hc = init
    for _ in range(count):
        hc = (hc * mult) & 0xFFFFFFFF
        out.append(hc)
    return np.array(out, dtype=np.uint32)


#: hc chain of mix_entropy: 4 pool-init + 12 churn + 16 fold hashmixes.
_HCS = _hashmix_chain(0x43B0D7E5, 0x931E8875, 32)
#: hc chain of generate_state: 8 output-word hashmixes.
_GCS = _hashmix_chain(0x8B51F9DD, 0x58F38DED, 8)
#: Per-stage (hc-before, hc-after) constant columns for broadcasting.
_HC_INIT1 = _HCS[0:4].reshape(4, 1)
_HC_INIT2 = _HCS[1:5].reshape(4, 1)
_HC_CHURN1 = tuple(_HCS[4 + 3 * s : 7 + 3 * s].reshape(3, 1) for s in range(4))
_HC_CHURN2 = tuple(_HCS[5 + 3 * s : 8 + 3 * s].reshape(3, 1) for s in range(4))
_HC_FOLD1 = tuple(_HCS[16 + 4 * s : 20 + 4 * s].reshape(4, 1) for s in range(4))
_HC_FOLD2 = tuple(_HCS[17 + 4 * s : 21 + 4 * s].reshape(4, 1) for s in range(4))
_GC1 = _GCS[0:8].reshape(8, 1)
_GC2 = _GCS[1:9].reshape(8, 1)
#: Churn destinations: every pool word except the source itself.
_CHURN_DST = tuple(
    np.array([j for j in range(4) if j != s]) for s in range(4)
)


def _mul128(
    a_hi: np.ndarray, a_lo: np.ndarray, b_hi: np.uint64, b_lo: np.uint64
) -> Tuple[np.ndarray, np.ndarray]:
    """``(a_hi, a_lo) * (b_hi, b_lo) mod 2**128`` over 64-bit limbs.

    The only widening product needed is ``a_lo * b_lo``, computed via
    32-bit half-limbs; the cross terms wrap in the high limb.
    """
    a0 = a_lo & _MASK32
    a1 = a_lo >> _SHIFT32
    b0 = b_lo & _MASK32
    b1 = b_lo >> _SHIFT32
    p0 = a0 * b0
    p1 = a0 * b1
    p2 = a1 * b0
    mid = (p0 >> _SHIFT32) + (p1 & _MASK32) + (p2 & _MASK32)
    lo = (p0 & _MASK32) | (mid << _SHIFT32)
    hi = (
        a1 * b1
        + (p1 >> _SHIFT32)
        + (p2 >> _SHIFT32)
        + (mid >> _SHIFT32)
        + a_lo * b_hi
        + a_hi * b_lo
    )
    return hi, lo


class RunGeneratorFactory:
    """Replays ``np.random.default_rng(sha256(key))`` streams cheaply.

    ``seed_states`` derives the 128-bit PCG64 ``(state, inc)`` pair of
    every key in one vectorized pass (the SeedSequence pool mix runs on
    uint32 arrays spanning all keys); ``activate`` programs a single
    reusable bit generator with one such pair.  Per-run construction
    cost drops from ~30us (``default_rng``) to ~2us amortized.

    The uint64 -> uint32 entropy word split assumes a little-endian
    platform (as numpy's own ``frombuffer`` view does everywhere else
    in this codebase).
    """

    def __init__(self) -> None:
        self._bitgen = np.random.PCG64(0)
        #: The reusable generator; valid between ``activate`` calls.
        self.generator = np.random.Generator(self._bitgen)
        self._template = self._bitgen.state

    def seed_states(self, keys: Sequence[bytes]) -> List[Tuple[int, int]]:
        """PCG64 ``(state, inc)`` of ``default_rng(sha256(key))`` per key."""
        limbs = self.seed_limbs(keys)
        if limbs is None:
            return []
        return self.fold_states(limbs)

    @staticmethod
    def fold_states(
        limbs: Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
    ) -> List[Tuple[int, int]]:
        """Limb arrays folded into ``(state, inc)`` python-int pairs."""
        st_hi, st_lo, inc_hi, inc_lo = limbs
        state_his = st_hi.tolist()
        state_los = st_lo.tolist()
        inc_his = inc_hi.tolist()
        inc_los = inc_lo.tolist()
        return [
            (
                (state_his[i] << 64) | state_los[i],
                (inc_his[i] << 64) | inc_los[i],
            )
            for i in range(len(state_his))
        ]

    def seed_limbs(
        self, keys: Sequence[bytes]
    ) -> Optional[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
        """``(state_hi, state_lo, inc_hi, inc_lo)`` uint64 limb arrays.

        The pool mix runs batched per hashmix *source*: with the hash
        constants precomputed (:func:`_hashmix_chain`), every source's
        destinations update in one ``(rows, n)`` matrix operation, so
        the ufunc-call count is independent of both the key count and
        the per-pair structure of SeedSequence's mix.  Returns None for
        an empty key list.
        """
        n = len(keys)
        if n == 0:
            return None
        entropy = np.frombuffer(
            b"".join([hashlib.sha256(key).digest() for key in keys]),
            dtype=np.uint64,
        ).reshape(n, 4)
        # Little-endian: each uint64 entropy word becomes (low, high)
        # uint32 words, matching SeedSequence's coercion.  Transposing
        # to C order makes every per-word row contiguous (and ours to
        # mutate).
        words = np.ascontiguousarray(entropy.view(np.uint32).reshape(n, 8).T)
        with np.errstate(over="ignore"):
            # mix_entropy: hashmix the first four entropy words into the
            # pool in one batched pass...
            pool = (words[:4] ^ _HC_INIT1) * _HC_INIT2
            pool ^= pool >> _XSHIFT
            # ...churn the pool (per source, the three other pool words
            # mix with that source's three hashmix variants at once)...
            for s in range(4):
                m = (pool[s] ^ _HC_CHURN1[s]) * _HC_CHURN2[s]
                m ^= m >> _XSHIFT
                m *= _MIX_MULT_R
                idx = _CHURN_DST[s]
                d = pool[idx]
                d *= _MIX_MULT_L
                d -= m
                d ^= d >> _XSHIFT
                pool[idx] = d
            # ...then fold the remaining entropy words into all four
            # pool words, one batched mix per source.
            for s in range(4):
                m = (words[4 + s] ^ _HC_FOLD1[s]) * _HC_FOLD2[s]
                m ^= m >> _XSHIFT
                m *= _MIX_MULT_R
                pool *= _MIX_MULT_L
                pool -= m
                pool ^= pool >> _XSHIFT
            # generate_state(4, uint64) == 8 hashed uint32 words (the
            # pool read twice over), folded into four uint64 rows.
            g = (np.concatenate((pool, pool)) ^ _GC1) * _GC2
            g ^= g >> _XSHIFT
            folded = g[0::2].astype(np.uint64) | (
                g[1::2].astype(np.uint64) << _SHIFT32
            )
            w0, w1, w2, w3 = folded
            # PCG64 seeding, in 64-bit limbs: inc = (stream << 1) | 1,
            # state = ((inc + seed) * MULT + inc) mod 2^128, where
            # seed = (w0, w1) and stream = (w2, w3) hi/lo.
            one = np.uint64(1)
            s63 = np.uint64(63)
            inc_hi = (w2 << one) | (w3 >> s63)
            inc_lo = (w3 << one) | one
            t_lo = inc_lo + w1
            t_hi = inc_hi + w0 + (t_lo < inc_lo)
            p_hi, p_lo = _mul128(t_hi, t_lo, _PCG_MULT_HI, _PCG_MULT_LO)
            st_lo = p_lo + inc_lo
            st_hi = p_hi + inc_hi + (st_lo < p_lo)
        return st_hi, st_lo, inc_hi, inc_lo

    #: Per-draw LCG jump constants ``A_j = MULT**j`` and
    #: ``B_j = (MULT**j - 1) / (MULT - 1)`` (mod 2**128) as python
    #: ints, extended on demand; ``_STEP_ARRAYS`` caches the limb /
    #: half-limb column arrays per requested block width.
    _STEP_A: List[int] = []
    _STEP_B: List[int] = []
    _STEP_ARRAYS: Dict[int, Tuple[np.ndarray, ...]] = {}

    @classmethod
    def _step_arrays(cls, n_draws: int) -> Tuple[np.ndarray, ...]:
        """Column-vector jump constants for an ``n_draws``-wide block."""
        cached = cls._STEP_ARRAYS.get(n_draws)
        if cached is not None:
            return cached
        mask = (1 << 128) - 1
        while len(cls._STEP_A) < n_draws:
            if cls._STEP_A:
                a = (cls._STEP_A[-1] * _PCG_MULT) & mask
                b = (cls._STEP_B[-1] * _PCG_MULT + 1) & mask
            else:
                # Draw 0 reads the state after one advance.
                a, b = _PCG_MULT, 1
            cls._STEP_A.append(a)
            cls._STEP_B.append(b)
        m64 = 0xFFFFFFFFFFFFFFFF
        column = lambda vals: np.array(  # noqa: E731
            vals, dtype=np.uint64
        ).reshape(n_draws, 1)
        a_lo = column([a & m64 for a in cls._STEP_A[:n_draws]])
        b_lo = column([b & m64 for b in cls._STEP_B[:n_draws]])
        arrays = (
            column([a >> 64 for a in cls._STEP_A[:n_draws]]),
            a_lo,
            a_lo & _MASK32,
            a_lo >> _SHIFT32,
            column([b >> 64 for b in cls._STEP_B[:n_draws]]),
            b_lo,
            b_lo & _MASK32,
            b_lo >> _SHIFT32,
        )
        cls._STEP_ARRAYS[n_draws] = arrays
        return arrays

    @classmethod
    def uniform_block(
        cls,
        limbs: Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
        n_draws: int,
    ) -> np.ndarray:
        """First ``n_draws`` doubles of every stream, shape ``(n, k)``.

        Vectorized PCG64 (XSL-RR output on 64-bit limbs), bit-identical
        to ``Generator(PCG64(...)).random(n_draws)`` per stream.
        Instead of stepping the LCG sequentially, every (draw, stream)
        state is computed in one closed-form broadcast --
        ``state_j = A_j * state_0 + B_j * inc`` with precomputed jump
        constants -- so the ufunc count is independent of the draw
        count and the per-call overhead of small-array ops amortizes
        over the whole ``(k, n)`` grid.  The limb arrays are not
        mutated.
        """
        st_hi, st_lo, inc_hi, inc_lo = limbs
        a_hi, a_lo, a0, a1, b_hi, b_lo, b0, b1 = cls._step_arrays(n_draws)
        s11 = np.uint64(11)
        s58 = np.uint64(58)
        s63 = np.uint64(63)
        s64 = np.uint64(64)
        scale = 1.0 / 9007199254740992.0  # 2**-53
        with np.errstate(over="ignore"):
            # (k, 1) jump constants x (n,) stream limbs -> (k, n)
            # states after j+1 advances, in two full 128-bit broadcast
            # products (the half-limb splits of the constants are
            # precomputed).
            c0 = st_lo & _MASK32
            c1 = st_lo >> _SHIFT32
            p0 = a0 * c0
            p1 = a0 * c1
            p2 = a1 * c0
            mid = (p0 >> _SHIFT32) + (p1 & _MASK32) + (p2 & _MASK32)
            lo_a = (p0 & _MASK32) | (mid << _SHIFT32)
            hi_a = (
                a1 * c1
                + (p1 >> _SHIFT32)
                + (p2 >> _SHIFT32)
                + (mid >> _SHIFT32)
                + a_lo * st_hi
                + a_hi * st_lo
            )
            c0 = inc_lo & _MASK32
            c1 = inc_lo >> _SHIFT32
            p0 = b0 * c0
            p1 = b0 * c1
            p2 = b1 * c0
            mid = (p0 >> _SHIFT32) + (p1 & _MASK32) + (p2 & _MASK32)
            lo = (p0 & _MASK32) | (mid << _SHIFT32)
            lo += lo_a
            hi_a += (
                b1 * c1
                + (p1 >> _SHIFT32)
                + (p2 >> _SHIFT32)
                + (mid >> _SHIFT32)
                + b_lo * inc_hi
                + b_hi * inc_lo
            )
            hi_a += lo < lo_a
            # out64 = rotr64(hi ^ lo, hi >> 58); double = (out64 >> 11)
            # * 2**-53.
            x = hi_a ^ lo
            rot = hi_a >> s58
            lshift = x << ((s64 - rot) & s63)
            x >>= rot
            x |= lshift
            x >>= s11
            out = x * scale
        return out.T

    def activate(self, state: Tuple[int, int]) -> np.random.Generator:
        """Point the shared generator at one run's stream start."""
        template = self._template
        template["state"]["state"] = state[0]
        template["state"]["inc"] = state[1]
        template["has_uint32"] = 0
        template["uinteger"] = 0
        self._bitgen.state = template
        return self.generator


# ---------------------------------------------------------------------------
# The compiled fault surface
# ---------------------------------------------------------------------------


class _StepPlan:
    """Everything :meth:`VoltageTable.sample_u` needs at one voltage.

    The classification pass (:meth:`CampaignKernel._row_classes`) reads
    a run's outcome class off its uniform block with the fields below:

    * ``quiet_lo``/``quiet_hi`` bound columns ``0 .. ac_col - 1``: a row
      inside them (``lo <= u <= hi``) draws no EDAC event (every cache
      channel at zero events, no SDC->CE conversion, no analytic CE or
      UE) and so needs no scalar replay;
    * ``ac_col`` is the application-crash draw; the SDC draw follows at
      ``ac_col + 1`` and the rollback draw at ``ac_col + 2``;
    * ``p_rollback`` is the rollback coverage, 0.0 without a rollback
      unit (no uniform is below it).

    ``quiet_lo``/``quiet_hi`` are None on rows where every run that
    does not crash the system replays (the Poisson PTRS regime).
    """

    __slots__ = (
        "voltage_mv",
        "p_sc",
        "thresholds",
        "n_channels",
        "conv",
        "p_ac",
        "p_sdc",
        "p_ce",
        "p_ue",
        "n_uniform",
        "analytic",
        "quiet_lo",
        "quiet_hi",
        "ac_col",
        "p_rollback",
    )


class VoltageTable:
    """Per-voltage fault surface of one (program, core, freq) setup.

    Built by :func:`compile_voltage_table`; every probability is the
    *exact* float the scalar path computes at run time (the compile
    loop calls the same curve code, it just calls it once per voltage
    instead of once per run).  ``sampler`` is kept for the rare replay
    path and stays valid for the whole campaign because the sampler is
    stateless across runs.
    """

    __slots__ = (
        "program",
        "core",
        "freq_mhz",
        "chip_name",
        "nominal_mv",
        "step_mv",
        "voltages",
        "sampler",
        "rollback_coverage",
        "ue_ac_fraction",
        "expected_output",
        "_plans",
        "_power",
    )

    def __init__(
        self,
        program: object,
        core: int,
        freq_mhz: int,
        chip_name: str,
        nominal_mv: int,
        step_mv: int,
        voltages: Tuple[int, ...],
        plans: List[Optional[_StepPlan]],
        sampler: object,
        rollback_coverage: Optional[float],
        expected_output: str,
    ) -> None:
        self.program = program
        self.core = core
        self.freq_mhz = freq_mhz
        self.chip_name = chip_name
        self.nominal_mv = nominal_mv
        self.step_mv = step_mv
        self.voltages = voltages
        self._plans = plans
        self.sampler = sampler
        self.rollback_coverage = rollback_coverage
        self.ue_ac_fraction = sampler.ue_ac_fraction
        self.expected_output = expected_output
        self._power: Dict[Tuple[int, ...], float] = {}

    def index_of(self, voltage_mv: int) -> int:
        """Table row of a scheduled voltage (the O(1) grid lookup)."""
        idx = (self.nominal_mv - voltage_mv) // self.step_mv
        if not 0 <= idx < len(self._plans) or self.voltages[idx] != voltage_mv:
            raise CampaignError(
                f"voltage {voltage_mv} mV outside the compiled table"
            )
        return idx

    def plan(self, vidx: int) -> _StepPlan:
        """The materialized row at one index.

        Rows are materialized on first visit and memoized: a campaign
        stopped by the crash-level rule touches a dozen of the 50+ grid
        rows, so evaluating the curves eagerly for the full grid would
        dominate the compile cost without being read.
        """
        plan = self._plans[vidx]
        if plan is None:
            plan = _build_plan(
                self.sampler, self.voltages[vidx], self.rollback_coverage
            )
            self._plans[vidx] = plan
        return plan

    def power_w(self, vidx: int, machine: object) -> float:
        """Chip power at one table row on ``machine``'s PMD clocks.

        Memoized per (row, PMD frequencies): the table may serve
        several machines of one spec (see
        :func:`repro.parallel.tasks.run_campaign_chunk`), and the
        clocks are the only machine state the estimate reads besides
        the spec-fixed power model.
        """
        freqs = machine.clocks.frequencies()
        key = (vidx, *freqs)
        power = self._power.get(key)
        if power is None:
            power = machine.power_model.chip_power_w(
                self.voltages[vidx], freqs, temp_c=CHARACTERIZATION_TEMP_C
            )
            self._power[key] = power
        return power

    # -- sampling ---------------------------------------------------------

    def sample_u(
        self,
        plan: "_StepPlan",
        u: List[float],
        fresh_rng: Callable[[], np.random.Generator],
    ) -> Tuple[FrozenSet[EffectType], Dict[str, int]]:
        """Classify one run from its precomputed uniform block ``u``.

        ``u`` must hold (at least) the first ``plan.n_uniform`` doubles
        of the run's stream -- excess entries are ignored, which is
        what lets a chunk share one over-drawn block width.
        ``fresh_rng`` returns a generator positioned at the run's
        stream start; it is only invoked on the scalar-replay path.
        """
        if u[0] < plan.p_sc:
            return _SC_EFFECTS, {"system_crash": 1}
        if plan.analytic:
            return self._sample_analytic(plan, u)
        thresholds = plan.thresholds
        if thresholds is None:
            return self._replay(plan, fresh_rng())
        idx = 1
        for threshold in thresholds:
            if u[idx] > threshold:
                return self._replay(plan, fresh_rng())
            idx += 1
        detail: Dict[str, int] = {}
        effects = set()
        if plan.conv > 0.0:
            if u[idx] < plan.conv:
                effects.add(EffectType.CE)
                detail["corrected_errors"] = 1
            idx += 1
        if u[idx] < plan.p_ac:
            effects.add(EffectType.AC)
            detail["application_crash"] = 1
            return normalize_effects(effects), detail
        idx += 1
        if u[idx] < plan.p_sdc:
            idx += 1
            if (
                self.rollback_coverage is not None
                and u[idx] < self.rollback_coverage
            ):
                detail["rollbacks"] = 1
            else:
                effects.add(EffectType.SDC)
                detail["output_mismatch"] = 1
        if not effects:
            return _NO_EFFECTS, detail
        return normalize_effects(effects), detail

    def _sample_analytic(self, plan: _StepPlan, u: List[float]):
        """The no-cache-models draw order (always fast-pathable)."""
        detail: Dict[str, int] = {}
        effects = set()
        ce = u[1] < plan.p_ce
        ue = u[2] < plan.p_ue
        if ce:
            effects.add(EffectType.CE)
            detail["corrected_errors"] = 1
        if ue:
            effects.add(EffectType.UE)
            detail["uncorrected_errors"] = 1
        crashed = u[3] < plan.p_ac
        idx = 4
        if not crashed and ue:
            crashed = u[idx] < self.ue_ac_fraction
            idx += 1
        if crashed:
            effects.add(EffectType.AC)
            detail["application_crash"] = 1
            return normalize_effects(effects), detail
        if u[idx] < plan.p_sdc:
            idx += 1
            if (
                self.rollback_coverage is not None
                and u[idx] < self.rollback_coverage
            ):
                detail["rollbacks"] = 1
            else:
                effects.add(EffectType.SDC)
                detail["output_mismatch"] = 1
        if not effects:
            return _NO_EFFECTS, detail
        return normalize_effects(effects), detail

    def _replay(self, plan: _StepPlan, rng: np.random.Generator):
        """Scalar-exact replay of one run; ``rng`` sits at stream start."""
        sampled = self.sampler.sample(plan.voltage_mv, rng)
        effects = sampled.effects
        detail = dict(sampled.detail)
        if (
            self.rollback_coverage is not None
            and EffectType.SDC in effects
            and rng.random() < self.rollback_coverage
        ):
            detail.pop("output_mismatch", None)
            detail["rollbacks"] = detail.get("rollbacks", 0) + 1
            effects = normalize_effects(set(effects) - {EffectType.SDC})
        return effects, detail


def _build_plan(
    sampler: object, voltage_mv: int, rollback_coverage: Optional[float]
) -> _StepPlan:
    """Materialize one grid row from the sampler's scalar curves."""
    probs = sampler.probability_table((voltage_mv,))
    stack = sampler.cache_stack
    rollback_slot = 1 if rollback_coverage is not None else 0
    plan = _StepPlan()
    plan.voltage_mv = voltage_mv
    plan.p_sc = float(probs["sc"][0])
    plan.p_ac = float(probs["ac_timing"][0])
    plan.p_sdc = float(probs["sdc"][0])
    plan.conv = float(probs["sdc_to_ce"][0])
    plan.p_rollback = rollback_coverage if rollback_coverage is not None else 0.0
    plan.quiet_lo = plan.quiet_hi = None
    plan.ac_col = 0
    if stack is None:
        plan.analytic = True
        plan.thresholds = None
        plan.n_channels = 0
        plan.p_ce = float(probs["ce"][0])
        plan.p_ue = float(probs["ue"][0])
        # SC + CE + UE + AC + (UE->AC) + SDC [+ rollback]
        plan.n_uniform = 6 + rollback_slot
        # Quiet: no CE or UE draw fires, so the UE->AC slot is skipped
        # and the SDC draw sits right after the AC draw.
        _set_quiet_bounds(plan, [0.0, plan.p_ce, plan.p_ue], [])
    else:
        plan.analytic = False
        plan.p_ce = 0.0
        plan.p_ue = 0.0
        lams = [float(lam) for lam in stack.poisson_rate_table((voltage_mv,))[0]]
        if max(lams) >= _POISSON_PTRS_LAM:
            # PTRS regime: the one-uniform zero test no longer
            # holds; every surviving run replays scalar-style.
            plan.thresholds = None
            plan.n_channels = 0
            plan.n_uniform = 1
        else:
            plan.thresholds = [math.exp(-lam) for lam in lams if lam > 0.0]
            plan.n_channels = len(plan.thresholds)
            # SC + channels + (conv) + AC + SDC [+ rollback]
            plan.n_uniform = (
                3
                + plan.n_channels
                + (1 if plan.conv > 0.0 else 0)
                + rollback_slot
            )
            # Quiet: every channel at zero events, no SDC->CE
            # conversion.
            lo = [0.0] * (1 + plan.n_channels)
            if plan.conv > 0.0:
                lo.append(plan.conv)
            _set_quiet_bounds(plan, lo, plan.thresholds)
    return plan


def _set_quiet_bounds(
    plan: _StepPlan, lo: List[float], thresholds: List[float]
) -> None:
    """Set the quiet-row bounds of ``plan`` over columns ``0 ..
    len(lo) - 1``; the AC draw follows them.

    ``lo`` holds the lower bound of each column (a draw that must *not*
    fire: ``u >= p``; 0.0 where any uniform passes), ``thresholds`` the
    upper bounds of the Poisson channels in columns ``1..`` (a zero
    event count: ``u <= exp(-lam)``); the other columns take 1.0.
    """
    n = len(lo)
    plan.ac_col = n
    plan.quiet_lo = np.array(lo)
    plan.quiet_hi = np.array(
        [1.0] + list(thresholds) + [1.0] * (n - 1 - len(thresholds))
    )


def compile_voltage_table(
    sampler: object,
    program: object,
    core: int,
    freq_mhz: int,
    chip_name: str,
    expected_output: str,
    rollback_coverage: Optional[float] = None,
    nominal_mv: int = PMD_NOMINAL_MV,
    floor_mv: int = VOLTAGE_FLOOR_MV,
    step_mv: int = VOLTAGE_STEP_MV,
) -> VoltageTable:
    """Lay out the sampler's fault surface over the full sweep grid.

    All probabilities come from the sampler's own scalar evaluation
    methods (:meth:`EffectSampler.probability_table`,
    :meth:`CacheStack.poisson_rate_table`), so every table entry is
    bit-equal to what the scalar path would compute per run;
    ``exp(-lam)`` thresholds use :func:`math.exp` to match numpy's C
    Poisson implementation to the last ulp.  Rows are materialized on
    first visit (see :meth:`VoltageTable.plan`).
    """
    voltages = tuple(range(nominal_mv, floor_mv - 1, -step_mv))
    plans: List[Optional[_StepPlan]] = [None] * len(voltages)
    return VoltageTable(
        program=program,
        core=core,
        freq_mhz=freq_mhz,
        chip_name=chip_name,
        nominal_mv=nominal_mv,
        step_mv=step_mv,
        voltages=voltages,
        plans=plans,
        sampler=sampler,
        rollback_coverage=rollback_coverage,
        expected_output=expected_output,
    )


# ---------------------------------------------------------------------------
# The campaign loop against the table
# ---------------------------------------------------------------------------

#: Outcome classes of :meth:`CampaignKernel._row_classes`.  The first
#: three are *quiet*: the run leaves the machine exactly as a clean run
#: does (no EDAC report, no hang), so the quiet runs in a row at a level
#: are applied as one stretch.
_CLEAN = 0
_SDC = 1
_AC = 2
#: A system crash: the watchdog has to recover the board.
_SC = 3
#: An EDAC event or a scalar replay: the run takes the per-run path.
_PER_RUN = 4

#: A level counts toward the predicted stop level when its all-crash
#: probability ``p_sc ** runs_per_level`` reaches this.
_LIKELY_ALL_CRASH = 0.5

_Limbs = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


class _ScheduleStates:
    """Derives per-run generator states for a campaign schedule, one
    chunk of levels at a time.

    Run-counter values are predictable (the machine consumes one per
    executed run, and the kernel executes the schedule prefix in
    order), so the keys of a whole chunk of levels can be derived in
    one vectorized pass ahead of execution.  A chunk reaches through
    the level where the crash-level stop rule is predicted to end the
    campaign (:meth:`_chunk_end`); a campaign that runs deeper seeds
    the next chunk from there the same way.
    """

    def __init__(
        self,
        factory: RunGeneratorFactory,
        machine: object,
        table: VoltageTable,
        schedule: Sequence[int],
        runs_per_level: int,
        stop_after: Optional[int],
    ) -> None:
        self._factory = factory
        self._table = table
        self._prefix = (
            f"{machine.seed}|{machine.chip.name}|{table.program.name}|{table.core}|"
        )
        self._schedule = list(schedule)
        self._runs = runs_per_level
        #: The stop rule's crash-level count; None when the campaign
        #: sweeps to a declared ``stop_mv`` (no early stop).
        self._stop_after = stop_after
        self._base_counter = machine.run_counter
        #: First level of every seeded chunk, then one past the last.
        self._bounds: List[int] = [0]
        self._chunk_limbs: List[_Limbs] = []

    def chunk(self, level_index: int) -> Tuple[int, int, _Limbs]:
        """``(first level, end level, limb arrays)`` of the chunk that
        holds a level; the limbs are in level-major run order."""
        bounds = self._bounds
        while bounds[-1] <= level_index:
            self._extend()
        ci = bisect.bisect_right(bounds, level_index) - 1
        return bounds[ci], bounds[ci + 1], self._chunk_limbs[ci]

    def state_at(self, index: int) -> Tuple[int, int]:
        """The (state, inc) pair of one run by schedule position.

        Folded from the chunk's limb arrays on demand -- only the
        scalar-replay path ever needs a python-int pair, so whole-chunk
        folding would be wasted work.
        """
        start, _end, (st_hi, st_lo, inc_hi, inc_lo) = self.chunk(
            index // self._runs
        )
        offset = index - start * self._runs
        return (
            (int(st_hi[offset]) << 64) | int(st_lo[offset]),
            (int(inc_hi[offset]) << 64) | int(inc_lo[offset]),
        )

    def _chunk_end(self, start: int) -> int:
        """One past the last level of the chunk that starts at ``start``.

        That is the predicted stop level: the first level that ends a
        run of ``stop_after`` levels which are each likely to crash on
        every run (:data:`_LIKELY_ALL_CRASH`), or the end of the
        schedule.  The prediction only sizes the chunk; where the
        campaign really stops never depends on it.
        """
        schedule = self._schedule
        if self._stop_after is None:
            return len(schedule)
        table = self._table
        likely = 0
        for level in range(start, len(schedule)):
            p_sc = table.plan(table.index_of(schedule[level])).p_sc
            if p_sc ** self._runs >= _LIKELY_ALL_CRASH:
                likely += 1
                if likely >= self._stop_after:
                    return level + 1
            else:
                likely = 0
        return len(schedule)

    def _extend(self) -> None:
        start = self._bounds[-1]
        end = self._chunk_end(start)
        counter = self._base_counter + start * self._runs
        freq_mhz = self._table.freq_mhz
        keys: List[bytes] = []
        for voltage_mv in self._schedule[start:end]:
            head = f"{self._prefix}{voltage_mv}|{freq_mhz}|"
            for _ in range(self._runs):
                counter += 1
                keys.append(f"{head}{counter}".encode())
        self._chunk_limbs.append(self._factory.seed_limbs(keys))
        self._bounds.append(end)


class CampaignKernel:
    """Executes one campaign's schedule against a compiled table.

    Reproduces :meth:`CharacterizationFramework.run_campaign` exactly:
    the same machine preparation and safe-state restore per run, the
    same watchdog recovery, the same ``voltage_step`` telemetry spans,
    the same raw log text, the same crash-level stop rule -- but builds
    the :class:`RunRecord` stream directly (through the same
    :func:`classify_run` the parser applies) instead of re-parsing the
    log it just formatted.

    One vectorized pass gives every run its outcome class
    (:meth:`_row_classes`), and only runs with an EDAC event or a
    scalar replay take the per-run path.  The quiet runs in a row at a
    level (clean, SDC-only, AC-only) are applied in one
    ``clean_cycles`` call (their prepare/restore rounds) and one
    :meth:`XGene2Machine.kernel_clean_runs` call, with log blocks from
    per-class templates and shared per-class classifications.  The
    system crashes in a row at a level run the first crash for real
    and repeat its recorded deltas for the rest
    (:meth:`XGene2Machine.kernel_repeat`,
    :meth:`WatchdogMonitor.repeat_last`).
    """

    def __init__(
        self,
        machine: object,
        table: VoltageTable,
        config: object,
        watchdog: object,
        prepare: Callable[[int, int, int], None],
        restore: Callable[[], None],
        clean_cycles: Callable[[int, int, int, int], None],
    ) -> None:
        self.machine = machine
        self.table = table
        self.config = config
        self.watchdog = watchdog
        self._prepare = prepare
        self._restore = restore
        self._clean_cycles = clean_cycles
        self._factory = RunGeneratorFactory()

    @staticmethod
    def _row_classes(
        u: np.ndarray, plans: Sequence[_StepPlan], runs_per_level: int
    ) -> List[int]:
        """The outcome class of every row of a chunk's uniform block.

        ``_SC`` when the system-crash draw fires; otherwise
        ``_PER_RUN`` when the row draws an EDAC event or would replay;
        otherwise ``_AC``, ``_SDC`` or ``_CLEAN`` (a rollback-covered
        SDC counts as clean).  One vectorized pass over the level
        plans' columns and thresholds, exact: the same float64 compares
        :meth:`VoltageTable.sample_u` makes.
        """
        n_rows, width = u.shape
        lo = np.zeros_like(u)
        hi = np.ones_like(u)
        ac_cols = np.empty(len(plans), dtype=np.intp)
        probs = np.empty((4, len(plans)))
        for k, plan in enumerate(plans):
            rows = slice(k * runs_per_level, (k + 1) * runs_per_level)
            if plan.quiet_lo is None:
                hi[rows, 0] = -1.0
            else:
                lo[rows, : plan.ac_col] = plan.quiet_lo
                hi[rows, : plan.ac_col] = plan.quiet_hi
            ac_cols[k] = plan.ac_col
            probs[:, k] = (plan.p_sc, plan.p_ac, plan.p_sdc, plan.p_rollback)
        p_sc, p_ac, p_sdc, p_rollback = np.repeat(probs, runs_per_level, axis=1)
        ac_col = np.repeat(ac_cols, runs_per_level)
        rows = np.arange(n_rows)
        # The SDC and rollback columns only matter on rows that reach
        # them; clipping keeps the other rows' gathers in bounds.
        last = width - 1
        ac = u[rows, np.minimum(ac_col, last)] < p_ac
        sdc = u[rows, np.minimum(ac_col + 1, last)] < p_sdc
        covered = u[rows, np.minimum(ac_col + 2, last)] < p_rollback
        quiet = ((u >= lo) & (u <= hi)).all(axis=1)
        classes = np.where(
            u[:, 0] < p_sc,
            _SC,
            np.where(
                ~quiet,
                _PER_RUN,
                np.where(ac, _AC, np.where(sdc & ~covered, _SDC, _CLEAN)),
            ),
        )
        return classes.tolist()

    def execute(
        self, schedule: Sequence[int], campaign_index: int
    ) -> Tuple[str, CampaignResult]:
        """Run the schedule; returns ``(raw_log_text, CampaignResult)``."""
        cfg = self.config
        machine = self.machine
        table = self.table
        factory = self._factory
        program = table.program
        benchmark = program.name
        core = table.core
        freq_mhz = table.freq_mhz
        chip = table.chip_name
        expected = table.expected_output
        runs_per_level = cfg.runs_per_level
        states = _ScheduleStates(
            factory,
            machine,
            table,
            schedule,
            runs_per_level,
            cfg.stop_after_crash_levels if cfg.stop_mv is None else None,
        )

        prepare = self._prepare
        restore = self._restore
        clean_cycles = self._clean_cycles
        activate = factory.activate
        kernel_execute = machine.kernel_execute
        kernel_clean_runs = machine.kernel_clean_runs
        kernel_mark = machine.kernel_mark
        kernel_repeat = machine.kernel_repeat
        watchdog = self.watchdog
        ensure_alive = watchdog.ensure_alive
        no_action = WatchdogAction.NONE
        reset = WatchdogAction.RESET
        new_record = RunRecord.__new__
        ac_exit = machine.APP_CRASH_EXIT_CODE
        # What a quiet run logs after its run index (an SDC run's
        # corrupted output goes between ``sdc_head`` and ``sdc_tail``):
        # the parser-visible observables of a completed run or an
        # application crash with no EDAC counts.
        done = (
            f"\nedac_ce=0 edac_ue=0\nstatus=completed\n"
            f"watchdog={no_action.value}\n"
        )
        clean_tail = f" ===\nexit_code=0\noutput={expected} expected={expected}{done}"
        sdc_head = " ===\nexit_code=0\noutput="
        sdc_tail = f" expected={expected}{done}"
        ac_tail = (
            f" ===\nexit_code={ac_exit}\nedac_ce=0 edac_ue=0\n"
            f"status=app_crash\nwatchdog={no_action.value}\n"
        )
        # The record fields every run of a class shares, in RunRecord
        # field order; ``setup`` is set per level, ``run_index`` and a
        # fresh detail dict per record.  Classifications go through the
        # same classify_run the parser applies, fed each class's
        # parser-visible observables.
        templates = {}
        for row_class, exit_code, output, responsive in (
            (_CLEAN, 0, expected, True),
            (_SDC, 0, "", True),
            (_AC, ac_exit, None, True),
            (_SC, None, None, False),
        ):
            templates[row_class] = dict(
                chip=chip,
                benchmark=benchmark,
                setup=None,
                campaign_index=campaign_index,
                run_index=0,
                effects=classify_run(
                    responsive=responsive,
                    exit_code=exit_code,
                    output=output,
                    expected_output=expected if output is not None else "",
                ),
                exit_code=exit_code,
                output_matches=None if output is None else output == expected,
                edac_ce=0,
                edac_ue=0,
                watchdog_intervened=not responsive,
                detail=None,
            )

        log_parts: List[str] = []
        log_append = log_parts.append
        records: List[RunRecord] = []
        record_append = records.append
        consecutive_crash_levels = 0
        sample_u = table.sample_u
        run_global = 0
        # Reads ``run_global`` at call time, so one closure serves
        # every run; only the scalar-replay path ever invokes it.
        fresh_rng = lambda: activate(states.state_at(run_global))  # noqa: E731
        chunk_start = chunk_end = 0
        for level_index, voltage_mv in enumerate(schedule):
            vidx = table.index_of(voltage_mv)
            plan = table.plan(vidx)
            if level_index >= chunk_end:
                # One vectorized PCG64 pass yields the whole chunk's
                # uniform blocks, over-drawn to the widest plan in the
                # chunk (sample_u ignores the excess columns), and one
                # pass classifies its rows.
                chunk_start, chunk_end, limbs = states.chunk(level_index)
                chunk_plans = [
                    table.plan(table.index_of(level_mv))
                    for level_mv in schedule[chunk_start:chunk_end]
                ]
                width = max(chunk_plan.n_uniform for chunk_plan in chunk_plans)
                block = factory.uniform_block(limbs, width)
                classes = self._row_classes(block, chunk_plans, runs_per_level)
            row_base = (level_index - chunk_start) * runs_per_level - 1
            setup = CharacterizationSetup(
                voltage_mv=voltage_mv, freq_mhz=freq_mhz, core=core
            )
            for fields in templates.values():
                fields["setup"] = setup
            # Every block of this level shares its header up to the run
            # index; the bodies below must stay byte-for-byte in
            # lockstep with :func:`format_run_block` (parity is pinned
            # by the property tests in tests/test_kernel.py).
            head = (
                f"=== RUN chip={chip} benchmark={benchmark} core={core} "
                f"voltage_mv={voltage_mv} freq_mhz={freq_mhz} "
                f"campaign={campaign_index} run="
            )
            level_all_crashed = True
            with telemetry.span(
                "voltage_step", voltage_mv=voltage_mv, runs=runs_per_level
            ):
                run_index = 1
                while run_index <= runs_per_level:
                    row_class = classes[row_base + run_index]
                    if row_class != _PER_RUN:
                        # A stretch: this run and the ones after it at
                        # this level that are of its kind (system
                        # crashes, or quiet runs).
                        crash = row_class == _SC
                        last = run_index
                        while last < runs_per_level:
                            following = classes[row_base + last + 1]
                            if (
                                following == _PER_RUN
                                or (following == _SC) is not crash
                            ):
                                break
                            last += 1
                        if crash:
                            # The first crash runs for real; its
                            # recovery reboots the board to the same
                            # state every time, so the others repeat
                            # its deltas.
                            mark = kernel_mark()
                            prepare(core, freq_mhz, voltage_mv)
                            kernel_execute(table, vidx, _SC_EFFECTS, {})
                            action = ensure_alive()
                            restore()
                            if action is not reset:
                                # Not a plain reset: the next crash of
                                # the stretch runs for real as well.
                                last = run_index
                            elif last > run_index:
                                watchdog.repeat_last(
                                    last - run_index,
                                    kernel_repeat(mark, last - run_index),
                                )
                            tail = (
                                f" ===\nstatus=system_crash\n"
                                f"watchdog={action.value}\n"
                            )
                            blocks = [
                                f"{head}{i}{tail}"
                                for i in range(run_index, last + 1)
                            ]
                        else:
                            # One prepare/restore call, one machine
                            # update, templated logs.  The machine
                            # numbers an SDC run's corrupted output by
                            # that run's run counter.
                            level_all_crashed = False
                            counter = machine.run_counter - run_index + 1
                            n_quiet = last - run_index + 1
                            clean_cycles(core, freq_mhz, voltage_mv, n_quiet)
                            kernel_clean_runs(table, vidx, n_quiet)
                            blocks = []
                            for i in range(run_index, last + 1):
                                row_class = classes[row_base + i]
                                if row_class == _CLEAN:
                                    blocks.append(f"{head}{i}{clean_tail}")
                                elif row_class == _SDC:
                                    output = corrupted_output(
                                        program, counter + i
                                    )
                                    blocks.append(
                                        f"{head}{i}{sdc_head}{output}"
                                        f"{sdc_tail}"
                                    )
                                else:
                                    blocks.append(f"{head}{i}{ac_tail}")
                        log_append("".join(blocks))
                        for i in range(run_index, last + 1):
                            record = new_record(RunRecord)
                            attrs = record.__dict__
                            attrs.update(templates[classes[row_base + i]])
                            attrs["run_index"] = i
                            attrs["detail"] = {}
                            record_append(record)
                        run_index = last + 1
                        continue
                    # The per-run path: an EDAC event or a replay (never
                    # a system crash -- those are classed _SC).
                    prepare(core, freq_mhz, voltage_mv)
                    run_global = level_index * runs_per_level + run_index - 1
                    effects, detail = sample_u(
                        plan, block[row_base + run_index].tolist(), fresh_rng
                    )
                    (
                        effects,
                        exit_code,
                        output,
                        edac_ce,
                        edac_ue,
                        locations,
                    ) = kernel_execute(table, vidx, effects, detail)
                    restore()
                    level_all_crashed = False
                    status = "completed" if exit_code == 0 else "app_crash"
                    if locations:
                        encoded = ",".join(
                            f"{key}:{count}"
                            for key, count in sorted(locations.items())
                        )
                        loc_line = f"edac_locations={encoded}\n"
                    else:
                        loc_line = ""
                    out_line = (
                        "" if output is None
                        else f"output={output} expected={expected}\n"
                    )
                    log_append(
                        f"{head}{run_index} ===\n"
                        f"exit_code={exit_code}\n"
                        f"{out_line}"
                        f"edac_ce={edac_ce} edac_ue={edac_ue}\n"
                        f"{loc_line}"
                        f"status={status}\n"
                        f"watchdog={no_action.value}\n"
                    )
                    # Classification goes through the same classify_run
                    # the log parser applies, fed the parser-visible
                    # observables (an unflushed output line parses as
                    # output=None/expected="").  The record is laid out
                    # directly into a fresh instance: RunRecord is a
                    # frozen dataclass, whose generated __init__ pays
                    # one object.__setattr__ per field -- the dominant
                    # cost of record construction at this scale.
                    # ``locations`` is a fresh dict owned by this run;
                    # the parser sees its entries in formatted (sorted)
                    # order, which only needs an explicit sort past one
                    # entry.
                    record = new_record(RunRecord)
                    record.__dict__.update(
                        chip=chip,
                        benchmark=benchmark,
                        setup=setup,
                        campaign_index=campaign_index,
                        run_index=run_index,
                        effects=classify_run(
                            responsive=True,
                            exit_code=exit_code,
                            output=output,
                            expected_output=(
                                expected if output is not None else ""
                            ),
                            edac_ce=edac_ce,
                            edac_ue=edac_ue,
                        ),
                        exit_code=exit_code,
                        output_matches=(
                            None if output is None else output == expected
                        ),
                        edac_ce=edac_ce,
                        edac_ue=edac_ue,
                        watchdog_intervened=False,
                        detail=(
                            locations
                            if len(locations) < 2
                            else dict(sorted(locations.items()))
                        ),
                    )
                    record_append(record)
                    run_index += 1
            if level_all_crashed:
                consecutive_crash_levels += 1
                if (
                    cfg.stop_mv is None
                    and consecutive_crash_levels >= cfg.stop_after_crash_levels
                ):
                    break
            else:
                consecutive_crash_levels = 0

        if not records:
            raise CampaignError("campaign produced no runs")
        result = CampaignResult(
            chip=chip,
            benchmark=benchmark,
            core=core,
            freq_mhz=freq_mhz,
            campaign_index=campaign_index,
            records=tuple(records),
        )
        return "".join(log_parts), result
