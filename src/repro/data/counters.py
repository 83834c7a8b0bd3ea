"""The 101 performance-monitoring events of the simulated X-Gene 2 PMU.

Section 4.1 of the paper: *"The X-Gene 2 provides 101 performance
counters in total which report microarchitectural events of the entire
system for individual cores, for the memory hierarchy (accesses and
misses of all cache, TLB and page walks levels, unaligned accesses,
prefetches, etc.), the pipeline (flushes, mispredictions, etc.), and the
system (bus accesses, etc.)."*

The exact event list of the real chip is not public, so this catalogue
uses standard ARMv8 PMU event mnemonics organised into the same
categories.  Each event has a closed-form synthesis rule that derives its
reading from a workload's architectural *traits* (instruction mix, miss
rates, stall behaviour -- see :mod:`repro.workloads.benchmark`), so that
any trait vector yields a complete, internally consistent 101-counter
profile, exactly the input the paper's prediction flow consumes.

The five events the paper's Recursive Feature Elimination settles on
(Section 4.2) are exposed as :data:`RFE_SELECTED_FEATURES`:

1. dispatched stalled cycles        -> ``DISPATCH_STALL_CYCLES``
2. exceptions taken                 -> ``EXC_TAKEN``
3. read data memory accesses        -> ``MEM_ACCESS_RD``
4. branch-target-buffer mispredicts -> ``BTB_MIS_PRED``
5. conditional & indirect branches  -> ``BR_COND_RETIRED``
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Optional

import numpy as np

from ..errors import UnknownCounterError

#: The five events selected by RFE in the paper (Section 4.2), in the
#: order the paper lists them.
RFE_SELECTED_FEATURES = (
    "DISPATCH_STALL_CYCLES",
    "EXC_TAKEN",
    "MEM_ACCESS_RD",
    "BTB_MIS_PRED",
    "BR_COND_RETIRED",
)

# ---------------------------------------------------------------------------
# Synthesis rules.
#
# A rule maps the dictionary of *base quantities* (derived once per
# workload from its traits) to an event count.  Keeping the base
# quantities explicit makes the catalogue internally consistent:
# e.g. L2 accesses are exactly the L1 refills plus prefetch traffic.
# ---------------------------------------------------------------------------

Rule = Callable[[Dict[str, float]], float]


def _base_quantities(traits: Mapping[str, float]) -> Dict[str, float]:
    """Derive the shared base quantities from a workload trait vector.

    ``traits`` must provide (all rates are per instruction unless noted):

    ``instructions`` total retired instructions;
    ``ipc`` retired instructions per cycle;
    ``load_ratio`` / ``store_ratio`` memory-op fractions;
    ``fp_ratio`` floating-point fraction; ``simd_ratio`` SIMD fraction;
    ``branch_ratio`` branch fraction;
    ``branch_misp_rate`` mispredictions per branch;
    ``btb_misp_rate`` BTB mispredictions per branch;
    ``l1d_miss_rate`` / ``l1i_mpki`` / ``l2_miss_rate`` / ``l3_miss_rate``
    cache locality; ``dtlb_mpki`` / ``itlb_mpki`` TLB locality;
    ``dispatch_stall_ratio`` fraction of cycles dispatch is stalled;
    ``exception_rate`` exceptions per kilo-instruction;
    ``prefetch_ratio`` prefetches per L1D access;
    ``unaligned_ratio`` unaligned fraction of memory ops.
    """
    n = float(traits["instructions"])
    cycles = n / max(float(traits["ipc"]), 1e-9)
    loads = n * float(traits["load_ratio"])
    stores = n * float(traits["store_ratio"])
    mem_ops = loads + stores
    branches = n * float(traits["branch_ratio"])
    branch_misp = branches * float(traits["branch_misp_rate"])
    btb_misp = branches * float(traits["btb_misp_rate"])
    l1d_acc = mem_ops
    l1d_refill = l1d_acc * float(traits["l1d_miss_rate"])
    l1i_acc = n / 4.0  # ~4-wide fetch
    l1i_refill = n * float(traits["l1i_mpki"]) / 1000.0
    prefetches = l1d_acc * float(traits["prefetch_ratio"])
    l2_acc = l1d_refill + l1i_refill + prefetches
    l2_refill = l2_acc * float(traits["l2_miss_rate"])
    l3_acc = l2_refill
    l3_refill = l3_acc * float(traits["l3_miss_rate"])
    dtlb_refill = n * float(traits["dtlb_mpki"]) / 1000.0
    itlb_refill = n * float(traits["itlb_mpki"]) / 1000.0
    fp_ops = n * float(traits["fp_ratio"])
    simd_ops = n * float(traits["simd_ratio"])
    exceptions = n * float(traits["exception_rate"]) / 1000.0
    stall_cycles = cycles * float(traits["dispatch_stall_ratio"])
    unaligned = mem_ops * float(traits["unaligned_ratio"])
    return {
        "n": n,
        "cycles": cycles,
        "loads": loads,
        "stores": stores,
        "mem_ops": mem_ops,
        "branches": branches,
        "branch_misp": branch_misp,
        "btb_misp": btb_misp,
        "l1d_acc": l1d_acc,
        "l1d_refill": l1d_refill,
        "l1i_acc": l1i_acc,
        "l1i_refill": l1i_refill,
        "prefetches": prefetches,
        "l2_acc": l2_acc,
        "l2_refill": l2_refill,
        "l3_acc": l3_acc,
        "l3_refill": l3_refill,
        "dtlb_refill": dtlb_refill,
        "itlb_refill": itlb_refill,
        "fp_ops": fp_ops,
        "simd_ops": simd_ops,
        "exceptions": exceptions,
        "stall_cycles": stall_cycles,
        "unaligned": unaligned,
    }


def _catalogue() -> List:
    """Build the full (name, category, description, rule) table."""
    c: List = []

    def ev(name: str, category: str, description: str, rule: Rule) -> None:
        c.append((name, category, description, rule))

    # -- instructions & micro-ops (12) ------------------------------------
    ev("INST_RETIRED", "core", "architecturally retired instructions", lambda b: b["n"])
    ev("INST_SPEC", "core", "speculatively executed instructions", lambda b: b["n"] * 1.18)
    ev("CPU_CYCLES", "core", "core clock cycles", lambda b: b["cycles"])
    ev("OP_RETIRED", "core", "retired micro-operations", lambda b: b["n"] * 1.25)
    ev("OP_SPEC", "core", "speculatively executed micro-operations", lambda b: b["n"] * 1.45)
    ev("LD_RETIRED", "core", "retired load instructions", lambda b: b["loads"])
    ev("ST_RETIRED", "core", "retired store instructions", lambda b: b["stores"])
    ev("LDST_SPEC", "core", "speculative load/store operations", lambda b: b["mem_ops"] * 1.15)
    ev("DP_SPEC", "core", "speculative integer data-processing ops",
       lambda b: b["n"] - b["mem_ops"] - b["branches"] - b["fp_ops"])
    ev("ASE_SPEC", "core", "speculative advanced-SIMD operations", lambda b: b["simd_ops"])
    ev("VFP_SPEC", "core", "speculative scalar floating-point operations", lambda b: b["fp_ops"])
    ev("CRYPTO_SPEC", "core", "speculative crypto-extension operations", lambda b: b["n"] * 1e-6)

    # -- branches (9) ------------------------------------------------------
    ev("BR_RETIRED", "branch", "retired branches", lambda b: b["branches"])
    ev("BR_MIS_PRED", "branch", "mispredicted branches", lambda b: b["branch_misp"])
    ev("BR_PRED", "branch", "predictable branches speculatively executed",
       lambda b: b["branches"] * 1.1)
    ev("BTB_MIS_PRED", "branch", "branch-target-buffer mispredictions", lambda b: b["btb_misp"])
    ev("BR_COND_RETIRED", "branch", "retired conditional and indirect branches",
       lambda b: b["branches"] * 0.78)
    ev("BR_COND_MIS_PRED", "branch", "mispredicted conditional branches",
       lambda b: b["branch_misp"] * 0.85)
    ev("BR_IMMED_SPEC", "branch", "speculative immediate branches", lambda b: b["branches"] * 0.70)
    ev("BR_RETURN_SPEC", "branch", "speculative procedure returns", lambda b: b["branches"] * 0.08)
    ev("BR_INDIRECT_SPEC", "branch", "speculative indirect branches", lambda b: b["branches"] * 0.12)

    # -- L1 data cache (8) -------------------------------------------------
    ev("L1D_CACHE", "l1d", "L1 data-cache accesses", lambda b: b["l1d_acc"])
    ev("L1D_CACHE_REFILL", "l1d", "L1 data-cache refills (misses)", lambda b: b["l1d_refill"])
    ev("L1D_CACHE_WB", "l1d", "L1 data-cache write-backs", lambda b: b["l1d_refill"] * 0.45)
    ev("L1D_CACHE_RD", "l1d", "L1 data-cache read accesses", lambda b: b["loads"])
    ev("L1D_CACHE_WR", "l1d", "L1 data-cache write accesses", lambda b: b["stores"])
    ev("L1D_CACHE_REFILL_RD", "l1d", "L1D refills caused by reads",
       lambda b: b["l1d_refill"] * (b["loads"] / max(b["mem_ops"], 1.0)))
    ev("L1D_CACHE_REFILL_WR", "l1d", "L1D refills caused by writes",
       lambda b: b["l1d_refill"] * (b["stores"] / max(b["mem_ops"], 1.0)))
    ev("L1D_CACHE_INVAL", "l1d", "L1 data-cache invalidations", lambda b: b["l1d_refill"] * 0.02)

    # -- L1 instruction cache (2) -----------------------------------------
    ev("L1I_CACHE", "l1i", "L1 instruction-cache accesses", lambda b: b["l1i_acc"])
    ev("L1I_CACHE_REFILL", "l1i", "L1 instruction-cache refills", lambda b: b["l1i_refill"])

    # -- L2 cache (8) -------------------------------------------------------
    ev("L2D_CACHE", "l2", "L2 cache accesses", lambda b: b["l2_acc"])
    ev("L2D_CACHE_REFILL", "l2", "L2 cache refills (misses)", lambda b: b["l2_refill"])
    ev("L2D_CACHE_WB", "l2", "L2 cache write-backs", lambda b: b["l2_refill"] * 0.40)
    ev("L2D_CACHE_RD", "l2", "L2 read accesses", lambda b: b["l2_acc"] * 0.7)
    ev("L2D_CACHE_WR", "l2", "L2 write accesses", lambda b: b["l2_acc"] * 0.3)
    ev("L2D_CACHE_REFILL_RD", "l2", "L2 refills caused by reads", lambda b: b["l2_refill"] * 0.7)
    ev("L2D_CACHE_REFILL_WR", "l2", "L2 refills caused by writes", lambda b: b["l2_refill"] * 0.3)
    ev("L2D_CACHE_INVAL", "l2", "L2 cache invalidations", lambda b: b["l2_refill"] * 0.02)

    # -- L3 cache (4) -------------------------------------------------------
    ev("L3D_CACHE", "l3", "L3 cache accesses", lambda b: b["l3_acc"])
    ev("L3D_CACHE_REFILL", "l3", "L3 cache refills (misses to DRAM)", lambda b: b["l3_refill"])
    ev("L3D_CACHE_RD", "l3", "L3 read accesses", lambda b: b["l3_acc"] * 0.72)
    ev("L3D_CACHE_WB", "l3", "L3 write-backs to memory", lambda b: b["l3_refill"] * 0.38)

    # -- TLBs and page walks (8) --------------------------------------------
    ev("L1D_TLB", "tlb", "L1 data-TLB accesses", lambda b: b["mem_ops"])
    ev("L1D_TLB_REFILL", "tlb", "L1 data-TLB refills", lambda b: b["dtlb_refill"])
    ev("L1I_TLB", "tlb", "L1 instruction-TLB accesses", lambda b: b["l1i_acc"])
    ev("L1I_TLB_REFILL", "tlb", "L1 instruction-TLB refills", lambda b: b["itlb_refill"])
    ev("L2D_TLB", "tlb", "unified L2 TLB accesses",
       lambda b: b["dtlb_refill"] + b["itlb_refill"])
    ev("L2D_TLB_REFILL", "tlb", "unified L2 TLB refills",
       lambda b: (b["dtlb_refill"] + b["itlb_refill"]) * 0.25)
    ev("DTLB_WALK", "tlb", "data-side hardware page walks", lambda b: b["dtlb_refill"] * 0.25)
    ev("ITLB_WALK", "tlb", "instruction-side hardware page walks", lambda b: b["itlb_refill"] * 0.25)

    # -- memory system (8) ----------------------------------------------------
    ev("MEM_ACCESS", "memory", "data memory accesses", lambda b: b["mem_ops"])
    ev("MEM_ACCESS_RD", "memory", "read data memory accesses", lambda b: b["loads"])
    ev("MEM_ACCESS_WR", "memory", "write data memory accesses", lambda b: b["stores"])
    ev("UNALIGNED_LDST_RETIRED", "memory", "retired unaligned memory ops", lambda b: b["unaligned"])
    ev("UNALIGNED_LD_SPEC", "memory", "speculative unaligned loads",
       lambda b: b["unaligned"] * (b["loads"] / max(b["mem_ops"], 1.0)) * 1.1)
    ev("UNALIGNED_ST_SPEC", "memory", "speculative unaligned stores",
       lambda b: b["unaligned"] * (b["stores"] / max(b["mem_ops"], 1.0)) * 1.1)
    ev("MEMORY_ERROR", "memory", "local memory errors observed by the core", lambda b: 0.0)
    ev("REMOTE_ACCESS", "memory", "accesses to another socket/chip", lambda b: 0.0)

    # -- prefetch (4) -----------------------------------------------------------
    ev("L1D_CACHE_PRF", "prefetch", "L1D prefetches issued", lambda b: b["prefetches"])
    ev("L2D_CACHE_PRF", "prefetch", "L2 prefetches issued", lambda b: b["prefetches"] * 0.6)
    ev("PRF_LINEFILL", "prefetch", "prefetch-triggered line fills", lambda b: b["prefetches"] * 0.8)
    ev("PRF_DROPPED", "prefetch", "prefetches dropped (late/duplicate)",
       lambda b: b["prefetches"] * 0.2)

    # -- pipeline (12) ------------------------------------------------------------
    ev("STALL_FRONTEND", "pipeline", "cycles no op delivered by frontend",
       lambda b: b["stall_cycles"] * 0.35)
    ev("STALL_BACKEND", "pipeline", "cycles no op dispatched due to backend",
       lambda b: b["stall_cycles"] * 0.65)
    ev("DISPATCH_STALL_CYCLES", "pipeline", "cycles the dispatch stage is stalled",
       lambda b: b["stall_cycles"])
    ev("ISSUE_STALL_CYCLES", "pipeline", "cycles the issue stage is stalled",
       lambda b: b["stall_cycles"] * 0.8)
    ev("DECODE_STALL_CYCLES", "pipeline", "cycles the decode stage is stalled",
       lambda b: b["stall_cycles"] * 0.3)
    ev("RENAME_STALL_CYCLES", "pipeline", "cycles rename is short of resources",
       lambda b: b["stall_cycles"] * 0.25)
    ev("ROB_FULL_CYCLES", "pipeline", "cycles the reorder buffer is full",
       lambda b: b["stall_cycles"] * 0.30)
    ev("IQ_FULL_CYCLES", "pipeline", "cycles an issue queue is full",
       lambda b: b["stall_cycles"] * 0.22)
    ev("LSQ_FULL_CYCLES", "pipeline", "cycles the load/store queue is full",
       lambda b: b["stall_cycles"] * 0.18)
    ev("PIPELINE_FLUSH", "pipeline", "pipeline flushes",
       lambda b: b["branch_misp"] + b["exceptions"])
    ev("OP_DISPATCHED", "pipeline", "micro-ops dispatched", lambda b: b["n"] * 1.3)
    ev("OP_ISSUED", "pipeline", "micro-ops issued", lambda b: b["n"] * 1.35)

    # -- exceptions (8) --------------------------------------------------------------
    ev("EXC_TAKEN", "exception", "exceptions taken", lambda b: b["exceptions"])
    ev("EXC_RETURN", "exception", "exception returns", lambda b: b["exceptions"] * 0.98)
    ev("EXC_UNDEF", "exception", "undefined-instruction exceptions", lambda b: b["exceptions"] * 0.001)
    ev("EXC_SVC", "exception", "supervisor calls", lambda b: b["exceptions"] * 0.55)
    ev("EXC_PABORT", "exception", "instruction aborts", lambda b: b["exceptions"] * 0.002)
    ev("EXC_DABORT", "exception", "data aborts (incl. demand paging)",
       lambda b: b["exceptions"] * 0.10)
    ev("EXC_IRQ", "exception", "IRQ exceptions", lambda b: b["exceptions"] * 0.30)
    ev("EXC_FIQ", "exception", "FIQ exceptions", lambda b: b["exceptions"] * 0.01)

    # -- bus / system (8) ------------------------------------------------------------
    ev("BUS_ACCESS", "system", "bus accesses from this core", lambda b: b["l2_refill"] * 1.4)
    ev("BUS_ACCESS_RD", "system", "bus read accesses", lambda b: b["l2_refill"] * 1.0)
    ev("BUS_ACCESS_WR", "system", "bus write accesses", lambda b: b["l2_refill"] * 0.4)
    ev("BUS_CYCLES", "system", "bus clock cycles", lambda b: b["cycles"] * 0.5)
    ev("CNT_CYCLES", "system", "constant-frequency timer cycles", lambda b: b["cycles"] * 0.0417)
    ev("SNOOP_RECEIVED", "system", "coherence snoops received", lambda b: b["l2_refill"] * 0.15)
    ev("MCU_READS", "system", "memory-controller read transactions", lambda b: b["l3_refill"])
    ev("MCU_WRITES", "system", "memory-controller write transactions",
       lambda b: b["l3_refill"] * 0.4)

    # -- architectural / barrier / misc (10) --------------------------------------------
    ev("SW_INCR", "misc", "software PMU increments", lambda b: 0.0)
    ev("CID_WRITE_RETIRED", "misc", "context-ID register writes (context switches)",
       lambda b: b["exceptions"] * 0.02)
    ev("TTBR_WRITE_RETIRED", "misc", "translation-table-base writes",
       lambda b: b["exceptions"] * 0.02)
    ev("LD_SPEC", "misc", "speculative loads", lambda b: b["loads"] * 1.12)
    ev("ST_SPEC", "misc", "speculative stores", lambda b: b["stores"] * 1.08)
    ev("PC_WRITE_SPEC", "misc", "speculative software PC writes", lambda b: b["branches"] * 1.05)
    ev("ISB_SPEC", "misc", "instruction synchronisation barriers", lambda b: b["n"] * 2e-6)
    ev("DSB_SPEC", "misc", "data synchronisation barriers", lambda b: b["n"] * 8e-6)
    ev("DMB_SPEC", "misc", "data memory barriers", lambda b: b["n"] * 1.5e-5)
    ev("FP_FIXED_OPS_SPEC", "misc", "fixed-width floating-point operations",
       lambda b: b["fp_ops"] * 0.9)

    return c


_CATALOGUE = _catalogue()

#: Ordered names of all PMU events.
COUNTER_NAMES = tuple(name for name, _cat, _desc, _rule in _CATALOGUE)
#: The paper's event population size.
NUM_COUNTERS = len(COUNTER_NAMES)
#: name -> (category, description, rule); immutable, so every catalog
#: (one per PMU of every machine) shares this one table.
_BY_NAME = {name: (cat, desc, rule) for name, cat, desc, rule in _CATALOGUE}

assert NUM_COUNTERS == 101, f"expected 101 PMU events, got {NUM_COUNTERS}"
assert all(f in COUNTER_NAMES for f in RFE_SELECTED_FEATURES)


class CounterCatalog:
    """Catalogue of the 101 PMU events with the trait->reading synthesis.

    Parameters
    ----------
    noise_sigma:
        Standard deviation of the multiplicative log-normal measurement
        noise applied per event per profiling run.  ``0`` produces exact
        deterministic readings (useful in tests).
    """

    def __init__(self, noise_sigma: float = 0.02) -> None:
        if noise_sigma < 0:
            raise ValueError("noise_sigma must be non-negative")
        self.noise_sigma = float(noise_sigma)

    # -- introspection ---------------------------------------------------

    @property
    def names(self):
        """Ordered tuple of all event names."""
        return COUNTER_NAMES

    def category(self, name: str) -> str:
        """Category of an event (core/branch/l1d/.../system/misc)."""
        return self._lookup(name)[0]

    def description(self, name: str) -> str:
        """Human-readable description of an event."""
        return self._lookup(name)[1]

    def categories(self) -> Dict[str, List[str]]:
        """Mapping of category -> ordered event names."""
        out: Dict[str, List[str]] = {}
        for name, cat, _desc, _rule in _CATALOGUE:
            out.setdefault(cat, []).append(name)
        return out

    def _lookup(self, name: str):
        try:
            return _BY_NAME[name]
        except KeyError:
            raise UnknownCounterError(
                f"{name!r} is not one of the {NUM_COUNTERS} PMU events"
            ) from None

    # -- synthesis ---------------------------------------------------------

    def synthesize(
        self,
        traits: Mapping[str, float],
        rng: Optional[np.random.Generator] = None,
    ) -> Dict[str, float]:
        """Produce a full 101-event reading for a workload trait vector.

        With ``rng`` given and ``noise_sigma > 0``, each event reading is
        perturbed by independent log-normal noise, modelling run-to-run
        profiling variability.
        """
        base = _base_quantities(traits)
        readings: Dict[str, float] = {}
        if rng is not None and self.noise_sigma > 0:
            noise = np.exp(rng.normal(0.0, self.noise_sigma, size=NUM_COUNTERS))
        else:
            noise = np.ones(NUM_COUNTERS)
        for (name, _cat, _desc, rule), factor in zip(_CATALOGUE, noise):
            value = max(rule(base), 0.0) * float(factor)
            readings[name] = float(round(value))
        return readings

    def vector(self, readings: Mapping[str, float]) -> np.ndarray:
        """Order a readings mapping into the canonical feature vector."""
        try:
            return np.array([float(readings[name]) for name in COUNTER_NAMES])
        except KeyError as exc:
            raise UnknownCounterError(f"readings missing event {exc.args[0]!r}") from None
