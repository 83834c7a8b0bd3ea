"""The 101-event PMU catalogue and its synthesis model."""

import numpy as np
import pytest

from repro.data.counters import (
    COUNTER_NAMES,
    NUM_COUNTERS,
    RFE_SELECTED_FEATURES,
    CounterCatalog,
)
from repro.errors import UnknownCounterError
from repro.workloads import get_benchmark


@pytest.fixture(scope="module")
def catalog():
    return CounterCatalog(noise_sigma=0.0)


@pytest.fixture(scope="module")
def traits():
    return get_benchmark("gcc").traits.as_dict()


class TestCatalogueStructure:
    def test_exactly_101_events(self):
        assert NUM_COUNTERS == 101
        assert len(COUNTER_NAMES) == 101
        assert len(set(COUNTER_NAMES)) == 101

    def test_rfe_features_exist(self):
        assert len(RFE_SELECTED_FEATURES) == 5
        for name in RFE_SELECTED_FEATURES:
            assert name in COUNTER_NAMES

    def test_paper_categories_present(self, catalog):
        # Section 4.1: memory hierarchy, TLBs, prefetches, unaligned
        # accesses, pipeline, system.
        categories = catalog.categories()
        for expected in ("core", "branch", "l1d", "l2", "l3", "tlb",
                         "memory", "prefetch", "pipeline", "exception",
                         "system"):
            assert expected in categories, expected

    def test_descriptions_non_empty(self, catalog):
        for name in COUNTER_NAMES:
            assert catalog.description(name)

    def test_unknown_event_rejected(self, catalog):
        with pytest.raises(UnknownCounterError):
            catalog.category("NOT_AN_EVENT")


class TestSynthesis:
    def test_complete_snapshot(self, catalog, traits):
        snapshot = catalog.synthesize(traits)
        assert set(snapshot) == set(COUNTER_NAMES)
        assert all(value >= 0 for value in snapshot.values())

    def test_deterministic_without_noise(self, catalog, traits):
        assert catalog.synthesize(traits) == catalog.synthesize(traits)

    def test_internal_consistency(self, catalog, traits):
        snapshot = catalog.synthesize(traits)
        # Retired loads+stores = data memory accesses = L1D accesses.
        assert snapshot["MEM_ACCESS"] == pytest.approx(
            snapshot["LD_RETIRED"] + snapshot["ST_RETIRED"], rel=0.01)
        assert snapshot["L1D_CACHE"] == pytest.approx(
            snapshot["MEM_ACCESS"], rel=0.01)
        # Misses never exceed accesses, at any level.
        assert snapshot["L1D_CACHE_REFILL"] <= snapshot["L1D_CACHE"]
        assert snapshot["L2D_CACHE_REFILL"] <= snapshot["L2D_CACHE"]
        assert snapshot["L3D_CACHE_REFILL"] <= snapshot["L3D_CACHE"]
        # Mispredictions never exceed branches.
        assert snapshot["BR_MIS_PRED"] <= snapshot["BR_RETIRED"]
        # Cycles relate to instructions through the IPC.
        ipc = snapshot["INST_RETIRED"] / snapshot["CPU_CYCLES"]
        assert ipc == pytest.approx(traits["ipc"], rel=0.02)

    def test_l2_traffic_feeds_from_l1(self, catalog, traits):
        snapshot = catalog.synthesize(traits)
        upstream = (snapshot["L1D_CACHE_REFILL"] + snapshot["L1I_CACHE_REFILL"]
                    + snapshot["L1D_CACHE_PRF"])
        assert snapshot["L2D_CACHE"] == pytest.approx(upstream, rel=0.02)

    def test_noise_perturbs_but_preserves_scale(self, traits):
        noisy = CounterCatalog(noise_sigma=0.02)
        rng = np.random.default_rng(5)
        first = noisy.synthesize(traits, rng)
        second = noisy.synthesize(traits, rng)
        assert first != second
        for name in ("INST_RETIRED", "CPU_CYCLES", "L1D_CACHE"):
            assert first[name] == pytest.approx(second[name], rel=0.2)

    def test_negative_noise_rejected(self):
        with pytest.raises(ValueError):
            CounterCatalog(noise_sigma=-0.1)

    def test_vector_ordering(self, catalog, traits):
        snapshot = catalog.synthesize(traits)
        vector = catalog.vector(snapshot)
        assert vector.shape == (101,)
        assert vector[COUNTER_NAMES.index("INST_RETIRED")] == \
            snapshot["INST_RETIRED"]

    def test_vector_missing_event_rejected(self, catalog, traits):
        snapshot = dict(catalog.synthesize(traits))
        snapshot.pop("CPU_CYCLES")
        with pytest.raises(UnknownCounterError):
            catalog.vector(snapshot)


class TestWorkloadDifferentiation:
    def test_memory_bound_vs_compute_bound(self, catalog):
        mcf = catalog.synthesize(get_benchmark("mcf").traits.as_dict())
        leslie = catalog.synthesize(get_benchmark("leslie3d").traits.as_dict())
        def rate(snapshot, event):
            return snapshot[event] / snapshot["INST_RETIRED"]
        # mcf misses far more and stalls far more per instruction.
        assert rate(mcf, "L1D_CACHE_REFILL") > 3 * rate(leslie, "L1D_CACHE_REFILL")
        assert rate(mcf, "DISPATCH_STALL_CYCLES") > rate(leslie, "DISPATCH_STALL_CYCLES")
        # leslie3d is FP-heavy.
        assert rate(leslie, "VFP_SPEC") > 5 * rate(mcf, "VFP_SPEC")


class TestSharedNameTable:
    """Every catalog reads one import-time name table; the PMU readings
    a machine profiles are unchanged by the sharing."""

    def test_catalogs_share_the_name_table(self):
        # reprolint: disable=RPR003 -- the concrete board's PMU bank
        from repro.hardware import XGene2Machine

        first, second = XGene2Machine("TTT", seed=1), XGene2Machine("TSS", seed=2)
        catalogs = [pmu.catalog for pmu in first.pmus + second.pmus]
        assert len(catalogs) == 16
        for catalog in catalogs:
            assert catalog.category("CPU_CYCLES") == "core"
            assert catalog.description("CPU_CYCLES")
            assert not hasattr(catalog, "_by_name")

    def test_pmu_snapshots_unchanged(self):
        # Pinned digest of two noisy profiles and one PMU's history,
        # computed before the catalogs shared one table.
        import hashlib
        import json

        # reprolint: disable=RPR003 -- the concrete board's PMU bank
        from repro.hardware import XGene2Machine

        machine = XGene2Machine("TFF", seed=11)
        machine.power_on()
        snapshots = [
            machine.profile_program(get_benchmark(name), core)
            for name, core in (("mcf", 0), ("namd", 5))
        ]
        snapshots.append(machine.pmus[5].history())
        digest = hashlib.sha256(
            json.dumps(snapshots, sort_keys=True).encode()
        ).hexdigest()
        assert digest == (
            "5e3d8f1118a635bedd90485f89955f17daea43e922d0fe0b34debb2636506b79"
        )
        assert snapshots[0]["CPU_CYCLES"] == 506813774420.0
