"""SRAM arrays and the cache hierarchy with real codecs."""

import numpy as np
import pytest

from repro.data.calibration import chip_calibration
from repro.errors import ConfigurationError
from repro.faults.models import FailureCurve, FunctionalUnit, build_unit_models
from repro.hardware.caches import CacheLevel, CacheStack
from repro.hardware.sram import SramArray


def quiet_curve():
    return FailureCurve(midpoint_mv=0.0, scale_mv=1.0, ceiling=0.0)


def noisy_curve(midpoint=900.0, ceiling=1.0):
    return FailureCurve(midpoint_mv=midpoint, scale_mv=2.0, ceiling=ceiling)


class TestSramArray:
    def test_capacity(self):
        array = SramArray("L2", 256, quiet_curve())
        assert array.num_words == 256 * 1024 // 8

    def test_read_write_roundtrip(self):
        array = SramArray("L1D", 32, quiet_curve())
        array.write(17, 0xFEED)
        assert array.read(17) == 0xFEED
        assert array.read(18) == 0  # unwritten reads as zero
        assert array.occupied() == 1

    def test_bounds_checked(self):
        array = SramArray("L1D", 32, quiet_curve())
        with pytest.raises(ConfigurationError):
            array.read(array.num_words)
        with pytest.raises(ConfigurationError):
            array.write(0, 1 << 64)

    def test_march_test_clean_at_nominal(self):
        array = SramArray("L1D", 32, quiet_curve())
        assert array.march_test(0xAAAA_AAAA_AAAA_AAAA, words=256) == 0

    def test_disturbance_rates_monotone_in_voltage(self):
        array = SramArray("L2", 256, noisy_curve())
        assert array.single_event_rate(850) > array.single_event_rate(950)

    def test_no_disturbances_when_quiet(self):
        array = SramArray("L2", 256, quiet_curve())
        rng = np.random.default_rng(0)
        assert array.sample_disturbances(700, rng) == []

    def test_disturbances_present_below_midpoint(self):
        array = SramArray("L2", 256, noisy_curve())
        rng = np.random.default_rng(0)
        events = array.sample_disturbances(870, rng)
        assert events, "expected disturbance events deep below midpoint"
        for index, bits in events:
            assert 0 <= index < array.num_words
            assert all(0 <= b < 64 for b in bits)
            assert len(bits) in (1, 2)

    def test_memoized_rates_follow_a_replaced_curve(self):
        array = SramArray("L2", 256, noisy_curve())
        before = (array.single_event_rate(880), array.double_event_rate(880))
        array.cell_curve = noisy_curve(midpoint=870.0, ceiling=0.5)
        fresh = SramArray("L2", 256, noisy_curve(midpoint=870.0, ceiling=0.5))
        after = (array.single_event_rate(880), array.double_event_rate(880))
        assert after == (fresh.single_event_rate(880), fresh.double_event_rate(880))
        assert after != before

    def test_memoized_rates_follow_a_new_double_fraction(self):
        array = SramArray("L2", 256, noisy_curve())
        before = array.double_event_rate(880)
        array.double_fraction = 0.9
        fresh = SramArray("L2", 256, noisy_curve(), double_fraction=0.9)
        assert array.double_event_rate(880) == fresh.double_event_rate(880)
        assert array.double_event_rate(880) != before
        assert array.single_event_rate(880) == fresh.single_event_rate(880)

    def test_event_cap_bounds_work(self):
        array = SramArray("L2", 256, noisy_curve(midpoint=2000))
        rng = np.random.default_rng(0)
        events = array.sample_disturbances(700, rng, max_events=4)
        assert len(events) <= 8  # 4 singles + 4 doubles at most


class TestCacheLevel:
    def test_parity_clean_line_yields_ce(self):
        level = CacheLevel("L1I", 32, "parity", quiet_curve(), dirty_fraction=0.0)
        rng = np.random.default_rng(0)
        counts = level.classify_event((5,), rng)
        assert counts.ce == 1 and counts.ue == 0

    def test_parity_dirty_line_yields_ue(self):
        level = CacheLevel("L1D", 32, "parity", quiet_curve(), dirty_fraction=1.0)
        rng = np.random.default_rng(0)
        counts = level.classify_event((5,), rng)
        assert counts.ue == 1 and counts.ce == 0

    def test_secded_single_yields_ce(self):
        level = CacheLevel("L2", 256, "secded", quiet_curve())
        rng = np.random.default_rng(0)
        counts = level.classify_event((11,), rng)
        assert counts.ce == 1 and counts.ue == 0

    def test_secded_double_yields_ue(self):
        level = CacheLevel("L2", 256, "secded", quiet_curve())
        rng = np.random.default_rng(0)
        counts = level.classify_event((11, 40), rng)
        assert counts.ue == 1 and counts.ce == 0

    def test_dected_double_yields_ce(self):
        # The Section-6 enhancement in action.
        level = CacheLevel("L2", 256, "dected", quiet_curve())
        rng = np.random.default_rng(0)
        counts = level.classify_event((11, 40), rng)
        assert counts.ce == 1 and counts.ue == 0

    def test_cancelled_flips_invisible(self):
        level = CacheLevel("L2", 256, "secded", quiet_curve())
        rng = np.random.default_rng(0)
        counts = level.classify_event((11, 11), rng)
        assert counts.ce == 0 and counts.ue == 0

    def test_unknown_protection_rejected(self):
        with pytest.raises(ConfigurationError):
            CacheLevel("L2", 256, "crc32", quiet_curve())


class TestCacheStack:
    @pytest.fixture()
    def stack(self):
        models = build_unit_models(
            chip_calibration("TTT"), core=0, stress=0.6, smoothness=1.0
        )
        return CacheStack.for_core(models)

    def test_table2_hierarchy(self, stack):
        by_name = {level.name: level for level in stack.levels}
        assert by_name["L1I"].size_kb == 32
        assert by_name["L1D"].size_kb == 32
        assert by_name["L2"].size_kb == 256
        assert by_name["L3"].size_kb == 8192
        assert by_name["L1I"].protection == "parity"
        assert by_name["L2"].protection == "secded"

    def test_quiet_at_safe_voltage(self, stack):
        rng = np.random.default_rng(0)
        counts = stack.sample_errors(960, rng)
        assert counts["ce"] == 0 and counts["ue"] == 0

    def test_errors_deep_below_vmin(self, stack):
        rng = np.random.default_rng(0)
        total_ce = 0
        for _ in range(300):
            total_ce += stack.sample_errors(875, rng)["ce"]
        assert total_ce > 0

    def test_per_level_attribution(self, stack):
        rng = np.random.default_rng(1)
        for _ in range(500):
            counts = stack.sample_errors(870, rng)
            level_ce = sum(v for k, v in counts.items() if k.startswith("ce_"))
            level_ue = sum(v for k, v in counts.items() if k.startswith("ue_"))
            assert level_ce == counts["ce"]
            assert level_ue == counts["ue"]

    def test_empty_stack_rejected(self):
        with pytest.raises(ConfigurationError):
            CacheStack([])
