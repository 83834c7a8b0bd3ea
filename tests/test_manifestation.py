"""Component failures -> Table-3 effects."""

from collections import Counter

import numpy as np
import pytest

from repro.data.calibration import chip_calibration
from repro.effects import EffectType
from repro.errors import ConfigurationError
from repro.faults.manifestation import EffectSampler, ProtectionConfig
from repro.faults.models import FunctionalUnit, build_unit_models


@pytest.fixture(scope="module")
def ttt():
    return chip_calibration("TTT")


def make_sampler(ttt, core=0, stress=0.6, smoothness=1.0, **kwargs):
    models = build_unit_models(ttt, core=core, stress=stress,
                               smoothness=smoothness)
    return EffectSampler(models, **kwargs)


def effect_histogram(sampler, voltage, n=400, seed=1):
    rng = np.random.default_rng(seed)
    counts = Counter()
    for _ in range(n):
        for effect in sampler.sample(voltage, rng).effects:
            counts[effect] += 1
    return counts


class TestProtectionConfig:
    def test_defaults(self):
        config = ProtectionConfig()
        assert config.ecc == "secded" and config.coverage == 0.0

    def test_invalid_ecc_rejected(self):
        with pytest.raises(ConfigurationError):
            ProtectionConfig(ecc="hamming128")

    def test_invalid_coverage_rejected(self):
        with pytest.raises(ConfigurationError):
            ProtectionConfig(coverage=1.5)


class TestSampling(object):
    def test_safe_region_is_clean(self, ttt):
        sampler = make_sampler(ttt)
        counts = effect_histogram(sampler, 930, n=200)
        assert counts[EffectType.NO] == 200

    def test_sdc_appears_before_lone_ce(self, ttt):
        """The paper's headline X-Gene finding (Section 3.4)."""
        sampler = make_sampler(ttt)
        vmin = ttt.vmin_mv(0, 0.6)
        first_sdc = None
        first_ce = None
        for voltage in range(vmin, vmin - 40, -5):
            counts = effect_histogram(sampler, voltage, n=200)
            if first_sdc is None and counts[EffectType.SDC] > 0:
                first_sdc = voltage
            if first_ce is None and counts[EffectType.CE] > 0:
                first_ce = voltage
        assert first_sdc is not None and first_ce is not None
        assert first_sdc > first_ce

    def test_ce_first_under_sram_profile(self, ttt):
        """Itanium-like comparison system (Sections 3.4 / 4.4)."""
        models = build_unit_models(ttt, core=0, stress=0.6, smoothness=1.0,
                                   profile="sram")
        sampler = EffectSampler(models)
        vmin = ttt.vmin_mv(0, 0.6)
        first_sdc = None
        first_ce = None
        for voltage in range(vmin, vmin - 40, -5):
            counts = effect_histogram(sampler, voltage, n=200)
            if first_ce is None and counts[EffectType.CE] > 0:
                first_ce = voltage
            if first_sdc is None and counts[EffectType.SDC] > 0:
                first_sdc = voltage
        assert first_ce is not None
        assert first_sdc is None or first_ce > first_sdc

    def test_deep_undervolt_always_crashes(self, ttt):
        sampler = make_sampler(ttt)
        crash = ttt.crash_voltage_mv(0, 0.6, 1.0)
        counts = effect_histogram(sampler, crash - 15, n=100)
        assert counts[EffectType.SC] == 100

    def test_sc_runs_carry_nothing_else(self, ttt):
        sampler = make_sampler(ttt)
        rng = np.random.default_rng(3)
        crash = ttt.crash_voltage_mv(0, 0.6, 1.0)
        for _ in range(100):
            outcome = sampler.sample(crash - 10, rng)
            if EffectType.SC in outcome.effects:
                assert outcome.effects == frozenset({EffectType.SC})
                assert not outcome.completed

    def test_ac_runs_can_carry_edac_effects(self, ttt):
        sampler = make_sampler(ttt)
        rng = np.random.default_rng(4)
        crash = ttt.crash_voltage_mv(0, 0.6, 1.0)
        saw_ac_with_errors = False
        for _ in range(2000):
            outcome = sampler.sample(crash + 5, rng)
            if EffectType.AC in outcome.effects and (
                EffectType.CE in outcome.effects or EffectType.UE in outcome.effects
            ):
                saw_ac_with_errors = True
                break
        assert saw_ac_with_errors

    def test_missing_unit_rejected(self, ttt):
        models = build_unit_models(ttt, core=0, stress=0.5, smoothness=0.5)
        del models[FunctionalUnit.ALU]
        with pytest.raises(ConfigurationError):
            EffectSampler(models)


class TestSection6Protection:
    def test_coverage_converts_sdc_to_ce(self, ttt):
        stock = make_sampler(ttt)
        protected = make_sampler(
            ttt, protection=ProtectionConfig(coverage=0.8)
        )
        vmin = ttt.vmin_mv(0, 0.6)
        voltage = vmin - 15
        stock_counts = effect_histogram(stock, voltage)
        protected_counts = effect_histogram(protected, voltage)
        assert protected_counts[EffectType.SDC] < 0.5 * stock_counts[EffectType.SDC]
        assert protected_counts[EffectType.CE] > stock_counts[EffectType.CE]

    def test_dected_reduces_ue(self, ttt):
        stock = make_sampler(ttt)
        strong = make_sampler(ttt, protection=ProtectionConfig(ecc="dected"))
        crash = ttt.crash_voltage_mv(0, 0.6, 1.0)
        voltage = crash + 5  # deep enough for double-bit events
        stock_counts = effect_histogram(stock, voltage, n=800)
        strong_counts = effect_histogram(strong, voltage, n=800)
        assert strong_counts[EffectType.UE] < stock_counts[EffectType.UE]
