"""The three-phase characterization framework end to end."""

import pytest

from repro.core import CharacterizationFramework, FrameworkConfig
from repro.core.regions import Region
from repro.data.calibration import chip_calibration
from repro.effects import EffectType
from repro.errors import ConfigurationError
from repro.workloads import get_benchmark


@pytest.fixture()
def framework(machine):
    return CharacterizationFramework(
        machine, FrameworkConfig(start_mv=930, campaigns=3)
    )


class TestConfig:
    def test_paper_defaults(self):
        config = FrameworkConfig()
        assert config.runs_per_level == 10
        assert config.campaigns == 10
        assert config.freq_mhz == 2400

    def test_invalid_values_rejected(self):
        with pytest.raises(ConfigurationError):
            FrameworkConfig(runs_per_level=0)
        with pytest.raises(ConfigurationError):
            FrameworkConfig(campaigns=0)
        with pytest.raises(ConfigurationError):
            FrameworkConfig(stop_after_crash_levels=0)


class TestSingleCampaign:
    def test_campaign_structure(self, framework):
        result = framework.run_campaign(get_benchmark("bwaves"), core=0)
        assert result.chip == "TTT"
        assert result.benchmark == "bwaves"
        assert result.core == 0
        voltages = result.voltages()
        assert voltages[0] == 930
        assert all(len(result.runs_at(v)) == 10 for v in voltages)

    def test_sweep_stops_after_crash_levels(self, framework):
        result = framework.run_campaign(get_benchmark("bwaves"), core=0)
        crash = result.crash_mv
        assert crash is not None
        # Sweep terminated within a few levels of full crash, far above
        # the 700 mV regulator floor.
        assert min(result.voltages()) > 700

    def test_machine_left_in_safe_state(self, framework, machine):
        framework.run_campaign(get_benchmark("mcf"), core=0)
        assert machine.is_responsive()
        assert machine.regulator.pmd_voltage_mv(0) == 980

    def test_reliable_cores_setup_applied(self, machine):
        # Sweep a safe-only range: no crash, no reboot, so the parked
        # configuration survives the campaign and can be inspected.
        framework = CharacterizationFramework(
            machine, FrameworkConfig(start_mv=930, stop_mv=925, campaigns=1)
        )
        framework.run_campaign(get_benchmark("mcf"), core=0)
        freqs = machine.clocks.frequencies()
        assert freqs[0] == 2400
        assert freqs[1] == freqs[2] == freqs[3] == 300

    def test_raw_logs_recorded(self, framework):
        framework.run_campaign(get_benchmark("mcf"), core=0, campaign_index=2)
        key = ("mcf", 0, 2400, 2)
        assert key in framework.raw_logs
        assert "=== RUN" in framework.raw_logs[key]

    def test_explicit_stop_voltage(self, machine):
        framework = CharacterizationFramework(
            machine, FrameworkConfig(start_mv=930, stop_mv=920, campaigns=1)
        )
        result = framework.run_campaign(get_benchmark("bwaves"), core=0)
        assert set(result.voltages()) == {930, 925, 920}

    def test_rejects_plain_strings(self, framework):
        with pytest.raises(ConfigurationError):
            framework.run_campaign("bwaves", core=0)


class TestCharacterization:
    def test_reproduces_anchor_vmin_and_crash(self, bwaves_characterization):
        cal = chip_calibration("TTT")
        bench = get_benchmark("bwaves")
        assert bwaves_characterization.highest_vmin_mv == \
            cal.vmin_mv(0, bench.stress)
        assert bwaves_characterization.highest_crash_mv == \
            cal.crash_voltage_mv(0, bench.stress, bench.smoothness)

    def test_mean_vmin_at_or_below_highest(self, bwaves_characterization):
        assert bwaves_characterization.mean_vmin_mv <= \
            bwaves_characterization.highest_vmin_mv

    def test_severity_monotone_trend(self, bwaves_characterization):
        severity = bwaves_characterization.severity_by_voltage()
        voltages = sorted(severity, reverse=True)
        values = [severity[v] for v in voltages]
        # Severity never decreases by more than sampling noise as the
        # voltage drops, and spans the whole 0..16 range.
        for earlier, later in zip(values, values[1:]):
            assert later >= earlier - 1.0
        assert values[0] == 0.0
        assert max(values) > 15.0

    def test_regions_nested_correctly(self, bwaves_characterization):
        regions = bwaves_characterization.pooled_regions()
        assert regions.classify(930) is Region.SAFE
        assert regions.crash_mv < regions.vmin_mv

    def test_sdc_before_lone_ce(self, bwaves_characterization):
        """The paper's Section-3.4 finding, measured end to end."""
        pooled = bwaves_characterization.pooled_counts()
        first_sdc = max(
            (v for v, c in pooled.items() if c[EffectType.SDC] > 0),
            default=None)
        first_ce = max(
            (v for v, c in pooled.items() if c[EffectType.CE] > 0),
            default=None)
        assert first_sdc is not None and first_ce is not None
        assert first_sdc > first_ce

    def test_section5_leslie3d_pair(self, leslie3d_characterizations):
        assert leslie3d_characterizations[4].highest_vmin_mv == 880
        assert leslie3d_characterizations[0].highest_vmin_mv == 915

    def test_watchdog_used_heavily(self, framework):
        framework.characterize(get_benchmark("mcf"), core=0)
        assert framework.watchdog.intervention_count > 10


class TestCharacterizeMany:
    """A grid of cells runs on the engine, from the machine's spec."""

    def test_grid(self, machine):
        from repro.parallel import ParallelCampaignEngine

        engine = ParallelCampaignEngine(
            machine, FrameworkConfig(start_mv=900, campaigns=1,
                                     runs_per_level=3)
        )
        grid = engine.run(
            [get_benchmark("mcf"), get_benchmark("gromacs")], cores=[0, 4]
        ).results
        assert set(grid) == {("mcf", 0), ("mcf", 4),
                             ("gromacs", 0), ("gromacs", 4)}
