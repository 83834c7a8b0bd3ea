"""The parallel characterization engine: determinism, fallbacks, caching."""

import io
import warnings

import pytest

from repro.core import CharacterizationFramework, FrameworkConfig
from repro.core.campaign import CampaignResult, CharacterizationResult
from repro.core.runs import CharacterizationSetup, RunRecord
from repro.effects import EffectType
from repro.errors import ConfigurationError
# reprolint: disable=RPR003 -- MachineSpec.from_machine round-trip tests
from repro.hardware import (
    AdaptiveClockingUnit,
    AgingModel,
    SupplyDroopModel,
    XGene2Machine,
)
from repro.parallel import (
    MachineSpec,
    ParallelCampaignEngine,
    ConsoleProgress,
    ProgressReporter,
    ProgressTracker,
    derive_task_seed,
)
from repro.parallel import engine as engine_mod
from repro.workloads import get_benchmark

#: Small but watchdog-exercising configuration: the sweep starts right
#: below bwaves/mcf Vmin and descends into the crash region.
CFG = FrameworkConfig(start_mv=905, campaigns=2, runs_per_level=3)
SPEC = MachineSpec(chip="TTT", seed=2017)


def grid_engine(**kwargs):
    return ParallelCampaignEngine(SPEC, CFG, **kwargs)


def run_grid(**kwargs):
    return grid_engine(**kwargs).run([get_benchmark("bwaves")], [0, 4])


class TestSeedDerivation:
    def test_deterministic(self):
        assert derive_task_seed(2017, "bwaves", 0, 1) == \
            derive_task_seed(2017, "bwaves", 0, 1)

    def test_distinct_across_coordinates(self):
        seeds = {
            derive_task_seed(seed, bench, core, campaign)
            for seed in (1, 2017)
            for bench in ("bwaves", "mcf")
            for core in (0, 4)
            for campaign in (1, 2, 3)
        }
        assert len(seeds) == 2 * 2 * 2 * 3

    def test_positive_63_bit(self):
        seed = derive_task_seed(2017, "bwaves", 7, 10)
        assert 0 <= seed < 2 ** 63


class TestMachineSpec:
    def test_from_machine_round_trip(self):
        machine = XGene2Machine("TFF", seed=42)
        spec = MachineSpec.from_machine(machine)
        assert spec.chip == "TFF" and spec.seed == 42
        rebuilt = spec.build()
        assert rebuilt.chip.name == "TFF"
        assert rebuilt.is_responsive()  # build() powers on

    def test_build_with_override_seed(self):
        machine = MachineSpec(chip="TTT", seed=1).build(seed=99)
        assert machine.seed == 99

    def test_captures_extension_models(self):
        machine = XGene2Machine("TTT", droop_model=SupplyDroopModel())
        spec = MachineSpec.from_machine(machine)
        assert spec.droop_model == SupplyDroopModel()
        rebuilt = spec.build()
        assert rebuilt.droop_model == SupplyDroopModel()
        assert rebuilt.to_spec() == spec

    def test_rejects_unregistered_third_party_models(self):
        class ExoticDroop(SupplyDroopModel):
            pass

        machine = XGene2Machine("TTT", droop_model=ExoticDroop())
        with pytest.raises(ConfigurationError, match="register_component"):
            MachineSpec.from_machine(machine)


class TestEngineEquivalence:
    def test_parallel_bit_identical_to_serial(self):
        serial = run_grid(jobs=1)
        parallel = run_grid(jobs=4, backend="process")
        assert serial.backend == "serial" and parallel.backend == "process"
        assert serial.results == parallel.results
        assert serial.raw_logs == parallel.raw_logs
        for key in serial.results:
            assert serial.results[key].severity_by_voltage() == \
                parallel.results[key].severity_by_voltage()
            assert serial.results[key].highest_vmin_mv == \
                parallel.results[key].highest_vmin_mv
            assert serial.results[key].highest_crash_mv == \
                parallel.results[key].highest_crash_mv
        # The sweep descends into the crash region, so the equivalence
        # covers the worker-side watchdog-recovery path.
        assert serial.interventions == parallel.interventions > 0

    def test_thread_backend_matches(self):
        assert run_grid(jobs=1).results == \
            run_grid(jobs=2, backend="thread").results

    def test_chunking_does_not_change_results(self):
        reference = run_grid(jobs=1)
        chunked = run_grid(jobs=2, backend="thread", chunk_size=1)
        assert reference.results == chunked.results

    def test_campaign_order_restored(self):
        report = run_grid(jobs=2, backend="thread")
        for result in report.results.values():
            indices = [c.campaign_index for c in result.campaigns]
            assert indices == sorted(indices)


class TestRetryPolicy:
    def test_lost_chunk_retried_in_process(self, monkeypatch):
        real = engine_mod.run_campaign_chunk
        failures = {"left": 1}

        def flaky(spec, config, tasks, collect_spans=False, use_kernel=True):
            if failures["left"]:
                failures["left"] -= 1
                raise RuntimeError("simulated worker crash")
            return real(spec, config, tasks, collect_spans, use_kernel)

        monkeypatch.setattr(engine_mod, "run_campaign_chunk", flaky)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            report = grid_engine(jobs=2, backend="thread").run(
                [get_benchmark("bwaves")], [0, 4]
            )
        monkeypatch.undo()
        assert report.chunks_retried == 1
        assert report.results == run_grid(jobs=1).results


class TestEngineValidation:
    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigurationError):
            grid_engine(jobs=1).run([], [])

    def test_bad_jobs_rejected(self):
        with pytest.raises(ConfigurationError):
            grid_engine(jobs=0)

    def test_bad_backend_rejected(self):
        with pytest.raises(ConfigurationError):
            grid_engine(backend="gpu")

    def test_bad_chunk_size_rejected(self):
        with pytest.raises(ConfigurationError):
            grid_engine(chunk_size=0)


class TestFrameworkWiring:
    def _framework(self):
        machine = XGene2Machine("TTT", seed=2017)
        machine.power_on()
        return CharacterizationFramework(machine, CFG)

    def test_characterize_many_jobs_equivalence(self):
        serial = self._framework().characterize_many(
            [get_benchmark("bwaves")], [0, 4], jobs=1)
        parallel = self._framework().characterize_many(
            [get_benchmark("bwaves")], [0, 4], jobs=4)
        assert serial == parallel

    def test_raw_logs_and_report_populated(self):
        framework = self._framework()
        framework.characterize_many([get_benchmark("bwaves")], [0], jobs=2)
        assert len(framework.raw_logs) == CFG.campaigns
        assert framework.last_engine_report is not None
        assert framework.last_engine_report.tasks_run == CFG.campaigns
        assert framework.last_engine_report.interventions > 0

    def test_abnormal_fraction_served_from_cache(self, monkeypatch):
        framework = self._framework()
        framework.characterize_many([get_benchmark("bwaves")], [0], jobs=1)
        first = framework.abnormal_run_fraction()
        assert 0.0 < first <= 1.0

        from repro.core import framework as framework_mod

        def exploding_parse(text, memo):
            raise AssertionError("raw log was re-parsed")

        monkeypatch.setattr(framework_mod, "count_log", exploding_parse)
        assert framework.abnormal_run_fraction() == first

    def test_abnormal_fraction_invalidates_on_log_change(self):
        framework = self._framework()
        framework.characterize_many([get_benchmark("bwaves")], [0], jobs=1)
        key = next(iter(framework.raw_logs))
        framework.raw_logs[key] = framework.raw_logs[key] * 2
        doubled = framework.abnormal_run_fraction()
        assert 0.0 < doubled <= 1.0

    def _extension_framework(self, config=CFG):
        machine = XGene2Machine(
            "TTT", seed=2017,
            droop_model=SupplyDroopModel(),
            aging_model=AgingModel(),
            adaptive_clock=AdaptiveClockingUnit(),
        )
        machine.age(2000.0)
        machine.power_on()
        return CharacterizationFramework(machine, config)

    def test_extension_machine_parallel_matches_serial(self):
        # The acceptance scenario: droop + aging + adaptive clocking,
        # jobs=4 bit-identical to jobs=1 (results AND raw logs).
        serial = self._extension_framework()
        serial_results = serial.characterize_many(
            [get_benchmark("bwaves")], [0, 4], jobs=1)
        parallel = self._extension_framework()
        parallel_results = parallel.characterize_many(
            [get_benchmark("bwaves")], [0, 4], jobs=4)
        assert serial_results == parallel_results
        assert serial.raw_logs == parallel.raw_logs
        assert parallel.last_engine_report.backend != "serial"

    def test_extension_models_shift_the_characterization(self):
        # The rebuilt machines must actually carry the models: an aged,
        # droop-afflicted machine characterizes differently from a
        # nominal one.  The sweep starts at 930 mV because the shifted
        # Vmin climbs above the default 905 mV test start.
        cfg = FrameworkConfig(start_mv=930, campaigns=2, runs_per_level=3)
        machine = XGene2Machine("TTT", seed=2017)
        machine.power_on()
        nominal = CharacterizationFramework(machine, cfg).characterize_many(
            [get_benchmark("bwaves")], [0], jobs=2)
        shifted = self._extension_framework(cfg).characterize_many(
            [get_benchmark("bwaves")], [0], jobs=2)
        assert shifted[("bwaves", 0)].highest_vmin_mv > \
            nominal[("bwaves", 0)].highest_vmin_mv


class TestProgress:
    def test_tracker_events(self):
        events = []

        class Recorder(ProgressReporter):
            def on_progress(self, event):
                events.append(event)

        tracker = ProgressTracker(4, Recorder())
        tracker.advance(1)
        tracker.advance(3)
        assert [e.completed for e in events] == [1, 4]
        assert all(e.total == 4 for e in events)
        assert events[0].eta_s is not None and events[0].eta_s >= 0.0
        assert events[-1].fraction == 1.0 and events[-1].eta_s == 0.0

    def test_engine_reports_progress(self):
        events = []

        class Recorder(ProgressReporter):
            def on_progress(self, event):
                events.append(event)

        engine = ParallelCampaignEngine(SPEC, CFG, jobs=1, progress=Recorder())
        engine.run([get_benchmark("bwaves")], [0])
        assert events[-1].completed == events[-1].total == CFG.campaigns

    def test_console_progress_renders(self):
        stream = io.StringIO()
        reporter = ConsoleProgress(stream=stream, label="tasks")
        tracker = ProgressTracker(2, reporter)
        tracker.advance(2)
        tracker.finish()
        text = stream.getvalue()
        assert "tasks: 2/2" in text and "100.0 %" in text
        assert text.endswith("\n")


def _record(voltage, effects, campaign=1, run=1):
    return RunRecord(
        chip="TTT", benchmark="bwaves",
        setup=CharacterizationSetup(voltage_mv=voltage, freq_mhz=2400, core=0),
        campaign_index=campaign, run_index=run,
        effects=frozenset(effects), exit_code=0, output_matches=True,
    )


class TestAggregationCaching:
    def _campaign(self):
        records = tuple(
            _record(v, {EffectType.SDC} if v < 910 else {EffectType.NO}, run=r)
            for v in (915, 910, 905) for r in range(1, 4)
        )
        return CampaignResult(chip="TTT", benchmark="bwaves", core=0,
                              freq_mhz=2400, campaign_index=1, records=records)

    def test_severity_is_single_pass(self, monkeypatch):
        campaign = self._campaign()

        def forbidden(self, voltage_mv):
            raise AssertionError("severity_by_voltage rescanned records")

        monkeypatch.setattr(CampaignResult, "runs_at", forbidden)
        severity = campaign.severity_by_voltage()
        assert severity[905] == pytest.approx(4.0 * 3 / 3)

    def test_counts_copy_is_isolated(self):
        campaign = self._campaign()
        mutated = campaign.counts_by_voltage()
        mutated[905][EffectType.SDC] = 999
        assert campaign.counts_by_voltage()[905][EffectType.SDC] == 3

    def test_run_counts_by_voltage(self):
        campaign = self._campaign()
        assert campaign.run_counts_by_voltage() == {915: 3, 910: 3, 905: 3}

    def test_characterization_severity_uses_pooled_cache(self):
        campaign = self._campaign()
        result = CharacterizationResult(campaigns=(campaign,))
        assert result.severity_by_voltage() == campaign.severity_by_voltage()
        # cached views are per-instance and never leak between objects
        assert result.pooled_counts() == campaign.counts_by_voltage()
