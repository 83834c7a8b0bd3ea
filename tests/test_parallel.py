"""The parallel characterization engine: determinism, fallbacks, caching."""

import io
import multiprocessing
import pickle
import warnings

import numpy as np
import pytest

from repro.core import CharacterizationFramework, FrameworkConfig
from repro.core.campaign import CampaignResult, CharacterizationResult
from repro.core.kernel import _StepPlan
from repro.core.runs import CharacterizationSetup, RunRecord
from repro.effects import EffectType
from repro.errors import ConfigurationError
from repro.faults.protection import ProtectionConfig
# reprolint: disable=RPR003 -- MachineSpec.from_machine round-trip tests
from repro.hardware import (
    AdaptiveClockingUnit,
    AgingModel,
    RollbackUnit,
    SupplyDroopModel,
    TemperatureSensitivity,
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
from repro.store import JOURNAL_NAME
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


def _final_state(framework):
    """A task's machine and watchdog state after its campaign."""
    machine = framework.machine
    return (
        machine.tick,
        machine.run_counter,
        machine.state.value,
        tuple(machine.regulator.transactions),
        tuple(machine.slimpro.i2c_log),
        machine.slimpro._last_power_w,
        tuple(machine.edac.poll_new()),
        machine.console.last_heartbeat_tick(),
        tuple(
            (item.action.value, item.tick, item.reason)
            for item in framework.watchdog.interventions
        ),
    )


class TestTableSharing:
    """A chunk's consecutive campaigns of one cell share one table."""

    @pytest.mark.parametrize(
        "spec",
        [
            MachineSpec(chip="TSS", seed=3),
            MachineSpec(chip="TTT", seed=3, use_cache_models=False),
            MachineSpec(
                chip="TFF",
                seed=3,
                protection=ProtectionConfig(coverage=0.4),
                rollback_unit=RollbackUnit(detection_coverage=0.7),
                droop_model=SupplyDroopModel(),
                aging_model=AgingModel(),
                temperature_sensitivity=TemperatureSensitivity(),
                stress_hours=5000.0,
                fan_setpoint_c=60.0,
            ),
        ],
        ids=["stock", "analytic", "extensions"],
    )
    def test_tables_do_not_depend_on_the_task_seed(self, spec):
        program = get_benchmark("mcf").programs()[0]
        machines = [spec.build(seed=seed) for seed in (11, 2**40 + 5)]
        tables = [
            machine.compile_batch_table(program, core=4, freq_mhz=2400)
            for machine in machines
        ]
        first, second = tables
        assert first.voltages == second.voltages
        assert (first.expected_output, first.rollback_coverage,
                first.ue_ac_fraction) == (second.expected_output,
                                          second.rollback_coverage,
                                          second.ue_ac_fraction)
        for vidx in range(len(first.voltages)):
            plans = [table.plan(vidx) for table in tables]
            for slot in _StepPlan.__slots__:
                values = [getattr(plan, slot) for plan in plans]
                if isinstance(values[0], np.ndarray):
                    assert np.array_equal(values[0], values[1]), slot
                else:
                    assert values[0] == values[1], (vidx, slot)
        # Power is read at the prepared V/F state, which the cell fixes.
        for machine in machines:
            machine.clocks.set_pmd_frequency_mhz(2, 2400)
            machine.clocks.park_all_except([4])
        assert [first.power_w(7, machines[0]), first.power_w(7, machines[1])] \
            == [second.power_w(7, machines[1])] * 2

    def test_power_memo_follows_the_clocks(self):
        machine = SPEC.build()
        table = machine.compile_batch_table(
            get_benchmark("mcf"), core=0, freq_mhz=2400
        )
        nominal_clocks = table.power_w(3, machine)
        machine.clocks.park_all_except([0])
        parked = table.power_w(3, machine)
        assert parked != nominal_clocks
        assert parked == machine.power_model.chip_power_w(
            table.voltages[3], machine.clocks.frequencies(), temp_c=43.0
        )

    def test_adopted_table_serves_the_next_campaign(self, monkeypatch):
        builds = []
        original = XGene2Machine.compile_batch_table

        def counting(self, workload, core, freq_mhz):
            builds.append((workload.name, core))
            return original(self, workload, core, freq_mhz)

        monkeypatch.setattr(XGene2Machine, "compile_batch_table", counting)
        report = grid_engine(jobs=1, chunk_size=12).run(
            [get_benchmark("bwaves"), get_benchmark("mcf")], [0, 4]
        )
        # 4 cells x 2 campaigns in one chunk: one compile per cell.
        assert len(report.results) == 4
        assert sorted(builds) == sorted(
            (bench, core) for bench in ("bwaves", "mcf") for core in (0, 4)
        )

    def test_surface_change_recompiles_instead_of_adopting(self):
        machine = SPEC.build(seed=5)
        other = SPEC.build(seed=6)
        framework = CharacterizationFramework(machine, CFG)
        program = get_benchmark("mcf").programs()[0]
        framework.run_campaign(program, 0)
        token, table = framework.compiled_table(program, 0)
        attached = RollbackUnit()
        other.rollback_unit = attached
        receiver = CharacterizationFramework(other, CFG)
        receiver.adopt_table(table, token)
        receiver.run_campaign(program, 0)
        assert receiver.compiled_table(program, 0)[1] is not table
        assert receiver.compiled_table(program, 0)[1].rollback_coverage == \
            attached.detection_coverage

    def test_sharing_changes_no_journal_byte_or_machine_state(
        self, tmp_path, monkeypatch
    ):
        # No sharing (one task per chunk), the default serial chunks
        # (each cell's campaigns share a table) and a 2-worker process
        # pool: same journal and the same machine state per task.
        original = CharacterizationFramework.run_campaign
        config = FrameworkConfig(start_mv=925, campaigns=3, runs_per_level=4)
        workloads = [get_benchmark("bwaves"), get_benchmark("mcf")]

        def snapshotting(self, workload, core, campaign_index=1):
            result = original(self, workload, core, campaign_index)
            name = f"{result.benchmark}-{core}-{campaign_index}.pkl"
            (self._snapshots / name).write_bytes(pickle.dumps(_final_state(self)))
            return result

        runs = {
            "unshared": dict(jobs=1, chunk_size=1),
            "default": dict(jobs=1),
            "pool": dict(jobs=2, backend="process"),
        }
        journals, states = {}, {}
        for name, kwargs in runs.items():
            snapshots = tmp_path / f"{name}-states"
            snapshots.mkdir()
            monkeypatch.setattr(
                CharacterizationFramework, "_snapshots", snapshots, raising=False
            )
            monkeypatch.setattr(
                CharacterizationFramework, "run_campaign", snapshotting
            )
            store = tmp_path / f"{name}-store"
            ParallelCampaignEngine(SPEC, config, **kwargs).run(
                workloads, [0, 4], store=store
            )
            journals[name] = (store / JOURNAL_NAME).read_bytes()
            states[name] = {
                path.name: path.read_bytes() for path in snapshots.iterdir()
            }
        assert journals["unshared"] == journals["default"]
        # A pool journals in completion order: compare the line sets.
        assert sorted(journals["pool"].splitlines()) == sorted(
            journals["default"].splitlines()
        )
        assert len(states["unshared"]) == 12
        assert states["unshared"] == states["default"]
        if multiprocessing.get_start_method() == "fork":
            # Forked workers inherit the snapshotting wrapper.
            assert states["pool"] == states["default"]


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
