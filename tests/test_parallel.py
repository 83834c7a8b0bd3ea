"""The parallel characterization engine: determinism, fallbacks, caching."""

import concurrent.futures
import io
import json
import multiprocessing
import pickle
import re
import warnings
import weakref

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
from repro.parallel.tasks import run_campaign_chunk
from repro.store import JOURNAL_NAME, CampaignStore, StoredCampaign
from repro.workloads import SPEC2006_SUITE, get_benchmark

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


class TestRunStreamsFollowTheSeed:
    """The per-run streams must descend from the task seed.

    A literal or wall-clock value anywhere between the machine seed,
    ``derive_task_seed`` and the per-run generators makes two machine
    seeds (or the campaigns of one cell) replay the same runs.  The
    cell sweeps from 900 mV deep into the crash region, so the
    compared logs carry SDCs, EDAC reports and watchdog resets.
    """

    CONFIG = FrameworkConfig(start_mv=900, campaigns=3, runs_per_level=6)

    def _logs(self, seed):
        report = ParallelCampaignEngine(
            MachineSpec(chip="TTT", seed=seed), self.CONFIG
        ).run([get_benchmark("mcf")], [0])
        assert report.interventions > 0
        return [
            report.raw_logs[("mcf", 0, self.CONFIG.freq_mhz, k)]
            for k in (1, 2, 3)
        ]

    def test_machine_seeds_give_different_raw_logs(self):
        first, second = self._logs(2017), self._logs(2018)
        for campaign in range(3):
            assert first[campaign] != second[campaign]

    def test_campaigns_of_one_cell_differ(self):
        # The run headers name the campaign; compare what the runs did.
        bodies = [
            re.sub(r" campaign=\d+ ", " ", log) for log in self._logs(2017)
        ]
        assert len(set(bodies)) == 3


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
        parallel = run_grid(jobs=4)
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

    def test_two_worker_pool_matches(self):
        assert run_grid(jobs=1).results == run_grid(jobs=2).results

    def test_chunking_does_not_change_results(self):
        reference = run_grid(jobs=1)
        chunked = run_grid(jobs=2, chunk_size=1)
        assert reference.results == chunked.results

    def test_campaign_order_restored(self):
        report = run_grid(jobs=2)
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
            "pool": dict(jobs=2),
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

    @pytest.mark.parametrize("jobs", [1, 2, 3, 4, 8])
    def test_default_chunks_hold_whole_cells(self, jobs):
        # The pool-sweep grid: 26 benchmarks x 4 cores x 2 campaigns.
        engine = ParallelCampaignEngine(
            SPEC, FrameworkConfig(campaigns=2), jobs=jobs)
        tasks = engine.tasks_for(
            [get_benchmark(name) for name in SPEC2006_SUITE], [0, 2, 4, 6])
        assert len(tasks) == 208
        chunks = engine._chunk(tasks)
        assert [task for chunk in chunks for task in chunk] == tasks
        cells = [{task.grid_key for task in chunk} for chunk in chunks]
        for index, chunk_cells in enumerate(cells):
            for other in cells[index + 1:]:
                assert not chunk_cells & other
        if jobs == 1:
            # Serially every chunk is exactly one cell.
            assert len(chunks) == 104
            assert all(len(chunk) == 2 and len(chunk_cells) == 1
                       for chunk, chunk_cells in zip(chunks, cells))


class TestWorkerLines:
    """The line a worker returns is the line the store journals."""

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_worker_line_is_the_journal_line(self, jobs, tmp_path,
                                             monkeypatch):
        returned = []
        finish = ParallelCampaignEngine._finish_chunk

        def spying(self, outcomes, *args):
            returned.extend(outcome.line for outcome in outcomes)
            return finish(self, outcomes, *args)

        monkeypatch.setattr(ParallelCampaignEngine, "_finish_chunk", spying)
        report = grid_engine(jobs=jobs).run(
            [get_benchmark("bwaves"), get_benchmark("mcf")], [0, 4],
            store=tmp_path / "store")
        assert report.backend == ("serial" if jobs == 1 else "process")
        journaled = CampaignStore.open(tmp_path / "store").campaigns()
        assert len(returned) == len(journaled) == 8
        if jobs == 1:
            assert returned == journaled
        else:
            # A pool finishes chunks in completion order.
            def by_key(lines):
                return sorted(lines, key=lambda line: line.key)

            assert by_key(returned) == by_key(journaled)
        for line in returned:
            assert line.seed == derive_task_seed(SPEC.seed, *line.key)
            decoded = StoredCampaign.from_json_dict(
                json.loads(json.dumps(line.to_json_dict())))
            assert decoded.records == line.records

    @pytest.mark.parametrize("use_kernel", [True, False])
    def test_pickled_task_result_carries_no_record(self, use_kernel):
        """A worker ships each line as its raw log and per-voltage
        counts, on either path: the pickle holds no run record, and
        the parent parses the records from the log when asked."""
        task = grid_engine().tasks_for([get_benchmark("mcf")], [0])[0]
        (outcome,) = run_campaign_chunk(SPEC, CFG, (task,),
                                        use_kernel=use_kernel)
        payload = pickle.dumps(outcome)
        assert b"RunRecord" not in payload
        restored = pickle.loads(payload)
        assert restored.line.result.__dict__["_records"] is None
        assert restored.line.counts() == outcome.line.counts()
        assert restored == outcome


class TestCountBackedLines:
    """A journaled run keeps each campaign as the store reads it back:
    raw log plus per-voltage counts, its records parsed on demand."""

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_journaled_run_keeps_what_a_reader_builds(self, jobs, tmp_path,
                                                      monkeypatch):
        built, alive = [], []
        finish = ParallelCampaignEngine._finish_chunk

        def spying(self, outcomes, *args):
            # Lines of earlier chunks are held by the store alone.
            alive.append(sum(ref() is not None for ref in built))
            built.extend(
                ref for outcome in outcomes
                for ref in (weakref.ref(outcome.line),
                            weakref.ref(outcome.line.result))
            )
            return finish(self, outcomes, *args)

        monkeypatch.setattr(ParallelCampaignEngine, "_finish_chunk", spying)
        workloads = [get_benchmark("bwaves"), get_benchmark("mcf")]
        store = CampaignStore.create(tmp_path / "store", SPEC, CFG,
                                     ["bwaves", "mcf"], [0, 4])
        report = grid_engine(jobs=jobs).run(workloads, [0, 4], store=store)
        assert report.backend == ("serial" if jobs == 1 else "process")
        # The worker-built lines and their records are gone as soon as
        # their chunk is finished.
        assert len(alive) > 1 and alive == [0] * len(alive)
        assert len(built) == 16
        assert [ref() for ref in built] == [None] * 16
        held = store.campaigns()
        assert len(held) == 8
        assert all(line.result.__dict__["_records"] is None for line in held)
        # The report's campaigns are the store's own objects.
        for line in held:
            cell = report.results[(line.benchmark, line.core)]
            assert cell.campaigns[line.campaign_index - 1] is line.result
        fresh = {line.key: line
                 for line in CampaignStore.open(store.directory).campaigns()}
        assert dict(store.answers()) == dict(
            CampaignStore.open(store.directory).answers())
        assert all(line.result.__dict__["_records"] is None for line in held)
        for line in held:
            reread = fresh[line.key]
            assert line.raw_log == reread.raw_log
            assert line.result.counts_by_voltage() == \
                reread.result.counts_by_voltage()
            assert line.result.run_counts_by_voltage() == \
                reread.result.run_counts_by_voltage()
            assert line.records == reread.records
            assert line == reread


def _crashes_in_a_worker(spec, config, tasks, collect_spans=False,
                         use_kernel=True):
    """A chunk runner that dies in every pool worker and succeeds in
    the parent (module-level, so the pool can pickle it)."""
    if multiprocessing.parent_process() is not None:
        raise RuntimeError("simulated worker crash")
    return run_campaign_chunk(spec, config, tasks, collect_spans, use_kernel)


class TestRetryPolicy:
    def test_lost_chunk_retried_in_process(self, monkeypatch):
        monkeypatch.setattr(
            engine_mod, "run_campaign_chunk", _crashes_in_a_worker
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            # One chunk holds all four tasks: one lost chunk.
            report = grid_engine(jobs=2, chunk_size=4).run(
                [get_benchmark("bwaves")], [0, 4]
            )
        monkeypatch.undo()
        assert report.chunks_retried == 1
        assert report.results == run_grid(jobs=1).results

    def test_pool_that_cannot_start_runs_serially(self, monkeypatch):
        def no_pool(max_workers=None):
            raise OSError("simulated missing /dev/shm")

        monkeypatch.setattr(
            concurrent.futures, "ProcessPoolExecutor", no_pool
        )
        with pytest.warns(RuntimeWarning, match="process pool unavailable"):
            report = run_grid(jobs=2)
        assert report.backend == "serial" and report.jobs == 1
        assert report.results == run_grid(jobs=1).results


class TestEngineValidation:
    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigurationError):
            grid_engine(jobs=1).run([], [])

    def test_bad_jobs_rejected(self):
        with pytest.raises(ConfigurationError):
            grid_engine(jobs=0)

    def test_bad_chunk_size_rejected(self):
        with pytest.raises(ConfigurationError):
            grid_engine(chunk_size=0)


class TestFrameworkWiring:
    """A built machine handed to the engine: every task runs on a fresh
    machine rebuilt from the machine's spec."""

    def _machine(self):
        machine = XGene2Machine("TTT", seed=2017)
        machine.power_on()
        return machine

    def test_characterize_many_jobs_equivalence(self):
        serial = ParallelCampaignEngine(self._machine(), CFG, jobs=1).run(
            [get_benchmark("bwaves")], [0, 4])
        parallel = ParallelCampaignEngine(self._machine(), CFG, jobs=4).run(
            [get_benchmark("bwaves")], [0, 4])
        assert serial.results == parallel.results

    def test_raw_logs_and_report_populated(self):
        report = ParallelCampaignEngine(self._machine(), CFG, jobs=2).run(
            [get_benchmark("bwaves")], [0])
        assert len(report.raw_logs) == CFG.campaigns
        assert report.tasks_run == CFG.campaigns
        assert report.interventions > 0

    def _extension_machine(self):
        machine = XGene2Machine(
            "TTT", seed=2017,
            droop_model=SupplyDroopModel(),
            aging_model=AgingModel(),
            adaptive_clock=AdaptiveClockingUnit(),
        )
        machine.age(2000.0)
        machine.power_on()
        return machine

    def test_extension_machine_parallel_matches_serial(self):
        # The acceptance scenario: droop + aging + adaptive clocking,
        # jobs=4 bit-identical to jobs=1 (results AND raw logs).
        serial = ParallelCampaignEngine(
            self._extension_machine(), CFG, jobs=1).run(
            [get_benchmark("bwaves")], [0, 4])
        parallel = ParallelCampaignEngine(
            self._extension_machine(), CFG, jobs=4).run(
            [get_benchmark("bwaves")], [0, 4])
        assert serial.results == parallel.results
        assert serial.raw_logs == parallel.raw_logs
        assert parallel.backend != "serial"

    def test_extension_models_shift_the_characterization(self):
        # The rebuilt machines must actually carry the models: an aged,
        # droop-afflicted machine characterizes differently from a
        # nominal one.  The sweep starts at 930 mV because the shifted
        # Vmin climbs above the default 905 mV test start.
        cfg = FrameworkConfig(start_mv=930, campaigns=2, runs_per_level=3)
        nominal = ParallelCampaignEngine(self._machine(), cfg, jobs=2).run(
            [get_benchmark("bwaves")], [0]).results
        shifted = ParallelCampaignEngine(
            self._extension_machine(), cfg, jobs=2).run(
            [get_benchmark("bwaves")], [0]).results
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


class TestOutcomeMetrics:
    """The parent books a chunk's effects with one increment per
    effect class; the registry totals equal one increment per record
    and effect."""

    def test_registry_totals_match_per_record_increments(self):
        from repro.parallel.tasks import CampaignTask, run_campaign_chunk
        from repro.telemetry import (
            M_EFFECTS, M_INTERVENTIONS, MetricsRegistry, telemetry_session)

        tasks = tuple(
            CampaignTask(program, core, k, derive_task_seed(2017, program.name, core, k))
            for program in (get_benchmark("mcf").programs()[0],
                            get_benchmark("namd").programs()[0])
            for core in (0, 5) for k in (1, 2)
        )
        outcomes = run_campaign_chunk(SPEC, CFG, tasks)
        registry = MetricsRegistry()
        with telemetry_session(metrics=registry):
            ParallelCampaignEngine._record_outcomes(outcomes)
        reference = MetricsRegistry()
        for outcome in outcomes:
            if outcome.line.interventions:
                reference.counter(M_INTERVENTIONS).inc(
                    outcome.line.interventions)
            for record in outcome.line.records:
                for effect in record.effects:
                    reference.counter(M_EFFECTS, effect=effect.value).inc()
        assert registry.snapshot() == reference.snapshot()
        effects = {
            sample["labels"]["effect"]
            for family in registry.snapshot()["metrics"]
            if family["name"] == M_EFFECTS
            for sample in family["samples"]
        }
        assert {
            effect.value for effect in
            (EffectType.NO, EffectType.SC, EffectType.SDC, EffectType.AC)
        } <= effects
