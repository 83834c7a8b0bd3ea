"""The vectorized batch kernel: bit-identity, RNG replay, fallback.

The kernel's contract (``repro.core.kernel``) is that a campaign run
through the compiled :class:`VoltageTable` produces **bit-identical**
observables to the scalar path: the same raw log bytes (so the same
:class:`RunRecord` stream once parsed), the same machine state
trajectory, and per-voltage counts equal to those of its log.  These
tests pin that contract at every layer -- the vectorized
``default_rng`` replay, the per-run sampling, whole campaigns
(property-swept over seeds, chips and schedules), and the
per-extension fallback matrix of
:meth:`XGene2Machine.compile_batch_table`.
"""

import dataclasses
import hashlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CharacterizationFramework, FrameworkConfig
from repro.core import kernel as kernel_mod
from repro.core.kernel import RunGeneratorFactory, VoltageTable
from repro.core.parser import ParseMemo, count_log, parse_records
from repro.core.watchdog import WatchdogAction, WatchdogMonitor
from repro.effects import EffectType
from repro.faults.injection import FaultInjector, Injection
from repro.faults.models import FunctionalUnit
from repro.faults.protection import ProtectionConfig
# reprolint: disable=RPR003 -- compile_batch_table is the concrete machine's hook
from repro.hardware import MachineState, XGene2Machine
from repro.hardware.dynamics import (
    AdaptiveClockingUnit,
    AgingModel,
    RollbackUnit,
    SupplyDroopModel,
    TemperatureSensitivity,
)
from repro.telemetry import (
    M_KERNEL_CAMPAIGNS,
    MetricsRegistry,
    Tracer,
    telemetry_session,
)
from repro.units import VOLTAGE_STEP_MV
from repro.workloads import get_benchmark


def _scalar_reference_rng(key: bytes) -> np.random.Generator:
    """The exact generator :meth:`XGene2Machine._run_rng` builds."""
    digest = np.frombuffer(hashlib.sha256(key).digest(), dtype=np.uint64)
    return np.random.default_rng(digest)


def _machine_state(machine, framework):
    """Every observable the machine and its watchdog keep, in full."""
    return {
        "tick": machine.tick,
        "run_counter": machine.run_counter,
        "state": machine.state.value,
        "transactions": list(machine.regulator.transactions),
        "i2c_log": list(machine.slimpro.i2c_log),
        "power_w": machine.slimpro._last_power_w,
        "edac": machine.edac.counters_by_location(),
        "edac_records": machine.edac.poll_new(),
        "heartbeat": machine.console.last_heartbeat_tick(),
        "console": machine.console.all_lines(),
        "clocks": machine.clocks.frequencies(),
        "voltages": {
            name: domain.voltage_mv
            for name, domain in machine.regulator.domains().items()
        },
        "interventions": [
            (item.action, item.tick, item.reason)
            for item in framework.watchdog.interventions
        ],
        "pmpro_events": list(machine.pmpro.events),
    }


def _check_kernel_counts(framework, campaign):
    """A kernel campaign holds the counts of its raw log and no records:
    its records are parsed from that log when first asked for."""
    log = framework.raw_logs[(campaign.benchmark, campaign.core,
                              campaign.freq_mhz, campaign.campaign_index)]
    counted = count_log(log, ParseMemo())
    assert campaign.__dict__["_records"] is None
    assert campaign.chip == counted.chip
    assert campaign.counts_by_voltage() == counted.counts
    assert list(campaign.counts_by_voltage()) == list(counted.counts)
    assert campaign.run_counts_by_voltage() == counted.run_counts
    assert campaign.records == parse_records(log)


def _campaign_observables(
    machine, config, use_kernel, bench="mcf", core=0, watchdog=None
):
    framework = CharacterizationFramework(
        machine, config, watchdog=watchdog, use_kernel=use_kernel
    )
    result = framework.characterize(get_benchmark(bench), core=core)
    for campaign in result.campaigns:
        if campaign.__dict__["_load"] is not None:
            _check_kernel_counts(framework, campaign)
    records = tuple(
        record.csv_row()
        for campaign in result.campaigns
        for record in campaign.records
    )
    state = _machine_state(machine, framework)
    return framework, records, dict(framework.raw_logs), state


def _machine(chip="TTT", seed=55, **kwargs):
    machine = XGene2Machine(chip, seed=seed, **kwargs)
    machine.power_on()
    return machine


_PLAN_VARIANTS = {
    "stock": {},
    "analytic": {"use_cache_models": False},
    # The cache channels' Poisson rates never reach numpy's PTRS
    # regime on the calibrated chips; lowering the cut-off puts every
    # cache-model plan in it.
    "ptrs": {},
    "coverage": {"protection": ProtectionConfig(coverage=0.5)},
    "rollback": {"rollback_unit": RollbackUnit(detection_coverage=0.6)},
}


def _classified_block(variant, chip, first_level, n_levels, runs, seed, sharpen):
    """A random uniform block over consecutive plans, and its classes."""
    with mock.patch.object(
        kernel_mod, "_POISSON_PTRS_LAM", 0.0 if variant == "ptrs" else 10.0
    ):
        table = _machine(chip=chip, **_PLAN_VARIANTS[variant]).compile_batch_table(
            get_benchmark("mcf"), core=0, freq_mhz=2400
        )
        plans = [
            table.plan(i) for i in range(first_level, first_level + n_levels)
        ]
    if variant == "ptrs":
        assert all(plan.quiet_lo is None for plan in plans)
    width = max(plan.n_uniform for plan in plans)
    rng = np.random.default_rng(seed)
    block = rng.random((runs * len(plans), width))
    # Push some rows toward 0, where the fault draws fire.
    block[rng.random(len(block)) < 0.5] **= sharpen
    classes = kernel_mod.CampaignKernel._row_classes(block, plans, runs)
    return plans, table, classes, block


def _sampled_class(table, plan, row):
    """The outcome class of ``sample_u``'s answer for one row."""
    replays = []

    def fresh_rng():
        replays.append(1)
        return np.random.default_rng(0)

    effects, detail = table.sample_u(plan, row, fresh_rng)
    # The stand-in replay stream is not the row's, so a replayed
    # outcome says nothing beyond "replayed".
    if replays or effects & {EffectType.CE, EffectType.UE}:
        return kernel_mod._PER_RUN
    if EffectType.SC in effects:
        return kernel_mod._SC
    if EffectType.AC in effects:
        return kernel_mod._AC
    if EffectType.SDC in effects:
        return kernel_mod._SDC
    assert effects == {EffectType.NO} and set(detail) <= {"rollbacks"}
    return kernel_mod._CLEAN


class TestRunGeneratorFactory:
    """The vectorized ``default_rng(sha256(key))`` replay."""

    def test_seed_states_match_default_rng(self):
        factory = RunGeneratorFactory()
        keys = [
            f"55|TTT|mcf|0|{920 - 5 * (i % 13)}|2400|{i}".encode()
            for i in range(150)
        ]
        states = factory.seed_states(keys)
        for key, state in zip(keys, states):
            expected = _scalar_reference_rng(key).random(7)
            got = factory.activate(state).random(7)
            assert np.array_equal(expected, got)

    def test_uniform_block_matches_generator_random(self):
        factory = RunGeneratorFactory()
        keys = [f"7|TFF|namd|3|905|2400|{i}".encode() for i in range(137)]
        block = factory.uniform_block(factory.seed_limbs(keys), 9)
        assert block.shape == (137, 9)
        for i, key in enumerate(keys):
            assert np.array_equal(_scalar_reference_rng(key).random(9), block[i])

    def test_uniform_block_prefix_property(self):
        # A wider block must agree with a narrower one on the shared
        # prefix -- what lets one over-drawn chunk width serve every
        # plan in the chunk.
        factory = RunGeneratorFactory()
        limbs = factory.seed_limbs([b"a", b"b", b"c"])
        assert np.array_equal(
            factory.uniform_block(limbs, 11)[:, :4],
            factory.uniform_block(limbs, 4),
        )

    @given(st.lists(st.binary(min_size=0, max_size=64), min_size=1,
                    max_size=8, unique=True))
    @settings(max_examples=30, deadline=None)
    def test_arbitrary_keys_bit_identical(self, keys):
        factory = RunGeneratorFactory()
        states = factory.seed_states(keys)
        block = factory.uniform_block(factory.seed_limbs(keys), 5)
        for i, key in enumerate(keys):
            expected = _scalar_reference_rng(key).random(5)
            assert np.array_equal(expected, block[i])
            assert np.array_equal(
                expected, factory.activate(states[i]).random(5)
            )


class TestCampaignBitIdentity:
    """Whole campaigns: batch output == scalar output, byte for byte.

    The kernel returns its raw log and per-voltage counts: every
    comparison checks those counts against ``count_log`` of the log
    (:func:`_check_kernel_counts`), and compares records parsed from
    the kernel's log (``parse_records``) with the scalar path's, beside
    the log bytes and the machine state."""

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        chip=st.sampled_from(["TTT", "TFF", "TSS"]),
        start_mv=st.sampled_from([920, 905, 895]),
        runs_per_level=st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=12, deadline=None)
    def test_records_logs_and_state_identical(
        self, seed, chip, start_mv, runs_per_level
    ):
        config = FrameworkConfig(
            start_mv=start_mv, campaigns=1, runs_per_level=runs_per_level
        )
        results = {}
        for use_kernel in (False, True):
            machine = _machine(chip=chip, seed=seed)
            framework, records, logs, state = _campaign_observables(
                machine, config, use_kernel
            )
            assert framework.last_campaign_path == (
                "batch" if use_kernel else "scalar"
            )
            results[use_kernel] = (records, logs, state)
        assert results[False] == results[True]

    def test_multi_campaign_characterization_identical(self):
        # Two campaigns back to back: the second campaign's RNG keys
        # continue from the first's run counter, which the kernel must
        # track without executing the scalar path.
        config = FrameworkConfig(start_mv=910, campaigns=2, runs_per_level=5)
        reference = _campaign_observables(_machine(), config, False)
        kernel = _campaign_observables(_machine(), config, True)
        assert reference[1:] == kernel[1:]

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        chip=st.sampled_from(["TTT", "TFF", "TSS"]),
        runs_per_level=st.integers(min_value=1, max_value=10),
        variant=st.sampled_from(["stock", "analytic", "coverage", "rollback"]),
    )
    @settings(max_examples=16, deadline=None)
    def test_clean_runs_from_nominal_identical(
        self, seed, chip, runs_per_level, variant
    ):
        # Sweeps from nominal: long all-clean stretches (whole levels
        # applied at once) and mixed levels (clean runs between
        # abnormal ones) on every plan shape -- cache-model channels,
        # the analytic plan, the SDC->CE conversion slot and the
        # rollback slot.
        kwargs = {
            "stock": {},
            "analytic": {"use_cache_models": False},
            "coverage": {"protection": ProtectionConfig(coverage=0.5)},
            "rollback": {"rollback_unit": RollbackUnit(detection_coverage=0.6)},
        }[variant]
        config = FrameworkConfig(campaigns=2, runs_per_level=runs_per_level)
        results = {}
        for use_kernel in (False, True):
            machine = _machine(chip=chip, seed=seed, **kwargs)
            framework, records, logs, state = _campaign_observables(
                machine, config, use_kernel
            )
            assert framework.last_campaign_path == (
                "batch" if use_kernel else "scalar"
            )
            results[use_kernel] = (records, logs, state)
        assert results[False] == results[True]

    def test_clean_path_covers_whole_and_mixed_levels(self):
        # Guards the property test above against a sweep that never
        # exercises the clean path: one campaign from nominal has both
        # all-clean levels and levels mixing clean and abnormal runs.
        config = FrameworkConfig(campaigns=1, runs_per_level=10)
        _, records, _, _ = _campaign_observables(_machine(), config, True)
        by_level = {}
        for row in records:
            by_level.setdefault(row["voltage_mv"], []).append(
                row["effects"] == "NO"
            )
        assert any(all(level) for level in by_level.values())
        assert any(any(level) and not all(level) for level in by_level.values())

    @given(
        variant=st.sampled_from(
            ["stock", "analytic", "ptrs", "coverage", "rollback"]
        ),
        chip=st.sampled_from(["TTT", "TFF", "TSS"]),
        first_level=st.integers(min_value=12, max_value=30),
        n_levels=st.integers(min_value=1, max_value=8),
        runs=st.integers(min_value=1, max_value=10),
        block_seed=st.integers(min_value=0, max_value=2**32 - 1),
        sharpen=st.sampled_from([1, 4, 16]),
    )
    @settings(max_examples=60, deadline=None)
    def test_row_classes_match_sample_u(
        self, variant, chip, first_level, n_levels, runs, block_seed, sharpen
    ):
        # The vectorized classification is exactly what sample_u makes
        # of each row, on every plan shape: SC, an EDAC event or replay
        # (per-run), AC, SDC, or clean (a rollback-covered SDC too).
        plans, table, classes, block = _classified_block(
            variant, chip, first_level, n_levels, runs, block_seed, sharpen
        )
        for i, row in enumerate(block.tolist()):
            assert classes[i] == _sampled_class(
                table, plans[i // runs], row
            ), (variant, i)

    def test_row_classes_cover_every_class(self):
        # Guards the property test above against blocks that never
        # reach some class.
        seen = set()
        for variant in ("stock", "analytic", "ptrs", "coverage", "rollback"):
            _plans, _table, classes, _block = _classified_block(
                variant, "TTT", 14, 8, 10, 3, 4
            )
            seen.update(classes)
        assert seen == {
            kernel_mod._CLEAN,
            kernel_mod._SDC,
            kernel_mod._AC,
            kernel_mod._SC,
            kernel_mod._PER_RUN,
        }

    def test_raw_log_formatting_parity(self):
        # The kernel formats log blocks inline instead of calling
        # format_run_block; a sweep through the crash region exercises
        # all three block shapes (completed, app-crash, system-crash)
        # and the parser must see identical bytes from both paths.
        config = FrameworkConfig(start_mv=900, campaigns=1, runs_per_level=8)
        _, _, scalar_logs, _ = _campaign_observables(_machine(), config, False)
        _, _, batch_logs, _ = _campaign_observables(_machine(), config, True)
        assert scalar_logs == batch_logs
        text = "".join(batch_logs.values())
        assert "status=system_crash" in text
        assert "status=completed" in text


def _traced_observables(machine, config, use_kernel, watchdog=None):
    """:func:`_campaign_observables` under a telemetry session, plus the
    session's spans (timing left out) and metrics (the kernel-path
    counter left out)."""
    spans = []
    registry = MetricsRegistry()
    with telemetry_session(tracer=Tracer(spans.append), metrics=registry):
        framework, records, logs, state = _campaign_observables(
            machine, config, use_kernel, watchdog=watchdog
        )
    assert framework.last_campaign_path == ("batch" if use_kernel else "scalar")
    traced = [
        (span.trace_id, span.name, span.span_id, span.parent_id, span.attributes)
        for span in spans
    ]
    metrics = [
        family for family in registry.snapshot()["metrics"]
        if family["name"] != M_KERNEL_CAMPAIGNS
    ]
    return records, logs, state, traced, metrics


class _PowerCycleWatchdog(WatchdogMonitor):
    """Recovers a hung board by a power cycle, never by a reset."""

    def ensure_alive(self):
        if self.machine.state is MachineState.RUNNING and self.machine_alive():
            return WatchdogAction.NONE
        self.machine.power_off()
        self.machine.power_on()
        self._banner_seen()
        self._log(WatchdogAction.POWER_CYCLE, "power cycle recovered")
        return WatchdogAction.POWER_CYCLE


def _crash_sweep(variant, runs_per_level, start_mv=895):
    """Machine kwargs and config of a crash-heavy sweep variant."""
    kwargs = {
        "stock": {},
        "analytic": {"use_cache_models": False},
        "aged": {"aging_model": AgingModel()},
        "rollback": {"rollback_unit": RollbackUnit(detection_coverage=0.6)},
        "stop_mv": {},
    }[variant]
    config = FrameworkConfig(
        start_mv=start_mv,
        stop_mv=860 if variant == "stop_mv" else None,
        campaigns=2,
        runs_per_level=runs_per_level,
    )
    return kwargs, config


def _sweep_machine(variant, chip, seed, kwargs):
    machine = _machine(chip=chip, seed=seed, **kwargs)
    if variant == "aged":
        machine.age(20000.0)
    return machine


class TestCrashAndQuietStretches:
    """Crash-heavy sweeps: stretches of system crashes (one real run,
    the rest repeated) and of quiet SDC/AC/clean runs leave the same
    records, logs, machine state, watchdog log, spans and metrics as
    the scalar path."""

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        chip=st.sampled_from(["TTT", "TFF", "TSS"]),
        runs_per_level=st.integers(min_value=1, max_value=10),
        start_mv=st.sampled_from([900, 895, 890]),
        variant=st.sampled_from(
            ["stock", "analytic", "aged", "rollback", "stop_mv"]
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_crash_heavy_sweeps_identical(
        self, seed, chip, runs_per_level, start_mv, variant
    ):
        kwargs, config = _crash_sweep(variant, runs_per_level, start_mv)
        results = [
            _traced_observables(
                _sweep_machine(variant, chip, seed, kwargs), config, use_kernel
            )
            for use_kernel in (False, True)
        ]
        assert results[0] == results[1]

    def test_sweeps_cover_crash_and_mixed_levels(self):
        # Guards the property test above: a sweep with all-crash levels,
        # levels mixing SC, AC and SDC runs, crash stretches of several
        # runs, and far fewer real runs than crashes.
        kwargs, config = _crash_sweep("stop_mv", 10)
        machine = _sweep_machine("stop_mv", "TTT", 55, kwargs)
        real_runs = []
        execute = machine.kernel_execute

        def counted(*args):
            real_runs.append(args[2])
            return execute(*args)

        machine.kernel_execute = counted
        records, _logs, state, traced, _metrics = _traced_observables(
            machine, config, True
        )
        by_level = {}
        for row in records:
            by_level.setdefault(row["voltage_mv"], []).append(row["effects"])
        assert any(set(level) == {"SC"} for level in by_level.values())
        assert any(
            {"SC", "AC", "SDC"} <= set(level) for level in by_level.values()
        )
        crashes = sum(level.count("SC") for level in by_level.values())
        real_crashes = sum(EffectType.SC in effects for effects in real_runs)
        assert crashes > 3 * real_crashes > 0
        recoveries = [span for span in traced if span[1] == "watchdog.recovery"]
        assert len(recoveries) == len(state["interventions"]) == crashes

    @pytest.mark.parametrize("runs_per_level", [1, 4])
    def test_power_cycle_recoveries_run_per_run(self, runs_per_level):
        # A recovery that is not a plain reset is not repeated: every
        # crash after it runs for real, and the result still matches.
        kwargs, config = _crash_sweep("stock", runs_per_level)
        results = []
        for use_kernel in (False, True):
            machine = _machine(seed=3, **kwargs)
            results.append(_traced_observables(
                machine, config, use_kernel,
                watchdog=_PowerCycleWatchdog(machine),
            ))
        assert results[0] == results[1]
        assert ("acpi", "S5") in results[1][2]["pmpro_events"]

    @pytest.mark.parametrize("variant", ["stock", "stop_mv"])
    @pytest.mark.parametrize("runs_per_level", [3, 10])
    def test_chunking_invariance(self, monkeypatch, variant, runs_per_level):
        # Where the seeding chunks end never shows: one-level chunks,
        # the predicted chunks and one whole-schedule chunk give the
        # same logs and machine state.
        kwargs, config = _crash_sweep(variant, runs_per_level, start_mv=930)
        predicted = kernel_mod._ScheduleStates._chunk_end
        chunkings = {
            "one-level": lambda states, start: start + 1,
            "predicted": predicted,
            "whole": lambda states, start: len(states._schedule),
        }
        results = {}
        for name, chunk_end in chunkings.items():
            monkeypatch.setattr(
                kernel_mod._ScheduleStates, "_chunk_end", chunk_end
            )
            machine = _sweep_machine(variant, "TSS", 8, kwargs)
            _framework, records, logs, state = _campaign_observables(
                machine, config, True
            )
            results[name] = (records, logs, state)
        assert results["one-level"] == results["predicted"] == results["whole"]

    @pytest.mark.parametrize("seed", [2017, 1, 7])
    def test_seeding_reaches_the_predicted_stop_level(self, monkeypatch, seed):
        # A campaign that stops where the predictor says seeds its run
        # streams in one chunk holding exactly the runs it executes;
        # with stop_mv set the one chunk is the whole schedule.
        seeded = []
        seed_limbs = RunGeneratorFactory.seed_limbs

        def counted(factory, keys):
            seeded.append(len(keys))
            return seed_limbs(factory, keys)

        monkeypatch.setattr(RunGeneratorFactory, "seed_limbs", counted)
        for variant in ("stock", "stop_mv"):
            kwargs, config = _crash_sweep(variant, 10, start_mv=930)
            config = dataclasses.replace(config, campaigns=1)
            del seeded[:]
            machine = _sweep_machine(variant, "TTT", seed, kwargs)
            _framework, records, _logs, _state = _campaign_observables(
                machine, config, True
            )
            assert seeded == [len(records)], (variant, seeded)
            if variant == "stop_mv":
                assert len(records) == 10 * len(range(930, 855, -5))


class TestKernelFallbackMatrix:
    """compile_batch_table per built-in extension component."""

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"droop_model": SupplyDroopModel()},
            {"adaptive_clock": AdaptiveClockingUnit()},
            {"temperature_sensitivity": TemperatureSensitivity()},
            {"aging_model": AgingModel()},
            {"rollback_unit": RollbackUnit()},
            {
                "droop_model": SupplyDroopModel(max_droop_mv=22.0),
                "adaptive_clock": AdaptiveClockingUnit(recovery_mv=10.0),
                "rollback_unit": RollbackUnit(detection_coverage=0.5),
            },
        ],
        ids=["droop", "adaptive-clocking", "temperature", "aging",
             "rollback", "stacked"],
    )
    def test_builtin_extensions_stay_on_batch_path(self, kwargs):
        config = FrameworkConfig(start_mv=910, campaigns=1, runs_per_level=4)
        results = {}
        for use_kernel in (False, True):
            machine = _machine(seed=99, **kwargs)
            framework, records, logs, state = _campaign_observables(
                machine, config, use_kernel
            )
            results[use_kernel] = (records, logs, state)
            if use_kernel:
                assert framework.last_campaign_path == "batch"
        assert results[False] == results[True]

    @pytest.mark.parametrize("change", ["age", "fan-setpoint"])
    def test_lifetime_change_between_campaigns_recompiles(self, change):
        # The aging and temperature models read the machine's stress
        # hours and fan setpoint: changing either between two campaigns
        # of one framework must not reuse the table compiled before.
        config = FrameworkConfig(start_mv=930, campaigns=1, runs_per_level=3)
        program = get_benchmark("mcf")
        results = {}
        for use_kernel in (False, True):
            machine = _machine(
                seed=5,
                aging_model=AgingModel(),
                temperature_sensitivity=TemperatureSensitivity(),
            )
            framework = CharacterizationFramework(
                machine, config, use_kernel=use_kernel
            )
            first = framework.run_campaign(program, 0, campaign_index=1)
            if change == "age":
                machine.age(50000.0)
            else:
                machine.slimpro.set_fan_setpoint_c(70.0)
            second = framework.run_campaign(program, 0, campaign_index=2)
            assert framework.last_campaign_path == (
                "batch" if use_kernel else "scalar"
            )
            results[use_kernel] = (
                [record.csv_row() for record in first.records + second.records],
                _machine_state(machine, framework),
            )
        assert results[False] == results[True]

    def test_scripted_injector_falls_back_to_scalar(self):
        machine = _machine(
            seed=7,
            injector=FaultInjector(
                [Injection(unit=FunctionalUnit.L2_SRAM, bit_positions=(3,))]
            ),
        )
        config = FrameworkConfig(start_mv=905, campaigns=1, runs_per_level=3)
        framework, records, logs, _ = _campaign_observables(
            machine, config, True
        )
        assert framework.last_campaign_path == "scalar"
        # The fallback is transparent: identical output to use_kernel=False.
        reference = _machine(
            seed=7,
            injector=FaultInjector(
                [Injection(unit=FunctionalUnit.L2_SRAM, bit_positions=(3,))]
            ),
        )
        _, ref_records, ref_logs, _ = _campaign_observables(
            reference, config, False
        )
        assert (records, logs) == (ref_records, ref_logs)

    def test_stateful_subclass_falls_back_to_scalar(self):
        # A subclass of a built-in dynamics model could legally mutate
        # across runs, which the compiled table cannot represent.
        class TrackedDroop(SupplyDroopModel):
            pass

        machine = _machine(seed=7, droop_model=TrackedDroop())
        framework = CharacterizationFramework(
            machine,
            FrameworkConfig(start_mv=905, campaigns=1, runs_per_level=2),
            use_kernel=True,
        )
        framework.run_campaign(get_benchmark("mcf"), core=0)
        assert framework.last_campaign_path == "scalar"

    def test_undervolted_soc_falls_back_to_scalar(self):
        machine = _machine(seed=7)
        machine.slimpro.set_soc_voltage_mv(
            machine.chip.calibration.soc_vmin_mv - VOLTAGE_STEP_MV
        )
        framework = CharacterizationFramework(
            machine,
            FrameworkConfig(start_mv=905, campaigns=1, runs_per_level=2),
            use_kernel=True,
        )
        framework.run_campaign(get_benchmark("mcf"), core=0)
        assert framework.last_campaign_path == "scalar"

    def test_compile_returns_table_for_plain_machine(self):
        machine = _machine()
        table = machine.compile_batch_table(
            get_benchmark("mcf"), core=0, freq_mhz=2400
        )
        assert isinstance(table, VoltageTable)
        assert table.voltages == tuple(
            sorted(table.voltages, reverse=True)
        )
        assert table.index_of(table.voltages[3]) == 3
