"""The vectorized batch kernel: bit-identity, RNG replay, fallback.

The kernel's contract (``repro.core.kernel``) is that a campaign run
through the compiled :class:`VoltageTable` produces **bit-identical**
observables to the scalar path: the same :class:`RunRecord` stream, the
same raw log bytes, the same machine state trajectory.  These tests pin
that contract at every layer -- the vectorized ``default_rng`` replay,
the per-run sampling, whole campaigns (property-swept over seeds,
chips and schedules), and the per-extension fallback matrix of
:meth:`XGene2Machine.compile_batch_table`.
"""

import hashlib
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CharacterizationFramework, FrameworkConfig
from repro.core.kernel import RunGeneratorFactory, VoltageTable
from repro.effects import EffectType
from repro.faults.injection import FaultInjector, Injection
from repro.faults.models import FunctionalUnit
from repro.faults.protection import ProtectionConfig
# reprolint: disable=RPR003 -- compile_batch_table is the concrete machine's hook
from repro.hardware import XGene2Machine
from repro.hardware.dynamics import (
    AdaptiveClockingUnit,
    AgingModel,
    RollbackUnit,
    SupplyDroopModel,
    TemperatureSensitivity,
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
    }


def _campaign_observables(machine, config, use_kernel, bench="mcf", core=0):
    framework = CharacterizationFramework(machine, config, use_kernel=use_kernel)
    result = framework.characterize(get_benchmark(bench), core=core)
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
    """Whole campaigns: batch output == scalar output, byte for byte."""

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

    def test_clean_rows_match_sample_u(self):
        # The vectorized clean test is exactly "sample_u returns
        # ({NO}, {}) without a replay", on every plan shape and row of
        # a sweep (a replayed run always takes the per-run path).
        from repro.core.kernel import CampaignKernel

        rng = np.random.default_rng(3)
        for kwargs in (
            {},
            {"use_cache_models": False},
            {"protection": ProtectionConfig(coverage=0.5)},
            {"rollback_unit": RollbackUnit()},
        ):
            table = _machine(**kwargs).compile_batch_table(
                get_benchmark("mcf"), core=0, freq_mhz=2400
            )
            plans = [table.plan(i) for i in range(40)]
            width = max(plan.n_uniform for plan in plans)
            runs = 50
            block = rng.random((runs * len(plans), width))
            # Push some draws toward 0, where the fault draws fire.
            block[::7] **= 8
            clean = CampaignKernel._clean_rows(block, plans, runs)
            replays = []

            def fresh_rng():
                replays.append(1)
                return np.random.default_rng(0)

            seen = set()
            for i, row in enumerate(block.tolist()):
                del replays[:]
                outcome = table.sample_u(plans[i // runs], row, fresh_rng)
                expected = not replays and outcome == (
                    frozenset({EffectType.NO}), {}
                )
                assert clean[i] == expected, (kwargs, i)
                seen.add(expected)
            assert seen == {True, False}

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


class TestLogFingerprint:
    """Satellite regression: fingerprints must be process-stable."""

    def test_fingerprint_is_crc32_not_builtin_hash(self):
        text = "=== RUN chip=TTT benchmark=mcf core=0 ===\nstatus=completed\n"
        fingerprint = CharacterizationFramework._log_fingerprint(text)
        assert fingerprint == (len(text), zlib.crc32(text.encode("utf-8")))

    def test_fingerprint_known_value(self):
        # Pinned constant: a salted builtin hash() would differ between
        # processes (PYTHONHASHSEED), this value must never change.
        assert CharacterizationFramework._log_fingerprint("vmin") == (
            4,
            zlib.crc32(b"vmin"),
        )
        assert CharacterizationFramework._log_fingerprint("vmin")[1] == 824894622

    def test_fingerprint_distinguishes_texts(self):
        base = CharacterizationFramework._log_fingerprint("edac_ce=1")
        assert base != CharacterizationFramework._log_fingerprint("edac_ce=2")
