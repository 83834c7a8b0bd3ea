"""The X-Gene 2 micro-server: top-level machine composition.

:class:`XGene2Chip` is the silicon (identity, calibration anchors,
corner personality); :class:`XGene2Machine` is the board: chip plus
regulator, clocks, management processors, EDAC, serial console, fan --
everything the characterization framework drives.

The machine has real failure semantics: running a program at a scaled
voltage samples the fault model, and a system crash leaves the machine
**hung** -- the serial heartbeat stops, further run requests raise, and
only the (simulated) physical reset/power buttons bring it back, with
EDAC logs and console state wiped.  The characterization framework must
therefore recover the machine exactly the way the paper's Raspberry-Pi
watchdog does.
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Mapping, Optional, Tuple

import numpy as np

from ..data.calibration import ChipCalibration, chip_calibration
from ..effects import EffectType, normalize_effects
from ..errors import ConfigurationError, MachineStateError
from ..faults.manifestation import EffectSampler
from ..faults.protection import ProtectionConfig
from ..faults.models import FailureCurve, build_unit_models
from ..units import (
    CHARACTERIZATION_TEMP_C,
    FREQ_MAX_MHZ,
    PMD_NOMINAL_MV,
)
from ..workloads.benchmark import Program, as_program
from ..workloads.execution import (
    corrupted_output,
    reference_output,
    runtime_seconds,
)
from .caches import CacheStack
from .clocking import ClockController
from .corners import ProcessCorner, corner_for_chip
from .domains import NUM_CORES, VoltageRegulator, pmd_of_core
from .edac import EdacDriver
from .pmpro import AcpiState, PmPro
from .pmu import PerformanceMonitoringUnit
from .power import PowerModel
from .sensors import FanController, TemperatureSensor
from .serial_console import BOOT_BANNER, LOGIN_PROMPT, SerialConsole
from .slimpro import SlimPro
from .timing import AlphaPowerTimingModel


class MachineState(enum.Enum):
    """Board-level machine state."""

    OFF = "off"
    RUNNING = "running"
    #: System crash: unresponsive until power-cycled.
    HUNG = "hung"


@dataclass(frozen=True)
class RunOutcome:
    """Everything observable about one program execution."""

    program: str
    core: int
    voltage_mv: int
    freq_mhz: int
    #: Table-3 effect classification of this run.
    effects: FrozenSet[EffectType]
    #: Process exit code; None when the run never finished (SC).
    exit_code: Optional[int]
    #: Output digest; None when no output was produced.
    output: Optional[str]
    #: Golden digest for comparison.
    expected_output: str
    #: EDAC deltas attributable to this run.
    edac_ce: int
    edac_ue: int
    #: Wall-clock runtime (seconds) the run consumed (full runtime even
    #: for crashed runs: the hang is discovered at the timeout).
    runtime_s: float
    #: Raw per-source event counts from the fault model.
    detail: Mapping[str, int] = field(default_factory=dict)

    @property
    def completed(self) -> bool:
        return self.exit_code == 0

    @property
    def output_matches(self) -> bool:
        return self.output is not None and self.output == self.expected_output


@dataclass(frozen=True)
class XGene2Chip:
    """One physical part: identity + anchors + electrical personality."""

    name: str
    calibration: ChipCalibration
    corner: ProcessCorner
    serial: str = ""

    @classmethod
    def part(cls, chip: str) -> "XGene2Chip":
        """One of the three characterized parts (TTT/TFF/TSS)."""
        return cls(
            name=chip,
            calibration=chip_calibration(chip),
            corner=corner_for_chip(chip),
            serial=f"XG2-{chip}-0001",
        )

    def timing_model(self) -> AlphaPowerTimingModel:
        return AlphaPowerTimingModel.for_corner(self.corner)


class XGene2Machine:
    """The complete micro-server board.

    Parameters
    ----------
    chip:
        The silicon, by name ("TTT") or as an :class:`XGene2Chip`.
    seed:
        Master seed; every run's randomness is derived from it plus the
        run's coordinates, so campaigns replay bit-identically.
    protection:
        Error-protection configuration (Section-6 ablations).
    per_pmd_domains:
        Build the finer-grained-voltage-domain variant of Section 6.
    failure_profile:
        Override the failure mode ("timing" / "sram") for the
        cross-architecture comparison of Section 3.4.
    """

    #: Logical ticks the watchdog treats as the liveness timeout.
    HEARTBEAT_TIMEOUT_TICKS = 10
    #: Exit code of an application crash (SIGSEGV-style termination).
    APP_CRASH_EXIT_CODE = 139

    def __init__(
        self,
        chip: object = "TTT",
        seed: int = 2017,
        protection: ProtectionConfig = ProtectionConfig(),
        per_pmd_domains: bool = False,
        failure_profile: Optional[str] = None,
        use_cache_models: bool = True,
        droop_model: Optional[object] = None,
        adaptive_clock: Optional[object] = None,
        temperature_sensitivity: Optional[object] = None,
        aging_model: Optional[object] = None,
        rollback_unit: Optional[object] = None,
        injector: Optional[object] = None,
    ) -> None:
        self.chip = chip if isinstance(chip, XGene2Chip) else XGene2Chip.part(str(chip))
        self.seed = int(seed)
        self.protection = protection
        self.failure_profile = failure_profile
        self.use_cache_models = bool(use_cache_models)
        # Dynamic-margin extension models (see repro.hardware.dynamics).
        # All default to off: the calibration anchors describe the
        # machine as characterized (43 C, fresh silicon, droop folded
        # into the measured Vmin).
        self.droop_model = droop_model
        self.adaptive_clock = adaptive_clock
        self.temperature_sensitivity = temperature_sensitivity
        self.aging_model = aging_model
        #: Optional DeCoR-style delayed-commit/rollback checker.
        self.rollback_unit = rollback_unit
        #: Optional scripted fault injector (tests / what-if studies).
        self.injector = injector
        self._stress_hours = 0.0

        self.regulator = VoltageRegulator(per_pmd_domains=per_pmd_domains)
        self.clocks = ClockController()
        self.edac = EdacDriver()
        self.console = SerialConsole()
        self.fan = FanController(TemperatureSensor(), CHARACTERIZATION_TEMP_C)
        self.slimpro = SlimPro(self.regulator, self.fan, self.edac)
        self.pmpro = PmPro(self.clocks)
        self.power_model = PowerModel(corner=self.chip.corner)
        self.timing = self.chip.timing_model()
        self.pmus = [PerformanceMonitoringUnit(core) for core in range(NUM_CORES)]

        self._state = MachineState.OFF
        self._tick = 0
        self._run_counter = 0

    # -- state & physical controls ---------------------------------------

    @property
    def state(self) -> MachineState:
        return self._state

    @property
    def tick(self) -> int:
        """Logical time; advances on every machine operation."""
        return self._tick

    def _advance(self, ticks: int = 1) -> None:
        self._tick += ticks
        if self._state is MachineState.RUNNING:
            self.console.heartbeat(self._tick)

    def power_on(self) -> None:
        """Press the power button (machine must be off)."""
        if self._state is not MachineState.OFF:
            raise MachineStateError(f"power_on in state {self._state.value}")
        self.pmpro.power_up()
        self._boot()

    def power_off(self) -> None:
        """Hold the power button: hard power removal from any state."""
        self.pmpro.power_down()
        self._state = MachineState.OFF
        self.console.go_silent()
        self._advance_off()

    def press_reset(self) -> None:
        """Press the reset button: reboot from RUNNING or HUNG."""
        if self._state is MachineState.OFF:
            raise MachineStateError("reset pressed while powered off")
        if self.pmpro.acpi_state is not AcpiState.S0:
            self.pmpro.power_up()
        self._boot()

    def _boot(self) -> None:
        """Common boot path: firmware defaults, clean kernel state."""
        self.regulator.restore_nominal()
        self.clocks.restore_all(FREQ_MAX_MHZ)
        self.edac.clear()
        self.console.clear()
        for pmu in self.pmus:
            pmu.reset()
        self._state = MachineState.RUNNING
        self._tick += 1
        self.console.write_line(BOOT_BANNER)
        self.console.write_line(LOGIN_PROMPT)
        self.console.heartbeat(self._tick)

    def _advance_off(self) -> None:
        self._tick += 1

    def is_responsive(self) -> bool:
        """What a remote SSH/ping probe would report."""
        return self._state is MachineState.RUNNING

    # -- RNG derivation ------------------------------------------------------

    @property
    def run_counter(self) -> int:
        """Runs executed so far (the per-run RNG derivation counter)."""
        return self._run_counter

    def _run_rng(self, program_name: str, core: int, voltage_mv: int,
                 freq_mhz: int) -> np.random.Generator:
        """Deterministic per-run RNG from stable coordinates."""
        key = (
            f"{self.seed}|{self.chip.name}|{program_name}|{core}|"
            f"{voltage_mv}|{freq_mhz}|{self._run_counter}"
        )
        digest = np.frombuffer(hashlib.sha256(key.encode()).digest(), dtype=np.uint64)
        return np.random.default_rng(digest)

    # -- the fault path ----------------------------------------------------------

    # -- dynamic-margin bookkeeping ------------------------------------------

    @property
    def stress_hours(self) -> float:
        """Accumulated full-activity operating hours (aging input)."""
        return self._stress_hours

    def age(self, hours: float, activity: float = 1.0) -> None:
        """Advance the part's lifetime by ``hours`` at an activity level."""
        if hours < 0 or not 0.0 <= activity <= 1.0:
            raise ConfigurationError("hours must be >= 0, activity in [0, 1]")
        self._stress_hours += hours * activity

    def to_spec(self):
        """Declarative capture of this machine's rebuildable
        configuration (see :mod:`repro.machines`)."""
        from ..machines.spec import MachineSpec

        return MachineSpec.from_machine(self)

    def anchor_shift_mv(self, workload: object, freq_mhz: int) -> float:
        """Total upward anchor shift from the active dynamics models."""
        shift = 0.0
        if self.temperature_sensitivity is not None:
            shift += self.temperature_sensitivity.shift_mv(self.fan.setpoint_c)
        if self.aging_model is not None:
            shift += self.aging_model.shift_mv(self._stress_hours)
        if self.droop_model is not None:
            shift += self.droop_model.droop_mv(workload.traits, freq_mhz)
        return shift

    def _sampler_for(self, workload: object, core: int, voltage_mv: int,
                     freq_mhz: int) -> EffectSampler:
        stress = workload.stress
        smoothness = workload.smoothness
        unit_stress = workload.unit_stress
        relief = (
            self.adaptive_clock.recovery_mv
            if self.adaptive_clock is not None else 0.0
        )
        models = build_unit_models(
            self.chip.calibration,
            core=core,
            stress=stress,
            smoothness=smoothness,
            freq_mhz=freq_mhz,
            unit_stress=unit_stress,
            profile=self.failure_profile,
            anchor_shift_mv=self.anchor_shift_mv(workload, freq_mhz),
            timing_relief_mv=relief,
        )
        cache_stack = (
            CacheStack.for_core(models, protection_ecc=self.protection.ecc)
            if self.use_cache_models
            else None
        )
        return EffectSampler(models, protection=self.protection,
                             cache_stack=cache_stack, injector=self.injector)

    # -- batch-kernel hooks ---------------------------------------------------

    def compile_batch_table(self, workload: object, core: int, freq_mhz: int):
        """Compile this machine's fault surface for the batch kernel.

        Returns a :class:`repro.core.kernel.VoltageTable`, or ``None``
        when some component requires the scalar path: a scripted
        :class:`FaultInjector` (stateful FIFO consumed per run), an
        undervolted SoC domain (adds per-run uncore draws), or an
        extension model that is not exactly one of the pure built-in
        dynamics dataclasses (a stateful subclass could legally mutate
        across runs, which the table cannot represent).
        """
        if self.injector is not None:
            return None
        if self.regulator.soc.voltage_mv < self.chip.calibration.soc_vmin_mv:
            return None
        from .dynamics import (
            AdaptiveClockingUnit,
            AgingModel,
            RollbackUnit,
            SupplyDroopModel,
            TemperatureSensitivity,
        )

        table_safe = (
            (self.droop_model, SupplyDroopModel),
            (self.adaptive_clock, AdaptiveClockingUnit),
            (self.temperature_sensitivity, TemperatureSensitivity),
            (self.aging_model, AgingModel),
            (self.rollback_unit, RollbackUnit),
        )
        for component, built_in in table_safe:
            if component is not None and type(component) is not built_in:
                return None
        if not 0 <= core < NUM_CORES:
            raise ConfigurationError(f"core index must be 0..{NUM_CORES - 1}")
        from ..core.kernel import compile_voltage_table

        program = as_program(workload)
        sampler = self._sampler_for(program, core, PMD_NOMINAL_MV, freq_mhz)
        return compile_voltage_table(
            sampler,
            program,
            core=core,
            freq_mhz=freq_mhz,
            chip_name=self.chip.name,
            expected_output=reference_output(program),
            rollback_coverage=(
                self.rollback_unit.detection_coverage
                if self.rollback_unit is not None
                else None
            ),
        )

    def batch_surface_token(self) -> str:
        """Value snapshot of everything a compiled table depends on.

        The framework caches compiled kernels across campaigns keyed by
        this token: any change that could alter the fault surface (an
        injector attaching, a SoC undervolt, an extension model being
        replaced, reconfigured or mutated in place) produces a
        different token and forces a fresh ``compile_batch_table``
        pass.  Value ``repr`` (the dynamics models are plain
        dataclasses) is what makes in-place mutation visible.  The
        stress hours and fan setpoint are in it because the aging and
        temperature models shift the anchors by them.
        """
        return repr((
            self.injector is not None,
            self.regulator.soc.voltage_mv,
            self.droop_model,
            self.adaptive_clock,
            self.temperature_sensitivity,
            self.aging_model,
            self.rollback_unit,
            self.failure_profile,
            self.protection,
            self.use_cache_models,
            self._stress_hours,
            self.fan.setpoint_c,
        ))

    def kernel_execute(self, table: object, vidx: int,
                       effects: object, detail: dict):
        """Apply one sampled batch-kernel outcome to the machine.

        The kernel samples ``(effects, detail)`` from the compiled
        table (sampling is machine-independent); this method mirrors
        every observable state transition of :meth:`run_program` (run
        counter, power estimate, hang/tick bookkeeping, EDAC reports).
        Returns the log-visible tuple ``(effects, exit_code, output,
        edac_ce, edac_ue, locations)``.
        """
        if self._state is MachineState.HUNG:
            raise MachineStateError("machine is hung; reset it first")
        if self._state is MachineState.OFF:
            raise MachineStateError("machine is powered off")
        self._run_counter += 1
        self.slimpro.update_power_estimate(table.power_w(vidx, self))
        if EffectType.SC in effects:
            self._state = MachineState.HUNG
            self.console.go_silent()
            self._tick += self.HEARTBEAT_TIMEOUT_TICKS + 1
            return effects, None, None, 0, 0, {}
        if detail:
            self._report_edac(detail, table.core)
            ce = int(detail.get("corrected_errors", 0))
            ue = int(detail.get("uncorrected_errors", 0))
            locations = {
                key: value
                for key, value in detail.items()
                if key.startswith(("ce_", "ue_"))
            }
        else:
            ce = 0
            ue = 0
            locations = {}
        if EffectType.AC in effects:
            exit_code: Optional[int] = self.APP_CRASH_EXIT_CODE
            output: Optional[str] = None
        else:
            exit_code = 0
            if EffectType.SDC in effects:
                output = corrupted_output(table.program, self._run_counter)
            else:
                output = table.expected_output
        self._advance()
        return effects, exit_code, output, ce, ue, locations

    def kernel_clean_runs(self, table: object, vidx: int, runs: int) -> None:
        """Apply ``runs`` quiet batch-kernel runs at one table row.

        The O(1) equivalent of ``runs`` :meth:`kernel_execute` calls
        whose outcome reports no EDAC event and does not hang the
        machine -- a clean, SDC-only or AC-only run: the run counter,
        power estimate, tick and heartbeat end where those calls would
        leave them.
        """
        if self._state is MachineState.HUNG:
            raise MachineStateError("machine is hung; reset it first")
        if self._state is MachineState.OFF:
            raise MachineStateError("machine is powered off")
        self._run_counter += runs
        self.slimpro.update_power_estimate(table.power_w(vidx, self))
        self._tick += runs
        self.console.heartbeat(self._tick)

    def kernel_mark(self) -> Tuple[int, int, int, int]:
        """Where the machine's logs, tick and run counter stand; the
        start of a round for :meth:`kernel_repeat`."""
        return (
            len(self.regulator.transactions),
            len(self.slimpro.i2c_log),
            self._tick,
            self._run_counter,
        )

    def kernel_repeat(self, mark: Tuple[int, int, int, int], times: int) -> int:
        """Repeat the round since ``mark`` ``times`` more times.

        Valid for a round that leaves the machine in a state from which
        the same round does the same again: a system-crash run
        recovered by a plain reset, whose boot restores nominal
        voltages, full clocks, an empty EDAC log and a fresh console,
        so every later crash run at that level programs, hangs and
        reboots exactly like the first.  The regulator's and SLIMpro's
        logs are extended by the round's slices; the tick and run
        counter advance by the round's deltas and the heartbeat keeps
        its lag behind the tick.  Returns the round's tick delta.
        """
        transactions_at, i2c_at, tick_at, counter_at = mark
        transactions = self.regulator.transactions
        transactions.extend(transactions[transactions_at:] * times)
        i2c_log = self.slimpro.i2c_log
        i2c_log.extend(i2c_log[i2c_at:] * times)
        step = self._tick - tick_at
        heartbeat = self.console.last_heartbeat_tick()
        self._tick += step * times
        self._run_counter += (self._run_counter - counter_at) * times
        if heartbeat is not None:
            self.console.heartbeat(heartbeat + step * times)
        return step

    # -- the PCP/SoC domain's own margin (extension study) ---------------------------

    #: Width of the SoC unsafe band (L3/fabric corrected errors) above
    #: its crash point, mV.
    SOC_UNSAFE_WIDTH_MV = 15

    def _soc_effects(self, rng: np.random.Generator):
        """Sample the uncore's misbehaviour at the current SoC voltage.

        The PCP/SoC domain (L3, DRAM controllers, fabric) can be scaled
        independently (Section 2.1); below its own Vmin the SECDED-
        protected L3 starts correcting, and below that the fabric
        hangs the whole system.  Returns ``(system_crash, ce_events)``.
        """
        soc_voltage = self.regulator.soc.voltage_mv
        soc_vmin = self.chip.calibration.soc_vmin_mv
        if soc_voltage >= soc_vmin:
            return False, 0
        crash_anchor = soc_vmin - self.SOC_UNSAFE_WIDTH_MV
        sc_curve = FailureCurve.anchored(crash_anchor + 5, scale_mv=1.0)
        ce_curve = FailureCurve.anchored(soc_vmin, scale_mv=2.0)
        if rng.random() < sc_curve.probability(soc_voltage):
            return True, 0
        ce_events = int(rng.poisson(3.0 * ce_curve.probability(soc_voltage)))
        return False, ce_events

    # -- program execution ----------------------------------------------------------

    def run_program(
        self,
        program: object,
        core: int,
        timeout_s: Optional[float] = None,
    ) -> RunOutcome:
        """Execute one program pinned to one core at the current V/F.

        ``program`` is a :class:`~repro.workloads.benchmark.Program` or
        a bare :class:`~repro.workloads.benchmark.Benchmark` (treated as
        its "ref" program).
        """
        if self._state is MachineState.HUNG:
            raise MachineStateError("machine is hung; reset it first")
        if self._state is MachineState.OFF:
            raise MachineStateError("machine is powered off")
        if not 0 <= core < NUM_CORES:
            raise ConfigurationError(f"core index must be 0..{NUM_CORES - 1}")
        program = as_program(program)

        voltage_mv = self.regulator.core_voltage_mv(core)
        freq_mhz = self.clocks.core_frequency_mhz(core)
        self._run_counter += 1
        rng = self._run_rng(program.name, core, voltage_mv, freq_mhz)

        sampler = self._sampler_for(program, core, voltage_mv, freq_mhz)
        sampled = sampler.sample(voltage_mv, rng)
        soc_crash, soc_ce = self._soc_effects(rng)
        if soc_crash:
            sampled = type(sampled)(
                effects=frozenset({EffectType.SC}),
                detail={"system_crash": 1, "soc_domain": 1},
            )
        elif soc_ce:
            detail = dict(sampled.detail)
            detail["ce_L3"] = detail.get("ce_L3", 0) + soc_ce
            detail["corrected_errors"] = (
                detail.get("corrected_errors", 0) + soc_ce
            )
            effects = (set(sampled.effects) | {EffectType.CE}) - {EffectType.NO}
            sampled = type(sampled)(effects=frozenset(effects), detail=detail)

        rolled_back = False
        if (self.rollback_unit is not None
                and EffectType.SDC in sampled.effects
                and rng.random() < self.rollback_unit.detection_coverage):
            # DeCoR catches the timing error before commit: the run
            # replays and produces the correct output, slower.
            detail = dict(sampled.detail)
            detail.pop("output_mismatch", None)
            detail["rollbacks"] = detail.get("rollbacks", 0) + 1
            sampled = type(sampled)(
                effects=normalize_effects(
                    set(sampled.effects) - {EffectType.SDC}),
                detail=detail,
            )
            rolled_back = True

        runtime = runtime_seconds(program, freq_mhz)
        if rolled_back:
            runtime *= 1.0 + self.rollback_unit.rollback_penalty
        if self.adaptive_clock is not None:
            # Clock stretching costs throughput in proportion to how
            # often it deploys below the unaided SDC onset.
            unaided_onset = (
                self.chip.calibration.vmin_mv(core, program.stress, freq_mhz)
                + self.anchor_shift_mv(program, freq_mhz)
            )
            runtime *= self.adaptive_clock.runtime_factor(
                voltage_mv, unaided_onset)
        if timeout_s is not None:
            runtime = min(runtime, timeout_s)
        expected = reference_output(program)

        # Thermal bookkeeping: the fan loop holds the setpoint.
        power_w = self.power_model.chip_power_w(
            voltage_mv, self.clocks.frequencies(), temp_c=CHARACTERIZATION_TEMP_C
        )
        self.slimpro.update_power_estimate(power_w)

        if EffectType.SC in sampled.effects:
            self._state = MachineState.HUNG
            self.console.go_silent()
            # Time passes until the run's timeout expires with no
            # heartbeat -- which is exactly how the watchdog notices.
            self._tick += self.HEARTBEAT_TIMEOUT_TICKS + 1
            return RunOutcome(
                program=program.name, core=core, voltage_mv=voltage_mv,
                freq_mhz=freq_mhz, effects=sampled.effects,
                exit_code=None, output=None, expected_output=expected,
                edac_ce=0, edac_ue=0, runtime_s=runtime,
                detail=dict(sampled.detail),
            )

        self._report_edac(sampled.detail, core)
        ce = int(sampled.detail.get("corrected_errors", 0))
        ue = int(sampled.detail.get("uncorrected_errors", 0))

        if EffectType.AC in sampled.effects:
            exit_code = self.APP_CRASH_EXIT_CODE
            output = None
        else:
            exit_code = 0
            if EffectType.SDC in sampled.effects:
                output = corrupted_output(program, self._run_counter)
            else:
                output = expected
        self._advance()
        return RunOutcome(
            program=program.name, core=core, voltage_mv=voltage_mv,
            freq_mhz=freq_mhz, effects=sampled.effects,
            exit_code=exit_code, output=output, expected_output=expected,
            edac_ce=ce, edac_ue=ue, runtime_s=runtime,
            detail=dict(sampled.detail),
        )

    def profile_program(self, program: object, core: int = 0) -> Dict[str, float]:
        """Profile a program at nominal conditions: the full 101-event
        PMU snapshot (Section 4.1's ``perf`` collection step)."""
        if self._state is not MachineState.RUNNING:
            raise MachineStateError("machine must be running to profile")
        program = as_program(program)
        if self.regulator.core_voltage_mv(core) != PMD_NOMINAL_MV:
            raise MachineStateError(
                "profiling must happen at nominal voltage (Section 4.1)"
            )
        self._run_counter += 1
        rng = self._run_rng(f"profile:{program.name}", core, PMD_NOMINAL_MV,
                            self.clocks.core_frequency_mhz(core))
        pmu = self.pmus[core]
        pmu.start()
        pmu.record_run(program.trait_dict(), rng)
        self._advance()
        return pmu.stop()

    def _report_edac(self, detail: Mapping[str, int], core: int) -> None:
        """Turn the fault model's location detail into EDAC records."""
        for key, count in detail.items():
            if key.startswith("ce_"):
                self._edac_report_level("ce", key[3:], core, count)
            elif key.startswith("ue_"):
                self._edac_report_level("ue", key[3:], core, count)
        # Analytic path (no cache models): attribute to L2 by default.
        if "corrected_errors" in detail and not any(
            key.startswith("ce_") for key in detail
        ):
            self.edac.report("ce", "L2", core, detail["corrected_errors"])
        if "uncorrected_errors" in detail and not any(
            key.startswith("ue_") for key in detail
        ):
            self.edac.report("ue", "L2", core, detail["uncorrected_errors"])

    def _edac_report_level(self, kind: str, location: str, core: int,
                           count: int) -> None:
        shared = location in ("L3",)
        self.edac.report(kind, location, -1 if shared else core, count)
