"""The automated characterization framework (Figure 2).

Three phases, as in the paper:

1. **Initialization**: the user declares benchmarks and the
   characterization setups (voltage schedule, frequency, cores).
2. **Execution**: for every setup, the framework programs the machine
   through SLIMpro, pins the benchmark to the core under test with
   every other PMD parked at 300 MHz (the "reliable cores setup"),
   runs it, *restores nominal voltage to store the log files safely*,
   and lets the watchdog recover the board whenever a run hangs it.
3. **Parsing**: raw logs are parsed into classified runs, severity
   tables and region decompositions, exported as CSV.

The framework is deliberately restricted to the surfaces a real
harness has: SLIMpro calls, program launches, the serial console and
the watchdog's buttons.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from .. import telemetry
from ..effects import EffectType
from ..errors import CampaignError
from ..units import PMD_NOMINAL_MV, voltage_sweep
from ..workloads.benchmark import Program, as_program
from ..hardware import MachineState
from ..machines import Machine, machine_to_spec
from .campaign import CampaignResult, CharacterizationResult
from .config import FrameworkConfig  # re-exported: the old import path stays valid
from .effects import book_effects, effect_counts
from .kernel import CampaignKernel, VoltageTable
from .parser import ParseMemo, count_log, format_run_block, parse_records
from .watchdog import WatchdogAction, WatchdogMonitor


class CharacterizationFramework:
    """Drives one machine through undervolting campaigns."""

    def __init__(
        self,
        machine: Machine,
        config: FrameworkConfig = FrameworkConfig(),
        watchdog: Optional[WatchdogMonitor] = None,
        use_kernel: bool = True,
    ) -> None:
        self.machine = machine
        self.config = config
        self.watchdog = watchdog or WatchdogMonitor(machine)
        #: Prefer the vectorized batch kernel (:mod:`repro.core.kernel`)
        #: when the machine's components are table-compilable; the
        #: scalar path remains the fallback (and the reference
        #: semantics) either way.
        self.use_kernel = bool(use_kernel)
        #: Which path the most recent :meth:`run_campaign` took:
        #: ``"batch"``, ``"scalar"``, or None before any campaign.
        self.last_campaign_path: Optional[str] = None
        #: Raw log text of every campaign, keyed by
        #: (benchmark, core, freq, campaign_index).
        self.raw_logs: Dict[Tuple[str, int, int, int], str] = {}
        #: Execution metadata of the last engine-backed
        #: :meth:`characterize_many` (None until one has run).
        self.last_engine_report = None
        #: Batch kernels compiled this characterization, keyed by
        #: (benchmark, core, freq) -> (surface token, kernel); see
        #: :meth:`_compile_kernel`.
        self._kernel_cache: Dict[
            Tuple[str, int, int], Tuple[str, CampaignKernel]
        ] = {}

    # -- phase 2: execution -----------------------------------------------

    def _prepare_machine(self, core: int, freq_mhz: int, voltage_mv: int) -> None:
        """Reliable-cores setup + V/F programming for one run."""
        self._prepare_clocks(core, freq_mhz)
        self.machine.slimpro.set_pmd_voltage_mv(voltage_mv)

    def _prepare_clocks(self, core: int, freq_mhz: int) -> None:
        if self.machine.state is not MachineState.RUNNING:
            self.watchdog.ensure_alive()
        self.machine.clocks.set_pmd_frequency_mhz(core // 2, freq_mhz)
        self.machine.clocks.park_all_except([core])

    def _clean_cycles(
        self, core: int, freq_mhz: int, voltage_mv: int, cycles: int
    ) -> None:
        """The prepare/restore rounds of ``cycles`` quiet runs in a row.

        Equal to ``cycles`` x (:meth:`_prepare_machine`,
        :meth:`_restore_safe_state`) around runs that leave the machine
        running (clean, SDC-only or AC-only runs): once the clocks are
        set, a repeated prepare only reprograms the voltage, so the
        later rounds cost one SLIMpro call together.
        """
        self._prepare_clocks(core, freq_mhz)
        self.machine.slimpro.cycle_pmd_voltage_mv(voltage_mv, cycles)

    def _restore_safe_state(self) -> None:
        """Back to nominal before logs are persisted (Section 2.2.1)."""
        if self.machine.state is MachineState.RUNNING:
            self.machine.slimpro.restore_nominal_voltages()

    def run_campaign(
        self,
        workload: object,
        core: int,
        campaign_index: int = 1,
    ) -> CampaignResult:
        """Execute one campaign: the full voltage schedule once.

        Returns the :class:`CampaignResult`; the raw log text is kept in
        :attr:`raw_logs`.

        When the machine's components are table-compilable (and
        :attr:`use_kernel` is set) the campaign executes on the batch
        kernel (:mod:`repro.core.kernel`) -- bit-identical raw logs, an
        order of magnitude faster -- and the result holds the kernel's
        per-voltage counts, parsing its records from the log only when
        something asks for them; otherwise it falls back to the scalar
        loop below, which parses the log it wrote.
        :attr:`last_campaign_path` and the
        ``repro_kernel_campaigns_total`` counter record which path ran.
        """
        program = as_program(workload)
        cfg = self.config
        start = cfg.start_mv if cfg.start_mv is not None else PMD_NOMINAL_MV
        floor = cfg.stop_mv if cfg.stop_mv is not None else 700
        schedule = voltage_sweep(start, floor)

        log_parts: List[str] = []
        consecutive_crash_levels = 0
        with telemetry.span(
            "campaign",
            benchmark=program.name,
            core=core,
            campaign=campaign_index,
            freq_mhz=cfg.freq_mhz,
        ):
            kernel = self._compile_kernel(program, core) if self.use_kernel else None
            self.last_campaign_path = "batch" if kernel is not None else "scalar"
            telemetry.inc_counter(
                telemetry.M_KERNEL_CAMPAIGNS, path=self.last_campaign_path
            )
            if kernel is not None:
                log_text, log = kernel.execute(schedule, campaign_index)
                key = (program.name, core, cfg.freq_mhz, campaign_index)
                self.raw_logs[key] = log_text
                with telemetry.span("parse", campaign=campaign_index):
                    # The kernel already counted the log; the
                    # parse-phase counters are the scalar path's.
                    self._count_parsed(
                        sum(log.run_counts.values()), log.counts.values()
                    )
                return CampaignResult.from_counts(
                    chip=log.chip,
                    benchmark=program.name,
                    core=core,
                    freq_mhz=cfg.freq_mhz,
                    campaign_index=campaign_index,
                    counts=log.counts,
                    run_counts=log.run_counts,
                    load=partial(parse_records, log_text),
                )
            for voltage_mv in schedule:
                level_all_crashed = True
                with telemetry.span(
                    "voltage_step", voltage_mv=voltage_mv, runs=cfg.runs_per_level
                ):
                    for run_index in range(1, cfg.runs_per_level + 1):
                        block = self._execute_one(
                            program, core, voltage_mv, campaign_index, run_index
                        )
                        log_parts.append(block)
                        if "status=system_crash" not in block:
                            level_all_crashed = False
                if level_all_crashed:
                    consecutive_crash_levels += 1
                    if (cfg.stop_mv is None
                            and consecutive_crash_levels >= cfg.stop_after_crash_levels):
                        break
                else:
                    consecutive_crash_levels = 0

            log_text = "".join(log_parts)
            key = (program.name, core, cfg.freq_mhz, campaign_index)
            self.raw_logs[key] = log_text
            with telemetry.span("parse", campaign=campaign_index):
                result = self._parse_campaign(log_text, campaign_index)
        return result

    def _compile_kernel(
        self, program: Program, core: int
    ) -> Optional[CampaignKernel]:
        """Try to compile the machine's fault surface for the batch
        kernel; ``None`` when the machine has no ``compile_batch_table``
        hook or a component of it requires the scalar path.

        Compiled kernels are cached across the campaigns of one
        characterization, keyed by setup coordinates and invalidated by
        the machine's ``batch_surface_token`` (a value snapshot of every
        component the table depends on), so attaching an injector or
        swapping an extension model between campaigns recompiles -- or
        falls back -- exactly as a fresh compile would.
        """
        compile_table = getattr(self.machine, "compile_batch_table", None)
        if compile_table is None:
            return None
        token_of = getattr(self.machine, "batch_surface_token", None)
        key = (program.name, core, self.config.freq_mhz)
        if token_of is not None:
            cached = self._kernel_cache.get(key)
            if cached is not None and cached[0] == token_of():
                return cached[1]
        table = compile_table(program, core, self.config.freq_mhz)
        if table is None:
            self._kernel_cache.pop(key, None)
            return None
        kernel = self._kernel_for(table)
        if token_of is not None:
            self._kernel_cache[key] = (token_of(), kernel)
        return kernel

    def compiled_table(
        self, program: Program, core: int
    ) -> Optional[Tuple[str, VoltageTable]]:
        """``(surface token, table)`` of the batch kernel compiled for
        one cell at the configured frequency, or None."""
        cached = self._kernel_cache.get((program.name, core, self.config.freq_mhz))
        if cached is None:
            return None
        return cached[0], cached[1].table

    def adopt_table(self, table: VoltageTable, token: str) -> None:
        """Serve a table compiled on another machine of the same spec.

        The next campaign of the table's cell runs on it instead of
        compiling its own, provided this machine's
        ``batch_surface_token`` still equals ``token`` (otherwise it
        compiles, exactly as without the adopted table).  The caller
        vouches that both machines come from one spec: a table does not
        depend on the machine's seed, only on what the spec fixes.
        """
        key = (table.program.name, table.core, table.freq_mhz)
        self._kernel_cache[key] = (token, self._kernel_for(table))

    def _kernel_for(self, table: VoltageTable) -> CampaignKernel:
        return CampaignKernel(
            machine=self.machine,
            table=table,
            config=self.config,
            watchdog=self.watchdog,
            prepare=self._prepare_machine,
            restore=self._restore_safe_state,
            clean_cycles=self._clean_cycles,
        )

    def _execute_one(
        self,
        program: Program,
        core: int,
        voltage_mv: int,
        campaign_index: int,
        run_index: int,
    ) -> str:
        """One characterization run -> its raw log block."""
        cfg = self.config
        self._prepare_machine(core, cfg.freq_mhz, voltage_mv)
        outcome = self.machine.run_program(
            program, core, timeout_s=cfg.run_timeout_s
        )
        responsive = self.machine.is_responsive()
        action = WatchdogAction.NONE
        if not responsive:
            action = self.watchdog.ensure_alive()
        self._restore_safe_state()
        locations = {
            key: count for key, count in outcome.detail.items()
            if key.startswith(("ce_", "ue_"))
        }
        return format_run_block(
            chip=self.machine.chip.name,
            benchmark=program.name,
            core=core,
            voltage_mv=voltage_mv,
            freq_mhz=cfg.freq_mhz,
            campaign_index=campaign_index,
            run_index=run_index,
            exit_code=outcome.exit_code,
            output=outcome.output,
            expected_output=outcome.expected_output,
            edac_ce=outcome.edac_ce,
            edac_ue=outcome.edac_ue,
            responsive=responsive,
            watchdog_action=action.value,
            edac_locations=locations,
        )

    # -- phase 3: parsing ----------------------------------------------------

    @staticmethod
    def _count_parsed(
        runs: int, counts: Iterable[Mapping[EffectType, int]]
    ) -> None:
        """Parse-phase counters: ``runs`` runs parsed, and one
        increment per effect class by the runs that show it (``counts``
        as :func:`~repro.core.effects.book_effects` takes them)."""
        telemetry.inc_counter(telemetry.M_PARSER_RUNS, amount=runs)
        book_effects(counts)

    def _parse_campaign(self, log_text: str, campaign_index: int) -> CampaignResult:
        records = parse_records(log_text)
        self._count_parsed(
            len(records), [effect_counts(record.effects for record in records)]
        )
        if not records:
            raise CampaignError("campaign produced no runs")
        first = records[0]
        return CampaignResult(
            chip=first.chip,
            benchmark=first.benchmark,
            core=first.setup.core,
            freq_mhz=first.setup.freq_mhz,
            campaign_index=campaign_index,
            records=records,
        )

    # -- orchestration ---------------------------------------------------------

    def characterize(self, workload: object, core: int) -> CharacterizationResult:
        """Run the configured number of campaign repetitions."""
        campaigns = tuple(
            self.run_campaign(workload, core, campaign_index=i)
            for i in range(1, self.config.campaigns + 1)
        )
        return CharacterizationResult(campaigns=campaigns)

    def characterize_many(
        self,
        workloads: Sequence[object],
        cores: Sequence[int],
        jobs: int = 1,
        progress=None,
        chunk_size: Optional[int] = None,
        store=None,
        resume: bool = False,
    ) -> Dict[Tuple[str, int], CharacterizationResult]:
        """Full grid: every workload on every core (Figure 4's sweep).

        The grid runs on the :class:`~repro.parallel.ParallelCampaignEngine`:
        every (workload, core, campaign) task executes on a fresh
        machine rebuilt from this machine's spec, with a seed derived
        from this machine's seed and the task's coordinates, so the
        result is **bit-identical for any ``jobs``** -- ``jobs=1`` runs
        the same tasks serially in process; ``jobs>1`` fans them out
        over a worker pool.

        ``store`` journals the grid into a campaign store directory
        (:mod:`repro.store`) as tasks complete; ``resume=True`` replays
        the journaled prefix and executes only the remainder, ending in
        the same results as an uninterrupted run.

        Extension models (droop, aging, adaptive clocking, rollback,
        injectors) ride along: they round-trip through the machine's
        spec (see :mod:`repro.machines`).  Only machines carrying
        *unregistered* third-party component models raise
        :class:`~repro.errors.ConfigurationError`.
        """
        from ..parallel.engine import ParallelCampaignEngine
        from ..parallel.progress import NULL_PROGRESS

        spec = machine_to_spec(self.machine)
        engine = ParallelCampaignEngine(
            spec,
            self.config,
            jobs=jobs,
            chunk_size=chunk_size,
            progress=progress if progress is not None else NULL_PROGRESS,
            use_kernel=self.use_kernel,
        )
        report = engine.run(workloads, cores, store=store, resume=resume)
        self.raw_logs.update(report.raw_logs)
        self.last_engine_report = report
        return report.results

    def abnormal_run_fraction(self) -> float:
        """Fraction of logged runs with any abnormal effect (diagnostics),
        counted from :attr:`raw_logs` when called."""
        total = abnormal = 0
        memo = ParseMemo()
        for text in self.raw_logs.values():
            # A run is abnormal unless its one effect is NO.
            log = count_log(text, memo)
            runs = sum(log.run_counts.values())
            total += runs
            abnormal += runs - sum(
                slot[EffectType.NO] for slot in log.counts.values()
            )
        return abnormal / total if total else 0.0
