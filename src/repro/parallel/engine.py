"""The parallel campaign engine.

The paper's characterization took six months of wall-clock time because
thousands of (benchmark, core, voltage) runs execute serially on one
board.  In simulation that constraint disappears: campaigns are
embarrassingly parallel -- each owns its machine and its RNG stream --
so the engine fans the (workload, core, campaign) grid out over a
process pool.

Determinism is the design anchor.  Every task's machine seed is derived
from the parent seed and the task's stable coordinates (see
:mod:`repro.parallel.tasks`), so the engine produces **bit-identical**
results for any worker count or chunking -- ``jobs=4`` equals
``jobs=1`` equals any future run of the same grid.

A worker returns each campaign's journal line
(:class:`~repro.store.records.StoredCampaign`: the raw log and its
per-voltage counts, no run records); the engine appends it to the store
as it is, and a resume replays the journaled lines themselves, so a
campaign has one form from worker to journal.  A journaled run keeps
the line the store returns, which holds the counts and the raw log's
byte span in the journal, not its text: a run holds the text of the
chunk in flight, not of the whole grid, and the report reads a log back
only when it is asked for (:attr:`EngineReport.raw_logs`).

Scheduling is chunked (whole cells per chunk: one cell when serial,
and on a pool about four chunks per worker, so one pickle round-trip
covers many campaigns), worker crashes are retried once by re-running
the lost chunk in-process, and a
:class:`~repro.parallel.progress.ProgressReporter` hook surfaces
completed/total/ETA to the CLI and examples.
"""

from __future__ import annotations

import warnings
from concurrent.futures import FIRST_COMPLETED, Executor, Future, wait
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from .. import telemetry
from ..core.campaign import CampaignResult, CharacterizationResult
from ..core.config import FrameworkConfig
from ..core.effects import book_effects
from ..errors import CampaignError, ConfigurationError
from ..machines import MachineSpec, as_machine_spec
from ..store import AnyStore, CampaignStore, open_store, store_exists
from ..store.records import StoredCampaign
from ..workloads.benchmark import as_program
from .progress import NULL_PROGRESS, ProgressReporter, ProgressTracker
from .tasks import (
    CampaignTask,
    CampaignTaskResult,
    derive_task_seed,
    run_campaign_chunk,
)

#: Key of a raw log: (benchmark, core, frequency, campaign).
LogKey = Tuple[str, int, int, int]


class _LineLogs(Mapping[LogKey, str]):
    """Raw logs keyed like :attr:`CharacterizationFramework.raw_logs`,
    each taken from its journal line when accessed."""

    def __init__(self, lines: Dict[LogKey, StoredCampaign]) -> None:
        self._lines = lines

    def __getitem__(self, key: LogKey) -> str:
        return self._lines[key].raw_log

    def __iter__(self) -> Iterator[LogKey]:
        return iter(self._lines)

    def __len__(self) -> int:
        return len(self._lines)


@dataclass(frozen=True)
class EngineReport:
    """Outcome of one engine run: the grid plus execution metadata."""

    #: (benchmark, core) -> the assembled characterization.
    results: Dict[Tuple[str, int], CharacterizationResult]
    #: Raw campaign logs keyed like
    #: :attr:`CharacterizationFramework.raw_logs`: a mapping that reads
    #: each log when accessed (a journaled line's from the journal).
    raw_logs: Mapping[LogKey, str]
    #: Total watchdog recoveries performed by the workers.
    interventions: int
    #: Number of campaign tasks executed.
    tasks_run: int
    #: Scheduling chunks retried in-process after a worker failure.
    chunks_retried: int
    #: How the grid actually executed: ``"process"`` or ``"serial"``.
    backend: str
    #: Worker count the grid ran with (1 when serial).
    jobs: int
    #: Tasks replayed from a campaign-store journal instead of executed
    #: (0 for runs without a store or with an empty journal).
    tasks_skipped: int = 0


class ParallelCampaignEngine:
    """Fans a characterization grid out over a worker pool.

    Parameters
    ----------
    spec:
        The machine blueprint every worker rebuilds: a
        :class:`~repro.machines.MachineSpec`, a chip name/chip, or a
        machine (captured via ``to_spec()``).  Specs cover every
        registered extension model, so droop/aging/adaptive-clocking
        machines parallelize like nominal ones.
    config:
        The framework configuration (schedule, runs per level,
        campaign count) applied to every grid cell.
    jobs:
        Worker count.  ``1`` executes serially in-process (the
        reference ordering); higher values run the grid on a process
        pool when at least two tasks are pending.  A pool that cannot
        start (restricted environments) degrades to serial execution
        with a :class:`RuntimeWarning`.
    chunk_size:
        Tasks per scheduling chunk; ``None`` makes each chunk whole
        cells: one cell when ``jobs == 1`` (no IPC cost to spread, and
        a killed run loses one cell), and on a pool roughly four chunks
        per worker, which keeps the pool busy without paying one IPC
        round-trip per campaign.
    progress:
        Optional :class:`ProgressReporter`; the default is a no-op.
    use_kernel:
        Let workers use the batch kernel (:mod:`repro.core.kernel`)
        when their machine compiles; results are bit-identical either
        way, so this is a performance switch, not a semantic one.
    """

    #: Grids smaller than this never spin up a pool.
    MIN_POOL_TASKS = 2

    def __init__(
        self,
        spec: MachineSpec,
        config: FrameworkConfig = FrameworkConfig(),
        jobs: int = 1,
        chunk_size: Optional[int] = None,
        progress: ProgressReporter = NULL_PROGRESS,
        use_kernel: bool = True,
    ) -> None:
        if jobs < 1:
            raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
        if chunk_size is not None and chunk_size < 1:
            raise ConfigurationError("chunk_size must be >= 1")
        self.spec = as_machine_spec(spec)
        self.config = config
        self.jobs = int(jobs)
        self.chunk_size = chunk_size
        self.progress = progress
        self.use_kernel = bool(use_kernel)

    # -- task grid --------------------------------------------------------

    def tasks_for(
        self, workloads: Sequence[object], cores: Sequence[int]
    ) -> List[CampaignTask]:
        """The deterministic task list of a grid.

        Ordering is (workload, core, campaign) -- the same order the
        serial framework executes -- and each task carries its derived
        seed, so the list is independent of how it will be scheduled.
        """
        tasks: List[CampaignTask] = []
        for workload in workloads:
            program = as_program(workload)
            for core in cores:
                for campaign_index in range(1, self.config.campaigns + 1):
                    tasks.append(
                        CampaignTask(
                            program=program,
                            core=core,
                            campaign_index=campaign_index,
                            seed=derive_task_seed(
                                self.spec.seed, program.name, core,
                                campaign_index,
                            ),
                        )
                    )
        return tasks

    # -- execution --------------------------------------------------------

    def run(
        self,
        workloads: Sequence[object],
        cores: Sequence[int],
        store: Optional[AnyStore] = None,
        resume: bool = False,
    ) -> EngineReport:
        """Characterize every workload on every core.

        With ``store`` the run is journaled: each finished chunk's
        (workload, core, campaign) lines are appended to the campaign
        store in one commit, so a killed run loses at most the chunk in
        flight (a host crash, the chunk being committed too), and a
        session that appended lines leaves the store's count snapshot
        covering its whole journal.
        A :class:`~repro.store.FleetStore` routes the journal to the
        shard owning this engine's machine spec.
        With ``resume=True`` journaled tasks are replayed from the
        store (after verifying their seeds against a fresh derivation)
        and only the remainder executes -- the assembled report is
        bit-identical to an uninterrupted run of the same grid.
        """
        tasks = self.tasks_for(workloads, cores)
        if not tasks:
            raise ConfigurationError("empty grid: no workloads or no cores")
        journal = self._prepare_store(store, tasks, cores, resume)
        replayed = self._replay_journal(journal, tasks) if resume else []
        done = {line.key for line in replayed}
        pending = [
            task for task in tasks
            if (task.program.name, task.core, task.campaign_index) not in done
        ]
        # The pool starts before the run's span opens, so the span
        # records how the grid really executed.
        executor = self._start_pool(len(pending))
        backend = "serial" if executor is None else "process"
        collect = self._tracing_enabled()
        try:
            with telemetry.span(
                "engine.run",
                tasks=len(tasks),
                pending=len(pending),
                backend=backend,
                jobs=self.jobs,
            ):
                tracker = ProgressTracker(len(tasks), self.progress)
                if replayed:
                    tracker.advance(len(replayed))
                    telemetry.inc_counter(
                        telemetry.M_TASKS_SKIPPED, amount=len(replayed)
                    )
                    telemetry.event("engine.replay", tasks=len(replayed))
                self._sample_tsdb(journal)
                chunks = self._chunk(pending)
                retried = 0
                if executor is None:
                    lines: List[StoredCampaign] = []
                    for chunk in chunks:
                        started = telemetry.clock()
                        outcomes = run_campaign_chunk(
                            self.spec, self.config, chunk, collect,
                            self.use_kernel,
                        )
                        lines += self._finish_chunk(
                            outcomes, started, journal, tracker
                        )
                else:
                    lines, retried = self._run_pool(
                        executor, chunks, collect, journal, tracker
                    )
                if journal is not None and lines:
                    # Once per session, from what the store kept while
                    # appending: the first read after the run is warm.
                    journal.save_snapshot()
                tracker.finish()
                # Final snapshot after finish() so the run's published
                # throughput gauge lands in the time-series journal.
                self._sample_tsdb(journal)
        finally:
            if executor is not None:
                executor.shutdown(wait=False, cancel_futures=True)
        return self._assemble(
            tasks, replayed + lines, backend, retried,
            tasks_skipped=len(replayed),
        )

    # -- checkpointing -----------------------------------------------------

    def _prepare_store(
        self,
        store: Optional[AnyStore],
        tasks: List[CampaignTask],
        cores: Sequence[int],
        resume: bool,
    ) -> Optional[CampaignStore]:
        """Open/create the journal for this grid and validate it.

        An open :class:`CampaignStore` is used as given.  Anything else
        opens as a fleet (:func:`~repro.store.open_store`; a standalone
        store is its one-shard view) and routes by this engine's
        machine-spec digest to the shard that owns it -- a directory
        holding no store yet is created as a standalone one.
        Checkpointing, replay and resume then run against that shard,
        which is why a fleet of N machines resumes bit-identically to N
        independent runs.
        """
        if store is None:
            if resume:
                raise ConfigurationError("resume=True requires a store")
            return None
        workload_names = list(dict.fromkeys(t.program.name for t in tasks))
        if isinstance(store, CampaignStore):
            journal = store
        elif isinstance(store, (str, Path)) and not (
            resume or store_exists(store)
        ):
            journal = CampaignStore.create(
                store, self.spec, self.config, workload_names, cores
            )
        else:
            journal = open_store(store).shard_for(self.spec)
        # A store object handed in may predate appends made since.
        journal.refresh()
        journal.validate_run(self.spec, self.config, workload_names, cores)
        if journal.completed_keys() and not resume:
            raise CampaignError(
                f"store at {journal.directory} already journals "
                f"{len(journal.completed_keys())} tasks; pass resume=True "
                f"(or run `repro resume`) to continue it"
            )
        return journal

    def _replay_journal(
        self, journal: Optional[CampaignStore], tasks: List[CampaignTask]
    ) -> List[StoredCampaign]:
        """Journaled campaign lines, seeds re-verified.

        Replayed lines must carry exactly the seed this engine would
        derive for the task today; anything else means the journal was
        recorded under different seed material and cannot be spliced
        into a bit-identical grid.
        """
        if journal is None:
            return []
        seeds = {
            (t.program.name, t.core, t.campaign_index): t.seed for t in tasks
        }
        replayed = journal.campaigns()
        for stored in replayed:
            if stored.seed != seeds[stored.key]:
                raise CampaignError(
                    f"journaled task {stored.key!r} ran with seed "
                    f"{stored.seed}, but this grid derives "
                    f"{seeds[stored.key]}; the store belongs to different "
                    f"seed material"
                )
        return replayed

    def _finish_chunk(
        self,
        outcomes: Sequence[CampaignTaskResult],
        started: float,
        journal: Optional[CampaignStore],
        tracker: ProgressTracker,
    ) -> List[StoredCampaign]:
        """Finish one executed chunk, serial or pooled, and return its
        lines: observe its latency since ``started``, journal the lines
        as the worker built them (one write, one fsync), book
        parent-side telemetry from the worker's lines, sample the tsdb
        and advance progress.  A journaled chunk returns the lines the
        store keeps."""
        telemetry.observe(
            telemetry.M_CHUNK_SECONDS, telemetry.clock() - started
        )
        lines = [outcome.line for outcome in outcomes]
        if journal is not None:
            # One group commit per chunk; keep the store's count-backed
            # lines, not the worker's.
            lines = journal.append_campaign(*lines)
        self._record_outcomes(outcomes)
        self._sample_tsdb(journal)
        tracker.advance(len(lines))
        return lines

    @staticmethod
    def _tracing_enabled() -> bool:
        """Whether workers should record spans for the ambient tracer."""
        session = telemetry.current_session()
        return session is not None and session.tracer is not None

    @staticmethod
    def _sample_tsdb(journal: Optional[CampaignStore]) -> None:
        """Snapshot the registry into the journal directory's tsdb.

        No-op without a journal or without an ambient tsdb sampler
        (``--tsdb``); sampling happens only after durable checkpoints,
        so the time-series journal never observes in-flight state.
        """
        if journal is not None:
            telemetry.sample_tsdb(journal.directory)

    @staticmethod
    def _record_outcomes(outcomes: Sequence[CampaignTaskResult]) -> None:
        """Parent-side telemetry for freshly executed outcomes.

        Workers run under a local (or shielded) session, so all metric
        aggregation happens here, from the outcome payloads themselves
        -- identical serially and on the pool, for every worker count.
        Effects are read from each worker line's per-voltage counts
        (the index the store's append already built, not a second walk
        over the records) and added with one increment per effect class
        per chunk.
        Replayed journal lines are *not* routed through this: metrics
        describe the current run; ``repro status`` covers the store.
        """
        for outcome in outcomes:
            telemetry.emit_spans(outcome.spans)
            line = outcome.line
            if line.interventions:
                telemetry.inc_counter(
                    telemetry.M_INTERVENTIONS, amount=line.interventions
                )
        book_effects(
            counts
            for outcome in outcomes
            for counts in outcome.line.result.counts_by_voltage().values()
        )

    def _chunk(self, tasks: List[CampaignTask]) -> List[Tuple[CampaignTask, ...]]:
        """Scheduling chunks of ``tasks``.  The default size is a whole
        number of cells, so a grid's cells never straddle two chunks: a
        cell's campaigns share one compiled table only within a chunk.
        Serially it is one cell; on a pool it is rounded up from ~four
        chunks per worker."""
        size = self.chunk_size
        if size is None:
            cell = self.config.campaigns
            size = cell if self.jobs == 1 else (
                -(-max(1, len(tasks) // (self.jobs * 4)) // cell) * cell
            )
        return [
            tuple(tasks[i:i + size]) for i in range(0, len(tasks), size)
        ]

    def _start_pool(self, n_tasks: int) -> Optional[Executor]:
        """The process pool for ``n_tasks`` pending tasks, or None to
        run them serially: ``jobs == 1``, fewer than
        :attr:`MIN_POOL_TASKS` tasks, or a pool that cannot start."""
        if self.jobs == 1 or n_tasks < self.MIN_POOL_TASKS:
            return None
        from concurrent.futures import ProcessPoolExecutor

        # The worker body's layers (framework, kernel, simulator) load
        # here, before the pool forks, so every worker inherits them
        # instead of importing them again.
        from ..core import framework  # noqa: F401

        executor: Optional[Executor] = None
        try:
            executor = ProcessPoolExecutor(max_workers=self.jobs)
            # Surface pool-construction failures (missing /dev/shm,
            # seccomp'd fork, ...) now rather than at submit time.
            executor.submit(int, 0).result()
            return executor
        except Exception as exc:
            if executor is not None:
                executor.shutdown(wait=False, cancel_futures=True)
            warnings.warn(
                f"process pool unavailable ({exc!r}); running serially",
                RuntimeWarning,
                stacklevel=3,
            )
            return None

    def _run_pool(
        self,
        executor: Executor,
        chunks: List[Tuple[CampaignTask, ...]],
        collect: bool,
        journal: Optional[CampaignStore],
        tracker: ProgressTracker,
    ) -> Tuple[List[StoredCampaign], int]:
        lines: List[StoredCampaign] = []
        retried = 0
        pending: Dict[Future, Tuple[CampaignTask, ...]] = {
            executor.submit(
                run_campaign_chunk, self.spec, self.config, chunk, collect,
                self.use_kernel,
            ): chunk
            for chunk in chunks
        }
        submitted = telemetry.clock()
        while pending:
            done, _ = wait(pending, return_when=FIRST_COMPLETED)
            while done:
                # Each finished future (which holds its outcomes) is
                # dropped as it is taken, so only the chunk in hand
                # keeps its worker-built lines' log text.
                future = done.pop()
                chunk = pending.pop(future)
                try:
                    outcomes = future.result()
                except Exception as exc:
                    # Retry-once policy: a lost worker (OOM kill,
                    # BrokenProcessPool, pickling trouble) must not
                    # lose the grid.  The chunk re-runs in-process;
                    # seeds are per-task, so the retry is
                    # bit-identical to what the worker would have
                    # produced.
                    warnings.warn(
                        f"worker chunk failed ({exc!r}); "
                        "retrying in-process",
                        RuntimeWarning,
                        stacklevel=2,
                    )
                    retried += 1
                    telemetry.inc_counter(telemetry.M_CHUNKS_RETRIED)
                    telemetry.event(
                        "engine.chunk_retry",
                        tasks=len(chunk),
                        error=repr(exc),
                    )
                    outcomes = run_campaign_chunk(
                        self.spec, self.config, chunk, collect,
                        self.use_kernel,
                    )
                # Submit-to-drain latency: includes queue wait, which
                # is the number that matters for pool sizing.
                lines += self._finish_chunk(
                    outcomes, submitted, journal, tracker
                )
        return lines, retried

    # -- assembly ---------------------------------------------------------

    def _assemble(
        self,
        tasks: List[CampaignTask],
        lines: List[StoredCampaign],
        backend: str,
        retried: int,
        tasks_skipped: int = 0,
    ) -> EngineReport:
        """Deterministic grid assembly, independent of completion order."""
        by_task = {line.key: line for line in lines}
        grid: Dict[Tuple[str, int], List[CampaignResult]] = {}
        logs: Dict[LogKey, StoredCampaign] = {}
        interventions = 0
        for task in tasks:  # reference order: (workload, core, campaign)
            line = by_task[(task.program.name, task.core, task.campaign_index)]
            grid.setdefault(task.grid_key, []).append(line.result)
            logs[line.raw_log_key] = line
            interventions += line.interventions
        results = {
            key: CharacterizationResult(campaigns=tuple(campaigns))
            for key, campaigns in grid.items()
        }
        return EngineReport(
            results=results,
            raw_logs=_LineLogs(logs),
            interventions=interventions,
            tasks_run=len(tasks) - tasks_skipped,
            chunks_retried=retried,
            backend=backend,
            jobs=1 if backend == "serial" else self.jobs,
            tasks_skipped=tasks_skipped,
        )
