"""Shared-nothing task and result payloads of the parallel engine.

A characterization grid decomposes into (workload, core, campaign)
tasks.  Each task is executed on its **own** freshly built machine --
workers share no mutable state, so every payload crossing the process
boundary is a small frozen dataclass that pickles cleanly.  Machines
are rebuilt from a :class:`~repro.machines.MachineSpec`, which covers
*every* registered extension model (droop, adaptive clocking,
temperature, aging, rollback, scripted injection) -- see
:mod:`repro.machines`.  Only genuinely unregistered third-party
component models are rejected, at spec-capture time.

**Deterministic seed derivation.**  Each task's machine seed is a
child of the parent machine seed, derived with
:class:`numpy.random.SeedSequence` spawn keys from the task's stable
coordinates (benchmark name, core, campaign index).  Two properties
follow:

* the derivation is independent of scheduling -- chunking, worker
  count, serial or pool execution and completion order cannot change
  any task's seed,
  so parallel results are bit-identical to serial ones;
* distinct tasks get statistically independent streams (the
  ``SeedSequence`` spawn guarantee), so campaign repetitions do not
  accidentally correlate.

**Results.**  A worker returns, per task, the campaign's journal line
(:class:`~repro.store.records.StoredCampaign`, task seed included),
which the parent engine appends to the store as it is.  The pickled
line carries the raw log and its per-voltage counts, never run records
(the kernel builds none), so journaling and booking a task's effects
parse nothing; the raw log is parsed in the parent only when something
asks for the run records (for example ``repro grid --store S --out D``
writing ``runs.csv``).

**Telemetry.**  Ambient telemetry contexts do not cross process
boundaries, so each task runs under its own local session: when span
collection is on, a fresh tracer records the task's spans, which
travel beside the line (never journaled), and the parent engine
forwards them to its sink; when it is off, the task runs *shielded*
so framework-level instrumentation can never fire into an inherited
session (serial execution in the parent) and double-count with the
parent's outcome-based metric aggregation.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..machines import MachineSpec
from ..store.records import StoredCampaign
from ..telemetry import SpanRecord, Tracer, shielded, task_trace, telemetry_session
from ..workloads.benchmark import Program

__all__ = [
    "CampaignTask",
    "CampaignTaskResult",
    "MachineSpec",
    "derive_task_seed",
    "run_campaign_chunk",
]

_UINT64_MASK = (1 << 64) - 1


def derive_task_seed(
    parent_seed: int, benchmark: str, core: int, campaign_index: int
) -> int:
    """Child machine seed for one (benchmark, core, campaign) task.

    Stable across processes, platforms and scheduling orders: the
    benchmark name is folded to a 64-bit key with SHA-256 (never
    Python's randomized ``hash``), and the child stream is drawn from
    ``SeedSequence(parent, spawn_key=(bench_key, core, campaign))``.
    """
    digest = hashlib.sha256(benchmark.encode("utf-8")).digest()
    bench_key = int.from_bytes(digest[:8], "little")
    sequence = np.random.SeedSequence(
        entropy=int(parent_seed) & _UINT64_MASK,
        spawn_key=(bench_key, int(core), int(campaign_index)),
    )
    return int(sequence.generate_state(1, dtype=np.uint64)[0] >> np.uint64(1))


@dataclass(frozen=True)
class CampaignTask:
    """One unit of grid work: one campaign of one workload on one core."""

    program: Program
    core: int
    campaign_index: int
    #: Derived child machine seed (see :func:`derive_task_seed`).
    seed: int

    @property
    def grid_key(self) -> Tuple[str, int]:
        """The (benchmark, core) cell this campaign belongs to."""
        return (self.program.name, self.core)


@dataclass(frozen=True)
class CampaignTaskResult:
    """What a worker reports back for one task."""

    #: The campaign's journal line, as the store appends it.
    line: StoredCampaign
    #: Spans the worker recorded under its local tracer (empty unless
    #: the engine requested span collection): not journaled.
    spans: Tuple[SpanRecord, ...] = ()


#: What a task hands the next task of its chunk: the surface token and
#: compiled table of its campaign (``CharacterizationFramework.
#: compiled_table``).
_SharedTable = Tuple[str, "VoltageTable"]  # noqa: F821


def _execute_task(
    spec: MachineSpec, config: "FrameworkConfig", task: CampaignTask,  # noqa: F821
    use_kernel: bool, shared: Optional[_SharedTable],
) -> Tuple[StoredCampaign, Optional[_SharedTable]]:
    from ..core.framework import CharacterizationFramework

    machine = spec.build(seed=task.seed)
    framework = CharacterizationFramework(machine, config, use_kernel=use_kernel)
    if shared is not None:
        token, table = shared
        if (table.program, table.core) == (task.program, task.core):
            framework.adopt_table(table, token)
    result = framework.run_campaign(
        task.program, task.core, campaign_index=task.campaign_index
    )
    log_key = (task.program.name, task.core, config.freq_mhz, task.campaign_index)
    return StoredCampaign(
        benchmark=task.program.name,
        core=task.core,
        campaign_index=task.campaign_index,
        seed=task.seed,
        freq_mhz=config.freq_mhz,
        interventions=framework.watchdog.intervention_count,
        raw_log=framework.raw_logs[log_key],
        result=result,
    ), framework.compiled_table(task.program, task.core)


def _run_task(
    spec: MachineSpec,
    config: "FrameworkConfig",  # noqa: F821
    task: CampaignTask,
    collect_spans: bool,
    use_kernel: bool,
    shared: Optional[_SharedTable],
) -> Tuple[CampaignTaskResult, Optional[_SharedTable]]:
    if not collect_spans:
        with shielded():
            line, shared = _execute_task(spec, config, task, use_kernel, shared)
        return CampaignTaskResult(line), shared
    spans: List[SpanRecord] = []
    tracer = Tracer(spans.append)
    with telemetry_session(tracer=tracer):
        with task_trace(
            task.program.name, task.core, task.campaign_index, seed=task.seed
        ):
            line, shared = _execute_task(spec, config, task, use_kernel, shared)
    return CampaignTaskResult(line, tuple(spans)), shared


def run_campaign_chunk(
    spec: MachineSpec,
    config: "FrameworkConfig",  # noqa: F821
    tasks: Tuple[CampaignTask, ...],
    collect_spans: bool = False,
    use_kernel: bool = True,
) -> Tuple[CampaignTaskResult, ...]:
    """Worker entry point: execute a scheduling chunk of tasks, and
    return one :class:`CampaignTaskResult` per task, in task order.

    Tasks arrive in (workload, core, campaign) order, so the campaigns
    of one cell are neighbours: each task hands its compiled
    :class:`~repro.core.kernel.VoltageTable` to the next task, which
    runs on it when it is of the same cell (and its machine's surface
    token matches).  Every machine here is built from ``spec``, and a
    table depends only on what the spec fixes -- not on the task seed
    -- so sharing it changes no output, only how often plan rows are
    built.
    """
    results: List[CampaignTaskResult] = []
    shared: Optional[_SharedTable] = None
    for task in tasks:
        result, shared = _run_task(
            spec, config, task, collect_spans, use_kernel, shared
        )
        results.append(result)
    return tuple(results)
