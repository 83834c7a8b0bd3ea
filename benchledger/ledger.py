#!/usr/bin/env python3
"""Benchmark ledger: end-to-end and per-layer numbers for the repro CLI.

Usage (from the repository root)::

    python3 benchledger/ledger.py                      # all workloads
    python3 benchledger/ledger.py --workload paper-grid --seed 2017
    python3 benchledger/ledger.py --workload paper-grid --trace 1
    python3 benchledger/ledger.py --out runs.json --label a
    python3 benchledger/ledger.py compare BASE.json HEAD.json

Untraced runs issue real ``repro`` CLI commands as child processes, one
at a time (a closed loop with one client), and time each from spawn to
exit, so interpreter start, imports and fsync are included.  Each
workload repeats its command sequence until ``--seconds`` have passed
and reports medians.  ``--trace 1`` instead runs one repetition
in-process with wrappers around each layer's public functions (see
``layer_trace.py``) and reports the per-layer metrics; end-to-end
numbers never come from that mode.

Every output line is ``workload metric value unit``; the last line is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  A failed command or correctness check makes the exit code
non-zero.  ``BENCHMARK.json`` at the repository root declares the
workloads, metrics and regression bounds; ``README.md`` beside this
file explains them.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from layer_trace import Patches, Span, SpanRecorder, self_times, union_length

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
#: Scratch space for stores and command output, inside the checkout.
WORK = ROOT / ".ledger_work"

DEFAULT_SEED = 2017
DEFAULT_SECONDS = 15.0
#: Set-ups per run for the workloads whose set-up happens once per run.
SETUPS = 3

#: name -> unit of every end-to-end metric (bounds live in BENCHMARK.json).
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cmd_p50_ms": "ms",
    "cmd_p75_ms": "ms",
    "store_mb": "MB",
    "peak_rss_mb": "MB",
}

#: name -> (unit, better) of every per-layer metric of the traced run.
LAYER = {
    "cli.import_ms": ("ms", "lower"),
    "cli.import_numpy_ms": ("ms", "lower"),
    "cli.import_lint_ms": ("ms", "lower"),
    "cli.import_telemetry_ms": ("ms", "lower"),
    "cli.import_store_ms": ("ms", "lower"),
    "cli.import_hardware_ms": ("ms", "lower"),
    "machines.builds": ("count", "lower"),
    "machines.build_ms": ("ms", "lower"),
    "hardware.kernel_execute_ms": ("ms", "lower"),
    "hardware.vmin_off_anchor_frac": ("fraction", "lower"),
    "kernel.campaigns": ("count", "lower"),
    "kernel.runs": ("count", "lower"),
    "kernel.us_per_run": ("us", "lower"),
    "kernel.execute_self_ms": ("ms", "lower"),
    "kernel.plan_calls": ("count", "lower"),
    "kernel.plans_built": ("count", "lower"),
    "kernel.plan_ms": ("ms", "lower"),
    "kernel.plan_reuse_frac": ("fraction", "higher"),
    "kernel.rng_ms": ("ms", "lower"),
    "kernel.sample_ms": ("ms", "lower"),
    "kernel.scalar_replays": ("count", "lower"),
    "kernel.scalar_replay_frac": ("fraction", "lower"),
    "framework.batch_frac": ("fraction", "higher"),
    "watchdog.recoveries": ("count", "lower"),
    "watchdog.ms": ("ms", "lower"),
    "engine.run_ms": ("ms", "lower"),
    "engine.self_ms": ("ms", "lower"),
    "engine.chunks": ("count", "lower"),
    "engine.tasks_replayed": ("count", "lower"),
    "engine.queue_wait_p50_ms": ("ms", "lower"),
    "engine.worker_busy_frac": ("fraction", "higher"),
    "engine.result_kb_per_task": ("KB", "lower"),
    "store.appends": ("count", "lower"),
    "store.append_ms": ("ms", "lower"),
    "store.append_p50_ms": ("ms", "lower"),
    "store.journal_kb_per_task": ("KB", "lower"),
    "store.opens": ("count", "lower"),
    "store.open_ms": ("ms", "lower"),
    "fleet.refresh_ms": ("ms", "lower"),
    "index.build_ms": ("ms", "lower"),
    "index.serialize_ms": ("ms", "lower"),
    "train.cells": ("count", "higher"),
    "train.consume_ms": ("ms", "lower"),
    "train.fit_ms": ("ms", "lower"),
    "telemetry.trace_overhead_frac": ("fraction", "lower"),
    "telemetry.unattributed_frac": ("fraction", "lower"),
    "bench.wrap_overhead_frac": ("fraction", "lower"),
    "bench.span_coverage_frac": ("fraction", "higher"),
}

#: The Fig. 4 sweep: one shard per chip corner, 10 figure benchmarks x
#: 8 cores x 3 campaigns from 930 mV (the campaign count of the paper
#: benches' ``GRID_CAMPAIGNS``).
PAPER_CHIPS = ("TTT", "TFF", "TSS")
PAPER_CAMPAIGNS = 3
PAPER_START_MV = 930
RUNS_PER_LEVEL = 10

#: Spawned to build the paper-grid fleet in a fresh interpreter:
#: ``fleet init`` cannot mix chip corners in one fleet.
PAPER_FLEET_CHILD = (
    "import sys; sys.path.insert(0, {here!r}); import ledger; "
    "ledger.make_paper_fleet(sys.argv[1], int(sys.argv[2]))"
)


def make_paper_fleet(directory: str, seed: int) -> None:
    """Create the 3-shard Fig. 4 fleet (one machine per chip corner)."""
    from repro.core import FrameworkConfig
    from repro.machines import MachineSpec
    from repro.store import FleetStore
    from repro.workloads import figure_benchmarks

    FleetStore.create(
        directory,
        [MachineSpec(chip=chip, seed=seed) for chip in PAPER_CHIPS],
        FrameworkConfig(
            start_mv=PAPER_START_MV,
            campaigns=PAPER_CAMPAIGNS,
            runs_per_level=RUNS_PER_LEVEL,
        ),
        [bench.programs()[0].name for bench in figure_benchmarks()],
        list(range(8)),
    )


# -- command execution --------------------------------------------------------


@dataclass
class Result:
    """One finished command."""

    seconds: float
    rss_mb: float
    returncode: int
    stdout: str
    stderr: str = ""


class Tally:
    """Counts operations attempted and failed: commands and checks."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []

    def command(self, argv: Sequence[str], result: Result) -> None:
        self.attempted += 1
        if result.returncode != 0:
            self.failed += 1
            self.failures.append(
                f"exit {result.returncode}: {' '.join(map(str, argv))}\n"
                + result.stderr[-2000:]
            )

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"check failed: {what}")
        return ok


#: Body of :class:`Launcher`: one JSON job per stdin line, one
#: ``[seconds, ru_maxrss KiB, exit code]`` reply per stdout line; an
#: empty line ends it (forked pool workers may hold the pipe open).
LAUNCHER_CHILD = """
import json, os, subprocess, sys, time
for line in sys.stdin:
    if not line.strip():
        break
    job = json.loads(line)
    with open(job["out"], "wb") as out, open(job["err"], "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(job["argv"], stdout=out, stderr=err,
                                env=job["env"], cwd=job["cwd"])
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps([seconds, usage.ru_maxrss, proc.returncode]), flush=True)
"""


class Launcher:
    """A small long-lived process that starts and times every command.

    Linux starts a child's ``ru_maxrss`` at its parent's resident size
    at fork, so a command forked from the ledger, which grows as it
    checks outputs, would report the ledger's size. The launcher starts
    before the ledger grows and stays small.
    """

    def __init__(self) -> None:
        self._proc = subprocess.Popen(
            [sys.executable, "-c", LAUNCHER_CHILD],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def run(self, argv: Sequence[str], out: Path, err: Path,
            env: Dict[str, str]) -> Tuple[float, int, int]:
        """``(seconds, ru_maxrss KiB, exit code)`` of one command."""
        job = {"argv": list(argv), "out": str(out), "err": str(err),
               "env": env, "cwd": str(ROOT)}
        self._proc.stdin.write(json.dumps(job) + "\n")
        self._proc.stdin.flush()
        seconds, maxrss, returncode = json.loads(self._proc.stdout.readline())
        return seconds, maxrss, returncode

    def __enter__(self) -> "Launcher":
        return self

    def __exit__(self, *_exc: Any) -> None:
        self._proc.stdin.write("\n")
        self._proc.stdin.close()
        self._proc.wait()


class Children:
    """Runs each command in a child interpreter, timed spawn to exit."""

    def __init__(self, tally: Tally, work: Path, launcher: Launcher) -> None:
        self.tally = tally
        self.work = work
        self.launcher = launcher
        self.env = dict(os.environ, PYTHONPATH=str(SRC))

    def spawn(self, argv: Sequence[str]) -> Result:
        out, err = self.work / "stdout.txt", self.work / "stderr.txt"
        seconds, maxrss, returncode = self.launcher.run(argv, out, err, self.env)
        result = Result(
            seconds=seconds,
            # ru_maxrss is in KiB on Linux; covers reaped pool workers.
            rss_mb=maxrss * 1024 / 1e6,
            returncode=returncode,
            stdout=out.read_bytes().decode(errors="replace"),
            stderr=err.read_bytes().decode(errors="replace"),
        )
        self.tally.command(argv, result)
        return result

    def cli(self, *args: str) -> Result:
        return self.spawn([sys.executable, "-m", "repro.cli", *map(str, args)])

    def paper_fleet(self, directory: Path, seed: int) -> Result:
        code = PAPER_FLEET_CHILD.format(here=str(HERE))
        return self.spawn([sys.executable, "-c", code, str(directory), str(seed)])


class InProcess:
    """Issues the same commands through ``repro.cli.main`` in this
    interpreter; with a recorder, each command is one top-level span."""

    def __init__(self, tally: Tally, recorder: Optional[SpanRecorder] = None) -> None:
        import repro.cli

        self.tally = tally
        self.recorder = recorder
        self._main = repro.cli.main

    def _call(self, name: str, argv: Sequence[str], fn: Callable, *args: Any) -> Result:
        out, err = io.StringIO(), io.StringIO()
        span = (
            self.recorder.span(name) if self.recorder is not None
            else contextlib.nullcontext()
        )
        start = time.perf_counter()
        with span, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = fn(*args)
            except SystemExit as exc:  # argparse's --version exits
                code = exc.code
            except Exception:  # a crashing command is a counted failure
                err.write(traceback.format_exc())
                code = 1
        seconds = time.perf_counter() - start
        returncode = 0 if code is None else code if isinstance(code, int) else 1
        result = Result(seconds, 0.0, returncode, out.getvalue(), err.getvalue())
        self.tally.command(argv, result)
        return result

    def cli(self, *args: str) -> Result:
        argv = [str(arg) for arg in args]
        verb = argv[0].lstrip("-") + (f".{argv[1]}" if argv[0] == "fleet" else "")
        return self._call(f"cmd.{verb}", argv, self._main, argv)

    def paper_fleet(self, directory: Path, seed: int) -> Result:
        return self._call(
            "setup.paper_fleet", ["paper_fleet", str(directory)],
            make_paper_fleet, str(directory), seed,
        )


# -- workloads ----------------------------------------------------------------


@dataclass
class Samples:
    """What one run measured."""

    setup: List[float] = field(default_factory=list)
    #: Timed commands, one list per repetition.
    reps: List[List[Result]] = field(default_factory=list)
    store_bytes: List[int] = field(default_factory=list)

    def timed_seconds(self) -> float:
        return sum(cmd.seconds for rep in self.reps for cmd in rep)


def tree_bytes(path: Path) -> int:
    return sum(
        (Path(root) / name).stat().st_size
        for root, _, names in os.walk(path)
        for name in names
    )


def journal_digest(path: Path) -> str:
    """Order-free digest of every journal line under a store."""
    lines: List[bytes] = []
    for journal in sorted(path.rglob("journal.jsonl")):
        lines.extend(journal.read_bytes().splitlines())
    return hashlib.sha256(b"\n".join(sorted(lines))).hexdigest()


def fleet_shards(directory: Path) -> List[Path]:
    manifest = json.loads((directory / "fleet.json").read_text())
    return [directory / entry["path"] for entry in manifest["shards"]]


def query_vmins(text: str, chips: Sequence[str]) -> List[Tuple[str, str, int, int]]:
    """``(chip, benchmark, core, vmin_mv)`` from ``fleet query --json``
    output; each shard section opens with its Vmin index object."""
    cells = []
    decoder = json.JSONDecoder()
    for chip, section in zip(chips, text.split("# shard ")[1:]):
        vmin, _ = decoder.raw_decode(section.split("\n", 1)[1])
        for cell in vmin["cells"]:
            cells.append((chip, cell["benchmark"], cell["core"], cell["vmin_mv"]))
    return cells


def anchor_offsets(cells: Iterable[Tuple[str, str, int, int]]) -> List[int]:
    """|Vmin - calibration anchor| in mV for every figure-benchmark cell."""
    from repro.data.calibration import chip_calibration
    from repro.workloads import FIGURE_BENCHMARKS, get_benchmark

    return [
        abs(vmin - chip_calibration(chip).vmin_mv(core, get_benchmark(name).stress))
        for chip, name, core, vmin in cells
        if name in FIGURE_BENCHMARKS
    ]


class Workload:
    """One workload; ``ex`` is a :class:`Children` or :class:`InProcess`."""

    name = ""
    why = ""

    def __init__(self, ex: Any, seed: int, work: Path) -> None:
        self.ex = ex
        self.seed = seed
        self.work = work
        self.samples = Samples()
        self.notes: List[str] = []
        #: What the first repetition produced (see :meth:`check_repeats`).
        self.first: Optional[str] = None

    def check(self, ok: bool, what: str) -> bool:
        return self.ex.tally.check(ok, f"{self.name}: {what}")

    def check_repeats(self, value: str, what: str) -> None:
        """Every repetition must reproduce the first one's ``value``."""
        if self.first is None:
            self.first = value
        self.check(value == self.first, f"{what} differ across repetitions")

    def prepare(self, setups: int) -> None:
        """Once-per-run set-up (the grid workloads set up per repetition)."""

    def repetition(self, index: int) -> None:
        raise NotImplementedError

    def finish(self) -> None:
        """Once-per-run checks after the last repetition."""

    def stores(self) -> List[Path]:
        """Campaign-store directories (shards) the run left behind."""
        raise NotImplementedError

    def fresh(self, name: str) -> Path:
        """A new store directory, dropping the previous repetition's."""
        for old in self.work.glob(f"{name.split('-')[0]}-*"):
            shutil.rmtree(old)
        return self.work / name


class PaperGrid(Workload):
    name = "paper-grid"
    why = (
        "the Fig. 4 sweep: 720 serial tasks heavy in the unsafe band, so "
        "the kernel, per-task machine builds and journal fsync dominate"
    )

    def __init__(self, ex: Any, seed: int, work: Path,
                 trace_dir: Optional[Path] = None) -> None:
        super().__init__(ex, seed, work)
        self.trace_dir = trace_dir
        self.directory: Optional[Path] = None

    def repetition(self, index: int) -> None:
        directory = self.fresh(f"grid-{index}")
        self.directory = directory
        self.samples.setup.append(self.ex.paper_fleet(directory, self.seed).seconds)
        first = fleet_shards(directory)[0].name
        extra = [] if self.trace_dir is None else ["--trace", self.trace_dir]
        self.samples.reps.append([
            self.ex.cli("fleet", "run", directory, "--shards", first, *extra),
            self.ex.cli("fleet", "run", directory, *extra),
        ])
        self.samples.store_bytes.append(tree_bytes(directory))
        self.check_repeats(journal_digest(directory), "sorted journal lines")

    def finish(self) -> None:
        """>=95% of the 240 cells within one 5 mV step of the anchor.

        No per-cell maximum is checked: the highest-of-campaigns Vmin
        has a tail (a rare early failure lifts a cell by 10-15 mV on
        some seeds), so a maximum would fail on some seeds with the
        model unchanged.
        """
        query = self.ex.cli("fleet", "query", self.directory, "--json").stdout
        offsets = anchor_offsets(query_vmins(query, PAPER_CHIPS))
        far = sum(offset > 5 for offset in offsets)
        self.check(len(offsets) == 240, f"{len(offsets)} of 240 Fig. 4 cells")
        self.check(far <= 0.05 * len(offsets), f"{far} cells are >5 mV off")
        self.notes = [f"{far}/{len(offsets)} cells >5 mV from the anchor, "
                      f"max offset {max(offsets, default=0)} mV"]

    def stores(self) -> List[Path]:
        return fleet_shards(self.directory)


class PoolSweep(Workload):
    name = "pool-sweep"
    why = (
        "26 benchmarks from nominal on a 2-worker pool, then train: "
        "result pickling, the pool and the streaming trainer"
    )

    def __init__(self, ex: Any, seed: int, work: Path) -> None:
        super().__init__(ex, seed, work)
        self.directory: Optional[Path] = None

    def repetition(self, index: int) -> None:
        from repro.workloads import SPEC2006_SUITE

        directory = self.fresh(f"sweep-{index}")
        self.directory = directory
        self.samples.setup.append(self.ex.cli(
            "fleet", "init", directory, "--machines", 1,
            "--seed-base", self.seed, "--benchmarks", ",".join(SPEC2006_SUITE),
            "--cores", "0,2,4,6", "--campaigns", 2,
            "--runs-per-level", RUNS_PER_LEVEL, "--start-mv", 980,
        ).seconds)
        self.samples.reps.append([
            self.ex.cli("fleet", "run", directory, "--jobs", 2),
            self.ex.cli("train", fleet_shards(directory)[0], "--core", 0),
        ])
        self.samples.store_bytes.append(tree_bytes(directory))
        self.check_repeats(journal_digest(directory), "sorted journal lines")

    def stores(self) -> List[Path]:
        return fleet_shards(self.directory)


class StoreRead(Workload):
    name = "store-read"
    why = (
        "status, query and dash over a 240-task journal: store open, "
        "journal parse and warm-index build with no kernel work"
    )

    def __init__(self, ex: Any, seed: int, work: Path) -> None:
        super().__init__(ex, seed, work)
        self.directories: List[Path] = []

    def prepare(self, setups: int) -> None:
        from repro.workloads import FIGURE_BENCHMARKS

        for index in range(setups):
            directory = self.work / f"store-{index}"
            init = self.ex.cli(
                "fleet", "init", directory, "--machines", 1,
                "--seed-base", self.seed,
                "--benchmarks", ",".join(FIGURE_BENCHMARKS),
                "--cores", "0,1,2,3,4,5,6,7", "--campaigns", PAPER_CAMPAIGNS,
                "--runs-per-level", RUNS_PER_LEVEL,
                "--start-mv", PAPER_START_MV,
            )
            run = self.ex.cli("fleet", "run", directory, "--jobs", 2)
            self.samples.setup.append(init.seconds + run.seconds)
            self.samples.store_bytes.append(tree_bytes(directory))
            self.directories.append(directory)

    def repetition(self, index: int) -> None:
        directory = self.directories[index % len(self.directories)]
        rep = [
            self.ex.cli("fleet", "status", directory),
            self.ex.cli("fleet", "query", directory, "--json"),
            self.ex.cli("fleet", "query", directory, "--benchmark", "mcf",
                        "--core", 0),
            self.ex.cli("dash", directory, "--once"),
        ]
        self.samples.reps.append(rep)
        self.check_repeats(rep[1].stdout, "fleet query --json outputs")

    def finish(self) -> None:
        reparse = self.ex.cli(
            "fleet", "query", self.directories[0], "--json", "--reparse"
        ).stdout
        self.check(reparse == self.first, "warm index != journal re-parse")

    def stores(self) -> List[Path]:
        return [shard for d in self.directories for shard in fleet_shards(d)]


class CliCold(Workload):
    name = "cli-cold"
    why = (
        "short commands (--version, tables, claims, status) dominated by "
        "interpreter start and import repro.cli"
    )

    def __init__(self, ex: Any, seed: int, work: Path) -> None:
        super().__init__(ex, seed, work)
        self.directories: List[Path] = []

    def prepare(self, setups: int) -> None:
        for index in range(setups):
            directory = self.work / f"cold-{index}"
            self.samples.setup.append(self.ex.cli(
                "grid", "TTT", "--benchmarks", "mcf", "--cores", 0,
                "--campaigns", 1, "--seed", self.seed, "--store", directory,
            ).seconds)
            self.samples.store_bytes.append(tree_bytes(directory))
            self.directories.append(directory)

    def repetition(self, index: int) -> None:
        rep = [
            self.ex.cli("--version"),
            self.ex.cli("tables"),
            self.ex.cli("claims"),
            self.ex.cli("status", self.directories[index % len(self.directories)]),
        ]
        self.samples.reps.append(rep)
        self.check("13/13 claims reproduced" in rep[2].stdout,
                   "repro claims did not report 13/13")

    def stores(self) -> List[Path]:
        return list(self.directories)


WORKLOADS = {cls.name: cls for cls in (PaperGrid, PoolSweep, StoreRead, CliCold)}


def measure(workload: Workload, seconds: float, setups: int,
            max_reps: Optional[int] = None) -> None:
    """Warm up, set up, then repeat until ``seconds`` have passed."""
    workload.work.mkdir(parents=True, exist_ok=True)
    workload.ex.cli("--version")  # untimed: warms the page cache and .pyc files
    workload.prepare(setups)
    start = time.perf_counter()
    index = 0
    while (max_reps is None or index < max_reps) and (
        index == 0 or time.perf_counter() - start < seconds
    ):
        workload.repetition(index)
        index += 1
    workload.finish()


# -- end-to-end metrics --------------------------------------------------------


def quartiles(values: Sequence[float]) -> Tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def tail_percentile(n: int) -> Optional[int]:
    """Highest percentile of ``n`` samples with at least ten samples
    beyond it, or None when even the median has fewer."""
    for pct in (99, 95, 90, 75, 50):
        if n - math.ceil(pct * n / 100) >= 10:
            return pct
    return None


def end_to_end(samples: Samples) -> Dict[str, float]:
    commands = [cmd.seconds for rep in samples.reps for cmd in rep]
    return {
        "setup_s": statistics.median(samples.setup),
        "wall_s": statistics.median(sum(c.seconds for c in rep) for rep in samples.reps),
        "cmd_p50_ms": 1e3 * statistics.median(commands),
        "cmd_p75_ms": 1e3 * quartiles(commands)[1],
        "store_mb": statistics.median(samples.store_bytes) / 1e6,
        "peak_rss_mb": max(cmd.rss_mb for rep in samples.reps for cmd in rep),
    }


def untraced_run(name: str, seed: int, seconds: float,
                 children: Children) -> Tuple[Dict[str, float], List[str]]:
    workload = WORKLOADS[name](children, seed, children.work)
    measure(workload, seconds, SETUPS)
    n = sum(len(rep) for rep in workload.samples.reps)
    pct = tail_percentile(n)
    notes = workload.notes + [
        f"{len(workload.samples.reps)} repetitions, {n} timed commands, "
        f"{len(workload.samples.setup)} set-ups; "
        + (f"p{pct} is the highest percentile with >=10 samples beyond it"
           if pct else "no percentile has 10 samples beyond it")
    ]
    return end_to_end(workload.samples), notes


# -- traced run ----------------------------------------------------------------

#: cli.import_* metric -> module whose cumulative -X importtime it reads.
IMPORT_MODULES = {
    "cli.import_ms": "repro.cli",
    "cli.import_numpy_ms": "numpy",
    "cli.import_lint_ms": "repro.analysis.lint",
    "cli.import_telemetry_ms": "repro.telemetry",
    "cli.import_store_ms": "repro.store",
    "cli.import_hardware_ms": "repro.hardware",
}


def parse_importtime(text: str) -> Dict[str, float]:
    """Module -> largest cumulative import time in ms from -X importtime."""
    cumulative: Dict[str, float] = {}
    for line in text.splitlines():
        parts = line.split("|")
        if not line.startswith("import time:") or len(parts) != 3:
            continue
        try:
            micros = int(parts[1])
        except ValueError:  # the header line
            continue
        name = parts[2].strip()
        cumulative[name] = max(cumulative.get(name, 0.0), micros / 1e3)
    return cumulative


def import_times(children: Children) -> Dict[str, float]:
    """Median over five ``-X importtime`` interpreters of each module."""
    samples: Dict[str, List[float]] = defaultdict(list)
    for _ in range(5):
        result = children.spawn(
            [sys.executable, "-X", "importtime", "-c", "import repro.cli"]
        )
        cumulative = parse_importtime(result.stderr)
        for metric, module in IMPORT_MODULES.items():
            samples[metric].append(cumulative.get(module, 0.0))
    return {metric: statistics.median(values) for metric, values in samples.items()}


def chunk_key(tasks: Sequence[Any]) -> str:
    first = tasks[0]
    return f"{first.program.name}/{first.core}/{first.campaign_index}"


def layer_patches(recorder: SpanRecorder) -> Patches:
    """Wrap every layer entry point the per-layer metrics read."""
    import pickle
    from concurrent.futures import ProcessPoolExecutor

    from repro.core import kernel
    from repro.core.framework import CharacterizationFramework
    from repro.core.watchdog import WatchdogAction, WatchdogMonitor
    from repro.hardware.xgene2 import XGene2Machine
    from repro.machines import MachineSpec
    from repro.parallel import engine, tasks
    from repro.prediction import StreamingTrainer
    from repro.store import CampaignStore, FleetStore
    from repro.store.fleet import FleetIndexes

    def chunk_attrs(args: tuple, _kwargs: dict, result: Any) -> Dict[str, Any]:
        # One pickled result per chunk samples the per-task IPC payload.
        return {"chunk": chunk_key(args[2]), "tasks": len(result),
                "result_bytes": len(pickle.dumps(result[0]))}

    def submit_key(args: tuple) -> Optional[str]:
        # submit(fn, spec, config, chunk, ...): only chunk submissions.
        return chunk_key(args[4]) if len(args) > 4 else None

    patches = Patches(recorder)
    patches.span(MachineSpec, "build", "machines.build")
    patches.span(CharacterizationFramework, "run_campaign", "framework.campaign")
    patches.span(kernel.CampaignKernel, "execute", "kernel.execute")
    patches.span(
        engine.ParallelCampaignEngine, "run", "engine.run",
        attrs=lambda _a, _k, report: {
            "tasks_skipped": report.tasks_skipped,
            "backend": report.backend, "jobs": report.jobs,
        },
    )
    # Both module attributes point at one wrapper: the engine calls its
    # own import, and pickling resolves the worker function by its
    # qualified name in repro.parallel.tasks.
    chunk = recorder.wrap_span(tasks.run_campaign_chunk, "engine.chunk", chunk_attrs)
    patches.set(engine, "run_campaign_chunk", chunk)
    patches.set(tasks, "run_campaign_chunk", chunk)
    patches.set(ProcessPoolExecutor, "submit", recorder.wrap_mark(
        vars(ProcessPoolExecutor)["submit"], "engine.submit", submit_key
    ))
    patches.span(CampaignStore, "append_campaign", "store.append")
    patches.span(CampaignStore, "open", "store.open")
    patches.span(FleetStore, "refresh_watermarks", "fleet.refresh")
    patches.span(FleetStore, "indexes", "index.build")
    patches.span(FleetIndexes, "serialize", "index.serialize")
    patches.span(StreamingTrainer, "consume", "train.consume",
                 attrs=lambda _a, _k, consumed: {"cells": consumed})
    patches.span(StreamingTrainer, "fit", "train.fit")
    patches.leaf(XGene2Machine, "kernel_execute", "hardware.kernel_execute")
    patches.leaf(kernel.VoltageTable, "plan", "kernel.plan")
    patches.leaf(kernel, "_build_plan", "kernel.plan_build")
    patches.leaf(kernel.RunGeneratorFactory, "seed_limbs", "kernel.seed_limbs")
    patches.leaf(kernel.RunGeneratorFactory, "uniform_block", "kernel.uniform_block")
    patches.leaf(kernel.VoltageTable, "sample_u", "kernel.sample_u")
    patches.leaf(kernel.RunGeneratorFactory, "activate", "kernel.activate")
    patches.leaf(WatchdogMonitor, "ensure_alive", "watchdog.ensure_alive",
                 hit=lambda action: action is not WatchdogAction.NONE)
    return patches


def span_metrics(spans: Sequence[Span],
                 marks: Sequence[Tuple[str, Optional[str], str, float]],
                 root_pid: int) -> Dict[str, float]:
    """Per-layer metrics derived from the recorded spans."""
    selfs = self_times(spans)
    by_name: Dict[str, List[Span]] = defaultdict(list)
    leaves: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0, 0])
    for span in spans:
        by_name[span.name].append(span)
        for name, (calls, seconds, hits) in span.leaves.items():
            tally = leaves[name]
            tally[0] += calls
            tally[1] += seconds
            tally[2] += hits

    def count(name: str) -> int:
        return len(by_name[name])

    def total_ms(name: str) -> float:
        return 1e3 * sum(span.duration for span in by_name[name])

    def self_ms(name: str) -> float:
        return 1e3 * sum(selfs[span.id] for span in by_name[name])

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    runs = leaves["hardware.kernel_execute"][0]
    plan_calls = leaves["kernel.plan"][0]
    submitted = {
        (parent, key): at for name, parent, key, at in marks
        if name == "engine.submit"
    }
    waits = [
        span.start - submitted[(span.parent, span.attrs.get("chunk"))]
        for span in by_name["engine.chunk"]
        if (span.parent, span.attrs.get("chunk")) in submitted
    ]
    pool_capacity = sum(
        span.duration * span.attrs["jobs"] for span in by_name["engine.run"]
        if span.attrs.get("backend") == "process"
    )
    worker_busy = sum(
        span.duration for span in by_name["engine.chunk"] if span.pid != root_pid
    )
    chunks = by_name["engine.chunk"]
    appends = [1e3 * span.duration for span in by_name["store.append"]]
    return {
        "machines.builds": count("machines.build"),
        "machines.build_ms": total_ms("machines.build"),
        "hardware.kernel_execute_ms": 1e3 * leaves["hardware.kernel_execute"][1],
        "kernel.campaigns": count("kernel.execute"),
        "kernel.runs": runs,
        "kernel.us_per_run": 1e3 * ratio(total_ms("kernel.execute"), runs),
        "kernel.execute_self_ms": self_ms("kernel.execute"),
        "kernel.plan_calls": plan_calls,
        "kernel.plans_built": leaves["kernel.plan_build"][0],
        "kernel.plan_ms": 1e3 * leaves["kernel.plan"][1],
        "kernel.plan_reuse_frac": (
            1 - ratio(leaves["kernel.plan_build"][0], plan_calls)
            if plan_calls else 0.0
        ),
        "kernel.rng_ms": 1e3 * (
            leaves["kernel.seed_limbs"][1] + leaves["kernel.uniform_block"][1]
        ),
        "kernel.sample_ms": 1e3 * leaves["kernel.sample_u"][1],
        "kernel.scalar_replays": leaves["kernel.activate"][0],
        "kernel.scalar_replay_frac": ratio(leaves["kernel.activate"][0], runs),
        "framework.batch_frac": ratio(
            count("kernel.execute"), count("framework.campaign")
        ),
        "watchdog.recoveries": leaves["watchdog.ensure_alive"][2],
        "watchdog.ms": 1e3 * leaves["watchdog.ensure_alive"][1],
        "engine.run_ms": total_ms("engine.run"),
        "engine.self_ms": self_ms("engine.run"),
        "engine.chunks": len(chunks),
        "engine.tasks_replayed": sum(
            span.attrs.get("tasks_skipped", 0) for span in by_name["engine.run"]
        ),
        "engine.queue_wait_p50_ms": 1e3 * statistics.median(waits) if waits else 0.0,
        "engine.worker_busy_frac": ratio(worker_busy, pool_capacity),
        "engine.result_kb_per_task": ratio(
            sum(span.attrs.get("result_bytes", 0) for span in chunks), len(chunks)
        ) / 1024,
        "store.appends": len(appends),
        "store.append_ms": sum(appends),
        "store.append_p50_ms": statistics.median(appends) if appends else 0.0,
        "store.opens": count("store.open"),
        "store.open_ms": total_ms("store.open"),
        "fleet.refresh_ms": total_ms("fleet.refresh"),
        "index.build_ms": total_ms("index.build"),
        "index.serialize_ms": total_ms("index.serialize"),
        "train.cells": sum(
            span.attrs.get("cells", 0) for span in by_name["train.consume"]
        ),
        "train.consume_ms": total_ms("train.consume"),
        "train.fit_ms": total_ms("train.fit"),
    }


def store_vmins(shards: Sequence[Path]) -> List[Tuple[str, str, int, int]]:
    from repro.store import CampaignStore

    cells = []
    for shard in shards:
        store = CampaignStore.open(shard)
        chip = store.manifest.spec.chip
        for (name, core), result in store.results().items():
            cells.append((chip, name, core, int(result.highest_vmin_mv)))
    return cells


def journal_kb_per_task(shards: Sequence[Path]) -> float:
    journals = [shard / "journal.jsonl" for shard in shards]
    tasks = sum(len(path.read_bytes().splitlines()) for path in journals)
    return sum(path.stat().st_size for path in journals) / 1024 / tasks


def scalar_spot_check(shards: Sequence[Path], seed: int, tally: Tally) -> None:
    """Re-run two seed-picked journaled tasks on the scalar path and
    compare raw logs byte for byte (kernel == scalar)."""
    from repro.core import CharacterizationFramework
    from repro.store import CampaignStore
    from repro.workloads import get_program

    stores = [CampaignStore.open(shard) for shard in shards]
    # Sorted: pool runs journal in completion order.
    candidates = sorted(
        (index, stored.key, stored)
        for index, store in enumerate(stores) for stored in store.campaigns()
    )
    for index, key, stored in random.Random(seed).sample(candidates, 2):
        store = stores[index]
        config = store.manifest.config
        framework = CharacterizationFramework(
            store.manifest.spec.build(seed=stored.seed), config, use_kernel=False
        )
        framework.run_campaign(
            get_program(stored.benchmark), stored.core,
            campaign_index=stored.campaign_index,
        )
        log = framework.raw_logs[
            (stored.benchmark, stored.core, config.freq_mhz, stored.campaign_index)
        ]
        tally.check(log == stored.raw_log, f"kernel != scalar raw log for {key}")


def traced_run(name: str, seed: int, children: Children) -> Dict[str, float]:
    """One in-process repetition untraced, one traced: per-layer metrics.

    A discarded repetition runs first, so no timed one pays the
    interpreter's first-call costs (lazy imports, memoized tables).
    In-process repetitions still speed up as the allocator warms, so
    the untraced baseline is the mean of one repetition before and one
    after the traced ones.
    """
    tally, work = children.tally, children.work
    metrics: Dict[str, float] = {metric: 0.0 for metric in LAYER}
    metrics.update(import_times(children))

    def repetition(label: str, ex: InProcess, **options: Any) -> Workload:
        workload = WORKLOADS[name](ex, seed, work / label, **options)
        measure(workload, 0, setups=1, max_reps=1)
        return workload

    for label in ("warm-up", "before"):
        before = repetition(label, InProcess(tally)).samples.timed_seconds()
        shutil.rmtree(work / label)

    spool = work / "spool"
    spool.mkdir()
    recorder = SpanRecorder(name, spool)
    patches = layer_patches(recorder)
    start = time.perf_counter()
    try:
        traced = repetition("traced", InProcess(tally, recorder))
    finally:
        patches.restore()
    wall = time.perf_counter() - start
    if name == "paper-grid":
        # ``fleet run --trace``: the program's own telemetry cost.
        trace_dir = work / "telemetry-trace"
        telemetry = repetition("telemetry", InProcess(tally), trace_dir=trace_dir)
        shutil.rmtree(work / "telemetry")
    after = repetition("after", InProcess(tally)).samples.timed_seconds()
    shutil.rmtree(work / "after")
    plain = (before + after) / 2

    spans = recorder.collect()
    recorder.write(spans, WORK / f"spans-{name}.jsonl")
    metrics.update(span_metrics(spans, recorder.marks, recorder.root_pid))
    top = [(s.start, s.end) for s in spans if s.parent is None]
    metrics["bench.span_coverage_frac"] = union_length(top) / wall
    metrics["bench.wrap_overhead_frac"] = traced.samples.timed_seconds() / plain - 1
    if name == "paper-grid":
        metrics.update(telemetry_costs(trace_dir, telemetry.samples, plain))
    shards = traced.stores()
    metrics["store.journal_kb_per_task"] = journal_kb_per_task(shards)
    offsets = anchor_offsets(store_vmins(shards))
    metrics["hardware.vmin_off_anchor_frac"] = (
        sum(offset > 5 for offset in offsets) / len(offsets) if offsets else 0.0
    )
    if name in ("paper-grid", "pool-sweep"):
        scalar_spot_check(shards, seed, tally)
    return metrics


def telemetry_costs(trace_dir: Path, traced: Samples, plain: float) -> Dict[str, float]:
    """Cost of ``fleet run --trace`` and the share ``repro analyze``
    books to no named phase."""
    from repro import telemetry

    analysis = telemetry.analyze_trace_dir(trace_dir)
    phases = dict(analysis.phase_seconds)
    return {
        "telemetry.trace_overhead_frac": traced.timed_seconds() / plain - 1,
        "telemetry.unattributed_frac":
            (phases["engine_overhead"] + phases["worker_overhead"])
            / analysis.total_session_s,
    }


# -- compare ----------------------------------------------------------------------


def spread(values: Sequence[float]) -> float:
    """Interquartile range as a share of the median."""
    middle = statistics.median(values)
    q1, q3 = quartiles(values)
    return (q3 - q1) / abs(middle) if middle else 0.0


def verdict(base: Sequence[float], head: Sequence[float], bound: float,
            better: str = "lower") -> str:
    """ok / regressed / unresolved for one (metric, workload) pair.

    Unresolved when either side's run-to-run spread exceeds the bound,
    unless every HEAD run beats every BASE run.
    """
    sign = 1.0 if better == "lower" else -1.0
    if all(sign * (h - b) < 0 for h in head for b in base):
        return "ok"
    if max(spread(base), spread(head)) > bound:
        return "unresolved"
    b, h = statistics.median(base), statistics.median(head)
    return "regressed" if sign * (h - b) > bound * abs(b) else "ok"


def load_runs(path: str, label: Optional[str]) -> List[Dict[str, Any]]:
    runs = json.loads(Path(path).read_text())["runs"]
    return [
        run for run in runs
        if not run["trace"] and (label is None or run["label"] == label)
    ]


def error_frac(runs: Sequence[Dict[str, Any]]) -> float:
    attempted = sum(run["attempted"] for run in runs)
    return sum(run["failed"] for run in runs) / attempted if attempted else 0.0


def compare_rows(base: Sequence[Dict[str, Any]], head: Sequence[Dict[str, Any]],
                 declared: Sequence[Dict[str, Any]]) -> List[Dict[str, Any]]:
    workloads = [w for w in WORKLOADS
                 if any(r["workload"] == w for r in base)
                 and any(r["workload"] == w for r in head)]
    rows = []
    for metric in declared:
        name = metric["name"]
        for workload in workloads:
            b = [r["metrics"][name]["value"] for r in base if r["workload"] == workload]
            h = [r["metrics"][name]["value"] for r in head if r["workload"] == workload]
            rows.append({
                "metric": name, "workload": workload, "bound": metric["bound"],
                "base": (statistics.median(b), *quartiles(b)),
                "head": (statistics.median(h), *quartiles(h)),
                "verdict": verdict(b, h, metric["bound"], metric["better"]),
            })
    return rows


def compare_main(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="ledger.py compare",
        description="Compare two run files metric by metric against the "
                    "bounds in BENCHMARK.json.",
    )
    parser.add_argument("base", help="run file of the parent (from --out)")
    parser.add_argument("head", help="run file of the change")
    parser.add_argument("--base-label", help="only BASE runs with this --label")
    parser.add_argument("--head-label", help="only HEAD runs with this --label")
    args = parser.parse_args(argv)
    declared = json.loads(BENCHMARK_JSON.read_text())["end_to_end"]
    base = load_runs(args.base, args.base_label)
    head = load_runs(args.head, args.head_label)
    rows = compare_rows(base, head, declared)
    print(f"{'metric':<12} {'workload':<11} {'base median [q1, q3]':>30} "
          f"{'head median [q1, q3]':>30} {'bound':>6}  verdict")
    for row in rows:
        cells = [
            f"{m:.4g} [{q1:.4g}, {q3:.4g}]" for m, q1, q3 in (row["base"], row["head"])
        ]
        print(f"{row['metric']:<12} {row['workload']:<11} {cells[0]:>30} "
              f"{cells[1]:>30} {row['bound']:>6.0%}  {row['verdict']}")
    base_err, head_err = error_frac(base), error_frac(head)
    print(f"error_frac: base {base_err:.4f}, head {head_err:.4f}")
    regressed = any(row["verdict"] == "regressed" for row in rows)
    return 1 if regressed or head_err > base_err else 0


# -- entry point ------------------------------------------------------------------


def environment() -> Dict[str, Any]:
    import numpy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "commit": commit,
    }


def append_runs(path: Path, runs: Sequence[Dict[str, Any]]) -> None:
    if path.exists():
        data = json.loads(path.read_text())
    else:
        data = {"format": "benchledger-runs/v1", "environment": environment(),
                "runs": []}
    data["runs"].extend(runs)
    path.write_text(json.dumps(data, indent=1) + "\n")


def run_one(name: str, seed: int, seconds: float, trace: bool,
            launcher: Launcher) -> Dict[str, Any]:
    tally = Tally()
    work = WORK / f"run-{os.getpid()}"
    work.mkdir(parents=True)
    children = Children(tally, work, launcher)
    notes: List[str] = []
    try:
        if trace:
            values = traced_run(name, seed, children)
            units = {metric: unit for metric, (unit, _) in LAYER.items()}
        else:
            values, notes = untraced_run(name, seed, seconds, children)
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for metric in values:
        print(f"{name} {metric} {values[metric]:.6g} {units[metric]}")
    for note in notes:
        print(f"# {name}: {note}")
    for failure in tally.failures:
        print(f"{name}: {failure}", file=sys.stderr)
    return {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            metric: {"value": value, "unit": units[metric]}
            for metric, value in values.items()
        },
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["compare"]:
        return compare_main(argv[1:])
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run one workload (default: all, in order)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="seeds every machine (default %(default)s)")
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="repeat the timed commands until this many "
                             "seconds have passed (untraced runs only)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: one in-process repetition with layer spans")
    parser.add_argument("--out", type=Path,
                        help="append the run records to this JSON file")
    parser.add_argument("--label", default="run",
                        help="label stored with each run record in --out")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "cli.py").is_file():
        print(f"error: no repro sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    names = [args.workload] if args.workload else list(WORKLOADS)
    records = []
    with Launcher() as launcher:
        for name in names:
            record = run_one(name, args.seed, args.seconds, bool(args.trace),
                             launcher)
            record["label"] = args.label
            print(json.dumps({key: record[key] for key in
                              ("correct", "attempted", "failed", "metrics")}))
            records.append(record)
    if args.out is not None:
        append_runs(args.out, records)
    return 0 if all(record["correct"] for record in records) else 1


if __name__ == "__main__":
    sys.exit(main())
