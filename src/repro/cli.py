"""Command-line interface.

One subcommand per workflow::

    repro tables [N]                  render Tables 1-4
    repro claims                      check every model-derived claim
    repro grid CHIP                   benchmark x core grid on the engine
                                      (or --machine spec.json)
    repro status STORE [--models]     progress, tallies, Vmin per cell,
                                      ETA, and saved model artifacts
    repro tradeoffs                   the Figure-9 ladder + headlines
    repro predict                     the Section-4.3 studies
    repro predict --model STORE       serve the latest trained artifact
    repro train STORE [--follow]      stream-train one model from every
                                      shard's journal
    repro variation                   generated-population Vmin statistics
    repro fleet init FLEET_DIR        create a sharded fleet store
    repro fleet run STORE             run/resume any store (every shard
                                      of a fleet)
    repro fleet status FLEET_DIR      the same report as `repro status`
    repro fleet query STORE           Vmin/severity/feature queries
                                      (--json [--reparse] for the
                                      index-equals-reparse byte check)
    repro fleet compact STORE         fold complete shards into
                                      grid-order segments
    repro analyze TRACE_DIR [--json]  trace analytics: critical path,
                                      per-phase attribution, stragglers
    repro dash STORE [--once]         live dashboard: progress, tsdb
                                      metrics, ETA, health verdicts
    repro lint [PATH...]              reprolint invariant checker

Every verb that reads a store takes either shape: a fleet directory
(``fleet.json``) or a standalone campaign store, which opens as a
one-shard fleet (:func:`repro.store.open_store`).  A one-shard fleet's
model digest is its machine-spec digest, so a standalone store keeps
its models in its own ``models/``.  Read verbs (``status``, ``query``,
``dash``, ``report``, ``predict --model``) write nothing into a store.

All numbers are deterministic in ``--seed``.  Long runs should pass
``--store DIR`` to ``grid``: every completed campaign is journaled
there, and a killed run continues with ``repro fleet run DIR`` --
ending bit-identical to an uninterrupted one.

``grid``/``fleet run``/``train`` take ``--trace DIR`` (JSONL span
traces), ``--metrics FILE`` (metrics export; Prometheus text for
``.prom``/``.txt``, JSON snapshot otherwise) and ``--tsdb`` (append
periodic registry snapshots to the store's ``tsdb.jsonl`` time-series
journal, which ``repro dash`` and the health rules read).  Telemetry
is determinism-neutral: enabling it changes no journaled byte.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Tuple

# Module scope holds only what building the parser needs; each command
# imports the layers it runs, so a short command never loads numpy, the
# simulator or the linter.
from ._version import __version__
from .data.calibration import CHIP_NAMES
from .errors import CampaignError, ConfigurationError
from .store.models import TRAINABLE_TARGETS
from .units import PMD_NOMINAL_MV

if TYPE_CHECKING:
    from .machines import MachineSpec


def _cmd_tables(args: argparse.Namespace) -> int:
    from .analysis.tables import (
        render_table,
        table1_prior_work,
        table2_parameters,
        table3_effects,
        table4_weights,
    )

    tables = {
        1: ("Table 1: summary of studies on commercial chips", table1_prior_work),
        2: ("Table 2: basic parameters of APM X-Gene 2", table2_parameters),
        3: ("Table 3: effects classification", table3_effects),
        4: ("Table 4: severity weights", table4_weights),
    }
    wanted = [args.number] if args.number else sorted(tables)
    for number in wanted:
        title, builder = tables[number]
        print(title)
        print(render_table(*builder()))
        print()
    return 0


def _cmd_claims(_args: argparse.Namespace) -> int:
    from .analysis.report import check_claims, render_claims

    checks = check_claims()
    print(render_claims(checks))
    failed = [c for c in checks if not c.passed]
    print(f"\n{len(checks) - len(failed)}/{len(checks)} claims reproduced")
    return 1 if failed else 0


def _characterization_spec(args: argparse.Namespace) -> Optional[MachineSpec]:
    """Resolve ``repro grid``'s machine blueprint.

    A ``--machine spec.json`` file, a chip name, or both (the chip
    overrides the spec's); ``--seed`` always overrides.  Returns None
    (after printing to stderr) when the machine is under-specified or
    the spec file is invalid.
    """
    from .machines import MachineSpec, load_machine_spec

    if args.machine is not None:
        try:
            spec = load_machine_spec(args.machine)
        except ConfigurationError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return None
        if args.chip is not None:
            spec = dataclasses.replace(spec, chip=args.chip)
    elif args.chip is not None:
        spec = MachineSpec(chip=args.chip)
    else:
        print("error: pass a CHIP name or --machine spec.json",
              file=sys.stderr)
        return None
    if args.seed is not None:
        spec = dataclasses.replace(spec, seed=args.seed)
    return spec


@contextmanager
def _telemetry_scope(args: argparse.Namespace) -> Iterator[None]:
    """Install the ambient telemetry session a subcommand asked for.

    ``--trace DIR`` attaches a tracer writing per-trace JSONL files
    (span ids start at ``PARENT_SPAN_ID_BASE`` so parent-side events
    never collide with worker-recorded spans sharing a trace file);
    ``--metrics FILE`` attaches a registry exported when the command
    finishes; ``--tsdb`` attaches a registry (if ``--metrics`` did not
    already) plus a sampler the engine snapshots it through into the
    store's ``tsdb.jsonl`` after every durable checkpoint.  Without
    any of the flags, no session is installed and every telemetry call
    in the library stays a no-op.
    """
    trace_dir = getattr(args, "trace", None)
    metrics_path = getattr(args, "metrics", None)
    tsdb = bool(getattr(args, "tsdb", False))
    if trace_dir is None and metrics_path is None and not tsdb:
        yield
        return
    from . import telemetry

    tracer = None
    if trace_dir is not None:
        tracer = telemetry.Tracer(
            telemetry.TraceWriter(trace_dir),
            first_id=telemetry.PARENT_SPAN_ID_BASE,
        )
    metrics = (
        telemetry.MetricsRegistry()
        if metrics_path is not None or tsdb else None
    )
    sampler = telemetry.TsdbSampler() if tsdb else None
    with telemetry.telemetry_session(
        tracer=tracer, metrics=metrics, tsdb=sampler
    ):
        try:
            yield
        finally:
            if metrics is not None and metrics_path is not None:
                metrics.write(metrics_path)
                print(f"metrics exported to {metrics_path}", file=sys.stderr)


def _print_grid_summary(results) -> None:
    print(f"{'benchmark':<14} {'core':>4} {'Vmin':>6} {'crash':>6}")
    for (name, core), result in results.items():
        crash = result.highest_crash_mv
        print(f"{name:<14} {core:>4} {result.highest_vmin_mv:>4} mV "
              f"{crash if crash is not None else '--':>4} mV")


def _cmd_grid(args: argparse.Namespace) -> int:
    """Characterize a benchmark x core grid on the parallel engine."""
    with _telemetry_scope(args):
        return _run_grid(args)


def _run_grid(args: argparse.Namespace) -> int:
    from .core.config import FrameworkConfig
    from .core.results import ResultStore
    from .parallel import ConsoleProgress, ParallelCampaignEngine
    from .workloads import get_benchmark

    benchmarks = [get_benchmark(name) for name in args.benchmarks.split(",")]
    cores = [int(c) for c in args.cores.split(",")]
    spec = _characterization_spec(args)
    if spec is None:
        return 2
    engine = ParallelCampaignEngine(
        spec,
        FrameworkConfig(
            start_mv=args.start_mv,
            campaigns=args.campaigns,
            runs_per_level=args.runs_per_level,
        ),
        jobs=args.jobs,
        progress=ConsoleProgress(),
    )
    total = len(benchmarks) * len(cores) * args.campaigns
    chip = spec.chip if isinstance(spec.chip, str) else spec.chip.name
    print(f"characterizing {len(benchmarks)} benchmark(s) x {len(cores)} "
          f"core(s) x {args.campaigns} campaign(s) = {total} campaigns "
          f"on {chip} (jobs={args.jobs}) ...")
    try:
        report = engine.run(benchmarks, cores, store=args.store)
    except CampaignError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"backend        : {report.backend} (jobs={report.jobs})")
    print(f"recoveries     : {report.interventions}")
    if report.chunks_retried:
        print(f"chunks retried : {report.chunks_retried}")
    _print_grid_summary(report.results)
    if args.store:
        print(f"campaign store journaled at {args.store}")
    if args.out:
        store = ResultStore(args.out)
        store.write_runs_csv(report.results.values())
        store.write_severity_csv(report.results.values())
        print(f"CSV results written to {args.out}")
    return 0


def _cmd_status(args: argparse.Namespace) -> int:
    """Report any store's progress, shard by shard, without touching it
    (``repro status`` and ``repro fleet status``)."""
    from . import telemetry

    try:
        status = telemetry.fleet_status(args.store, metrics_path=args.metrics)
    except (CampaignError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(telemetry.render_fleet_status(status), end="")
    if args.models:
        try:
            models = telemetry.model_statuses(args.store)
        except CampaignError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(telemetry.render_model_status(models), end="")
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    """Trace analytics over a ``--trace`` directory.

    Deterministic by construction: the same trace directory always
    yields the same report bytes, so two ``--json`` runs can be
    compared with ``cmp``.
    """
    from . import telemetry

    try:
        analysis = telemetry.analyze_trace_dir(args.trace_dir)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(analysis.serialize(), end="")
    else:
        print(telemetry.render_analysis(analysis), end="")
    return 0


def _cmd_dash(args: argparse.Namespace) -> int:
    """Live dashboard over any store.

    Read-only: safe to point at a store another process is writing.
    Follows until the grid completes unless ``--once``; the tsdb
    cursors stay warm across refreshes, so each frame parses only the
    bytes appended since the previous one.
    """
    from . import telemetry
    from .durable import atomic_write

    baseline: Optional[str] = args.baseline
    if baseline is not None and not Path(baseline).exists():
        print(f"error: baseline file {baseline} not found", file=sys.stderr)
        return 2
    if baseline is None:
        default = Path("benchmarks") / "framework_baseline.json"
        baseline = str(default) if default.exists() else None
    dashboard = telemetry.Dashboard(args.store, baseline=baseline)
    while True:
        try:
            snapshot = dashboard.refresh()
        except (CampaignError, ValueError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(telemetry.render_dash(snapshot), end="")
        if args.health_out:
            atomic_write(
                args.health_out,
                telemetry.serialize_health(
                    snapshot.verdicts, source=str(args.store)
                ),
            )
        if args.once or snapshot.complete:
            return 0
        time.sleep(args.poll)


def _cmd_tradeoffs(args: argparse.Namespace) -> int:
    from .energy import figure9_ladder, headline_savings

    fraction = 0.25 if args.clock_tree else 0.0
    print("Figure-9 ladder:")
    for point in figure9_ladder(args.chip, clock_tree_fraction=fraction):
        print(f"  {point.label:<16} {point.chip_voltage_mv:>4} mV  "
              f"perf {100 * point.performance_rel:5.1f} %  "
              f"power {100 * point.power_rel:5.1f} %")
    print("\nheadline savings:")
    for key, value in headline_savings(args.chip).as_percent().items():
        print(f"  {key:<36} {value:>5.1f} %")
    return 0


def _cmd_predict(args: argparse.Namespace) -> int:
    if args.model is not None:
        return _run_predict_model(args)
    from .machines import MachineSpec, build_machine
    from .prediction import PredictionPipeline
    from .workloads import all_programs

    machine = build_machine(MachineSpec(chip=args.chip, seed=args.seed))
    pipeline = PredictionPipeline(machine)
    programs = all_programs()[: args.programs]
    print(f"running the Section-4.3 studies over {len(programs)} programs ...")
    print(pipeline.vmin_study(programs, core=0).summary())
    print(pipeline.severity_study(programs, core=0, max_samples=100).summary())
    print(pipeline.severity_study(programs, core=4, max_samples=90).summary())
    return 0


def _store_core(cores: Tuple[int, ...], requested: Optional[int]) -> int:
    """Resolve a --core flag against the store's grid (default: first)."""
    if requested is None:
        return cores[0]
    if requested not in cores:
        raise CampaignError(
            f"core {requested} is not in the store grid {cores!r}"
        )
    return requested


def _run_predict_model(args: argparse.Namespace) -> int:
    """Serve the latest trained model artifacts of any store."""
    from .prediction import FeatureAssembler
    from .store import open_store

    try:
        fleet = open_store(args.model)
        core = _store_core(fleet.manifest.cores, args.core)
    except CampaignError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    models = fleet.model_store()
    series = [(t, c) for t, c in models.series() if c == core]
    if not series:
        print(f"error: no model artifacts for core {core} under "
              f"{models.models_path}; run `repro train {args.model}` first",
              file=sys.stderr)
        return 2
    assembler = FeatureAssembler()
    for target, _ in series:
        artifact = models.load(target, core)
        print(f"{target} model v{artifact.version}: trained on "
              f"{artifact.n_samples} samples through journal offset "
              f"{artifact.journal_offset}")
        for key in sorted(artifact.metrics):
            print(f"  {key:<24} {artifact.metrics[key]:8.3f}")
        if not artifact.is_servable:
            print("  (not servable yet: journal too shallow to select "
                  "features)")
            continue
        print("  features: " + ", ".join(artifact.selected_features))
        if target != "vmin":
            continue
        print(f"  {'benchmark':<14} {'predicted':>9} {'journaled':>9}")
        for entry, store in fleet.shards():
            print(f"  shard {entry.name}:")
            for program in store.manifest.programs():
                # Canonical serving profile: a machine built fresh from
                # the shard's spec per program (matches the training
                # features).
                machine = store.manifest.spec.build()
                snapshot = machine.profile_program(program, core=0)
                predicted = artifact.predict_row(
                    assembler.vector_by_name(snapshot)
                )
                try:
                    vmin = store.result_for(program.name, core).highest_vmin_mv
                    actual = f"{vmin:>6} mV"
                except CampaignError:
                    actual = "     --"
                print(f"  {program.name:<14} {predicted:>6.1f} mV {actual:>9}")
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    """Stream-train prediction models from a store's journals."""
    with _telemetry_scope(args):
        return _run_train(args)


def _run_train(args: argparse.Namespace) -> int:
    from .prediction import StreamingTrainer
    from .store import open_store

    try:
        fleet = open_store(args.store)
        core = _store_core(fleet.manifest.cores, args.core)
    except CampaignError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    targets = TRAINABLE_TARGETS if args.target == "all" else (args.target,)
    trainers: Dict[str, StreamingTrainer] = {}
    models = fleet.model_store()
    for target in targets:
        # Resume from the latest saved artifact when one exists, so a
        # killed `repro train` never replays consumed journal records.
        if models.versions(target, core):
            artifact = models.load(target, core)
            trainers[target] = StreamingTrainer.resume(fleet, artifact)
            print(f"{target} c{core}: resuming from v{artifact.version} "
                  f"(journal offset {artifact.journal_offset})")
        else:
            trainers[target] = StreamingTrainer(fleet, core, target=target)
    while True:
        for target, trainer in trainers.items():
            consumed = trainer.consume()
            if consumed == 0 and not args.follow:
                print(f"{target} c{core}: no new journal records; "
                      f"checkpointing at offset {trainer.journal_offset}")
            if consumed or not args.follow:
                saved = models.save(trainer.fit())
                drift = trainer.drift_ratio
                drift_text = f"{drift:.3f}" if drift is not None else "--"
                print(f"{target} c{core}: v{saved.version} saved "
                      f"(+{consumed} cells, {saved.n_samples} samples, "
                      f"offset {saved.journal_offset}, drift {drift_text})")
        if not args.follow:
            return 0
        if all(shard.is_complete() for _, shard in fleet.shards()):
            print("store complete; follow mode done")
            return 0
        time.sleep(args.poll)


def _cmd_variation(args: argparse.Namespace) -> int:
    """Vmin statistics of a generated part population
    (:mod:`repro.hardware.variation`)."""
    from .hardware import ChipGenerator, fleet_vmin_distribution

    generator = ChipGenerator(args.corner, lot_seed=args.seed)
    population = generator.fleet(args.count)
    stats = fleet_vmin_distribution(population)
    print(f"{args.count} generated {args.corner}-population parts "
          f"(worst-case chip Vmin @2.4 GHz):")
    for key in ("mean_mv", "std_mv", "min_mv", "max_mv"):
        print(f"  {key:<10} {stats[key]:8.1f}")
    print(f"  one fleet-wide setting wastes "
          f"{100 * stats['fleet_setting_penalty']:.1f} % power vs per-chip "
          f"settings")
    return 0


def _cmd_fleet_init(args: argparse.Namespace) -> int:
    """Create a fleet store: one campaign shard per machine seed."""
    from .core.config import FrameworkConfig
    from .machines import MachineSpec
    from .store import FleetStore
    from .workloads import get_benchmark, get_program

    if args.seeds is not None:
        seeds = [int(s) for s in args.seeds.split(",")]
    else:
        seeds = [args.seed_base + i for i in range(args.machines)]
    try:
        names = [
            get_benchmark(name).programs()[0].name
            for name in args.benchmarks.split(",")
        ]
        for name in names:  # fail fast on unresolvable program names
            get_program(name)
        specs = [MachineSpec(chip=args.chip, seed=seed) for seed in seeds]
        fleet = FleetStore.create(
            args.fleet_dir,
            specs,
            FrameworkConfig(
                start_mv=args.start_mv,
                campaigns=args.campaigns,
                runs_per_level=args.runs_per_level,
            ),
            names,
            [int(c) for c in args.cores.split(",")],
        )
    except CampaignError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    manifest = fleet.manifest
    print(f"fleet store initialized at {args.fleet_dir}: "
          f"{len(manifest.shards)} shard(s), "
          f"{manifest.tasks_total()} task(s) total")
    for entry, spec in zip(manifest.shards, specs):
        print(f"  {entry.name}  seed {spec.seed}  "
              f"spec {entry.spec_digest[:12]}  ({entry.path})")
    print(f"run it with `repro fleet run {args.fleet_dir}`")
    return 0


def _cmd_fleet_run(args: argparse.Namespace) -> int:
    """Run (or resume) every shard of any store to completion."""
    with _telemetry_scope(args):
        return _run_fleet_cmd(args)


def _run_fleet_cmd(args: argparse.Namespace) -> int:
    from .parallel import ConsoleProgress, run_fleet

    shards = args.shards.split(",") if args.shards else None
    try:
        report = run_fleet(
            args.fleet_dir, jobs=args.jobs, progress=ConsoleProgress(),
            shards=shards,
        )
    except CampaignError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for name, shard_report in report.reports.items():
        print(f"{name}: +{shard_report.tasks_run} task(s) executed, "
              f"{shard_report.tasks_skipped} replayed "
              f"(backend {shard_report.backend})")
    done = report.manifest.tasks_done()
    total = report.manifest.tasks_total()
    print(f"fleet progress: {done}/{total} task(s) journaled"
          + ("" if done == total else
             f"; continue with `repro fleet run {args.fleet_dir}`"))
    return 0


def _cmd_fleet_query(args: argparse.Namespace) -> int:
    """Answer Vmin/severity queries from the cell answers of any store.

    ``--json`` emits the canonical index serialization (built inside
    ``repro.store`` -- the single sanctioned writer of index bytes);
    adding ``--reparse`` recomputes the same bytes from shards opened
    without their count snapshots, so piping both through ``diff``
    checks the index-equals-reparse contract end to end.  The text
    answers need only each shard's Vmin and severity answers
    (:meth:`CampaignStore.answers`), so they build no feature rows (no
    numpy, no profiler).
    """
    from .store import FleetStore

    try:
        fleet = FleetStore.open(args.fleet_dir)
        if args.json:
            indexes = fleet.indexes(feature_target=args.target)
            text = (
                indexes.serialize_reparse() if args.reparse
                else indexes.serialize()
            )
        else:
            answers = [
                (entry, store.answers()) for entry, store in fleet.shards()
            ]
    except CampaignError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(text, end="")
        return 0
    for entry, cells in answers:
        print(f"{entry.name} (spec {entry.spec_digest[:12]}):")
        matching = [
            ((name, core), answer)
            for (name, core), answer in cells.items()
            if (args.benchmark is None or name == args.benchmark)
            and (args.core is None or core == args.core)
        ]
        if not matching:
            print("  (no completed cells match)")
            continue
        for (name, core), answer in matching:
            crash = answer.crash_mv
            peak = max((value for _, value in answer.severity), default=0.0)
            print(f"  {name} c{core}: Vmin {answer.vmin_mv} "
                  f"mV, crash {crash if crash is not None else '--'} mV, "
                  f"peak severity {peak:.2f}")
    return 0


def _cmd_fleet_compact(args: argparse.Namespace) -> int:
    """Fold complete shards into canonical grid-order segments."""
    from .store import FleetStore

    try:
        fleet = FleetStore.open(args.fleet_dir)
        compacted = fleet.compact(force=args.force)
    except CampaignError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if compacted:
        print(f"compacted {len(compacted)} shard(s): "
              + ", ".join(compacted))
    else:
        print("nothing to compact (no complete, uncompacted shards)")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    """Write a self-contained markdown reproduction report."""
    from .analysis.report import check_claims
    from .analysis.tables import render_table, table2_parameters, table4_weights
    from .durable import atomic_write
    from .energy import figure9_ladder

    lines: List[str] = [
        "# repro reproduction report",
        "",
        "Model-derived results regenerated by `repro report`; see",
        "EXPERIMENTS.md for the measurement-derived figures.",
        "",
        "## Claim checks",
        "",
        "| claim | paper | measured | status |",
        "|---|---|---|---|",
    ]
    checks = check_claims()
    for check in checks:
        status = "ok" if check.passed else "FAIL"
        lines.append(
            f"| {check.description} | {check.paper_value:g} | "
            f"{check.measured_value:g} | {status} |"
        )
    lines += ["", "## Figure 9 ladder", "",
              "| step | Vdd (mV) | perf (%) | power (%) |", "|---|---|---|---|"]
    for point in figure9_ladder():
        lines.append(
            f"| {point.label} | {point.chip_voltage_mv} | "
            f"{100 * point.performance_rel:.1f} | "
            f"{100 * point.power_rel:.1f} |"
        )
    for number, (title, builder) in {
        2: ("Table 2", table2_parameters),
        4: ("Table 4", table4_weights),
    }.items():
        lines += ["", f"## {title}", "", "```",
                  render_table(*builder()), "```"]
    if args.store:
        from .analysis.report import store_report

        try:
            lines += ["", store_report(args.store)]
        except CampaignError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    text = "\n".join(lines) + "\n"
    if args.out:
        atomic_write(args.out, text)
        print(f"report written to {args.out}")
    else:
        print(text)
    return 1 if any(not c.passed for c in checks) else 0


def _job_count(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"jobs must be >= 1, got {value}")
    return value


def _chip_name(text: str) -> str:
    if text not in CHIP_NAMES:
        raise argparse.ArgumentTypeError(
            f"unknown chip {text!r} (choose from {', '.join(CHIP_NAMES)})"
        )
    return text


def _add_telemetry_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--trace", default=None, metavar="DIR",
                        help="write span-per-task JSONL traces into DIR "
                             "(one trace-<id>.jsonl per campaign task)")
    parser.add_argument("--metrics", default=None, metavar="FILE",
                        help="export run metrics on exit; .prom/.txt "
                             "selects Prometheus text exposition, any "
                             "other extension the JSON snapshot")
    parser.add_argument("--tsdb", action="store_true",
                        help="append registry snapshots to the store's "
                             "tsdb.jsonl time-series journal after every "
                             "durable checkpoint (read by `repro dash` "
                             "and the health rules; requires --store)")


def _add_status_arguments(parser: argparse.ArgumentParser) -> None:
    """The arguments ``repro status`` and ``repro fleet status`` share."""
    parser.add_argument("store", metavar="STORE",
                        help="campaign store or fleet directory to inspect")
    parser.add_argument("--metrics", default=None, metavar="FILE",
                        help="JSON metrics snapshot (from --metrics) to "
                             "derive the task-rate ETA from")
    parser.set_defaults(func=_cmd_status, models=False)


def build_parser() -> argparse.ArgumentParser:
    from .analysis.lint.cli import build_lint_parser, run_lint

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Harnessing Voltage Margins for "
                    "Energy Efficiency in Multicore CPUs' (MICRO-50 2017).",
    )
    parser.add_argument("--version", action="version",
                        version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_tables = sub.add_parser("tables", help="render Tables 1-4")
    p_tables.add_argument("number", nargs="?", type=int, choices=(1, 2, 3, 4))
    p_tables.set_defaults(func=_cmd_tables)

    p_claims = sub.add_parser("claims", help="check the model-derived claims")
    p_claims.set_defaults(func=_cmd_claims)

    p_grid = sub.add_parser(
        "grid", help="characterize a benchmark x core grid (one cell or "
                     "many) on the campaign engine")
    p_grid.add_argument("chip", nargs="?", type=_chip_name, default=None,
                        help="part name; optional with --machine")
    p_grid.add_argument("--machine", default=None, metavar="SPEC_JSON",
                        help="machine spec file to build the board from "
                             "(see repro.machines; extension models ride "
                             "along)")
    p_grid.add_argument("--benchmarks", default="bwaves,mcf",
                        help="comma-separated benchmark names")
    p_grid.add_argument("--cores", default="0,4",
                        help="comma-separated core indices")
    p_grid.add_argument("--campaigns", type=int, default=3)
    p_grid.add_argument("--runs-per-level", type=int, default=10)
    p_grid.add_argument("--start-mv", type=int, default=930)
    p_grid.add_argument("--seed", type=int, default=None,
                        help="master seed (default 2017, or the spec's)")
    p_grid.add_argument("--jobs", type=_job_count, default=1,
                        help="worker count for the campaign fan-out")
    p_grid.add_argument("--out", default=None, help="CSV output directory")
    p_grid.add_argument("--store", default=None, metavar="DIR",
                        help="journal every completed campaign into a "
                             "campaign store directory; continue a killed "
                             "run with `repro fleet run DIR`")
    _add_telemetry_flags(p_grid)
    p_grid.set_defaults(func=_cmd_grid)

    p_status = sub.add_parser(
        "status", help="report a store's progress, tallies and Vmin per cell")
    _add_status_arguments(p_status)
    p_status.add_argument("--models", action="store_true",
                          help="also list the store's saved model "
                               "artifacts (version, journal offset, "
                               "drift metrics)")

    p_trade = sub.add_parser("tradeoffs", help="Figure 9 and headlines")
    p_trade.add_argument("--chip", choices=CHIP_NAMES, default="TTT")
    p_trade.add_argument("--clock-tree", action="store_true",
                         help="include the clock-tree residual (figure's "
                              "760 mV point)")
    p_trade.set_defaults(func=_cmd_tradeoffs)

    p_pred = sub.add_parser("predict", help="the Section-4.3 studies, or "
                                            "--model to serve a trained "
                                            "artifact")
    p_pred.add_argument("--chip", choices=CHIP_NAMES, default="TTT")
    p_pred.add_argument("--programs", type=int, default=40)
    p_pred.add_argument("--seed", type=int, default=2017)
    p_pred.add_argument("--model", default=None, metavar="STORE",
                        help="serve the latest repro-model/v1 artifacts "
                             "saved under this store instead of running "
                             "the from-scratch studies")
    p_pred.add_argument("--core", type=int, default=None,
                        help="grid core to serve predictions for "
                             "(default: the store's first core; only "
                             "with --model)")
    p_pred.set_defaults(func=_cmd_predict)

    p_train = sub.add_parser(
        "train", help="stream-train prediction models from a store's "
                      "journals")
    p_train.add_argument("store", metavar="STORE",
                         help="campaign store or fleet directory to train "
                              "one model from")
    p_train.add_argument("--target", choices=TRAINABLE_TARGETS + ("all",),
                         default="all",
                         help="which model(s) to train (default: all)")
    p_train.add_argument("--core", type=int, default=None,
                         help="grid core to train for (default: the "
                              "store's first core)")
    p_train.add_argument("--follow", action="store_true",
                         help="keep polling the journal and saving new "
                              "artifact versions until the grid completes")
    p_train.add_argument("--poll", type=float, default=2.0, metavar="SECONDS",
                         help="follow-mode poll interval (default 2 s)")
    _add_telemetry_flags(p_train)
    p_train.set_defaults(func=_cmd_train)

    p_report = sub.add_parser("report", help="write a markdown report")
    p_report.add_argument("--out", default=None, help="output file path")
    p_report.add_argument("--store", default=None, metavar="DIR",
                          help="append the measured grid of a store "
                               "(shard by shard) to the report")
    p_report.set_defaults(func=_cmd_report)

    p_var = sub.add_parser(
        "variation", help="Vmin statistics of a generated part population")
    p_var.add_argument("--corner", choices=CHIP_NAMES, default="TTT")
    p_var.add_argument("--count", type=int, default=50)
    p_var.add_argument("--seed", type=int, default=0)
    p_var.set_defaults(func=_cmd_variation)

    p_fleet = sub.add_parser("fleet", help="fleet-sharded campaign stores")
    fleet_sub = p_fleet.add_subparsers(dest="fleet_command", required=True)

    pf_init = fleet_sub.add_parser(
        "init", help="create a fleet store: one journal shard per machine")
    pf_init.add_argument("fleet_dir", metavar="FLEET_DIR",
                         help="directory to create the fleet store in")
    pf_init.add_argument("--chip", type=_chip_name, default="TTT",
                         help="part name shared by every machine")
    pf_init.add_argument("--machines", type=int, default=3,
                         help="number of machines (= shards) in the fleet")
    pf_init.add_argument("--seed-base", type=int, default=2017,
                         help="machine seeds are SEED_BASE..SEED_BASE+N-1")
    pf_init.add_argument("--seeds", default=None, metavar="S1,S2,...",
                         help="explicit comma-separated machine seeds "
                              "(overrides --machines/--seed-base)")
    pf_init.add_argument("--benchmarks", default="bwaves,mcf",
                         help="comma-separated benchmark names")
    pf_init.add_argument("--cores", default="0,4",
                         help="comma-separated core indices")
    pf_init.add_argument("--campaigns", type=int, default=2,
                         help="campaigns per grid cell")
    pf_init.add_argument("--runs-per-level", type=int, default=3,
                         help="runs per undervolt level")
    pf_init.add_argument("--start-mv", type=int, default=PMD_NOMINAL_MV,
                         help="first undervolt level in mV")
    pf_init.set_defaults(func=_cmd_fleet_init)

    pf_run = fleet_sub.add_parser(
        "run", help="run (or resume) any store: every shard of a fleet, "
                    "or a plain campaign store")
    pf_run.add_argument("fleet_dir", metavar="STORE",
                        help="fleet or campaign store directory")
    pf_run.add_argument("--jobs", type=_job_count, default=1,
                        help="worker count per shard run")
    pf_run.add_argument("--shards", default=None, metavar="NAME1,NAME2,...",
                        help="only run these shard names (default: all)")
    _add_telemetry_flags(pf_run)
    pf_run.set_defaults(func=_cmd_fleet_run)

    pf_status = fleet_sub.add_parser(
        "status", help="the same report as `repro status`")
    _add_status_arguments(pf_status)

    pf_query = fleet_sub.add_parser(
        "query", help="answer Vmin/severity queries from each cell's answers")
    pf_query.add_argument("fleet_dir", metavar="STORE",
                          help="fleet or campaign store directory")
    pf_query.add_argument("--benchmark", default=None,
                          help="restrict to one benchmark")
    pf_query.add_argument("--core", type=int, default=None,
                          help="restrict to one core")
    pf_query.add_argument("--target", choices=TRAINABLE_TARGETS,
                          default="vmin",
                          help="prediction feature target (default vmin)")
    pf_query.add_argument("--json", action="store_true",
                          help="emit the canonical index serialization")
    pf_query.add_argument("--reparse", action="store_true",
                          help="with --json: recompute the same bytes "
                               "through a full journal re-parse (must be "
                               "identical -- the index-equals-reparse "
                               "contract)")
    pf_query.set_defaults(func=_cmd_fleet_query)

    pf_compact = fleet_sub.add_parser(
        "compact", help="fold complete shards into grid-order segments")
    pf_compact.add_argument("fleet_dir", metavar="STORE",
                            help="fleet or campaign store directory")
    pf_compact.add_argument("--force", action="store_true",
                            help="compact even when a saved model's "
                                 "streaming cursor points mid-journal")
    pf_compact.set_defaults(func=_cmd_fleet_compact)

    p_analyze = sub.add_parser(
        "analyze", help="trace analytics over a --trace directory")
    p_analyze.add_argument("trace_dir", metavar="TRACE_DIR",
                           help="directory of trace-*.jsonl span files "
                                "written by --trace")
    p_analyze.add_argument("--json", action="store_true",
                           help="emit the canonical repro-analysis/v1 "
                                "JSON instead of the terminal report")
    p_analyze.set_defaults(func=_cmd_analyze)

    p_dash = sub.add_parser(
        "dash", help="live dashboard over any store")
    p_dash.add_argument("store", metavar="STORE",
                        help="campaign store or fleet directory to watch")
    p_dash.add_argument("--once", action="store_true",
                        help="render a single frame and exit")
    p_dash.add_argument("--follow", action="store_true",
                        help="keep refreshing until the grid completes "
                             "(the default; --once overrides)")
    p_dash.add_argument("--poll", type=float, default=2.0, metavar="SECONDS",
                        help="follow-mode refresh interval (default 2 s)")
    p_dash.add_argument("--baseline", default=None, metavar="FILE",
                        help="framework baseline JSON for the throughput "
                             "health floor (default: benchmarks/"
                             "framework_baseline.json when present)")
    p_dash.add_argument("--health-out", default=None, metavar="FILE",
                        help="write the repro-health/v1 verdict report "
                             "here on every refresh")
    p_dash.set_defaults(func=_cmd_dash)

    p_lint = sub.add_parser(
        "lint", help="check the repo's reprolint invariants")
    build_lint_parser(p_lint)
    p_lint.set_defaults(func=run_lint)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Output piped into a pager/head that closed early; not an error.
        return 0


if __name__ == "__main__":
    sys.exit(main())
