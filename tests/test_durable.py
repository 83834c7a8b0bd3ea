"""One crash harness for every durable writer (``repro.durable``).

Whole-file writers go through :func:`repro.durable.atomic_write`; each
is crashed at every step of its discipline (before the first write,
mid-write, after the write, after the fsync, after the replace) by
swapping ``repro.durable``'s ``os`` for one that raises there.  Append
logs (:class:`repro.durable.AppendLog`) are cut at every byte -- every
torn trailing line, a parseable one without its newline included, reads
as the complete lines before it.  Either way a reader sees the old
complete state or the new one, a leftover ``*.tmp`` never breaks it,
and the next write or append succeeds.

The engine commits each chunk's journal lines with one fsync and saves
the count snapshot once a session ends; it is killed between a chunk's
write and its fsync (with any prefix of the chunk surviving) and
between its last commit and the snapshot, and resumed.
"""

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, List

import pytest

import repro.durable as durable
from repro.analysis.lint.cache import FileAnalysis, load_cache, save_cache
from repro.cli import main
from repro.core import FrameworkConfig
from repro.core.campaign import CampaignResult
from repro.core.parser import format_run_block
from repro.core.results import ResultStore
from repro.core.runs import CharacterizationSetup, RunRecord
from repro.effects import EffectType
from repro.machines import MachineSpec, load_machine_spec, save_machine_spec
from repro.parallel import ParallelCampaignEngine
from repro.store import (
    JOURNAL_NAME,
    MANIFEST_NAME,
    SNAPSHOT_NAME,
    CampaignStore,
    FleetStore,
    ModelArtifact,
    ModelStore,
    StoredCampaign,
    serialize_answers,
)
from repro.telemetry import (
    M_SNAPSHOT_READS,
    TSDB_NAME,
    MetricsRegistry,
    SpanRecord,
    TraceWriter,
    TsdbCursor,
    TsdbWriter,
    load_spans,
    telemetry_session,
)
from repro.workloads import get_benchmark

SPEC = MachineSpec(chip="TTT", seed=2017)
OTHER_SPEC = MachineSpec(chip="TTT", seed=2018)
CFG = FrameworkConfig(start_mv=905, campaigns=3, runs_per_level=1)
GRID = (["bwaves"], [0])


def campaign(index):
    """A one-run campaign: journal lines stay short enough to cut at
    every byte."""
    record = RunRecord(
        chip="TTT", benchmark="bwaves",
        setup=CharacterizationSetup(voltage_mv=905, freq_mhz=2400, core=0),
        campaign_index=index, run_index=1,
        effects=frozenset({EffectType.NO}), exit_code=0, output_matches=True,
    )
    return CampaignResult(chip="TTT", benchmark="bwaves", core=0,
                          freq_mhz=2400, campaign_index=index,
                          records=(record,))


def raw_log(index):
    """The log block :func:`campaign`'s one run parses back from."""
    return format_run_block(
        chip="TTT", benchmark="bwaves", core=0, voltage_mv=905,
        freq_mhz=2400, campaign_index=index, run_index=1, exit_code=0,
        output="ok", expected_output="ok", edac_ce=0, edac_ue=0,
        responsive=True,
    )


def line(index):
    return StoredCampaign(
        benchmark="bwaves", core=0, campaign_index=index, seed=index,
        freq_mhz=2400, interventions=0, raw_log=raw_log(index),
        result=campaign(index))


def journal(store, *indexes):
    """Append each task in a commit of its own."""
    for index in indexes:
        store.append_campaign(line(index))


def artifact(offset):
    return ModelArtifact(
        target="vmin", core=0, version=0, journal_offset=offset,
        spec_digest=SPEC.digest(), feature_names=("a",),
        selected_features=("a",), dropped_constant=(),
        coefficients={"a": 1.0}, intercept=0.5, naive_mean=0.5,
        n_samples=offset, train_digest="0" * 16, metrics={"rmse": 0.1},
        trainer_state={},
    )


def span(span_id):
    return SpanRecord(trace_id="t", name="task", span_id=span_id,
                      parent_id=None, start_s=0.0, end_s=1.0)


# ---------------------------------------------------------------------------
# writers
# ---------------------------------------------------------------------------

@dataclass
class AtomicCase:
    """A whole-file writer: ``prepare`` lays down the old state,
    ``write`` moves it to the new one, ``observe`` is what readers see."""

    prepare: Callable[[Path], None]
    write: Callable[[Path], None]
    observe: Callable[[Path], Any]


def _store_manifest(d):
    if not (d / MANIFEST_NAME).exists():
        return None  # not a store (yet)
    return CampaignStore.open(d).manifest.to_json_dict()


def _fleet_prepare(d):
    fleet = FleetStore.create(d, [SPEC, OTHER_SPEC], CFG, *GRID)
    journal(fleet.shard_for(SPEC), 1)
    # Opening the shards lays down their count snapshots, so the first
    # atomic write of the case is fleet.json's.
    FleetStore.open(d).refresh()


def _snapshot_prepare(d):
    journal(CampaignStore.create(d, SPEC, CFG, *GRID), 1)
    CampaignStore.open(d)  # the snapshot now covers line 1
    journal(CampaignStore.open(d), 2)


def _snapshot(d):
    """Which lines the count snapshot covers, read without opening the
    store (an open would rewrite it)."""
    path = d / SNAPSHOT_NAME
    if not path.exists():
        return None
    payload = json.loads(path.read_text())
    return (payload["journal"]["end"],
            [entry["campaign"] for entry in payload["campaigns"]])


def _compaction_prepare(d):
    fleet = FleetStore.create(d, [SPEC], CFG, *GRID)
    journal(fleet.shard_for(SPEC), 3, 1, 2)  # complete, out of grid order


def _compacted_order(d):
    fleet = FleetStore.open(d)
    return [c.campaign_index for c in fleet.shard_for(SPEC).campaigns()]


def _models(d):
    return ModelStore(d, expected_spec_digest=SPEC.digest())


def _model_bytes(d):
    store = _models(d)
    return [store.load("vmin", 0, v).serialize()
            for v in store.versions("vmin", 0)]


def _lint_cache(d):
    entries, usable = load_cache(d / "cache.json", "fp")
    return usable, {k: v.to_json_dict() for k, v in entries.items()}


def _save_lint(d, *names):
    save_cache(d / "cache.json", "fp",
               {n: FileAnalysis(path=n, sha=n * 8) for n in names})


def _write_metrics(d, tasks):
    registry = MetricsRegistry()
    registry.counter("repro_tasks_total").inc(tasks)
    registry.write(d / "metrics.json")


def _metrics(d):
    path = d / "metrics.json"
    return path.read_text(encoding="utf-8") if path.exists() else None


def _machine_spec(d):
    path = d / "spec.json"
    return load_machine_spec(path) if path.exists() else None


def _write_raw_log(d, index):
    ResultStore(d).write_raw_log(("bwaves", 0, 2400, 1), raw_log(index))


def _raw_log(d):
    path = d / "log_bwaves_c0_f2400_camp1.txt"
    return path.read_text() if path.exists() else None


def _dash_prepare(d):
    for name in ("a", "b"):
        CampaignStore.create(d / name, SPEC, CFG, *GRID)
    _dash(d, "a")


def _dash(d, store):
    """``repro dash --once`` over one of the stores, health to a file."""
    main(["dash", str(d / store), "--once",
          "--health-out", str(d / "health.json")])


def _health(d):
    path = d / "health.json"
    if not path.exists():
        return None
    report = json.loads(path.read_text())
    return dict(report, source=Path(report["source"]).name)


def _report(d):
    main(["report", "--out", str(d / "report.md")])


def _report_text(d):
    path = d / "report.md"
    return path.read_text() if path.exists() else None


def _text(name):
    """Observe one file's text (``None`` while it does not exist)."""
    def observe(d):
        path = d / name
        return path.read_text() if path.exists() else None
    return observe


def _export_prepare(d):
    journal(CampaignStore.create(d, SPEC, CFG, *GRID), 1, 2, 3)
    # The open lays down the count snapshot, so the first atomic write
    # of the export is runs.csv.
    CampaignStore.open(d)
    (d / "runs.csv").write_text("stale\n")


def _complete_cell():
    from repro.core.campaign import CharacterizationResult

    return CharacterizationResult(
        campaigns=tuple(campaign(index) for index in (1, 2, 3)))


def _figure3(d):
    from repro.analysis.export import FigureExporter

    FigureExporter(d).figure3()


ATOMIC = {
    "campaign-manifest": AtomicCase(
        prepare=lambda d: None,
        write=lambda d: CampaignStore.create(d, SPEC, CFG, *GRID),
        observe=_store_manifest,
    ),
    "fleet-json": AtomicCase(
        prepare=_fleet_prepare,
        write=lambda d: FleetStore.open(d).refresh_watermarks(),
        observe=lambda d: FleetStore.open(d).manifest.to_json_dict(),
    ),
    "count-snapshot": AtomicCase(
        prepare=_snapshot_prepare,
        write=CampaignStore.open,
        observe=_snapshot,
    ),
    "compaction": AtomicCase(
        prepare=_compaction_prepare,
        write=lambda d: FleetStore.open(d).compact(),
        observe=_compacted_order,
    ),
    "model-artifact": AtomicCase(
        prepare=lambda d: _models(d).save(artifact(1)),
        write=lambda d: _models(d).save(artifact(2)),
        observe=_model_bytes,
    ),
    "lint-cache": AtomicCase(
        prepare=lambda d: _save_lint(d, "a.py"),
        write=lambda d: _save_lint(d, "a.py", "b.py"),
        observe=_lint_cache,
    ),
    "metrics-export": AtomicCase(
        prepare=lambda d: _write_metrics(d, 1),
        write=lambda d: _write_metrics(d, 2),
        observe=_metrics,
    ),
    "machine-spec": AtomicCase(
        prepare=lambda d: save_machine_spec(SPEC, d / "spec.json"),
        write=lambda d: save_machine_spec(OTHER_SPEC, d / "spec.json"),
        observe=_machine_spec,
    ),
    "raw-log": AtomicCase(
        prepare=lambda d: _write_raw_log(d, 1),
        write=lambda d: _write_raw_log(d, 2),
        observe=_raw_log,
    ),
    "dash-health-out": AtomicCase(
        prepare=_dash_prepare,
        write=lambda d: _dash(d, "b"),
        observe=_health,
    ),
    "report-out": AtomicCase(
        prepare=lambda d: (d / "report.md").write_text("stale\n"),
        write=_report,
        observe=_report_text,
    ),
    "runs-csv": AtomicCase(
        prepare=_export_prepare,
        write=lambda d: CampaignStore.open(d).export_csv(),
        observe=_text("runs.csv"),
    ),
    "severity-csv": AtomicCase(
        prepare=lambda d: ResultStore(d).write_severity_csv([]),
        write=lambda d: ResultStore(d).write_severity_csv([_complete_cell()]),
        observe=_text("severity.csv"),
    ),
    "figure-csv": AtomicCase(
        prepare=lambda d: (d / "figure3_vmin.csv").write_text("stale\n"),
        write=_figure3,
        observe=_text("figure3_vmin.csv"),
    ),
}


@dataclass
class LogCase:
    """An append log: ``build`` writes two records through the real
    writer and returns the file, ``records`` is what its reader sees,
    ``append`` adds one more through a fresh writer and ``after`` is
    the reader's view of that for a given prefix."""

    build: Callable[[Path], Path]
    records: Callable[[Path], List[Any]]
    append: Callable[[Path], None]
    after: Callable[[List[Any]], List[Any]]


def _journal_build(d):
    journal(CampaignStore.create(d, SPEC, CFG, *GRID), 1, 2)
    return d / JOURNAL_NAME


def _commit_build(d):
    CampaignStore.create(d, SPEC, CFG, *GRID).append_campaign(
        line(1), line(2))
    return d / JOURNAL_NAME


def _tsdb_build(d):
    writer = TsdbWriter(d / TSDB_NAME)
    for t_s in (1.0, 2.0):
        writer.append(MetricsRegistry(), t_s)
    return d / TSDB_NAME


def _tsdb_records(d):
    cursor = TsdbCursor.from_reparse(d / TSDB_NAME)
    assert cursor.last_seq == cursor.snapshots  # seqs run 1..n, no gap
    return list(range(1, cursor.snapshots + 1))


def _spans_build(d):
    writer = TraceWriter(d)
    writer(span(1))
    writer(span(2))
    return writer.path_for("t")


LOGS = {
    "campaign-journal": LogCase(
        build=_journal_build,
        records=lambda d: [c.campaign_index
                           for c in CampaignStore.open(d).campaigns()],
        append=lambda d: journal(CampaignStore.open(d), 3),
        after=lambda prefix: prefix + [3],
    ),
    # Two lines in one group commit: a crash keeps a prefix of them.
    "campaign-commit": LogCase(
        build=_commit_build,
        records=lambda d: [c.campaign_index
                           for c in CampaignStore.open(d).campaigns()],
        append=lambda d: journal(CampaignStore.open(d), 3),
        after=lambda prefix: prefix + [3],
    ),
    "tsdb": LogCase(
        build=_tsdb_build,
        records=_tsdb_records,
        append=lambda d: TsdbWriter(d / TSDB_NAME).append(
            MetricsRegistry(), 3.0),
        after=lambda prefix: prefix + [len(prefix) + 1],
    ),
    "spans": LogCase(
        build=_spans_build,
        records=lambda d: [s.span_id for s in load_spans(d / "trace-t.jsonl")],
        append=lambda d: TraceWriter(d)(span(3)),
        after=lambda prefix: prefix + [3],
    ),
}


# ---------------------------------------------------------------------------
# crash injection
# ---------------------------------------------------------------------------

ATOMIC_POINTS = ("before-write", "mid-write", "after-write", "after-fsync",
                 "after-replace")


class Crash(BaseException):
    """A simulated power cut: no ``except Exception`` in the code under
    test can swallow it."""


class CrashingOs:
    """``repro.durable``'s view of ``os``, crashing at one point of the
    first atomic write.  Everything not overridden is the real ``os``."""

    def __init__(self, point):
        self.point = point
        self.fsyncs = 0

    def __getattr__(self, name):
        return getattr(os, name)

    def write(self, fd, data):
        if self.point == "before-write":
            raise Crash
        if self.point == "mid-write":
            os.write(fd, bytes(data[: len(data) // 2]))
            raise Crash
        return os.write(fd, data)

    def fsync(self, fd):
        # fsync 1 is the temp file, fsync 2 the directory after replace.
        self.fsyncs += 1
        if (self.point, self.fsyncs) in (("after-write", 1),
                                         ("after-replace", 2)):
            raise Crash
        os.fsync(fd)

    def replace(self, src, dst):
        if self.point == "after-fsync":
            raise Crash
        os.replace(src, dst)


CASES = [(name, point) for name in ATOMIC for point in ATOMIC_POINTS] + [
    (name, "torn-at-every-byte") for name in LOGS
]


@pytest.mark.parametrize("writer,point", CASES)
def test_crash_leaves_old_or_new_state(tmp_path, monkeypatch, writer, point):
    if writer in LOGS:
        _check_append_log(LOGS[writer], tmp_path)
        return
    case = ATOMIC[writer]
    reference = tmp_path / "reference"
    reference.mkdir()
    case.prepare(reference)
    case.write(reference)
    new = case.observe(reference)
    target = tmp_path / "crashed"
    target.mkdir()
    case.prepare(target)
    old = case.observe(target)
    assert old != new

    monkeypatch.setattr(durable, "os", CrashingOs(point))
    with pytest.raises(Crash):
        case.write(target)
    monkeypatch.setattr(durable, "os", os)

    replaced = point == "after-replace"
    assert bool(list(target.rglob("*.tmp"))) != replaced
    seen = case.observe(target)  # a leftover *.tmp must not break this
    assert seen == (new if replaced else old)
    if not replaced:
        case.write(target)
    assert case.observe(target) == new


def _check_append_log(case, tmp_path):
    source = tmp_path / "source"
    source.mkdir()
    path = case.build(source)
    data = path.read_bytes()
    full = case.records(source)
    assert len(full) == 2 and data.endswith(b"\n")
    work = tmp_path / "work"
    for cut in range(len(data) + 1):
        work.mkdir()
        for entry in source.iterdir():
            if entry != path:
                (work / entry.name).write_bytes(entry.read_bytes())
        (work / path.name).write_bytes(data[:cut])
        prefix = full[:data[:cut].count(b"\n")]
        assert case.records(work) == prefix, f"kill point at byte {cut}"
        case.append(work)
        assert case.records(work) == case.after(prefix), (
            f"append after kill point at byte {cut}")
        for entry in work.iterdir():
            entry.unlink()
        work.rmdir()


# ---------------------------------------------------------------------------
# every manifest and journal creation is fsynced, file and directory
# ---------------------------------------------------------------------------

def test_creates_fsync_the_file_and_its_directory(tmp_path, monkeypatch):
    synced = set()
    real_fsync = os.fsync

    def recording_fsync(fd):
        stat = os.fstat(fd)
        synced.add((stat.st_dev, stat.st_ino))
        real_fsync(fd)

    def identity(path):
        stat = os.stat(path)
        return (stat.st_dev, stat.st_ino)

    monkeypatch.setattr(os, "fsync", recording_fsync)
    store = CampaignStore.create(tmp_path / "store", SPEC, CFG, *GRID)
    assert identity(store.manifest_path) in synced  # the renamed temp
    assert identity(store.directory) in synced

    synced.clear()
    fleet = FleetStore.create(tmp_path / "fleet", [SPEC], CFG, *GRID)
    assert identity(fleet.manifest_path) in synced
    assert identity(fleet.directory) in synced

    synced.clear()
    shard = fleet.shard_for(SPEC)
    journal(shard, 1)
    assert identity(shard.journal_path) in synced
    assert identity(shard.directory) in synced


# ---------------------------------------------------------------------------
# the engine: one commit per chunk, a warm store when the session ends
# ---------------------------------------------------------------------------

#: Two cells of three campaigns: two serial chunks (one cell each).
ENGINE_GRID = (["bwaves"], [0, 4])


def _run(d, resume=False, jobs=1):
    names, cores = ENGINE_GRID
    return ParallelCampaignEngine(SPEC, CFG, jobs=jobs).run(
        [get_benchmark(name) for name in names], cores, store=d,
        resume=resume)


@pytest.fixture(scope="module")
def uninterrupted(tmp_path_factory):
    """An uninterrupted journaled run: its report and its directory."""
    d = tmp_path_factory.mktemp("uninterrupted")
    return _run(d), d


class JournalFsyncKill:
    """``repro.durable``'s ``os``, killing the run at the ``nth`` fsync
    of the journal file: its chunk's lines are written, not synced."""

    def __init__(self, journal_path, nth):
        self.journal_path = journal_path
        self.nth = nth

    def __getattr__(self, name):
        return getattr(os, name)

    def fsync(self, fd):
        if os.path.exists(self.journal_path) and (
                os.path.samestat(os.fstat(fd), os.stat(self.journal_path))):
            self.nth -= 1
            if not self.nth:
                raise Crash
        os.fsync(fd)


def _snapshot_payload(d):
    """The count snapshot, less the journal's (device, inode)."""
    payload = json.loads((d / SNAPSHOT_NAME).read_text())
    del payload["journal"]["dev"], payload["journal"]["ino"]
    return payload


def _same_as_uninterrupted(report, d, uninterrupted):
    expected, reference = uninterrupted
    assert report.results == expected.results
    assert report.raw_logs == expected.raw_logs
    # Serial chunks journal in grid order, resumed or not.
    assert (d / JOURNAL_NAME).read_bytes() == \
        (reference / JOURNAL_NAME).read_bytes()
    assert _snapshot_payload(d) == _snapshot_payload(reference)
    assert serialize_answers(CampaignStore.open(d)) == serialize_answers(
        CampaignStore.open(d, snapshot=False))


@pytest.mark.parametrize("chunk", [1, 2])
def test_kill_between_a_chunks_write_and_its_fsync(
        tmp_path, monkeypatch, uninterrupted, chunk):
    """A kill keeps the chunk's written lines; a host crash keeps any
    prefix of them, a torn line included.  Either way the resume runs
    what is missing and lands on the uninterrupted run's bytes."""
    crashed = tmp_path / "crashed"
    monkeypatch.setattr(durable, "os",
                        JournalFsyncKill(crashed / JOURNAL_NAME, chunk))
    with pytest.raises(Crash):
        _run(crashed)
    monkeypatch.setattr(durable, "os", os)
    assert not (crashed / SNAPSHOT_NAME).exists()
    data = (crashed / JOURNAL_NAME).read_bytes()
    lines = data.splitlines(keepends=True)
    assert len(lines) == 3 * chunk  # the whole chunk was written
    committed = sum(map(len, lines[:3 * (chunk - 1)]))
    boundaries = [committed + sum(map(len, lines[3 * (chunk - 1):i]))
                  for i in range(3 * (chunk - 1), 3 * chunk + 1)]
    cuts = sorted(set(boundaries) | {b + 7 for b in boundaries[:-1]})
    for cut in cuts:
        work = tmp_path / f"cut-{cut}"
        work.mkdir()
        for name in (MANIFEST_NAME, JOURNAL_NAME):
            (work / name).write_bytes((crashed / name).read_bytes())
        (work / JOURNAL_NAME).write_bytes(data[:cut])
        kept = data[:cut].count(b"\n")
        report = _run(work, resume=True)
        assert report.tasks_skipped == kept, f"cut at byte {cut}"
        _same_as_uninterrupted(report, work, uninterrupted)


@pytest.mark.parametrize("prior", ["missing", "stale"])
def test_kill_between_the_last_commit_and_the_snapshot(
        tmp_path, monkeypatch, uninterrupted, prior):
    """The journal is whole, the snapshot missing or covering only a
    prefix: a read validates what it does not cover, and a resume
    replays everything."""
    d = tmp_path / "store"
    if prior == "stale":
        _run(d)
        journal_path = d / JOURNAL_NAME
        lines = journal_path.read_bytes().splitlines(keepends=True)
        (d / SNAPSHOT_NAME).unlink()
        journal_path.write_bytes(b"".join(lines[:2]))
        CampaignStore.open(d)  # a snapshot of the first two lines
        stale = (d / SNAPSHOT_NAME).read_bytes()
        assert len(json.loads(stale)["campaigns"]) == 2
    original = CampaignStore.save_snapshot

    def killed(store):
        raise Crash

    monkeypatch.setattr(CampaignStore, "save_snapshot", killed)
    with pytest.raises(Crash):
        _run(d, resume=prior == "stale")
    monkeypatch.setattr(CampaignStore, "save_snapshot", original)
    if prior == "missing":
        assert not (d / SNAPSHOT_NAME).exists()
    else:
        assert (d / SNAPSHOT_NAME).read_bytes() == stale
    _expected, reference = uninterrupted
    assert (d / JOURNAL_NAME).read_bytes() == \
        (reference / JOURNAL_NAME).read_bytes()
    assert serialize_answers(CampaignStore.open(d)) == serialize_answers(
        CampaignStore.open(d, snapshot=False))
    report = _run(d, resume=True)
    assert report.tasks_skipped == 6
    _same_as_uninterrupted(report, d, uninterrupted)


@pytest.mark.parametrize("jobs", [1, 2])
def test_writer_snapshot_is_the_readers(tmp_path, jobs):
    """The snapshot a run leaves is the one a cold open writes once it
    is deleted, byte for byte, and the next read validates no line."""
    d = tmp_path / "store"
    _run(d, jobs=jobs)
    written = (d / SNAPSHOT_NAME).read_bytes()
    (d / SNAPSHOT_NAME).unlink()
    CampaignStore.open(d)
    assert (d / SNAPSHOT_NAME).read_bytes() == written
    registry = MetricsRegistry()
    with telemetry_session(metrics=registry):
        CampaignStore.open(d)
    assert registry.counter(M_SNAPSHOT_READS, outcome="hit",
                            reason="match").value == 1


def test_concurrent_append_leaves_no_writer_snapshot(tmp_path):
    """A line another writer appends between a store's catch-up and its
    commit is bytes that store never hashed: it saves no snapshot,
    rather than a wrong one."""
    d = tmp_path / "store"
    writer = CampaignStore.create(d, SPEC, CFG, *GRID)
    writer.append_campaign(line(1))
    other = CampaignStore.open(d)  # snapshots line 1
    before = (d / SNAPSHOT_NAME).read_bytes()
    catch_up = writer.refresh

    def raced():
        new = catch_up()
        other.append_campaign(line(2))
        return new

    writer.refresh = raced
    writer.append_campaign(line(3))
    assert not writer.save_snapshot()
    assert (d / SNAPSHOT_NAME).read_bytes() == before
    reopened = CampaignStore.open(d)
    assert [c.campaign_index for c in reopened.campaigns()] == [1, 2, 3]
    assert serialize_answers(reopened) == serialize_answers(
        CampaignStore.open(d, snapshot=False))


def test_raced_writer_reloads_in_disk_order(tmp_path):
    """After the race above, the writer's next refresh reloads the
    journal from byte 0 in on-disk order instead of meeting its own
    lines again at a stale offset; it still writes no snapshot."""
    d = tmp_path / "store"
    writer = CampaignStore.create(d, SPEC, CFG, *GRID)
    writer.append_campaign(line(1))
    other = CampaignStore.open(d)
    before = (d / SNAPSHOT_NAME).read_bytes()
    catch_up = writer.refresh

    def raced():
        new = catch_up()
        other.append_campaign(line(2))
        return new

    writer.refresh = raced
    writer.append_campaign(line(3))
    assert not writer.save_snapshot()
    assert (d / SNAPSHOT_NAME).read_bytes() == before
    reopened = CampaignStore.open(d)
    assert [c.campaign_index for c in reopened.campaigns()] == [1, 2, 3]
    saved = os.stat(d / SNAPSHOT_NAME)

    assert catch_up() == 1  # line 2 is new to the writer
    assert [c.campaign_index for c in writer.campaigns()] == [1, 2, 3]
    assert writer.campaigns() == reopened.campaigns()
    assert writer.completed_keys() == reopened.completed_keys()
    after = os.stat(d / SNAPSHOT_NAME)
    assert (after.st_ino, after.st_mtime_ns) == (saved.st_ino,
                                                 saved.st_mtime_ns)
    assert catch_up() == 0
