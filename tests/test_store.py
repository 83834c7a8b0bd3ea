"""The journaled campaign store: schema, crash-resume determinism, exports.

The acceptance scenario throughout: kill a journaled grid after *any*
prefix of its tasks, resume it, and get results -- and exported CSV
bytes -- identical to the uninterrupted run.
"""

import gzip
import json
import os
from pathlib import Path

import pytest

from repro.core import FrameworkConfig
from repro.core.campaign import CampaignResult, CharacterizationResult
from repro.core.results import ResultStore
from repro.core.runs import CharacterizationSetup, RunRecord
from repro.effects import EffectType
from repro.errors import (
    CampaignError,
    ConfigurationError,
    CorruptLogError,
    StoreError,
)
from repro.parallel import (
    MachineSpec,
    ParallelCampaignEngine,
    ProgressReporter,
    derive_task_seed,
)
from repro.store import (
    CampaignManifest,
    CampaignStore,
    JOURNAL_NAME,
    MANIFEST_NAME,
    SNAPSHOT_NAME,
    STORE_FORMAT,
    StoredCampaign,
    serialize_answers,
)
from repro.telemetry import (
    M_LOG_MESSAGES,
    M_SNAPSHOT_READS,
    MetricsRegistry,
    telemetry_session,
)
from repro.workloads import get_benchmark

#: Same watchdog-exercising grid as test_parallel: the sweep starts
#: right below bwaves Vmin and descends into the crash region, so
#: resume equivalence covers the watchdog-recovery path too.
CFG = FrameworkConfig(start_mv=905, campaigns=2, runs_per_level=3)
SPEC = MachineSpec(chip="TTT", seed=2017)
CORES = [0, 4]
TOTAL_TASKS = 1 * len(CORES) * CFG.campaigns  # bwaves x {0,4} x 2


def engine(**kwargs):
    return ParallelCampaignEngine(SPEC, CFG, **kwargs)


def run_grid(store=None, resume=False, **kwargs):
    return engine(**kwargs).run(
        [get_benchmark("bwaves")], CORES, store=store, resume=resume)


@pytest.fixture(scope="module")
def reference():
    """The uninterrupted, storeless serial run every test compares to."""
    return run_grid(jobs=1)


@pytest.fixture(scope="module")
def full_store(tmp_path_factory):
    """A completed journaled run plus its journal bytes."""
    directory = tmp_path_factory.mktemp("complete-store")
    run_grid(store=directory, jobs=1)
    return directory, (directory / JOURNAL_NAME).read_bytes()


def worker_line(campaign, raw_log, seed):
    """The line a worker would return for ``campaign`` with ``raw_log``."""
    return StoredCampaign(
        benchmark=campaign.benchmark, core=campaign.core,
        campaign_index=campaign.campaign_index, seed=seed,
        freq_mhz=campaign.freq_mhz, interventions=0, raw_log=raw_log,
        result=campaign)


def truncated_copy(full_store_dir, tmp_path, keep):
    """A store directory whose journal holds only the first ``keep`` lines,
    simulating a run killed after that many completed tasks."""
    target = tmp_path / "killed"
    target.mkdir()
    manifest = (full_store_dir / MANIFEST_NAME).read_text()
    (target / MANIFEST_NAME).write_text(manifest)
    lines = (full_store_dir / JOURNAL_NAME).read_text().splitlines(keepends=True)
    (target / JOURNAL_NAME).write_text("".join(lines[:keep]))
    return target


class TestManifest:
    def manifest(self):
        return CampaignManifest(
            spec=SPEC, config=CFG, workloads=("bwaves",), cores=tuple(CORES))

    def test_json_round_trip(self):
        manifest = self.manifest()
        data = manifest.to_json_dict()
        assert data["format"] == STORE_FORMAT
        assert data["spec_digest"] == SPEC.digest()
        assert CampaignManifest.from_json_dict(data) == manifest

    def test_unknown_format_rejected(self):
        data = self.manifest().to_json_dict()
        data["format"] = "repro-campaign/v999"
        with pytest.raises(CampaignError, match="format"):
            CampaignManifest.from_json_dict(data)

    def test_tampered_spec_digest_rejected(self):
        data = self.manifest().to_json_dict()
        data["spec_digest"] = "0" * 64
        with pytest.raises(CampaignError, match="digest"):
            CampaignManifest.from_json_dict(data)

    def test_open_digest_mismatch_names_both_digests_and_path(self, tmp_path):
        """A tampered on-disk manifest is rejected with a message naming
        the pinned digest, the recomputed digest and the offending file
        -- the debugging handles a fleet operator needs to find which
        shard was edited."""
        CampaignStore.create(tmp_path, SPEC, CFG, ["bwaves"], CORES)
        manifest_path = tmp_path / MANIFEST_NAME
        data = json.loads(manifest_path.read_text())
        data["spec_digest"] = "0" * 64
        manifest_path.write_text(json.dumps(data))
        with pytest.raises(CampaignError) as excinfo:
            CampaignStore.open(tmp_path)
        message = str(excinfo.value)
        assert "0" * 64 in message
        assert SPEC.digest() in message
        assert str(manifest_path) in message

    def test_expected_keys_in_reference_serial_order(self):
        manifest = CampaignManifest(
            spec=SPEC, config=CFG, workloads=("bwaves", "mcf"), cores=(0, 4))
        keys = manifest.expected_keys()
        assert keys[:4] == [
            ("bwaves", 0, 1), ("bwaves", 0, 2),
            ("bwaves", 4, 1), ("bwaves", 4, 2),
        ]
        assert len(keys) == 2 * 2 * CFG.campaigns

    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigurationError):
            CampaignManifest(
                spec=SPEC, config=CFG, workloads=(), cores=tuple(CORES))


class TestRunRecordCodecs:
    def record(self, **overrides):
        fields = dict(
            chip="TTT", benchmark="bwaves",
            setup=CharacterizationSetup(voltage_mv=905, freq_mhz=2400, core=4),
            campaign_index=2, run_index=3,
            effects=frozenset({EffectType.SDC, EffectType.CE}),
            exit_code=None, output_matches=None,
            edac_ce=7, edac_ue=1, watchdog_intervened=True,
            detail={"mismatched_lines": 12},
        )
        fields.update(overrides)
        return RunRecord(**fields)

    def test_csv_row_round_trip(self):
        record = self.record(detail={})
        row = {key: str(value) for key, value in record.csv_row().items()}
        assert RunRecord.from_csv_row(row) == record

    def test_malformed_csv_row_rejected(self):
        with pytest.raises(CampaignError, match="malformed"):
            RunRecord.from_csv_row({"chip": "TTT", "core": "not-an-int"})


class TestStoredCampaign:
    def stored(self, reference):
        result = reference.results[("bwaves", 0)]
        campaign = result.campaigns[0]
        return StoredCampaign(
            benchmark="bwaves", core=0,
            campaign_index=campaign.campaign_index,
            seed=derive_task_seed(SPEC.seed, "bwaves", 0, 1),
            freq_mhz=campaign.freq_mhz, interventions=3,
            raw_log=reference.raw_logs[
                ("bwaves", 0, campaign.freq_mhz, campaign.campaign_index)],
            result=campaign,
        )

    def test_json_round_trip(self, reference):
        """The line carries the raw log only; decoding parses the
        records back out of it, equal to the kernel-built ones."""
        stored = self.stored(reference)
        data = stored.to_json_dict()
        assert set(data) == {"benchmark", "campaign", "core", "freq_mhz",
                             "interventions", "raw_log", "seed"}
        decoded = StoredCampaign.from_json_dict(json.loads(json.dumps(data)))
        assert decoded == stored
        assert decoded.records == stored.records

    def test_campaign_result_reconstruction(self, reference):
        stored = self.stored(reference)
        assert stored.campaign_result() == reference.results[
            ("bwaves", 0)].campaigns[0]

    def test_campaign_result_is_built_once(self, reference):
        stored = self.stored(reference)
        assert stored.campaign_result() is stored.campaign_result()

    def test_empty_records_rejected(self, reference):
        with pytest.raises(CampaignError):
            self.stored(reference).__class__(
                benchmark="bwaves", core=0, campaign_index=1, seed=1,
                freq_mhz=2400, interventions=0, raw_log="",
                result=CampaignResult(
                    chip="TTT", benchmark="bwaves", core=0, freq_mhz=2400,
                    campaign_index=1, records=()))

    def test_lines_without_runs_or_keys_rejected(self, reference):
        data = self.stored(reference).to_json_dict()
        with pytest.raises(CampaignError, match="lacks key 'seed'"):
            StoredCampaign.from_json_dict(
                {k: v for k, v in data.items() if k != "seed"})
        with pytest.raises(CampaignError, match="at least one record"):
            StoredCampaign.from_json_dict(dict(data, raw_log=""))
        with pytest.raises(CampaignError, match="malformed"):
            StoredCampaign.from_json_dict(dict(data, raw_log=None))


def legacy_line(stored):
    """A journal line in the shape written before run records left the
    journal: the same keys plus a ``records`` list."""
    data = stored.to_json_dict()
    data["records"] = [
        {
            "chip": r.chip, "benchmark": r.benchmark,
            "core": r.setup.core, "voltage_mv": r.setup.voltage_mv,
            "freq_mhz": r.setup.freq_mhz, "campaign": r.campaign_index,
            "run": r.run_index,
            "effects": sorted(e.value for e in r.effects),
            "exit_code": r.exit_code, "output_matches": r.output_matches,
            "edac_ce": r.edac_ce, "edac_ue": r.edac_ue,
            "watchdog": r.watchdog_intervened, "detail": dict(r.detail),
        }
        for r in stored.records
    ]
    return json.dumps(data, sort_keys=True)


class TestRawLogJournal:
    """Journal lines hold the raw log; the records are parsed on open."""

    def test_appended_records_equal_the_reopened_parse(self, tmp_path):
        """The kernel's in-memory records (kept by the append path) equal
        what a fresh open parses back out of the journaled raw logs, on
        a grid whose logs hold every block shape."""
        config = FrameworkConfig(start_mv=910, campaigns=2, runs_per_level=4)
        names = ["bwaves", "mcf", "namd"]
        store = CampaignStore.create(tmp_path, SPEC, config, names, CORES)
        ParallelCampaignEngine(SPEC, config).run(
            [get_benchmark(name) for name in names], CORES, store=store)
        appended = store.campaigns()
        reopened = CampaignStore.open(tmp_path).campaigns()
        assert len(appended) == len(names) * len(CORES) * config.campaigns
        assert [c.key for c in reopened] == [c.key for c in appended]
        for kernel, parsed in zip(appended, reopened):
            assert parsed == kernel
            assert parsed.records == kernel.records
            assert [r.detail for r in parsed.records] == [
                r.detail for r in kernel.records]
        records = [r for c in appended for r in c.records]
        effects = set().union(*(r.effects for r in records))
        assert {EffectType.SC, EffectType.AC, EffectType.SDC,
                EffectType.CE, EffectType.UE} <= effects
        assert any(len(r.detail) > 1 for r in records)

    def test_corrupt_raw_log_mid_journal_names_file_and_line(
            self, full_store, tmp_path):
        target = truncated_copy(full_store[0], tmp_path, keep=TOTAL_TASKS)
        journal = target / JOURNAL_NAME
        lines = journal.read_text().splitlines()
        data = json.loads(lines[1])
        data["raw_log"] = data["raw_log"].replace("status=", "state=", 1)
        lines[1] = json.dumps(data, sort_keys=True)
        journal.write_text("\n".join(lines) + "\n")
        with pytest.raises(StoreError) as excinfo:
            CampaignStore.open(target)
        message = str(excinfo.value)
        assert "line 2" in message and str(journal) in message
        assert "missing status line" in message

    def test_line_lacking_a_key_names_file_and_line(self, full_store, tmp_path):
        target = truncated_copy(full_store[0], tmp_path, keep=TOTAL_TASKS)
        journal = target / JOURNAL_NAME
        lines = journal.read_text().splitlines()
        data = json.loads(lines[2])
        del data["raw_log"]
        lines[2] = json.dumps(data, sort_keys=True)
        journal.write_text("\n".join(lines) + "\n")
        with pytest.raises(StoreError, match="line 3 in .*lacks key 'raw_log'"):
            CampaignStore.open(target)

    def test_legacy_lines_with_records_open_identically(
            self, full_store, tmp_path):
        full_dir = full_store[0]
        target = truncated_copy(full_dir, tmp_path, keep=0)
        current = CampaignStore.open(full_dir).campaigns()
        (target / JOURNAL_NAME).write_text(
            "".join(legacy_line(c) + "\n" for c in current))
        legacy = CampaignStore.open(target)
        assert legacy.campaigns() == current
        assert [c.records for c in legacy.campaigns()] == [
            c.records for c in current]
        assert legacy.answers() == CampaignStore.open(full_dir).answers()

    def test_legacy_fleet_answers_query_json_bytes(self, tmp_path, capsys):
        from repro.cli import main
        from repro.parallel import run_fleet
        from repro.store import FleetStore

        specs = [SPEC, MachineSpec(chip="TFF", seed=2018)]
        FleetStore.create(tmp_path, specs, CFG, ["bwaves"], CORES)
        run_fleet(tmp_path)
        query = ["fleet", "query", str(tmp_path), "--json"]
        assert main(query) == 0
        before = capsys.readouterr().out
        for _entry, store in FleetStore.open(tmp_path).shards():
            store.journal_path.write_text("".join(
                legacy_line(c) + "\n" for c in store.campaigns()))
        assert main(query) == 0
        assert capsys.readouterr().out == before
        assert main(query + ["--reparse"]) == 0
        assert capsys.readouterr().out == before
        assert before.count("# shard ") == 2

    def test_legacy_records_key_is_never_read(self, full_store, tmp_path):
        """A pre-existing ``records`` list is ignored, even a wrong one:
        the raw log is the only source of the runs."""
        full_dir, _ = full_store
        target = truncated_copy(full_dir, tmp_path, keep=0)
        first = CampaignStore.open(full_dir).campaigns()[0]
        data = json.loads(legacy_line(first))
        data["records"] = [{"effects": ["NOT-AN-EFFECT"]}]
        (target / JOURNAL_NAME).write_text(json.dumps(data) + "\n")
        assert CampaignStore.open(target).campaigns() == [first]


@pytest.fixture(scope="module")
def every_shape_store(tmp_path_factory):
    """A journaled grid deep into the crash region: its logs hold every
    block shape (SC/AC/SDC/CE/UE runs, multi-location EDAC lines)."""
    directory = tmp_path_factory.mktemp("every-shape")
    config = FrameworkConfig(start_mv=910, campaigns=2, runs_per_level=4)
    names = ["bwaves", "mcf", "namd"]
    store = CampaignStore.create(directory, SPEC, config, names, CORES)
    ParallelCampaignEngine(SPEC, config).run(
        [get_benchmark(name) for name in names], CORES, store=store)
    return directory, store.campaigns()


def corrupt_line_two(full_store_dir, tmp_path):
    """A store copy whose second journal line holds a raw log without
    its first status line."""
    target = truncated_copy(full_store_dir, tmp_path, keep=TOTAL_TASKS)
    journal = target / JOURNAL_NAME
    lines = journal.read_text().splitlines()
    data = json.loads(lines[1])
    data["raw_log"] = data["raw_log"].replace("status=", "state=", 1)
    lines[1] = json.dumps(data, sort_keys=True)
    journal.write_text("\n".join(lines) + "\n")
    return target


class TestValidatingOpen:
    """Open validates every raw log and counts its runs per voltage;
    the records are parsed only when asked for."""

    def test_open_counts_equal_the_parsed_index(
            self, every_shape_store, monkeypatch):
        from repro.core.campaign import _index_records
        from repro.core.parser import parse_records
        from repro.store import records

        directory, appended = every_shape_store

        def forbidden(*args):
            raise AssertionError("records parsed at open")

        monkeypatch.setattr(records, "parse_records", forbidden)
        reopened = CampaignStore.open(directory).campaigns()
        assert len(reopened) == len(appended)
        effects = set()
        for stored in reopened:
            index = _index_records(parse_records(stored.raw_log))
            result = stored.campaign_result()
            assert result.counts_by_voltage() == index.counts
            assert result.run_counts_by_voltage() == index.run_counts
            assert list(result.counts_by_voltage()) == list(index.counts)
            effects |= {e for slot in index.counts.values()
                        for e, n in slot.items() if n}
        assert {EffectType.SC, EffectType.AC, EffectType.SDC,
                EffectType.CE, EffectType.UE} <= effects

    def test_records_materialize_on_demand(self, every_shape_store):
        directory, appended = every_shape_store
        reopened = CampaignStore.open(directory)
        for kernel, parsed in zip(appended, reopened.campaigns()):
            result = parsed.campaign_result()
            for voltage in result.voltages():
                assert result.runs_at(voltage) == kernel.campaign_result(
                    ).runs_at(voltage)
            assert parsed.records is result.records  # parsed once
            assert parsed.records == kernel.records
            assert [r.detail for r in parsed.records] == [
                r.detail for r in kernel.records]
        assert any(len(r.detail) > 1
                   for c in reopened.campaigns() for r in c.records)
        assert reopened.results() == CampaignStore.open(directory).results()

    def test_pickled_campaign_carries_its_records(self, every_shape_store):
        import pickle

        directory, appended = every_shape_store
        result = CampaignStore.open(directory).campaigns()[0].campaign_result()
        restored = pickle.loads(pickle.dumps(result))
        assert restored == appended[0].campaign_result()
        assert restored.counts_by_voltage() == result.counts_by_voltage()

    def test_each_open_parses_independently(self, full_store):
        first = CampaignStore.open(full_store[0])
        second = CampaignStore.open(full_store[0])
        assert first._memo is not second._memo
        assert first.campaigns() == second.campaigns()

    @pytest.mark.parametrize("argv", [
        ["fleet", "status", "{store}"],
        ["dash", "{store}", "--once"],
        ["fleet", "query", "{store}", "--benchmark", "bwaves", "--core", "0"],
    ], ids=["fleet status", "dash", "fleet query"])
    def test_read_verbs_name_a_corrupt_line(
            self, argv, full_store, tmp_path, capsys):
        from repro.cli import main

        target = corrupt_line_two(full_store[0], tmp_path)
        assert main([arg.format(store=target) for arg in argv]) == 2
        err = capsys.readouterr().err
        assert "line 2" in err and str(target / JOURNAL_NAME) in err
        assert "missing status line" in err


@pytest.fixture(scope="module")
def trainable_store(tmp_path_factory):
    """A complete store with three cells on core 0, enough to train."""
    from repro.cli import main

    directory = tmp_path_factory.mktemp("trainable") / "store"
    assert main(["grid", "TTT", "--benchmarks", "bwaves,mcf,namd",
                 "--cores", "0,4", "--campaigns", "2", "--runs-per-level",
                 "3", "--start-mv", "910", "--store", str(directory)]) == 0
    return directory


def counting_decodes(monkeypatch):
    """Count every journal read-back, by journal and line."""
    from collections import Counter

    from repro.store.records import JournalText

    decodes = Counter()
    read = JournalText._read

    def counting(self):
        decodes[(self.where.path, self.where.line)] += 1
        return read(self)

    monkeypatch.setattr(JournalText, "_read", counting)
    return decodes


class TestJournalText:
    """A journaled line keeps its raw log as a byte span of the journal
    and reads it back at most once."""

    @pytest.mark.parametrize("argv", [
        ["fleet", "query", "{store}", "--json"],
        ["dash", "{store}", "--once"],
        ["train", "{store}", "--core", "0"],
        ["fleet", "run", "{store}"],
    ], ids=["fleet query --json", "dash", "train", "fleet run"])
    @pytest.mark.parametrize("warm", [True, False], ids=["warm", "cold"])
    def test_a_command_decodes_each_line_at_most_once(
            self, argv, warm, trainable_store, tmp_path, monkeypatch,
            capsys):
        from repro.cli import main

        target = tmp_path / "store"
        target.mkdir()
        for name in (MANIFEST_NAME, JOURNAL_NAME):
            (target / name).write_bytes((trainable_store / name).read_bytes())
        if warm:
            CampaignStore.open(target)  # writes the count snapshot
        decodes = counting_decodes(monkeypatch)
        assert main([arg.format(store=target) for arg in argv]) == 0
        assert max(decodes.values(), default=0) <= 1
        if argv[1] == "run":
            # Replaying a complete store reads no log back.
            assert not decodes

    def test_records_and_text_share_one_decode(self, full_store,
                                               monkeypatch):
        store = CampaignStore.open(full_store[0])
        decodes = counting_decodes(monkeypatch)
        lines = store.campaigns()
        assert lines[0].records and lines[0].raw_log
        assert store.raw_logs()
        assert [line.records for line in lines]
        assert sorted(decodes.values()) == [1] * len(lines)

    def test_append_keeps_spans_not_text(self, reference, tmp_path,
                                         monkeypatch):
        """The store returns appended lines that read their text back
        from the journal, equal to the lines a read builds."""
        store = CampaignStore.create(tmp_path, SPEC, CFG, ["bwaves"], CORES)
        campaign = reference.results[("bwaves", 0)].campaigns[0]
        text = reference.raw_logs[("bwaves", 0, campaign.freq_mhz, 1)]
        (kept,) = store.append_campaign(worker_line(campaign, text, seed=1))
        assert not isinstance(kept.__dict__["_raw_log"], str)
        decodes = counting_decodes(monkeypatch)
        assert kept.raw_log == text
        assert kept.records == campaign.records
        assert decodes == {(tmp_path / JOURNAL_NAME, 1): 1}
        assert kept == CampaignStore.open(tmp_path).campaigns()[0]


class TestWarmIndexBuild:
    """One aggregate per journal line, one journal walk per core."""

    def test_campaign_aggregates_are_built_once(self, full_store, monkeypatch):
        """Each line is counted once, by the validating parse at open
        (none at all by an open the count snapshot covers); the indexes
        and results reuse those counts, and neither aggregate nor parse
        a single run record."""
        from repro.core import campaign
        from repro.store import records

        counted = []
        count = records.count_log

        def counting(text, memo):
            counted.append(text)
            return count(text, memo)

        def forbidden(*args):
            raise AssertionError("run records built on the read path")

        monkeypatch.setattr(records, "count_log", counting)
        monkeypatch.setattr(records, "parse_records", forbidden)
        monkeypatch.setattr(campaign, "_index_records", forbidden)
        store = CampaignStore.open(full_store[0], snapshot=False)
        assert len(counted) == TOTAL_TASKS
        store.results()
        assert len(counted) == TOTAL_TASKS
        cold = serialize_answers(store)
        warm = CampaignStore.open(full_store[0])
        assert serialize_answers(warm) == cold
        assert len(counted) == TOTAL_TASKS

    def test_completed_cell_walks_only_its_core(self, full_store, monkeypatch):
        """Each serialization walks every core's journal once and keeps
        nothing: the next one walks again."""
        from repro.prediction import dataset

        walked = []
        walk = dataset.iter_journal_datasets

        def counting(store, core, **kwargs):
            walked.append(core)
            return walk(store, core, **kwargs)

        monkeypatch.setattr(dataset, "iter_journal_datasets", counting)
        store = CampaignStore.open(full_store[0])
        first = serialize_answers(store)
        assert walked == CORES  # one walk per core
        assert serialize_answers(store) == first
        assert walked == CORES * 2  # no cursor survives a call
        monkeypatch.undo()
        assert serialize_answers(
            CampaignStore.open(full_store[0], snapshot=False)) == first

    def test_each_program_profiled_once_per_call(self, full_store,
                                                 monkeypatch):
        """The per-core walks of one serialization share its program
        profiles: one machine build per program, not per core."""
        store = CampaignStore.open(full_store[0])
        first = serialize_answers(store)
        built = []
        build = MachineSpec.build

        def counting(spec, *args, **kwargs):
            built.append(spec.seed)
            return build(spec, *args, **kwargs)

        monkeypatch.setattr(MachineSpec, "build", counting)
        assert serialize_answers(store) == first
        assert len(built) == len(store.manifest.workloads) < len(
            store.manifest.workloads) * len(CORES)


class TestQueryBytes:
    """``fleet query --json`` bytes pinned across commits.

    The fixture holds ``FleetStore.indexes(target).serialize()`` for
    both feature targets, captured from the grid below; warm ≡ re-parse
    tests compare two answers of one build, this one compares with the
    bytes an earlier build wrote.
    """

    FIXTURE = Path(__file__).parent / "fixtures" / "query-bytes-v1.json.gz"
    CONFIG = FrameworkConfig(start_mv=930, campaigns=2, runs_per_level=3)

    @pytest.fixture(scope="class")
    def store_dir(self, tmp_path_factory):
        directory = tmp_path_factory.mktemp("query-bytes")
        ParallelCampaignEngine(SPEC, self.CONFIG).run(
            [get_benchmark("mcf"), get_benchmark("bwaves")], CORES,
            store=directory)
        return directory

    @pytest.mark.parametrize("target", ["vmin", "severity"])
    def test_query_bytes_match_the_fixture(self, store_dir, target):
        from repro.store import FleetStore

        expected = json.loads(gzip.decompress(self.FIXTURE.read_bytes()))
        indexes = FleetStore.open(store_dir).indexes(target)
        assert indexes.serialize() == expected[target]
        assert indexes.serialize_reparse() == expected[target]


class TestJournalRefresh:
    """``CampaignStore.refresh`` advances a cached store by byte offset."""

    def lines(self, full_store):
        full_dir, _ = full_store
        return (full_dir / JOURNAL_NAME).read_text().splitlines(keepends=True)

    def test_appends_by_another_object_fold_in(self, full_store, tmp_path):
        target = truncated_copy(full_store[0], tmp_path, keep=1)
        cached = CampaignStore.open(target)
        before = cached.completed_keys()
        other = CampaignStore.open(target)
        appended = CampaignStore.open(full_store[0]).campaigns()[1:3]
        for stored in appended:
            other.append_campaign(stored)
        assert cached.refresh() == 2
        assert cached.refresh() == 0
        assert cached.campaigns() == CampaignStore.open(target).campaigns()
        assert cached.completed_keys() - before == {c.key for c in appended}
        assert [c.key for c in cached.campaigns()[1:]] == [
            c.key for c in appended]

    def test_refresh_reads_only_bytes_past_the_end(self, full_store, tmp_path):
        """Garbage written over an already-read line stays unread: the
        refresh seeks to the known end instead of re-decoding."""
        lines = self.lines(full_store)
        target = truncated_copy(full_store[0], tmp_path, keep=2)
        cached = CampaignStore.open(target)
        journal = target / JOURNAL_NAME
        data = bytearray(journal.read_bytes())
        data[0:1] = b"#"  # same size, same inode
        with journal.open("r+b") as handle:
            handle.write(bytes(data))
        with journal.open("a") as handle:
            handle.write(lines[2])
        assert cached.refresh() == 1
        assert len(cached.completed_keys()) == 3
        with pytest.raises(CorruptLogError, match="journal line 1"):
            CampaignStore.open(target)

    def test_continuation_errors_name_absolute_lines(self, full_store,
                                                     tmp_path):
        lines = self.lines(full_store)
        target = truncated_copy(full_store[0], tmp_path, keep=2)
        cached = CampaignStore.open(target)
        with (target / JOURNAL_NAME).open("a") as handle:
            handle.write("{corrupt}\n" + lines[2])
        with pytest.raises(CorruptLogError, match="corrupt journal line 3"):
            cached.refresh()

    def test_rejected_refresh_leaves_the_store_unchanged(self, full_store,
                                                         tmp_path):
        lines = self.lines(full_store)
        target = truncated_copy(full_store[0], tmp_path, keep=2)
        cached = CampaignStore.open(target)
        before = cached.campaigns()
        with (target / JOURNAL_NAME).open("a") as handle:
            handle.write(lines[2] + lines[1])
        with pytest.raises(CampaignError, match="line 4 duplicates"):
            cached.refresh()
        assert cached.campaigns() == before

    def test_replaced_or_shrunk_journal_reloads(self, full_store, tmp_path):
        lines = self.lines(full_store)
        target = truncated_copy(full_store[0], tmp_path, keep=TOTAL_TASKS)
        cached = CampaignStore.open(target)
        journal = target / JOURNAL_NAME
        replacement = target / "journal.new"
        replacement.write_text("".join(reversed(lines)))
        replacement.replace(journal)  # a new inode, same bytes reordered
        assert cached.refresh() == 0
        assert cached.campaigns() == CampaignStore.open(target).campaigns()
        assert [c.key for c in cached.campaigns()][0] == lines_key(lines[-1])
        journal.write_text("".join(lines[:1]))  # shrunk in place
        assert cached.refresh() == 0
        assert cached.campaigns() == CampaignStore.open(target).campaigns()

    def test_failed_reload_is_retried_from_the_top(self, full_store,
                                                   tmp_path):
        """A reload that hits a corrupt line commits nothing, so once
        the file is mended the next refresh reloads it again."""
        lines = self.lines(full_store)
        target = truncated_copy(full_store[0], tmp_path, keep=TOTAL_TASKS)
        cached = CampaignStore.open(target)
        journal = target / JOURNAL_NAME
        replacement = target / "journal.new"
        replacement.write_text(lines[0] + "{corrupt}\n" + "".join(lines[1:]))
        replacement.replace(journal)
        with pytest.raises(CorruptLogError, match="journal line 2"):
            cached.refresh()
        journal.write_text("".join(reversed(lines)))  # mended in place
        cached.refresh()
        assert cached.campaigns() == CampaignStore.open(target).campaigns()


def snapshot_reads(action):
    """``action()`` and the count-snapshot outcomes it booked:
    ``{(outcome, reason): count}``."""
    registry = MetricsRegistry()
    with telemetry_session(metrics=registry):
        result = action()
    reads = {}
    for metric in registry.snapshot()["metrics"]:
        if metric["name"] == M_SNAPSHOT_READS:
            for sample in metric["samples"]:
                labels = sample["labels"]
                reads[(labels["outcome"], labels["reason"])] = sample["value"]
    return result, reads


class TestCountSnapshot:
    """The count snapshot beside a journal is a cache: every read
    answers as a full validating parse does, hit, miss or tail."""

    @pytest.fixture
    def store_dir(self, full_store, tmp_path):
        """A complete store whose journal no read has covered yet."""
        return truncated_copy(full_store[0], tmp_path, keep=TOTAL_TASKS)

    @staticmethod
    def cold(directory):
        return CampaignStore.open(directory, snapshot=False).campaigns()

    @staticmethod
    def covered(directory):
        return json.loads((directory / SNAPSHOT_NAME).read_text())["journal"]

    def test_first_read_writes_it_and_the_next_hits(self, store_dir):
        store, reads = snapshot_reads(lambda: CampaignStore.open(store_dir))
        assert reads == {("miss", "absent"): 1}
        assert self.covered(store_dir)["end"] == (
            store_dir / JOURNAL_NAME).stat().st_size
        warm, reads = snapshot_reads(lambda: CampaignStore.open(store_dir))
        assert reads == {("hit", "match"): 1}
        assert warm.campaigns() == store.campaigns() == self.cold(store_dir)
        assert [c.records for c in warm.campaigns()] == [
            c.records for c in self.cold(store_dir)]
        assert warm.raw_logs() == store.raw_logs()

    def test_covered_lines_keep_their_journal_line_numbers(self, store_dir):
        """A line taken from the snapshot reads its raw log back from
        the same bytes, and names the same journal line, as a validating
        read of it, blank lines included."""
        journal = store_dir / JOURNAL_NAME
        lines = journal.read_bytes().splitlines(keepends=True)
        journal.write_bytes(b"\n" + b"".join(
            line + (b"  \n" if index % 3 == 0 else b"")
            for index, line in enumerate(lines)))
        CampaignStore.open(store_dir)
        warm, reads = snapshot_reads(lambda: CampaignStore.open(store_dir))
        assert reads == {("hit", "match"): 1}
        spans = [c.__dict__["_raw_log"].where for c in warm.campaigns()]
        assert spans == [c.__dict__["_raw_log"].where
                         for c in CampaignStore.open(
                             store_dir, snapshot=False).campaigns()]
        assert [where.line for where in spans] == [2, 4, 5, 6]

    def test_deleting_it_changes_no_output(self, store_dir, tmp_path,
                                           capsys):
        from repro.cli import main

        report = tmp_path / "report.md"
        verbs = (
            ["fleet", "status", str(store_dir)],
            ["fleet", "query", str(store_dir), "--json"],
            ["fleet", "query", str(store_dir), "--json", "--reparse"],
            ["fleet", "query", str(store_dir)],
            ["fleet", "query", str(store_dir), "--benchmark", "bwaves",
             "--core", "4"],
            ["dash", str(store_dir), "--once"],
            ["status", str(store_dir)],
            ["report", "--store", str(store_dir), "--out", str(report)],
        )

        def outputs(fresh):
            seen = []
            for argv in verbs:
                if fresh:
                    (store_dir / SNAPSHOT_NAME).unlink(missing_ok=True)
                assert main(argv) == 0, argv
                seen.append(capsys.readouterr().out)
            return seen + [report.read_bytes()]

        without = outputs(fresh=True)
        assert (store_dir / SNAPSHOT_NAME).exists()
        with_snapshot, reads = snapshot_reads(lambda: outputs(fresh=False))
        assert with_snapshot == without
        assert without[1] == without[2]  # --json == --json --reparse
        assert set(reads) == {("hit", "match")}

    def test_reparse_never_reads_it(self, store_dir, capsys):
        """A snapshot whose answers were tampered with (its key still
        matching) shows in the warm answers but never in ``--reparse``:
        the re-parse stays an independent check."""
        from repro.cli import main

        CampaignStore.open(store_dir)
        payload = json.loads((store_dir / SNAPSHOT_NAME).read_text())
        for cell in payload["cells"]:
            cell["vmin_mv"] += 5
        (store_dir / SNAPSHOT_NAME).write_text(json.dumps(payload))
        argv = ["fleet", "query", str(store_dir), "--json"]
        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert main(argv + ["--reparse"]) == 0
        assert capsys.readouterr().out != warm
        (store_dir / SNAPSHOT_NAME).unlink()
        assert main(argv) == 0
        assert capsys.readouterr().out != warm

    def test_flipped_byte_in_covered_prefix_raises_the_same_error(
            self, store_dir):
        CampaignStore.open(store_dir)
        journal = store_dir / JOURNAL_NAME
        lines = journal.read_text().splitlines()
        data = json.loads(lines[1])
        data["raw_log"] = data["raw_log"].replace("status=", "statux=", 1)
        lines[1] = json.dumps(data, sort_keys=True)
        journal.write_text("\n".join(lines) + "\n")  # same size and inode
        assert journal.stat().st_size == self.covered(store_dir)["end"]
        with pytest.raises(StoreError) as cold:
            CampaignStore.open(store_dir, snapshot=False)
        registry = MetricsRegistry()
        with telemetry_session(metrics=registry), \
                pytest.raises(StoreError) as warm:
            CampaignStore.open(store_dir)
        assert registry.counter(M_SNAPSHOT_READS, outcome="miss",
                                reason="hash").value == 1
        assert str(warm.value) == str(cold.value)
        message = str(warm.value)
        assert "line 2" in message and str(journal) in message
        assert "missing status line" in message

    def test_garbage_snapshot_takes_the_full_parse(self, store_dir):
        (store_dir / SNAPSHOT_NAME).write_text('{"format": "repro-coun')
        store, reads = snapshot_reads(lambda: CampaignStore.open(store_dir))
        assert reads == {("miss", "unreadable"): 1}
        assert store.campaigns() == self.cold(store_dir)
        _, reads = snapshot_reads(lambda: CampaignStore.open(store_dir))
        assert reads == {("hit", "match"): 1}  # rewritten by the miss

    def test_replaced_journal_takes_the_full_parse(self, store_dir):
        """Compaction (or any rewrite) gives the journal a new inode."""
        from repro.store import FleetStore

        CampaignStore.open(store_dir)
        before = serialize_answers(CampaignStore.open(store_dir))
        journal = store_dir / JOURNAL_NAME
        lines = journal.read_text().splitlines(keepends=True)
        (store_dir / "reversed").write_text("".join(reversed(lines)))
        os.replace(store_dir / "reversed", journal)
        store, reads = snapshot_reads(lambda: CampaignStore.open(store_dir))
        assert reads == {("miss", "inode"): 1}
        assert store.campaigns() == self.cold(store_dir)
        assert serialize_answers(store) == before
        fleet = FleetStore.open(store_dir)
        _, reads = snapshot_reads(fleet.compact)
        assert reads == {("miss", "inode"): 1}  # the compacted reload
        assert serialize_answers(CampaignStore.open(store_dir)) == before

    def test_truncated_journal_takes_the_full_parse(self, store_dir):
        CampaignStore.open(store_dir)
        journal = store_dir / JOURNAL_NAME
        lines = journal.read_text().splitlines(keepends=True)
        journal.write_text("".join(lines[:2]))
        store, reads = snapshot_reads(lambda: CampaignStore.open(store_dir))
        assert reads == {("miss", "short"): 1}
        assert store.campaigns() == self.cold(store_dir)
        assert len(store.campaigns()) == 2

    def test_appended_journal_validates_only_the_tail(self, store_dir,
                                                      monkeypatch):
        from repro.store import records

        journal = store_dir / JOURNAL_NAME
        lines = journal.read_text().splitlines(keepends=True)
        journal.write_text(lines[0])
        CampaignStore.open(store_dir)
        with journal.open("a") as handle:
            handle.write("".join(lines[1:]))
            handle.write(lines[0][:40])  # a torn append after them
        counted = []
        count = records.count_log
        monkeypatch.setattr(records, "count_log",
                            lambda text, memo: counted.append(text)
                            or count(text, memo))
        store, reads = snapshot_reads(lambda: CampaignStore.open(store_dir))
        assert reads == {("hit", "match"): 1}
        assert len(counted) == TOTAL_TASKS - 1
        assert store.campaigns() == self.cold(store_dir)
        assert self.covered(store_dir)["end"] == len(
            "".join(lines).encode("utf-8"))
        assert self.covered(store_dir)["lines"] == TOTAL_TASKS

    def test_append_racing_the_write_is_not_covered(self, store_dir,
                                                    monkeypatch):
        """The snapshot covers the bytes the open validated, not what the
        journal holds by the time it is written."""
        from repro.store import snapshot

        journal = store_dir / JOURNAL_NAME
        lines = journal.read_text().splitlines(keepends=True)
        journal.write_text("".join(lines[:2]))
        save = snapshot.save

        def racing(*args):
            with journal.open("a") as handle:
                handle.write(lines[2])
            save(*args)

        monkeypatch.setattr(snapshot, "save", racing)
        assert len(CampaignStore.open(store_dir).campaigns()) == 2
        monkeypatch.undo()
        covered = self.covered(store_dir)
        assert covered["end"] == len("".join(lines[:2]).encode("utf-8"))
        store, reads = snapshot_reads(lambda: CampaignStore.open(store_dir))
        assert reads == {("hit", "match"): 1}
        assert store.campaigns() == self.cold(store_dir)
        assert len(store.campaigns()) == 3

    def test_unaggregatable_cell_raises_and_stays_out_of_it(
            self, store_dir, capsys):
        """A complete cell whose campaigns disagree on frequency has no
        answer: every query of it raises, from a snapshot-served store
        as from a validating one, and the snapshot keeps the other
        cells only."""
        from repro.cli import main

        journal = store_dir / JOURNAL_NAME
        lines = journal.read_text().splitlines(keepends=True)
        data = json.loads(lines[0])
        data["freq_mhz"] = 1200
        lines[0] = json.dumps(data, sort_keys=True) + "\n"
        journal.write_text("".join(lines))
        broken = (data["benchmark"], data["core"])
        CampaignStore.open(store_dir)
        cells = json.loads((store_dir / SNAPSHOT_NAME).read_text())["cells"]
        assert [(c["benchmark"], c["core"]) for c in cells] == [
            ("bwaves", core) for core in CORES if core != broken[1]]
        for store in (CampaignStore.open(store_dir),
                      CampaignStore.open(store_dir, snapshot=False)):
            # Twice: a failed cell keeps no answer, so it raises again.
            for query in (store.answers, store.answers,
                          lambda: serialize_answers(store),
                          lambda: serialize_answers(store, "severity")):
                with pytest.raises(CampaignError, match="must share"):
                    query()
        for argv in (["fleet", "query", str(store_dir)],
                     ["fleet", "query", str(store_dir), "--json"],
                     ["fleet", "query", str(store_dir), "--json",
                      "--reparse"]):
            assert main(argv) == 2
            assert "must share" in capsys.readouterr().err

    def test_failed_write_does_not_fail_the_read(self, store_dir,
                                                 monkeypatch):
        """A read-only directory (or a full disk) leaves no snapshot and
        costs the read nothing but the time."""
        from repro.store import snapshot

        def refused(path, data):
            raise PermissionError(13, "Permission denied", str(path))

        monkeypatch.setattr(snapshot, "atomic_write", refused)
        registry = MetricsRegistry()
        with telemetry_session(metrics=registry):
            store = CampaignStore.open(store_dir)
        assert store.campaigns() == self.cold(store_dir)
        assert not (store_dir / SNAPSHOT_NAME).exists()
        assert registry.counter(M_LOG_MESSAGES, level="warning").value == 1


def lines_key(line):
    data = json.loads(line)
    return (data["benchmark"], data["core"], data["campaign"])


class TestJournalIntegrity:
    def test_create_twice_rejected(self, tmp_path):
        CampaignStore.create(tmp_path, SPEC, CFG, ["bwaves"], CORES)
        with pytest.raises(CampaignError, match="already exists"):
            CampaignStore.create(tmp_path, SPEC, CFG, ["bwaves"], CORES)

    def test_open_missing_rejected(self, tmp_path):
        with pytest.raises(CampaignError, match="no campaign store"):
            CampaignStore.open(tmp_path / "nowhere")

    def test_corrupt_manifest_rejected(self, tmp_path):
        (tmp_path / MANIFEST_NAME).write_text("{not json")
        with pytest.raises(CampaignError, match="corrupt"):
            CampaignStore.open(tmp_path)

    def test_torn_trailing_line_tolerated(self, full_store, tmp_path):
        full_dir, _ = full_store
        target = truncated_copy(full_dir, tmp_path, keep=2)
        full_line = (full_dir / JOURNAL_NAME).read_text().splitlines()[2]
        with (target / JOURNAL_NAME).open("a") as handle:
            handle.write(full_line[: len(full_line) // 2])  # torn append
        store = CampaignStore.open(target)
        assert len(store.completed_keys()) == 2

    def test_parseable_unterminated_tail_treated_as_torn(
            self, full_store, tmp_path):
        """A complete JSON line without its newline is still an
        interrupted append: it is dropped, not merged into."""
        full_dir, _ = full_store
        target = truncated_copy(full_dir, tmp_path, keep=2)
        journal = target / JOURNAL_NAME
        journal.write_text(journal.read_text()[:-1])  # strip final newline
        store = CampaignStore.open(target)
        assert len(store.completed_keys()) == 1

    def test_mid_file_corruption_rejected(self, full_store, tmp_path):
        full_dir, _ = full_store
        target = truncated_copy(full_dir, tmp_path, keep=TOTAL_TASKS)
        lines = (target / JOURNAL_NAME).read_text().splitlines(keepends=True)
        lines[1] = "{torn mid-file line}\n"
        (target / JOURNAL_NAME).write_text("".join(lines))
        with pytest.raises(CorruptLogError, match="corrupt journal line 2"):
            CampaignStore.open(target)

    def test_duplicate_append_rejected(self, reference, tmp_path):
        store = CampaignStore.create(tmp_path, SPEC, CFG, ["bwaves"], CORES)
        campaign = reference.results[("bwaves", 0)].campaigns[0]
        line = worker_line(campaign, "log\n", seed=1)
        store.append_campaign(line)
        with pytest.raises(CampaignError, match="already journaled"):
            store.append_campaign(line)

    def test_out_of_grid_append_rejected(self, reference, tmp_path):
        store = CampaignStore.create(tmp_path, SPEC, CFG, ["bwaves"], [0])
        stray = reference.results[("bwaves", 4)].campaigns[0]
        with pytest.raises(CampaignError, match="not part of this store"):
            store.append_campaign(worker_line(stray, "log\n", seed=1))

    def test_validate_run_rejects_different_seed_material(self, full_store):
        store = CampaignStore.open(full_store[0])
        with pytest.raises(CampaignError, match="spec"):
            store.validate_run(
                MachineSpec(chip="TTT", seed=1), CFG, ["bwaves"], CORES)

    def test_validate_run_rejects_different_grid(self, full_store):
        store = CampaignStore.open(full_store[0])
        with pytest.raises(CampaignError, match="core grid"):
            store.validate_run(SPEC, CFG, ["bwaves"], [0])


class TestResumeDeterminism:
    """Acceptance: kill after any prefix, resume, get identical bytes."""

    @pytest.mark.parametrize("kill_point", range(TOTAL_TASKS))
    def test_resume_bit_identical_after_any_kill_point(
            self, reference, full_store, tmp_path, kill_point):
        full_dir, baseline = full_store
        target = truncated_copy(full_dir, tmp_path, keep=kill_point)
        report = run_grid(store=target, resume=True, jobs=1)
        assert report.tasks_skipped == kill_point
        assert report.tasks_run == TOTAL_TASKS - kill_point
        assert report.results == reference.results
        assert report.raw_logs == reference.raw_logs
        assert report.interventions == reference.interventions > 0
        assert (target / JOURNAL_NAME).read_bytes() == baseline

    def test_torn_tail_then_resume_then_reopen(
            self, reference, full_store, tmp_path):
        """The reviewer scenario: crash mid-append leaves a torn tail,
        resume appends the remaining tasks, and the store must still
        open cleanly afterwards (no merged corrupt line)."""
        full_dir, baseline = full_store
        target = truncated_copy(full_dir, tmp_path, keep=1)
        lines = (full_dir / JOURNAL_NAME).read_text().splitlines()
        with (target / JOURNAL_NAME).open("a") as handle:
            handle.write(lines[1][: len(lines[1]) // 2])  # crash mid-append
        report = run_grid(store=target, resume=True, jobs=1)
        assert report.tasks_skipped == 1
        assert report.results == reference.results
        store = CampaignStore.open(target)  # would raise pre-truncation
        assert store.is_complete()
        assert (target / JOURNAL_NAME).read_bytes() == baseline

    def test_resume_of_complete_store_replays_everything(
            self, reference, full_store, tmp_path):
        report = run_grid(store=full_store[0], resume=True, jobs=1)
        assert report.tasks_skipped == TOTAL_TASKS
        assert report.tasks_run == 0
        assert report.results == reference.results

    def test_resume_with_parallel_backend_matches(
            self, reference, full_store, tmp_path):
        target = truncated_copy(full_store[0], tmp_path, keep=1)
        report = run_grid(store=target, resume=True, jobs=2)
        assert report.results == reference.results
        assert report.raw_logs == reference.raw_logs

    def test_journaled_store_without_resume_rejected(self, full_store):
        with pytest.raises(CampaignError, match="resume"):
            run_grid(store=full_store[0], resume=False, jobs=1)

    def test_resume_without_store_rejected(self):
        with pytest.raises(ConfigurationError, match="store"):
            run_grid(store=None, resume=True, jobs=1)

    def test_foreign_seed_material_rejected_on_replay(
            self, full_store, tmp_path):
        target = truncated_copy(full_store[0], tmp_path, keep=2)
        lines = (target / JOURNAL_NAME).read_text().splitlines(keepends=True)
        data = json.loads(lines[0])
        data["seed"] += 1
        lines[0] = json.dumps(data, sort_keys=True) + "\n"
        (target / JOURNAL_NAME).write_text("".join(lines))
        with pytest.raises(CampaignError, match="seed"):
            run_grid(store=target, resume=True, jobs=1)

    def test_real_interruption_then_resume(self, reference, full_store,
                                           tmp_path):
        """Not a simulated prefix: actually kill a running grid mid-way
        (via its progress stream), then resume the survivor directory."""

        class KillSwitch(ProgressReporter):
            def __init__(self, after):
                self.after = after
                self.seen = 0

            def on_progress(self, event):
                self.seen += 1
                if self.seen >= self.after:
                    raise RuntimeError("power loss")

        target = tmp_path / "interrupted"
        with pytest.raises(RuntimeError, match="power loss"):
            engine(jobs=1, chunk_size=1, progress=KillSwitch(2)).run(
                [get_benchmark("bwaves")], CORES, store=target)
        survivor = CampaignStore.open(target)
        assert 0 < len(survivor.completed_keys()) < TOTAL_TASKS
        report = run_grid(store=target, resume=True, jobs=1)
        assert report.results == reference.results
        assert (target / JOURNAL_NAME).read_bytes() == full_store[1]


class TestStoreConsumers:
    def test_from_store_round_trips_severity_exactly(
            self, reference, full_store):
        result = CharacterizationResult.from_store(full_store[0], "bwaves", 0)
        original = reference.results[("bwaves", 0)]
        assert result.severity_by_voltage() == original.severity_by_voltage()
        assert result.highest_vmin_mv == original.highest_vmin_mv
        assert result.highest_crash_mv == original.highest_crash_mv

    def test_result_for_incomplete_cell_rejected(self, full_store, tmp_path):
        target = truncated_copy(full_store[0], tmp_path, keep=1)
        store = CampaignStore.open(target)
        with pytest.raises(CampaignError):
            store.result_for("bwaves", 4)

    def test_exported_runs_csv_reads_back_typed(self, full_store, tmp_path):
        results = CampaignStore.open(full_store[0]).results().values()
        ResultStore(tmp_path).write_runs_csv(results)
        rows = ResultStore(tmp_path).read_runs_csv()
        assert rows and all(isinstance(row, RunRecord) for row in rows)
        assert {row.setup.core for row in rows} == set(CORES)

    def test_framework_characterize_many_journals_and_resumes(
            self, reference, tmp_path):
        """The engine fed a built machine journals its grid and resumes
        from it, as it does from a spec."""
        first = ParallelCampaignEngine(SPEC.build(), CFG).run(
            [get_benchmark("bwaves")], CORES, store=tmp_path)
        assert (tmp_path / MANIFEST_NAME).exists()
        assert CampaignStore.open(tmp_path).is_complete()
        resumed = ParallelCampaignEngine(SPEC.build(), CFG).run(
            [get_benchmark("bwaves")], CORES, store=tmp_path, resume=True)
        assert resumed.tasks_skipped == TOTAL_TASKS
        assert first.results == resumed.results
        assert resumed.results[("bwaves", 0)].severity_by_voltage() == \
            reference.results[("bwaves", 0)].severity_by_voltage()


class TestKernelPathStoreEquivalence:
    """The batch kernel must journal byte-identical store contents.

    The acceptance scenario of this module rerun through
    ``use_kernel=True``: persistence happens downstream of campaign
    execution, so the kernel's bit-identical RunRecord contract must
    survive all the way into the journal bytes on disk.
    """

    def test_journal_bytes_identical_across_paths(self, tmp_path):
        journals = {}
        for use_kernel in (False, True):
            directory = tmp_path / ("kernel" if use_kernel else "scalar")
            directory.mkdir()
            run_grid(store=directory, jobs=1, use_kernel=use_kernel)
            journals[use_kernel] = (directory / JOURNAL_NAME).read_bytes()
        assert journals[False] == journals[True]

    def test_kernel_journal_resumes_on_scalar_path(self, tmp_path):
        # A journal written by the kernel path must be resumable by the
        # scalar path (and vice versa): the store records observables,
        # not which execution path produced them.
        run_grid(store=tmp_path, jobs=1, use_kernel=True)
        killed = truncated_copy(tmp_path, tmp_path, keep=2)
        resumed = run_grid(store=killed, resume=True, jobs=1,
                           use_kernel=False)
        full = run_grid(jobs=1, use_kernel=True)
        assert resumed.results == full.results
        assert (killed / JOURNAL_NAME).read_bytes() == \
            (tmp_path / JOURNAL_NAME).read_bytes()
