"""The fleet store: sharding, watermarks, compaction, warm indexes.

The acceptance contracts under test:

* a fleet of N machines journals bit-identically to N independent
  single-machine ``CampaignStore`` runs, including kill-and-resume;
* every warm index answer is byte-identical to a recompute through a
  full journal re-parse, at every kill point and under interleaved
  multi-process shard appends;
* compaction permutes journal line bytes into grid order and changes
  no answer.
"""

import dataclasses
import json
import multiprocessing
import re

import pytest

from repro.core import FrameworkConfig
from repro.errors import CampaignError, StoreError
from repro.machines import MachineSpec
from repro.parallel import ParallelCampaignEngine, run_fleet
from repro.prediction import StreamingTrainer
from repro.prediction.dataset import vmin_dataset_from_store
from repro.store import (
    FLEET_FORMAT,
    FLEET_MANIFEST_NAME,
    CampaignStore,
    FleetManifest,
    FleetStore,
    JOURNAL_NAME,
    ShardEntry,
    StoredCampaign,
    serialize_answers,
)
from repro.workloads import get_benchmark

#: The same fast watchdog-exercising cell as test_store: mcf core 0
#: starting just under Vmin descends into the crash region quickly.
CFG = FrameworkConfig(start_mv=905, campaigns=2, runs_per_level=3)
SEEDS = (2017, 2018, 2019)
SPECS = [MachineSpec(chip="TTT", seed=seed) for seed in SEEDS]
WORKLOADS = ["mcf"]
CORES = [0]
SHARD_TASKS = len(WORKLOADS) * len(CORES) * CFG.campaigns


def make_fleet(directory):
    return FleetStore.create(directory, SPECS, CFG, WORKLOADS, CORES)


def run_shard_standalone(spec, directory):
    """One machine's grid into a plain single-machine store."""
    engine = ParallelCampaignEngine(spec, CFG)
    engine.run([get_benchmark("mcf")], CORES, store=directory)
    return directory


@pytest.fixture(scope="module")
def complete_fleet(tmp_path_factory):
    """A fully characterized three-machine fleet."""
    directory = tmp_path_factory.mktemp("fleet")
    make_fleet(directory)
    run_fleet(directory)
    return directory


@pytest.fixture(scope="module")
def standalone_journals(tmp_path_factory):
    """Per-seed journal bytes from independent single-machine runs."""
    journals = {}
    for spec in SPECS:
        directory = tmp_path_factory.mktemp(f"solo-{spec.seed}")
        run_shard_standalone(spec, directory)
        journals[spec.seed] = (directory / JOURNAL_NAME).read_bytes()
    return journals


class TestFleetManifest:
    def manifest(self):
        return FleetManifest(
            config=CFG,
            workloads=tuple(WORKLOADS),
            cores=tuple(CORES),
            shards=tuple(
                ShardEntry(
                    name=f"m{i:02d}-{spec.digest()[:8]}",
                    spec_digest=spec.digest(),
                    path=f"shards/m{i:02d}-{spec.digest()[:8]}",
                    watermark=0,
                    total=SHARD_TASKS,
                )
                for i, spec in enumerate(SPECS)
            ),
        )

    def test_json_round_trip(self):
        manifest = self.manifest()
        data = manifest.to_json_dict()
        assert data["format"] == FLEET_FORMAT
        assert FleetManifest.from_json_dict(data) == manifest

    def test_unknown_format_rejected(self):
        data = self.manifest().to_json_dict()
        data["format"] = "repro-fleet/v999"
        with pytest.raises(StoreError, match="format"):
            FleetManifest.from_json_dict(data)

    def test_duplicate_shard_digests_rejected(self):
        manifest = self.manifest()
        with pytest.raises(StoreError, match="distinct"):
            dataclasses.replace(
                manifest, shards=(manifest.shards[0], manifest.shards[0])
            )

    def test_unknown_routing_digest_names_known_shards(self):
        manifest = self.manifest()
        with pytest.raises(StoreError, match=manifest.shards[0].name):
            manifest.entry_for("f" * 64)

    def test_task_totals(self):
        manifest = self.manifest()
        assert manifest.tasks_total() == len(SPECS) * SHARD_TASKS
        assert manifest.tasks_done() == 0


class TestFleetLifecycle:
    def test_create_layout(self, tmp_path):
        fleet = make_fleet(tmp_path)
        assert (tmp_path / FLEET_MANIFEST_NAME).exists()
        for entry, spec in zip(fleet.manifest.shards, SPECS):
            assert entry.spec_digest == spec.digest()
            assert entry.name.endswith(spec.digest()[:8])
            assert (tmp_path / entry.path / "manifest.json").exists()
            assert entry.total == SHARD_TASKS and entry.watermark == 0

    def test_create_refuses_existing(self, tmp_path):
        make_fleet(tmp_path)
        with pytest.raises(StoreError, match="already exists"):
            make_fleet(tmp_path)

    def test_create_refuses_duplicate_specs(self, tmp_path):
        with pytest.raises(StoreError, match="duplicates digest"):
            FleetStore.create(
                tmp_path, [SPECS[0], SPECS[0]], CFG, WORKLOADS, CORES
            )

    def test_open_missing_fleet(self, tmp_path):
        with pytest.raises(StoreError, match="no fleet store"):
            FleetStore.open(tmp_path / "nowhere")

    def test_shards_are_standalone_stores(self, tmp_path):
        fleet = make_fleet(tmp_path)
        for entry, store in fleet.shards():
            assert isinstance(store, CampaignStore)
            assert store.manifest.spec.digest() == entry.spec_digest

    def test_shard_routing_by_spec(self, tmp_path):
        fleet = make_fleet(tmp_path)
        store = fleet.shard_for(SPECS[1])
        assert store.manifest.spec == SPECS[1]

    def test_swapped_shard_names_both_digests_and_path(self, tmp_path):
        """A shard directory swapped underneath the fleet is caught, and
        the error names the expected digest, the actual digest and the
        offending shard path -- enough to fix the swap by hand."""
        fleet = make_fleet(tmp_path)
        first, second = fleet.manifest.shards[:2]
        path_a = tmp_path / first.path
        path_b = tmp_path / second.path
        swap = tmp_path / "swap"
        path_a.rename(swap)
        path_b.rename(path_a)
        swap.rename(path_b)
        reopened = FleetStore.open(tmp_path)
        with pytest.raises(StoreError) as excinfo:
            reopened.shard(reopened.manifest.shards[0])
        message = str(excinfo.value)
        assert first.spec_digest in message
        assert second.spec_digest in message
        assert str(tmp_path / first.path) in message


class TestFleetEquivalence:
    def test_shards_byte_identical_to_standalone_runs(
            self, complete_fleet, standalone_journals):
        fleet = FleetStore.open(complete_fleet)
        for entry, spec in zip(fleet.manifest.shards, SPECS):
            shard_journal = (complete_fleet / entry.path / JOURNAL_NAME)
            assert shard_journal.read_bytes() == standalone_journals[spec.seed]

    def test_watermarks_converge_to_totals(self, complete_fleet):
        fleet = FleetStore.open(complete_fleet)
        manifest = fleet.refresh_watermarks()
        assert all(e.watermark == e.total for e in manifest.shards)
        assert fleet.is_complete()
        on_disk = json.loads((complete_fleet / FLEET_MANIFEST_NAME).read_text())
        assert FleetManifest.from_json_dict(on_disk) == manifest

    def test_killed_shard_resumes_bit_identically(
            self, complete_fleet, standalone_journals, tmp_path):
        """Kill one shard after its first task; the fleet resume ends
        byte-identical to the uninterrupted run, and only replays the
        untouched shards."""
        fleet_dir = tmp_path / "fleet"
        fleet_dir.mkdir()
        (fleet_dir / FLEET_MANIFEST_NAME).write_text(
            (complete_fleet / FLEET_MANIFEST_NAME).read_text())
        source = FleetStore.open(complete_fleet)
        for entry in source.manifest.shards:
            shard_dir = fleet_dir / entry.path
            shard_dir.mkdir(parents=True)
            for name in ("manifest.json", JOURNAL_NAME):
                (shard_dir / name).write_bytes(
                    (complete_fleet / entry.path / name).read_bytes())
        victim = source.manifest.shards[1]
        journal = fleet_dir / victim.path / JOURNAL_NAME
        lines = journal.read_text().splitlines(keepends=True)
        journal.write_text(lines[0])

        report = run_fleet(fleet_dir)
        assert report.tasks_run == SHARD_TASKS - 1
        assert report.tasks_skipped == len(SPECS) * SHARD_TASKS - report.tasks_run
        for entry, spec in zip(report.manifest.shards, SPECS):
            resumed = (fleet_dir / entry.path / JOURNAL_NAME).read_bytes()
            assert resumed == standalone_journals[spec.seed]

    def test_run_fleet_is_idempotent(self, complete_fleet):
        report = run_fleet(complete_fleet)
        assert report.tasks_run == 0
        assert report.tasks_skipped == len(SPECS) * SHARD_TASKS

    def test_run_fleet_shard_subset_validated(self, complete_fleet):
        with pytest.raises(StoreError, match="unknown fleet shards"):
            run_fleet(complete_fleet, shards=["m99-deadbeef"])

    def test_engine_routes_through_fleet_directory(self, tmp_path,
                                                   standalone_journals):
        """``--store FLEET_DIR`` on a plain engine run lands the tasks
        in the right shard through the fleet manifest."""
        fleet = make_fleet(tmp_path)
        spec = SPECS[2]
        engine = ParallelCampaignEngine(spec, CFG)
        engine.run([get_benchmark("mcf")], CORES, store=tmp_path)
        entry = fleet.manifest.entry_for(spec.digest())
        journal = (tmp_path / entry.path / JOURNAL_NAME).read_bytes()
        assert journal == standalone_journals[spec.seed]


def answer_documents(store):
    """The vmin, severity and feature documents of one store's bytes."""
    text, end, documents = serialize_answers(store), 0, []
    while end < len(text):
        document, end = json.JSONDecoder().raw_decode(text, end)
        documents.append(document)
        end += 1  # the newline closing each document
    return documents


class TestIndexEqualsReparse:
    def test_fleetwide_warm_equals_reparse_bytes(self, complete_fleet):
        indexes = FleetStore.open(complete_fleet).indexes()
        warm = indexes.serialize()
        assert warm == indexes.serialize_reparse()
        assert warm.count("# shard ") == len(SPECS)

    def test_every_kill_point_matches_reparse(self, complete_fleet, tmp_path):
        """Property-style: truncate one shard journal to every possible
        prefix; at each kill point the serialized answers stay
        byte-identical to a second open's (served from the snapshot
        the first one wrote) and to a snapshot-free open's."""
        fleet = FleetStore.open(complete_fleet)
        entry = fleet.manifest.shards[0]
        manifest_bytes = (
            complete_fleet / entry.path / "manifest.json").read_bytes()
        lines = (complete_fleet / entry.path / JOURNAL_NAME).read_text(
            ).splitlines(keepends=True)
        for keep in range(len(lines) + 1):
            shard_dir = tmp_path / f"kill-{keep}"
            shard_dir.mkdir()
            (shard_dir / "manifest.json").write_bytes(manifest_bytes)
            (shard_dir / JOURNAL_NAME).write_text("".join(lines[:keep]))
            store = CampaignStore.open(shard_dir)
            warm = serialize_answers(store)
            assert warm == serialize_answers(CampaignStore.open(shard_dir))
            assert warm == serialize_answers(
                CampaignStore.open(shard_dir, snapshot=False))

    def test_incremental_appends_match_bulk_rebuild(self, complete_fleet,
                                                    tmp_path):
        """A store serialized before any append answers for every record
        appended through it and still matches a cold rebuild."""
        source = FleetStore.open(complete_fleet)
        entry, complete_store = source.shards()[0]
        shard_dir = tmp_path / "incremental"
        store = CampaignStore.create(
            shard_dir, complete_store.manifest.spec, CFG, WORKLOADS, CORES)
        empty = serialize_answers(store)
        for stored in complete_store.campaigns():
            store.append_campaign(stored)
        assert len(store.completed_keys()) == SHARD_TASKS
        assert serialize_answers(store) != empty
        assert serialize_answers(store) == serialize_answers(
            CampaignStore.open(shard_dir, snapshot=False))

    def test_feature_index_matches_dataset_assembler(self, complete_fleet):
        store = FleetStore.open(complete_fleet).shards()[0][1]
        classic = vmin_dataset_from_store(store, 0)
        features = answer_documents(store)[2]
        rows = [row for cell in features["cells"] for row in cell["rows"]]
        assert features["feature_names"] == list(classic.feature_names)
        assert tuple(row["tag"] for row in rows) == classic.tags
        assert [row["x"] for row in rows] == classic.x.tolist()
        assert [row["y"] for row in rows] == classic.y.tolist()

    def test_vmin_index_answers(self, complete_fleet):
        store = FleetStore.open(complete_fleet).shards()[0][1]
        assert list(store.answers()) == [("mcf", 0)]
        assert store.answers()[("mcf", 0)][:2] == (890, 880)
        assert answer_documents(store)[0]["cells"] == [
            {"benchmark": "mcf", "core": 0, "crash_mv": 880, "vmin_mv": 890}]

    def test_severity_index_matches_result(self, complete_fleet):
        store = FleetStore.open(complete_fleet).shards()[0][1]
        expected = store.results()[("mcf", 0)].severity_by_voltage(
            store.manifest.weights)
        assert dict(store.answers()[("mcf", 0)].severity) == expected
        [cell] = answer_documents(store)[1]["cells"]
        assert {v: s for v, s in cell["severity"]} == expected


def _append_shard_worker(fleet_dir, seed):
    """Child-process body: characterize one shard of a shared fleet."""
    from repro.machines import MachineSpec
    from repro.parallel import ParallelCampaignEngine
    from repro.store import FleetStore
    from repro.workloads import get_benchmark

    fleet = FleetStore.open(fleet_dir)
    spec = MachineSpec(chip="TTT", seed=seed)
    engine = ParallelCampaignEngine(spec, CFG)
    engine.run([get_benchmark("mcf")], CORES, store=fleet.shard_for(spec))
    fleet.refresh_watermarks()


class TestConcurrentShardAppends:
    def test_interleaved_multiprocess_appends(self, tmp_path):
        """One process per shard, all appending concurrently: no
        cross-shard lock contention, every process's concurrent
        ``refresh_watermarks`` converges on the journal facts, and the
        warm indexes still byte-match a re-parse."""
        make_fleet(tmp_path)
        context = multiprocessing.get_context("fork")
        workers = [
            context.Process(
                target=_append_shard_worker, args=(str(tmp_path), seed))
            for seed in SEEDS
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=300)
        assert all(worker.exitcode == 0 for worker in workers)

        fleet = FleetStore.open(tmp_path)
        # The manifest on disk came from whichever refresher wrote last,
        # but every writer derived it from the same journals.
        assert fleet.manifest.tasks_done() == len(SEEDS) * SHARD_TASKS
        manifest = fleet.refresh_watermarks()
        assert all(e.watermark == e.total for e in manifest.shards)
        indexes = fleet.indexes()
        assert indexes.serialize() == indexes.serialize_reparse()


class TestWatermarkRace:
    def test_stale_refresher_never_has_the_last_word(self, complete_fleet,
                                                     tmp_path, monkeypatch):
        """Refresher A reads the journals, then B appends a shard's last
        task and writes a fresh ``fleet.json`` just before A's write
        lands: A's post-write re-check sees B's append and writes again,
        so the manifest on disk ends equal to the journals."""
        import repro.store.fleet as fleet_module

        fleet_dir = tmp_path / "fleet"
        _copy_fleet(complete_fleet, fleet_dir)
        victim = FleetStore.open(fleet_dir).manifest.shards[1]
        journal = fleet_dir / victim.path / JOURNAL_NAME
        # The last line as a worker hands it over, its text in hand: a
        # journaled line reads its raw log back from the journal, which
        # the rewrite below truncates.
        lines = journal.read_text().splitlines(keepends=True)
        last = StoredCampaign.from_json_dict(json.loads(lines[-1]))
        journal.write_text(lines[0])

        refresher_a = FleetStore.open(fleet_dir)
        real_write = fleet_module.atomic_write
        raced = []

        def write_after_a_concurrent_append(path, data):
            if not raced:
                raced.append(path)
                refresher_b = FleetStore.open(fleet_dir)
                refresher_b.shard(victim).append_campaign(last)
                refresher_b.refresh_watermarks()
            real_write(path, data)

        monkeypatch.setattr(fleet_module, "atomic_write",
                            write_after_a_concurrent_append)
        refresher_a.refresh_watermarks()
        assert raced
        on_disk = json.loads((fleet_dir / FLEET_MANIFEST_NAME).read_text())
        for entry in on_disk["shards"]:
            lines = (fleet_dir / entry["path"] / JOURNAL_NAME).read_bytes()
            assert entry["watermark"] == lines.count(b"\n") == SHARD_TASKS


def _copy_fleet(source, target):
    target.mkdir()
    (target / FLEET_MANIFEST_NAME).write_bytes(
        (source / FLEET_MANIFEST_NAME).read_bytes())
    for entry in FleetStore.open(source).manifest.shards:
        shard_dir = target / entry.path
        shard_dir.mkdir(parents=True)
        for name in ("manifest.json", JOURNAL_NAME):
            (shard_dir / name).write_bytes(
                (source / entry.path / name).read_bytes())


class TestCachedShards:
    """Each fleet object opens a shard once and refreshes it after."""

    def test_second_run_decodes_only_the_replayed_shard(self, tmp_path,
                                                        monkeypatch):
        from repro.store import StoredCampaign

        make_fleet(tmp_path)
        first = FleetStore.open(tmp_path).manifest.shards[0].name
        run_fleet(tmp_path, shards=[first])
        decode = StoredCampaign.from_json_dict
        decoded = []

        def counting(data, memo=None):
            decoded.append(data["campaign"])
            return decode(data, memo)

        monkeypatch.setattr(StoredCampaign, "from_json_dict",
                            staticmethod(counting))
        report = run_fleet(tmp_path)
        assert report.tasks_skipped == SHARD_TASKS
        # m00's replay comes from the snapshot its run left behind: a
        # warm store decodes no line, and no other shard is read.
        assert decoded == []
        assert all(e.watermark == e.total for e in report.manifest.shards)

    def test_appends_by_another_fleet_object_become_visible(self, tmp_path):
        make_fleet(tmp_path)
        watcher = FleetStore.open(tmp_path)
        indexes = watcher.indexes()
        writer = FleetStore.open(tmp_path)
        spec = SPECS[1]
        ParallelCampaignEngine(spec, CFG).run(
            [get_benchmark("mcf")], CORES, store=writer.shard_for(spec))

        manifest = watcher.refresh_watermarks()
        assert [e.watermark for e in manifest.shards] == [0, SHARD_TASKS, 0]
        assert watcher.refresh() == 0  # already folded in by the refresh
        assert indexes.serialize() == indexes.serialize_reparse()
        assert watcher.indexes().serialize() == indexes.serialize()
        assert "mcf" in indexes.serialize()

    def test_is_complete_reads_the_journals_not_the_watermarks(
            self, tmp_path):
        """An engine run routed through a fleet directory journals the
        whole grid but leaves ``fleet.json``'s watermark behind."""
        spec = SPECS[0]
        FleetStore.create(tmp_path, [spec], CFG, WORKLOADS, CORES)
        ParallelCampaignEngine(spec, CFG).run(
            [get_benchmark("mcf")], CORES, store=tmp_path)
        fleet = FleetStore.open(tmp_path)
        (entry,) = fleet.manifest.shards
        assert entry.watermark == 0  # stale until refresh_watermarks
        assert fleet.shard(entry).is_complete()
        assert fleet.pending_tasks() == {entry.name: []}
        assert fleet.is_complete()

    def test_standalone_view_completes_with_its_store(self, tmp_path):
        spec = SPECS[0]
        CampaignStore.create(tmp_path, spec, CFG, WORKLOADS, CORES)
        view = FleetStore.open(tmp_path)
        assert not view.is_complete()
        ParallelCampaignEngine(spec, CFG).run(
            [get_benchmark("mcf")], CORES, store=view)
        assert view.shards()[0][1].is_complete()
        assert view.is_complete()

    def test_refresh_after_foreign_compaction_takes_disk_order(
            self, complete_fleet, tmp_path):
        fleet_dir = tmp_path / "fleet"
        _copy_fleet(complete_fleet, fleet_dir)
        entry = FleetStore.open(fleet_dir).manifest.shards[0]
        journal = fleet_dir / entry.path / JOURNAL_NAME
        lines = journal.read_text().splitlines(keepends=True)
        journal.write_text("".join(reversed(lines)))  # off grid order

        cached = FleetStore.open(fleet_dir).shard(entry)
        assert [c.key for c in cached.campaigns()] != cached.expected_keys()
        assert FleetStore.open(fleet_dir).compact() != []
        assert cached.refresh() == 0
        fresh = CampaignStore.open(fleet_dir / entry.path)
        assert cached.campaigns() == fresh.campaigns()
        assert [c.key for c in cached.campaigns()] == cached.expected_keys()


class TestCompaction:
    @pytest.fixture()
    def fleet_copy(self, complete_fleet, tmp_path):
        target = tmp_path / "fleet"
        target.mkdir()
        (target / FLEET_MANIFEST_NAME).write_bytes(
            (complete_fleet / FLEET_MANIFEST_NAME).read_bytes())
        for entry in FleetStore.open(complete_fleet).manifest.shards:
            shard_dir = target / entry.path
            shard_dir.mkdir(parents=True)
            for name in ("manifest.json", JOURNAL_NAME):
                (shard_dir / name).write_bytes(
                    (complete_fleet / entry.path / name).read_bytes())
        return target

    def test_compaction_is_a_grid_order_permutation_of_line_bytes(
            self, fleet_copy):
        fleet = FleetStore.open(fleet_copy)
        entry = fleet.manifest.shards[0]
        journal = fleet_copy / entry.path / JOURNAL_NAME
        before = journal.read_text().splitlines(keepends=True)
        answers_before = fleet.indexes().serialize()

        compacted = fleet.compact()
        assert compacted == [e.name for e in fleet.manifest.shards]
        after = journal.read_text().splitlines(keepends=True)
        assert sorted(after) == sorted(before)

        store = CampaignStore.open(fleet_copy / entry.path)
        assert [c.key for c in store.campaigns()] == store.expected_keys()
        assert fleet.indexes().serialize() == answers_before
        assert all(e.compacted for e in fleet.manifest.shards)

    def test_line_held_across_compaction_raises(self, fleet_copy):
        """A line read before a compaction keeps a byte span of the
        journal the compaction replaced: reading its raw log raises,
        naming the journal and the line, instead of reading the new
        file's bytes there."""
        entry = FleetStore.open(fleet_copy).manifest.shards[0]
        journal = fleet_copy / entry.path / JOURNAL_NAME
        lines = journal.read_text().splitlines(keepends=True)
        journal.write_text("".join(reversed(lines)))  # off grid order
        held = CampaignStore.open(fleet_copy / entry.path).campaigns()
        assert FleetStore.open(fleet_copy).compact() != []
        for number, line in enumerate(held, 1):
            with pytest.raises(StoreError, match=(
                    rf"journal line {number} of {re.escape(str(journal))}"
                    rf" cannot be read back: the journal was replaced")):
                line.raw_log
            with pytest.raises(StoreError):
                line.records
        fresh = CampaignStore.open(fleet_copy / entry.path).campaigns()
        assert sorted(line.raw_log for line in fresh) == sorted(
            json.loads(text)["raw_log"] for text in lines)

    def test_line_never_reads_another_lines_bytes(self, fleet_copy):
        """A journal rewritten in place keeps its inode; a held line's
        span then covers other bytes, which it refuses."""
        entry = FleetStore.open(fleet_copy).manifest.shards[0]
        journal = fleet_copy / entry.path / JOURNAL_NAME
        held = CampaignStore.open(fleet_copy / entry.path).campaigns()
        lines = journal.read_text().splitlines(keepends=True)
        journal.write_text("".join(reversed(lines)))
        with pytest.raises(StoreError, match=(
                rf"journal line 1 of {re.escape(str(journal))} cannot be "
                rf"read back: bytes 0-\d+ no longer hold task")):
            held[0].raw_log

    def test_compaction_is_idempotent(self, fleet_copy):
        fleet = FleetStore.open(fleet_copy)
        assert len(fleet.compact()) == len(SPECS)
        assert fleet.compact() == []

    def test_partial_shard_is_left_alone(self, fleet_copy):
        fleet = FleetStore.open(fleet_copy)
        victim = fleet.manifest.shards[0]
        journal = fleet_copy / victim.path / JOURNAL_NAME
        partial_lines = journal.read_text().splitlines(keepends=True)
        journal.write_text(partial_lines[0])

        compacted = FleetStore.open(fleet_copy).compact()
        assert victim.name not in compacted
        assert len(compacted) == len(SPECS) - 1
        assert journal.read_text() == partial_lines[0]

    def test_live_model_cursor_blocks_compaction(self, tmp_path):
        """A shard needs at least two grid cells for a cursor to land
        mid-journal, so this test builds its own two-workload fleet."""
        fleet = FleetStore.create(
            tmp_path, SPECS[:1], CFG, ["mcf", "bwaves"], CORES)
        run_fleet(tmp_path)
        entry, store = fleet.shards()[0]
        total = len(store.expected_keys())
        trainer = StreamingTrainer(store, core=0, target="vmin")
        trainer.consume(stop=CFG.campaigns)
        store.model_store().save(trainer.fit())
        assert 0 < trainer.journal_offset < total

        with pytest.raises(StoreError, match="live journal cursor"):
            FleetStore.open(tmp_path).compact()
        forced = FleetStore.open(tmp_path).compact(force=True)
        assert entry.name in forced

    def test_fleet_level_cursor_blocks_compaction(self, tmp_path):
        """Regression: a fleet-level artifact (``models/`` at the fleet
        root) holds one cursor per shard, and compaction must honour
        those too, not only the cursors in each shard's own
        ``models/``."""
        fleet = FleetStore.create(
            tmp_path, SPECS[:2], CFG, ["bwaves", "mcf"], CORES)
        run_fleet(tmp_path)
        # Reversed, each journal leads with the mcf cell (this sweep
        # has no Vmin for bwaves) and is out of grid order, so
        # compaction has lines to move.
        for entry in fleet.manifest.shards:
            journal = tmp_path / entry.path / JOURNAL_NAME
            lines = journal.read_text().splitlines(keepends=True)
            journal.write_text("".join(reversed(lines)))
        trainer = StreamingTrainer(FleetStore.open(tmp_path), core=0)
        trainer.consume(stop=CFG.campaigns)
        total = 2 * CFG.campaigns
        assert trainer.cursors == {
            entry.name: CFG.campaigns for entry in fleet.manifest.shards}
        FleetStore.open(tmp_path).model_store().save(trainer.fit())

        with pytest.raises(StoreError, match="live journal cursor") as info:
            FleetStore.open(tmp_path).compact()
        assert f"offset {CFG.campaigns} of {total}" in str(info.value)
        forced = FleetStore.open(tmp_path).compact(force=True)
        assert forced == [entry.name for entry in fleet.manifest.shards]


class TestOneShardView:
    """A standalone store opens as a one-shard fleet, in memory only."""

    @pytest.fixture(scope="class")
    def solo(self, tmp_path_factory):
        return run_shard_standalone(
            SPECS[0], tmp_path_factory.mktemp("solo-view"))

    def test_standalone_opens_as_one_shard(self, solo):
        fleet = FleetStore.open(solo)
        (entry,) = fleet.manifest.shards
        assert fleet.standalone
        assert entry.path == "." and fleet.shard_path(entry) == solo
        assert entry.spec_digest == SPECS[0].digest()
        assert entry.watermark == entry.total == SHARD_TASKS
        assert fleet.shard(entry).directory == solo

    def test_view_writes_no_fleet_manifest(self, solo):
        FleetStore.open(solo)  # lays down the derived count snapshot
        before = sorted(path.name for path in solo.iterdir())
        fleet = FleetStore.open(solo)
        fleet.refresh_watermarks()
        run_fleet(fleet)
        assert sorted(path.name for path in solo.iterdir()) == before
        assert not (solo / FLEET_MANIFEST_NAME).exists()

    def test_one_shard_digest_is_the_spec_digest(self, solo):
        fleet = FleetStore.open(solo)
        store = CampaignStore.open(solo)
        assert fleet.fleet_digest() == SPECS[0].digest()
        assert fleet.model_store().models_path == \
            store.model_store().models_path
        assert fleet.model_store().expected_spec_digest == \
            store.model_store().expected_spec_digest

    def test_open_store_accepts_every_shape(self, solo, complete_fleet):
        from repro.store import open_store

        fleet = FleetStore.open(complete_fleet)
        assert open_store(fleet) is fleet
        assert open_store(complete_fleet).fleet_digest() == \
            fleet.fleet_digest()
        store = CampaignStore.open(solo)
        view = open_store(store)
        assert view.shards()[0][1] is store
        assert open_store(str(solo)).fleet_digest() == SPECS[0].digest()

    def test_view_answers_equal_a_one_machine_fleet(self, solo, tmp_path):
        fleet = FleetStore.create(tmp_path, SPECS[:1], CFG, WORKLOADS, CORES)
        run_fleet(tmp_path)
        assert FleetStore.open(solo).indexes().serialize() == \
            fleet.indexes().serialize()


class TestFleetModels:
    def test_fleet_digest_pins_population(self, complete_fleet, tmp_path):
        fleet = FleetStore.open(complete_fleet)
        digest = fleet.fleet_digest()
        assert digest.startswith("fleet:") and len(digest) == 6 + 16
        smaller = FleetStore.create(
            tmp_path, SPECS[:2], CFG, WORKLOADS, CORES)
        assert smaller.fleet_digest() != digest

    def test_fleet_trainer_spans_every_shard(self, complete_fleet):
        trainer = StreamingTrainer(complete_fleet, core=0)
        trainer.consume()
        artifact = trainer.fit()
        fleet = FleetStore.open(complete_fleet)
        assert artifact.spec_digest == fleet.fleet_digest()
        assert artifact.n_samples == sum(
            len(vmin_dataset_from_store(store, 0))
            for _, store in fleet.shards()
        ) == len(vmin_dataset_from_store(fleet, 0))
        assert trainer.cursors == {
            entry.name: SHARD_TASKS for entry in fleet.manifest.shards
        }

    def test_fleet_trainer_kill_and_resume_equivalence(
            self, complete_fleet, tmp_path):
        """Train on a one-shard-deep fleet, save, characterize the rest,
        resume: the final artifact matches one uninterrupted fleet-wide
        training run over identical data."""
        fleet_dir = tmp_path / "fleet"
        make_fleet(fleet_dir)
        first_name = FleetStore.open(fleet_dir).manifest.shards[0].name
        run_fleet(fleet_dir, shards=[first_name])

        partial = StreamingTrainer(fleet_dir, core=0)
        assert partial.consume() == 1
        models = FleetStore.open(fleet_dir).model_store()
        saved = models.save(partial.fit())
        assert 0 < saved.journal_offset < len(SPECS) * SHARD_TASKS

        run_fleet(fleet_dir)
        resumed = StreamingTrainer.resume(
            FleetStore.open(fleet_dir), models.load("vmin", 0))
        resumed.consume()
        final = resumed.fit()

        reference = StreamingTrainer(complete_fleet, core=0)
        reference.consume()
        ref_artifact = reference.fit()
        assert final.train_digest == ref_artifact.train_digest
        assert final.n_samples == ref_artifact.n_samples
        assert final.coefficients == ref_artifact.coefficients

    def test_fleet_trainer_rejects_changed_population(
            self, complete_fleet, tmp_path):
        trainer = StreamingTrainer(complete_fleet, core=0)
        trainer.consume()
        artifact = trainer.fit()
        other = FleetStore.create(tmp_path, SPECS[:2], CFG, WORKLOADS, CORES)
        from repro.errors import PredictionError

        with pytest.raises(PredictionError, match="population"):
            StreamingTrainer.resume(other, artifact)


class TestFleetDerived:
    def test_fleet_status_serves_warm_vmin(self, complete_fleet):
        from repro import telemetry

        status = telemetry.fleet_status(complete_fleet)
        assert status.complete
        rendered = telemetry.render_fleet_status(status)
        assert f"({len(SPECS)} shards)" in rendered
        assert rendered.count("mcf c0: Vmin 890 mV, crash 880") == len(SPECS)

    def test_fleet_status_builds_no_feature_rows(
            self, complete_fleet, monkeypatch):
        from repro import telemetry
        from repro.prediction import dataset

        def no_rows(*_args, **_kwargs):
            raise AssertionError("status built feature rows")

        monkeypatch.setattr(dataset, "iter_journal_datasets", no_rows)
        status = telemetry.fleet_status(complete_fleet)
        assert all(len(shard.vmin_cells) == 1 for shard in status.shards)

    def test_fleet_report_covers_every_shard(self, complete_fleet):
        from repro.analysis.report import store_report

        fleet = FleetStore.open(complete_fleet)
        text = store_report(fleet)
        assert "## Measured campaign store" in text
        assert f"digest `{fleet.fleet_digest()}`" in text
        for entry in fleet.manifest.shards:
            assert f"### Shard {entry.name}" in text
