"""The command-line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro as repro_package
from repro.cli import build_parser, main
from repro.hardware import SupplyDroopModel
from repro.machines import MachineSpec, save_machine_spec


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert "repro" in capsys.readouterr().out

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestTables:
    def test_all_tables(self, capsys):
        assert main(["tables"]) == 0
        out = capsys.readouterr().out
        for marker in ("Table 1", "Table 2", "Table 3", "Table 4",
                       "X-Gene 2", "W_SC"):
            assert marker in out

    def test_single_table(self, capsys):
        assert main(["tables", "4"]) == 0
        out = capsys.readouterr().out
        assert "W_SC" in out and "Table 1" not in out


class TestClaims:
    def test_all_claims_pass(self, capsys):
        assert main(["claims"]) == 0
        out = capsys.readouterr().out
        assert "13/13 claims reproduced" in out
        assert "FAIL" not in out


class TestCharacterize:
    """One campaign cell: the job the ``characterize`` verb did before
    ``grid`` took it over."""

    CELL = ["--benchmarks", "mcf", "--cores", "0", "--campaigns", "2"]

    def test_quick_campaign_with_csv(self, capsys, tmp_path):
        code = main(["grid", "TTT", *self.CELL, "--start-mv", "910",
                     "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "Vmin" in out and "mcf" in out
        assert (tmp_path / "runs.csv").exists()
        assert (tmp_path / "severity.csv").exists()

    def test_jobs_flag_uses_engine(self, capsys):
        code = main(["grid", "TTT", *self.CELL, "--start-mv", "910",
                     "--jobs", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Vmin" in out and "recoveries" in out
        assert "process (jobs=2)" in out

    def test_machine_spec_file(self, capsys, tmp_path):
        spec = MachineSpec(chip="TFF", seed=7,
                           droop_model=SupplyDroopModel())
        path = save_machine_spec(spec, tmp_path / "machine.json")
        code = main(["grid", "--machine", str(path), *self.CELL,
                     "--start-mv", "930", "--jobs", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "on TFF" in out and "Vmin" in out


class TestGrid:
    def test_parallel_grid_with_csv(self, capsys, tmp_path):
        code = main([
            "grid", "TTT", "--benchmarks", "mcf,bwaves", "--cores", "0,4",
            "--campaigns", "2", "--runs-per-level", "3",
            "--start-mv", "910", "--jobs", "2", "--out", str(tmp_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "backend" in out
        assert "mcf" in out and "bwaves" in out
        assert (tmp_path / "runs.csv").exists()
        assert (tmp_path / "severity.csv").exists()

    def test_grid_results_independent_of_jobs(self, capsys, tmp_path):
        argv = ["grid", "TTT", "--benchmarks", "mcf", "--cores", "0",
                "--campaigns", "2", "--runs-per-level", "3",
                "--start-mv", "910"]
        assert main(argv + ["--jobs", "1", "--out", str(tmp_path / "a")]) == 0
        assert main(argv + ["--jobs", "3", "--out", str(tmp_path / "b")]) == 0
        capsys.readouterr()
        assert (tmp_path / "a" / "runs.csv").read_text() == \
            (tmp_path / "b" / "runs.csv").read_text()
        assert (tmp_path / "a" / "severity.csv").read_text() == \
            (tmp_path / "b" / "severity.csv").read_text()

    def test_grid_accepts_machine_spec(self, capsys, tmp_path):
        path = save_machine_spec(
            MachineSpec(chip="TSS", seed=5), tmp_path / "machine.json")
        code = main([
            "grid", "--machine", str(path), "--benchmarks", "mcf",
            "--cores", "0", "--campaigns", "2", "--runs-per-level", "3",
            "--start-mv", "910", "--jobs", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "on TSS" in out and "backend" in out

    def test_unknown_chip_rejected(self):
        with pytest.raises(SystemExit):
            main(["grid", "XXX", "--benchmarks", "mcf"])

    def test_no_chip_and_no_machine_rejected(self, capsys):
        assert main(["grid", "--benchmarks", "mcf"]) == 2
        assert "--machine" in capsys.readouterr().err

    def test_bad_machine_spec_rejected(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["grid", "--machine", str(path)]) == 2
        captured = capsys.readouterr()
        assert "error" in captured.err
        assert "characterizing" not in captured.out

    def test_seed_overrides_spec(self, capsys, tmp_path):
        path = save_machine_spec(MachineSpec(chip="TTT", seed=1),
                                 tmp_path / "machine.json")
        argv = ["grid", "--machine", str(path), "--benchmarks", "mcf",
                "--cores", "0", "--campaigns", "1", "--start-mv", "910"]
        assert main(argv) == 0
        base = capsys.readouterr().out
        assert main(argv + ["--seed", "999"]) == 0
        reseeded = capsys.readouterr().out
        assert base != reseeded


class TestStoreWorkflow:
    GRID = ["--benchmarks", "bwaves", "--cores", "0,4", "--campaigns", "2",
            "--runs-per-level", "3", "--start-mv", "905"]

    def test_grid_store_kill_resume_byte_identical(self, capsys, tmp_path):
        store = tmp_path / "store"
        assert main(["grid", "TTT", *self.GRID, "--jobs", "2",
                     "--store", str(store)]) == 0
        capsys.readouterr()
        # A pool journals in completion order, so the lines are
        # compared as a set; the query bytes are in grid order.
        journal = store / "journal.jsonl"
        baseline_lines = sorted(journal.read_bytes().splitlines())
        assert main(["fleet", "query", str(store), "--json"]) == 0
        baseline_query = capsys.readouterr().out
        # simulate the kill: truncate the journal to one completed task
        # and drop the derived count snapshot
        lines = journal.read_text().splitlines(keepends=True)
        journal.write_text("".join(lines[:1]))
        (store / "journal.snapshot.json").unlink()
        assert main(["fleet", "run", str(store), "--jobs", "2"]) == 0
        out = capsys.readouterr().out
        assert "+3 task(s) executed, 1 replayed" in out
        assert "4/4 task(s) journaled" in out
        assert sorted(journal.read_bytes().splitlines()) == baseline_lines
        assert main(["fleet", "query", str(store), "--json"]) == 0
        assert capsys.readouterr().out == baseline_query

    def test_journaled_store_requires_resume(self, capsys, tmp_path):
        store = tmp_path / "store"
        argv = ["grid", "TTT", "--benchmarks", "mcf", "--cores", "0",
                "--campaigns", "2", "--runs-per-level", "3",
                "--start-mv", "910", "--store", str(store)]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(["report", "--store", str(store)]) == 0
        assert "Measured campaign store" in capsys.readouterr().out
        assert main(argv) == 2
        assert "`repro fleet run`" in capsys.readouterr().err
        assert main(["fleet", "run", str(store)]) == 0
        assert "+0 task(s) executed, 2 replayed" in capsys.readouterr().out

    def test_characterize_store_journals_run(self, capsys, tmp_path):
        """One cell, the whole job of the old ``characterize`` verb."""
        store = tmp_path / "store"
        code = main(["grid", "TTT", "--benchmarks", "mcf", "--cores", "0",
                     "--campaigns", "2", "--start-mv", "910",
                     "--store", str(store)])
        assert code == 0
        assert "campaign store journaled" in capsys.readouterr().out
        assert (store / "manifest.json").exists()
        assert (store / "journal.jsonl").exists()
        assert not list(store.glob("*.csv"))

    def test_resume_missing_store_is_usage_error(self, capsys, tmp_path):
        assert main(["fleet", "run", str(tmp_path / "nowhere")]) == 2
        assert "no campaign store" in capsys.readouterr().err


class TestTradeoffs:
    def test_default(self, capsys):
        assert main(["tradeoffs"]) == 0
        out = capsys.readouterr().out
        assert "915 mV" in out
        assert "19.4" in out and "38.8" in out

    def test_clock_tree_variant(self, capsys):
        assert main(["tradeoffs", "--clock-tree"]) == 0
        assert "37.6" in capsys.readouterr().out


class TestFleet:
    def test_statistics(self, capsys):
        assert main(["variation", "--count", "12", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "12 generated TTT-population parts" in out
        assert "fleet-wide setting wastes" in out

    def test_bare_fleet_prints_subcommand_usage(self, capsys):
        """``repro fleet`` names the store verbs only; the population
        statistics live under ``repro variation``."""
        with pytest.raises(SystemExit) as excinfo:
            main(["fleet"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "usage: repro fleet" in err
        assert "{init,run,status,query,compact}" in err


class TestFleetStore:
    @pytest.fixture(scope="class")
    def fleet_dir(self, tmp_path_factory):
        directory = tmp_path_factory.mktemp("cli-fleet") / "fleet"
        assert main(["fleet", "init", str(directory), "--machines", "2",
                     "--seed-base", "2017", "--benchmarks", "mcf",
                     "--cores", "0", "--campaigns", "2",
                     "--runs-per-level", "3", "--start-mv", "905"]) == 0
        assert main(["fleet", "run", str(directory)]) == 0
        return directory

    def test_init_refuses_existing(self, capsys, fleet_dir):
        assert main(["fleet", "init", str(fleet_dir)]) == 2
        assert "already exists" in capsys.readouterr().err

    def test_run_is_idempotent(self, capsys, fleet_dir):
        assert main(["fleet", "run", str(fleet_dir)]) == 0
        out = capsys.readouterr().out
        assert "+0 task(s) executed" in out
        assert "4/4 task(s) journaled" in out

    def test_fleet_status_serves_vmin_per_shard(self, capsys, fleet_dir):
        assert main(["fleet", "status", str(fleet_dir)]) == 0
        out = capsys.readouterr().out
        assert "(2 shards)" in out and "4/4 tasks" in out
        assert out.count("mcf c0: Vmin 890 mV, crash 880") == 2

    def test_plain_status_detects_fleet_store(self, capsys, fleet_dir):
        assert main(["status", str(fleet_dir)]) == 0
        assert "(2 shards)" in capsys.readouterr().out

    def test_query_human_readable(self, capsys, fleet_dir):
        assert main(["fleet", "query", str(fleet_dir),
                     "--benchmark", "mcf", "--core", "0"]) == 0
        out = capsys.readouterr().out
        assert out.count("mcf c0: Vmin 890 mV, crash 880 mV") == 2
        assert main(["fleet", "query", str(fleet_dir), "--core", "7"]) == 0
        assert "no completed cells match" in capsys.readouterr().out

    def test_query_json_byte_matches_reparse(self, capsys, fleet_dir):
        """The index-equals-reparse contract at the CLI surface: warm
        ``--json`` output equals the full-journal ``--reparse`` bytes."""
        assert main(["fleet", "query", str(fleet_dir), "--json"]) == 0
        warm = capsys.readouterr().out
        assert main(["fleet", "query", str(fleet_dir), "--json",
                     "--reparse"]) == 0
        cold = capsys.readouterr().out
        assert warm == cold
        assert warm.count("# shard ") == 2

    @pytest.mark.parametrize("json_flag", [[], ["--json"]],
                             ids=["text", "json"])
    def test_query_rejects_unknown_target(self, capsys, fleet_dir,
                                          json_flag):
        with pytest.raises(SystemExit) as excinfo:
            main(["fleet", "query", str(fleet_dir), "--target", "bogus",
                  *json_flag])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "usage: repro fleet query" in err
        assert "invalid choice: 'bogus'" in err

    def test_compact_then_answers_unchanged(self, capsys, fleet_dir):
        assert main(["fleet", "query", str(fleet_dir), "--json"]) == 0
        before = capsys.readouterr().out
        assert main(["fleet", "compact", str(fleet_dir)]) == 0
        assert "compacted 2 shard(s)" in capsys.readouterr().out
        assert main(["fleet", "compact", str(fleet_dir)]) == 0
        assert "nothing to compact" in capsys.readouterr().out
        assert main(["fleet", "query", str(fleet_dir), "--json"]) == 0
        assert capsys.readouterr().out == before

    def test_missing_fleet_is_usage_error(self, capsys, tmp_path):
        assert main(["fleet", "status", str(tmp_path / "nowhere")]) == 2
        assert "error" in capsys.readouterr().err


class TestPredict:
    def test_reduced_study(self, capsys):
        assert main(["predict", "--programs", "8"]) == 0
        out = capsys.readouterr().out
        assert "vmin_mv on TTT core 0" in out
        assert "severity on TTT core 4" in out


class TestReport:
    def test_report_to_stdout(self, capsys):
        assert main(["report"]) == 0
        out = capsys.readouterr().out
        assert "## Claim checks" in out
        assert "## Figure 9 ladder" in out
        assert "FAIL" not in out

    def test_report_to_file(self, tmp_path, capsys):
        target = tmp_path / "report.md"
        assert main(["report", "--out", str(target)]) == 0
        text = target.read_text()
        assert "# repro reproduction report" in text
        assert "87.2" in text


class TestLint:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text("from repro.units import VOLTAGE_STEP_MV\n")
        assert main(["lint", str(clean)]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_findings_exit_one(self, tmp_path, capsys):
        dirty = tmp_path / "dirty.py"
        dirty.write_text("vmin_mv = 0.98\n")
        assert main(["lint", str(dirty)]) == 1
        out = capsys.readouterr().out
        assert "RPR004" in out and "dirty.py:1:" in out

    def test_unknown_path_is_usage_error(self, tmp_path, capsys):
        assert main(["lint", str(tmp_path / "no-such-dir")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["lint", "--format", "yaml"])
        assert excinfo.value.code == 2

    def test_stats_reports_phases_and_rule_counts(self, tmp_path, capsys):
        dirty = tmp_path / "dirty.py"
        dirty.write_text("vmin_mv = 0.98\n")
        assert main(["lint", "--stats", "--no-cache", str(dirty)]) == 1
        out = capsys.readouterr().out
        assert "files analyzed: 1" in out
        assert "RPR004: 1" in out
        assert "parse" in out

    def test_cache_makes_second_run_incremental(self, tmp_path, capsys):
        dirty = tmp_path / "dirty.py"
        dirty.write_text("vmin_mv = 0.98\n")
        cache = str(tmp_path / "cache.json")
        argv = ["lint", "--stats", "--cache", cache, str(dirty)]
        assert main(argv) == 1
        assert "files analyzed: 1" in capsys.readouterr().out
        assert main(argv) == 1
        out = capsys.readouterr().out
        assert "files analyzed: 0" in out and "files cached: 1" in out

class TestTelemetryFlags:
    GRID = ["grid", "TTT", "--benchmarks", "mcf", "--cores", "0",
            "--campaigns", "2", "--runs-per-level", "3", "--start-mv", "910"]

    def test_grid_writes_traces_and_metrics(self, capsys, tmp_path):
        trace_dir = tmp_path / "trace"
        metrics = tmp_path / "metrics.prom"
        assert main([*self.GRID, "--store", str(tmp_path / "store"),
                     "--trace", str(trace_dir),
                     "--metrics", str(metrics)]) == 0
        err = capsys.readouterr().err
        assert "metrics exported" in err
        names = sorted(p.name for p in trace_dir.glob("trace-*.jsonl"))
        assert names == ["trace-mcf_c0_k1.jsonl", "trace-mcf_c0_k2.jsonl",
                         "trace-session.jsonl"]
        text = metrics.read_text()
        assert "# TYPE repro_engine_tasks_completed_total counter" in text
        assert "repro_engine_tasks_completed_total 2" in text

    def test_metrics_json_snapshot(self, capsys, tmp_path):
        metrics = tmp_path / "metrics.json"
        assert main([*self.GRID, "--metrics", str(metrics)]) == 0
        capsys.readouterr()
        payload = json.loads(metrics.read_text())
        assert payload["format"] == "repro-metrics/v1"
        assert any(m["name"] == "repro_effects_total"
                   for m in payload["metrics"])

    def test_telemetry_does_not_change_output(self, capsys, tmp_path):
        assert main(self.GRID) == 0
        plain = capsys.readouterr().out
        assert main([*self.GRID, "--trace", str(tmp_path / "t"),
                     "--metrics", str(tmp_path / "m.prom")]) == 0
        assert capsys.readouterr().out == plain


class TestStatus:
    def test_status_reports_complete_store(self, capsys, tmp_path):
        store = tmp_path / "store"
        assert main(["grid", "TTT", "--benchmarks", "mcf", "--cores", "0",
                     "--campaigns", "2", "--runs-per-level", "3",
                     "--start-mv", "910", "--store", str(store)]) == 0
        capsys.readouterr()
        assert main(["status", str(store)]) == 0
        out = capsys.readouterr().out
        assert "2/2 tasks" in out and "complete" in out
        assert "mcf c0" in out and "effect classes" in out

    def test_status_partial_store_with_metrics_eta(self, capsys, tmp_path):
        store = tmp_path / "store"
        metrics = tmp_path / "metrics.json"
        assert main(["grid", "TTT", "--benchmarks", "mcf", "--cores", "0",
                     "--campaigns", "2", "--runs-per-level", "3",
                     "--start-mv", "910", "--store", str(store),
                     "--metrics", str(metrics)]) == 0
        journal = store / "journal.jsonl"
        lines = journal.read_text().splitlines(keepends=True)
        journal.write_text(lines[0])
        capsys.readouterr()
        assert main(["status", str(store), "--metrics", str(metrics)]) == 0
        out = capsys.readouterr().out
        assert "1/2 tasks" in out and "eta" in out

    def test_status_missing_store_is_usage_error(self, capsys, tmp_path):
        assert main(["status", str(tmp_path / "nowhere")]) == 2
        assert "error" in capsys.readouterr().err

    def test_status_empty_journal_with_sampleless_metrics_is_na(
            self, capsys, tmp_path):
        """Regression: a just-initialized store plus a metrics snapshot
        whose task-seconds histogram has no samples yet must render the
        ETA as "n/a", not raise on the empty histogram."""
        from repro.core import FrameworkConfig
        from repro.machines import MachineSpec as Spec
        from repro.store import CampaignStore

        store = tmp_path / "store"
        CampaignStore.create(
            store, Spec(chip="TTT", seed=2017),
            FrameworkConfig(start_mv=910, campaigns=2, runs_per_level=3),
            ["mcf"], [0])
        metrics = tmp_path / "metrics.json"
        metrics.write_text(json.dumps({
            "format": "repro-metrics/v1",
            "metrics": [{
                "name": "repro_engine_task_seconds",
                "samples": [{"count": 0}],
            }],
        }))
        assert main(["status", str(store), "--metrics", str(metrics)]) == 0
        out = capsys.readouterr().out
        assert "0/2 tasks" in out
        assert "eta: n/a (no completed-task samples yet)" in out


class TestOneStoreShape:
    """A plain campaign directory answers every store verb as a
    one-shard fleet, and the read verbs leave it untouched."""

    GRID = ["grid", "TTT", "--benchmarks", "mcf,bwaves", "--cores", "0",
            "--campaigns", "2", "--runs-per-level", "3", "--start-mv", "910"]

    @pytest.fixture(scope="class")
    def plain_store(self, tmp_path_factory):
        store = tmp_path_factory.mktemp("one-shape") / "store"
        assert main([*self.GRID, "--store", str(store)]) == 0
        return store

    @staticmethod
    def tree(directory):
        return {
            path.relative_to(directory): path.read_bytes()
            for path in sorted(directory.rglob("*")) if path.is_file()
        }

    def test_plain_store_query_json_equals_reparse(self, capsys, plain_store):
        assert main(["fleet", "query", str(plain_store), "--json"]) == 0
        warm = capsys.readouterr().out
        assert main(["fleet", "query", str(plain_store), "--json",
                     "--reparse"]) == 0
        assert capsys.readouterr().out == warm
        assert warm.count("# shard ") == 1

    def test_grid_store_keeps_logs_in_the_journal_only(self, plain_store):
        """The runs persist once, in the journal: the store holds no log
        files and no CSVs, and ``raw_logs()`` hands back the engine's
        logs byte for byte."""
        from repro.core import FrameworkConfig
        from repro.parallel import ParallelCampaignEngine
        from repro.store import CampaignStore
        from repro.workloads import get_benchmark

        files = {p.name for p in plain_store.iterdir() if p.is_file()}
        assert files == {
            "manifest.json", "journal.jsonl", "journal.snapshot.json"}
        report = ParallelCampaignEngine(
            MachineSpec(chip="TTT"),
            FrameworkConfig(start_mv=910, campaigns=2, runs_per_level=3),
        ).run([get_benchmark("mcf"), get_benchmark("bwaves")], [0])
        assert CampaignStore.open(plain_store).raw_logs() == report.raw_logs

    def test_read_verbs_write_nothing(self, capsys, plain_store, tmp_path):
        assert main(["train", str(plain_store), "--target", "vmin"]) == 0
        before = self.tree(plain_store)
        for argv in (["status", str(plain_store), "--models"],
                     ["fleet", "status", str(plain_store)],
                     ["fleet", "query", str(plain_store), "--json"],
                     ["dash", str(plain_store), "--once"],
                     ["report", "--store", str(plain_store),
                      "--out", str(tmp_path / "report.md")],
                     ["predict", "--model", str(plain_store)]):
            assert main(argv) == 0, argv
        capsys.readouterr()
        assert self.tree(plain_store) == before

    def test_status_and_fleet_status_are_one_report(self, capsys,
                                                    plain_store):
        assert main(["status", str(plain_store)]) == 0
        plain = capsys.readouterr().out
        assert main(["fleet", "status", str(plain_store)]) == 0
        assert capsys.readouterr().out == plain
        assert "(1 shard)" in plain and "effect classes" in plain
        assert "mcf c0: Vmin" in plain and "(2/2 campaigns)" in plain


class TestModuleEntryPoint:
    def test_module_entry_point_matches(self, tmp_path):
        dirty = tmp_path / "dirty.py"
        dirty.write_text("vmin_mv = 0.98\n")
        src_dir = Path(repro_package.__file__).resolve().parent.parent
        env = dict(os.environ)
        env["PYTHONPATH"] = str(src_dir) + os.pathsep + env.get(
            "PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-m", "repro.analysis", str(dirty)],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 1
        assert "RPR004" in proc.stdout
