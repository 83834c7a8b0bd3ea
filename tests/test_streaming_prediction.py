"""The streaming prediction pipeline (PR 7).

Covers the three layers of the streaming refactor -- the
recursive-least-squares estimator, the journal dataset cursors, and the
versioned ``repro-model/v1`` artifacts -- plus the acceptance
equivalences: chunked replay with a kill-and-resume selects the same
RFE features and predicts within pinned tolerance of a from-scratch
batch fit on the completed store.
"""

import dataclasses
import gzip
import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from repro import telemetry
from repro.cli import main
from repro.core.framework import FrameworkConfig
from repro.errors import CampaignError, DatasetError, PredictionError
from repro.machines import MachineSpec
from repro.parallel import ParallelCampaignEngine
from repro.prediction import (
    RFE_RIDGE_ALPHA,
    OnlineLeastSquares,
    OrdinaryLeastSquares,
    RecursiveFeatureElimination,
    RegressionDataset,
    StreamingTrainer,
    batch_fit,
    fit_severity_model_from_store,
    fit_vmin_model_from_store,
    iter_journal_datasets,
    kfold_cross_validate,
    severity_dataset_from_store,
    vmin_dataset_from_store,
)
from repro.store import CampaignStore, ModelStore
from repro.store.models import train_set_digest
from repro.telemetry import MetricsRegistry
from repro.workloads import get_benchmark

#: Pinned tolerance of the online-vs-batch equivalence on
#: well-conditioned designs (documented in docs/methodology.md section 10).
EQUIV_RTOL = 1e-9
#: Pinned tolerance of streaming-vs-batch predictions on real store
#: data (rank-deficient intermediates; ridge-damped RFE ranking).
STORE_RTOL = 1e-5

CFG = FrameworkConfig(
    start_mv=930, campaigns=2, runs_per_level=3, stop_after_crash_levels=3
)
SPEC = MachineSpec(chip="TTT", seed=2017)
CORES = (0, 4)
BENCHES = (
    "bwaves", "mcf", "namd", "gcc", "soplex", "zeusmp", "milc", "gromacs",
)


@pytest.fixture(scope="module")
def store_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("streaming") / "store"
    engine = ParallelCampaignEngine(SPEC, CFG)
    engine.run(
        [get_benchmark(b) for b in BENCHES], list(CORES), store=str(directory)
    )
    return directory


@pytest.fixture(scope="module")
def store(store_dir):
    return CampaignStore.open(store_dir)


def _synthetic(n=60, k=12, seed=5, noise=0.1):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, k)) * rng.uniform(0.5, 3.0, size=k)
    x = x + rng.uniform(-2.0, 2.0, size=k)
    beta = rng.normal(size=k)
    y = x @ beta + rng.normal(scale=noise, size=n)
    names = tuple(f"f{i:02d}" for i in range(k))
    return x, y, names


class TestOnlineLeastSquares:
    @pytest.mark.parametrize("chunk", [1, 7, 60])
    def test_chunked_matches_batch_ols(self, chunk):
        x, y, names = _synthetic()
        online = OnlineLeastSquares(names)
        for start in range(0, len(y), chunk):
            online.partial_fit(x[start:start + chunk], y[start:start + chunk])
        batch = OrdinaryLeastSquares().fit(x, y, feature_names=names)
        assert np.allclose(online.coef, batch.coef, rtol=EQUIV_RTOL)
        assert np.isclose(online.intercept, batch.intercept, rtol=EQUIV_RTOL)
        assert np.allclose(
            online.predict(x), batch.predict(x), rtol=EQUIV_RTOL
        )

    def test_prefix_matches_batch_on_same_prefix(self):
        x, y, names = _synthetic()
        online = OnlineLeastSquares(names)
        online.partial_fit(x[:40], y[:40])
        batch = OrdinaryLeastSquares().fit(x[:40], y[:40])
        assert np.allclose(
            online.predict(x[40:]), batch.predict(x[40:]), rtol=EQUIV_RTOL
        )

    def test_constant_column_matches_batch(self):
        x, y, names = _synthetic(k=6)
        x[:, 2] = 4.25
        online = OnlineLeastSquares(names).partial_fit(x, y)
        batch = OrdinaryLeastSquares().fit(x, y)
        assert online.constant_features() == ("f02",)
        assert np.allclose(
            online.predict(x), batch.predict(x), rtol=EQUIV_RTOL
        )

    def test_state_roundtrip_is_bitwise(self):
        x, y, names = _synthetic(k=5)
        x[:, 0] = 1000.0  # exercise the constant-column lo/hi path
        online = OnlineLeastSquares(names).partial_fit(x, y)
        wire = json.loads(json.dumps(online.to_json_dict()))
        restored = OnlineLeastSquares.from_json_dict(wire)
        assert restored.n_samples == online.n_samples
        assert np.array_equal(restored.predict(x), online.predict(x))
        assert restored.constant_features() == online.constant_features()

    def test_roundtrip_before_any_sample(self):
        fresh = OnlineLeastSquares(("a", "b"))
        restored = OnlineLeastSquares.from_json_dict(fresh.to_json_dict())
        assert restored.n_samples == 0
        with pytest.raises(PredictionError):
            restored.predict(np.zeros((1, 2)))

    def test_malformed_state_rejected(self):
        good = OnlineLeastSquares(("a", "b")).to_json_dict()
        missing = {k: v for k, v in good.items() if k != "sxx"}
        with pytest.raises(PredictionError):
            OnlineLeastSquares.from_json_dict(missing)
        bad_shape = dict(good)
        bad_shape["sxy"] = [0.0, 0.0, 0.0]
        with pytest.raises(PredictionError):
            OnlineLeastSquares.from_json_dict(bad_shape)

    def test_subset_slices_the_moments(self):
        x, y, names = _synthetic(k=6)
        online = OnlineLeastSquares(names).partial_fit(x, y)
        view = online.subset([0, 3, 5])
        batch = OrdinaryLeastSquares().fit(x[:, [0, 3, 5]], y)
        assert view.feature_names == ("f00", "f03", "f05")
        assert np.allclose(
            view.predict(x[:, [0, 3, 5]]), batch.predict(x[:, [0, 3, 5]]),
            rtol=EQUIV_RTOL,
        )

    def test_subset_validates_columns(self):
        online = OnlineLeastSquares(("a", "b"))
        with pytest.raises(DatasetError):
            online.subset([])
        with pytest.raises(DatasetError):
            online.subset([2])

    def test_partial_fit_validates_width(self):
        online = OnlineLeastSquares(("a", "b"))
        with pytest.raises(DatasetError):
            online.partial_fit(np.zeros((3, 4)), np.zeros(3))

    def test_moment_metrics_match_direct_computation(self):
        x, y, names = _synthetic(k=4)
        online = OnlineLeastSquares(names).partial_fit(x, y)
        residuals = y - online.predict(x)
        assert np.isclose(
            online.residual_rmse(),
            float(np.sqrt(np.mean(residuals**2))),
            rtol=1e-8, atol=1e-10,
        )
        assert np.isclose(online.target_mean(), float(np.mean(y)))
        assert np.isclose(online.target_rmse(), float(np.std(y)))

    def test_ridge_matches_batch_ridge(self):
        x, y, names = _synthetic(k=8)
        online = OnlineLeastSquares(names).partial_fit(x, y)
        batch = OrdinaryLeastSquares(ridge_alpha=RFE_RIDGE_ALPHA).fit(x, y)
        assert np.allclose(
            online.ridge_standardized_coef(RFE_RIDGE_ALPHA),
            batch.standardized_coef,
            rtol=1e-6,
        )

    def test_ridge_alpha_must_be_positive(self):
        x, y, names = _synthetic(k=3)
        online = OnlineLeastSquares(names).partial_fit(x, y)
        with pytest.raises(PredictionError):
            online.ridge_standardized_coef(0.0)
        with pytest.raises(PredictionError):
            OrdinaryLeastSquares(ridge_alpha=-1.0)


class TestRfeOnline:
    def test_online_selection_matches_batch(self):
        x, y, names = _synthetic(k=12)
        rfe = RecursiveFeatureElimination(n_features=3, step=2)
        batch = rfe.fit(x, y, names)
        online_model = OnlineLeastSquares(names).partial_fit(x, y)
        online = rfe.fit_online(online_model)
        assert online.selected == batch.selected
        assert online.ranking == batch.ranking

    def test_rank_deficient_selection_matches_batch(self):
        # Fewer samples than features: the regime real PMU grids are in.
        # The ridge-damped ranking keeps both elimination paths aligned
        # where plain min-norm OLS would be solver-dependent.
        x, y, names = _synthetic(n=8, k=30, noise=0.5)
        rfe = RecursiveFeatureElimination(n_features=5, step=8)
        batch = rfe.fit(x, y, names)
        online = rfe.fit_online(OnlineLeastSquares(names).partial_fit(x, y))
        assert online.selected == batch.selected
        assert online.ranking == batch.ranking

    def test_too_few_columns_is_typed_error(self):
        x, y, names = _synthetic(k=4)
        rfe = RecursiveFeatureElimination(n_features=5)
        with pytest.raises(PredictionError):
            rfe.fit(x, y, names)
        with pytest.raises(PredictionError):
            rfe.fit_online(OnlineLeastSquares(names).partial_fit(x, y))

    def test_constant_column_is_typed_error(self):
        x, y, names = _synthetic(k=6)
        x[:, 1] = 7.0
        rfe = RecursiveFeatureElimination(n_features=2)
        with pytest.raises(DatasetError, match="zero-variance"):
            rfe.fit(x, y, names)
        with pytest.raises(DatasetError, match="zero-variance"):
            rfe.fit_online(OnlineLeastSquares(names).partial_fit(x, y))

    def test_unfitted_online_model_rejected(self):
        rfe = RecursiveFeatureElimination(n_features=2)
        with pytest.raises(PredictionError):
            rfe.fit_online(OnlineLeastSquares(("a", "b", "c")))


class TestCrossvalEdges:
    def test_fold_count_exceeding_samples_is_typed_error(self):
        x, y, names = _synthetic(n=4, k=2)
        dataset = RegressionDataset(x=x, y=y, feature_names=names)
        with pytest.raises(DatasetError, match="cannot form"):
            kfold_cross_validate(dataset, k=10)
        with pytest.raises(DatasetError, match="at least 2"):
            kfold_cross_validate(dataset, k=1)

    def test_constant_column_is_typed_error(self):
        x, y, names = _synthetic(n=20, k=4)
        x[:, 3] = -1.5
        dataset = RegressionDataset(x=x, y=y, feature_names=names)
        with pytest.raises(DatasetError, match="zero-variance"):
            kfold_cross_validate(dataset, k=4)
        cleaned, dropped = dataset.drop_constant_features()
        assert dropped == ("f03",)
        report = kfold_cross_validate(cleaned, k=4)
        assert len(report.fold_rmse) == 4


class TestStoreDatasets:
    def test_vmin_rows_follow_manifest_grid_order(self, store):
        dataset = vmin_dataset_from_store(store, core=0)
        assert dataset.tags == store.manifest.workloads == BENCHES

    def test_severity_unshuffled_rows_follow_grid_order(self, store):
        dataset = severity_dataset_from_store(store, core=0, max_samples=None)
        programs = [tag.split("@")[0] for tag in dataset.tags]
        # Per-program blocks appear in manifest order.
        block_order = [p for i, p in enumerate(programs)
                       if i == 0 or programs[i - 1] != p]
        assert block_order == [b for b in BENCHES if b in set(programs)]

    def test_out_of_grid_order_journal_yields_identical_rows(
        self, store, store_dir, tmp_path
    ):
        # Rebuild the store with its journal reversed -- the most
        # out-of-grid-order append history possible -- and require the
        # datasets to come out row-for-row identical.
        shuffled = tmp_path / "shuffled"
        shuffled.mkdir()
        shutil.copy(store_dir / "manifest.json", shuffled / "manifest.json")
        lines = (store_dir / "journal.jsonl").read_text().splitlines()
        (shuffled / "journal.jsonl").write_text(
            "\n".join(reversed(lines)) + "\n"
        )
        reordered = CampaignStore.open(shuffled)
        for core in CORES:
            a = vmin_dataset_from_store(store, core)
            b = vmin_dataset_from_store(reordered, core)
            assert a.tags == b.tags
            assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)
            a = severity_dataset_from_store(store, core, max_samples=None)
            b = severity_dataset_from_store(reordered, core, max_samples=None)
            assert a.tags == b.tags
            assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)

    def test_cursor_offsets_are_monotone_and_resumable(self, store):
        batches = list(iter_journal_datasets(store, core=0))
        assert {b.benchmark for b in batches} == set(BENCHES)
        offsets = [b.offset for b in batches]
        assert offsets == sorted(offsets)
        for cut in [0] + offsets:
            rest = list(iter_journal_datasets(store, core=0, start=cut))
            expected = [b.benchmark for b in batches if b.offset > cut]
            assert [b.benchmark for b in rest] == expected

    def test_stop_bounds_the_walk(self, store):
        total = len(store.campaigns())
        partial = list(iter_journal_datasets(store, core=0, stop=total // 2))
        everything = list(iter_journal_datasets(store, core=0))
        assert 0 < len(partial) < len(everything)

    def test_cursor_validates_inputs(self, store):
        with pytest.raises(DatasetError):
            list(iter_journal_datasets(store, core=0, start=10_000))
        with pytest.raises(DatasetError):
            list(iter_journal_datasets(store, core=0, target="entropy"))


class TestStreamingEquivalence:
    @pytest.mark.parametrize("target", ["vmin", "severity"])
    def test_streaming_matches_from_scratch_batch_fit(self, store, target):
        trainer = StreamingTrainer(store, core=0, target=target)
        trainer.consume()
        artifact = trainer.fit()
        if target == "vmin":
            batch = fit_vmin_model_from_store(store, 0)
            dataset = vmin_dataset_from_store(store, 0)
        else:
            batch = fit_severity_model_from_store(store, 0)
            dataset = severity_dataset_from_store(store, 0, max_samples=None)
        assert artifact.selected_features == batch.selected_features
        assert artifact.n_samples == batch.n_samples == len(dataset)
        assert np.allclose(
            artifact.predict_dataset(dataset),
            batch.predict(dataset),
            rtol=STORE_RTOL,
        )

    def test_chunked_replay_with_kill_and_resume(self, store, tmp_path):
        # One-shot reference.
        reference = StreamingTrainer(store, core=0, target="vmin")
        reference.consume()
        ref_artifact = reference.fit()

        # Chunked replay, killed at an arbitrary mid-journal offset.
        first = StreamingTrainer(store, core=0, target="vmin")
        first.consume(stop=7)
        assert 0 < first.journal_offset < len(store.campaigns())
        models = ModelStore(tmp_path)
        saved = models.save(first.fit())
        del first  # the "kill"

        resumed = StreamingTrainer.resume(store, models.load("vmin", 0))
        assert resumed.journal_offset == saved.journal_offset
        resumed.consume()
        final = resumed.fit()

        assert final.selected_features == ref_artifact.selected_features
        assert final.train_digest == ref_artifact.train_digest
        assert final.journal_offset == ref_artifact.journal_offset
        dataset = vmin_dataset_from_store(store, 0)
        assert np.allclose(
            final.predict_dataset(dataset),
            ref_artifact.predict_dataset(dataset),
            rtol=1e-12,
        )

    def test_resume_rejects_foreign_spec(self, store, tmp_path):
        trainer = StreamingTrainer(store, core=0, target="vmin")
        trainer.consume(stop=5)
        artifact = dataclasses.replace(
            trainer.fit(), spec_digest="0" * 64
        )
        with pytest.raises(PredictionError, match="different machine spec"):
            StreamingTrainer.resume(store, artifact)

    def test_resume_rejects_unusable_state(self, store):
        trainer = StreamingTrainer(store, core=0, target="vmin")
        trainer.consume(stop=5)
        artifact = trainer.fit()
        broken = dataclasses.replace(
            artifact,
            trainer_state={k: v for k, v in artifact.trainer_state.items()
                           if k != "estimator"},
        )
        with pytest.raises(PredictionError, match="trainer state"):
            StreamingTrainer.resume(store, broken)

    def test_shallow_journal_checkpoints_without_serving(self, store):
        trainer = StreamingTrainer(store, core=0, target="vmin")
        trainer.consume(stop=2)
        artifact = trainer.fit()
        assert trainer.n_samples < 2
        assert not artifact.is_servable
        with pytest.raises(CampaignError, match="no selected features"):
            artifact.predict_row({})
        # The checkpoint still resumes and catches up to the reference.
        resumed = StreamingTrainer.resume(store, artifact)
        resumed.consume()
        assert resumed.fit().is_servable

    def test_unknown_target_rejected(self, store):
        with pytest.raises(PredictionError):
            StreamingTrainer(store, core=0, target="entropy")

    def test_batch_fit_matches_pipeline_shapes(self, store):
        dataset = vmin_dataset_from_store(store, 0)
        fitted = batch_fit(dataset, target="vmin", core=0)
        assert len(fitted.selected_features) == 5
        assert fitted.rmse_train <= fitted.rmse_naive


class TestModelStore:
    def test_artifact_roundtrip_is_byte_identical(self, store, tmp_path):
        trainer = StreamingTrainer(store, core=0, target="vmin")
        trainer.consume()
        models = ModelStore(tmp_path)
        saved = models.save(trainer.fit())
        path = models.path_for("vmin", 0, saved.version)
        loaded = models.load("vmin", 0, saved.version)
        assert loaded.serialize().encode("utf-8") == path.read_bytes()
        assert loaded == saved

    def test_versions_are_monotonic(self, store, tmp_path):
        trainer = StreamingTrainer(store, core=0, target="vmin")
        trainer.consume(stop=6)
        models = ModelStore(tmp_path)
        v1 = models.save(trainer.fit())
        trainer.consume()
        v2 = models.save(trainer.fit())
        assert (v1.version, v2.version) == (1, 2)
        assert models.versions("vmin", 0) == [1, 2]
        assert models.load("vmin", 0).version == 2
        assert [(a.target, a.core, a.version)
                for a in models.latest_artifacts()] == [("vmin", 0, 2)]

    def test_missing_artifact_is_typed_error(self, tmp_path):
        models = ModelStore(tmp_path)
        with pytest.raises(CampaignError, match="no model artifacts"):
            models.load("vmin", 0)

    def test_format_tag_is_checked(self, store, tmp_path):
        trainer = StreamingTrainer(store, core=0, target="vmin")
        trainer.consume(stop=6)
        models = ModelStore(tmp_path)
        saved = models.save(trainer.fit())
        path = models.path_for("vmin", 0, saved.version)
        data = json.loads(path.read_text())
        data["format"] = "repro-model/v0"
        path.write_text(json.dumps(data))
        with pytest.raises(CampaignError, match="unsupported model-artifact"):
            models.load("vmin", 0)

    def test_mislabeled_file_is_rejected(self, store, tmp_path):
        trainer = StreamingTrainer(store, core=0, target="vmin")
        trainer.consume(stop=6)
        models = ModelStore(tmp_path)
        saved = models.save(trainer.fit())
        shutil.copy(
            models.path_for("vmin", 0, saved.version),
            models.models_path / "vmin-core0-v9.json",
        )
        with pytest.raises(CampaignError, match="mislabeled"):
            models.load("vmin", 0, version=9)

    def test_spec_digest_guard(self, store, tmp_path):
        trainer = StreamingTrainer(store, core=0, target="vmin")
        trainer.consume(stop=6)
        guarded = ModelStore(tmp_path, expected_spec_digest="f" * 64)
        with pytest.raises(CampaignError, match="does not match"):
            guarded.save(trainer.fit())

    def test_store_binds_model_store_to_its_spec(self, store):
        models = store.model_store()
        assert models.expected_spec_digest == store.manifest.spec.digest()
        assert models.models_path == store.directory / "models"

    def test_predict_row_requires_all_features(self, store):
        trainer = StreamingTrainer(store, core=0, target="vmin")
        trainer.consume()
        artifact = trainer.fit()
        with pytest.raises(CampaignError, match="missing features"):
            artifact.predict_row({artifact.selected_features[0]: 1.0})

    def test_train_set_digest_is_order_independent(self):
        pairs = [("a", 1.5), ("b", -2.0), ("c", 0.25)]
        assert train_set_digest(pairs) == train_set_digest(reversed(pairs))
        assert train_set_digest(pairs) != train_set_digest(pairs[:2])


class TestDriftTelemetry:
    def test_prequential_gauges_published(self, store):
        registry = MetricsRegistry()
        with telemetry.telemetry_session(metrics=registry):
            trainer = StreamingTrainer(store, core=0, target="vmin")
            trainer.consume()
        names = {family.name for family in registry.families()}
        assert telemetry.M_MODEL_RMSE in names
        assert telemetry.M_MODEL_DRIFT in names
        assert trainer.prequential_rmse is not None
        assert trainer.drift_ratio is not None

    def test_model_statuses_report_the_latest_artifacts(
        self, store_dir, tmp_path
    ):
        work = tmp_path / "store"
        shutil.copytree(store_dir, work)
        store = CampaignStore.open(work)
        trainer = StreamingTrainer(store, core=4, target="vmin")
        trainer.consume()
        store.model_store().save(trainer.fit())
        statuses = telemetry.model_statuses(work)
        assert len(statuses) == 1
        status = statuses[0]
        assert (status.target, status.core, status.version) == ("vmin", 4, 1)
        assert status.journal_offset == trainer.journal_offset
        assert status.servable
        assert status.drift is not None
        rendered = telemetry.render_model_status(statuses)
        assert "vmin c4: v1" in rendered and "drift" in rendered

    def test_render_without_models_hints_at_train(self):
        rendered = telemetry.render_model_status(())
        assert "repro train" in rendered


class TestCliStreaming:
    @pytest.fixture()
    def work_store(self, store_dir, tmp_path):
        work = tmp_path / "store"
        shutil.copytree(store_dir, work)
        return work

    def test_train_status_predict_loop(self, work_store, capsys):
        assert main(["train", str(work_store), "--core", "0"]) == 0
        out = capsys.readouterr().out
        assert "vmin c0: v1 saved" in out
        assert "severity c0: v1 saved" in out

        assert main(["status", str(work_store), "--models"]) == 0
        out = capsys.readouterr().out
        assert "model artifacts:" in out
        assert "vmin c0: v1 @offset" in out

        assert main(["predict", "--model", str(work_store)]) == 0
        out = capsys.readouterr().out
        assert "vmin model v1" in out
        assert "predicted" in out and "journaled" in out

    def test_train_resumes_from_saved_artifact(self, work_store, capsys):
        assert main(["train", str(work_store), "--target", "vmin"]) == 0
        capsys.readouterr()
        assert main(["train", str(work_store), "--target", "vmin"]) == 0
        out = capsys.readouterr().out
        assert "resuming from v1" in out
        assert "no new journal records" in out

    def test_train_follow_exits_when_store_complete(self, work_store, capsys):
        assert main([
            "train", str(work_store), "--target", "vmin", "--follow",
        ]) == 0
        out = capsys.readouterr().out
        assert "store complete; follow mode done" in out

    def test_train_rejects_core_off_grid(self, work_store, capsys):
        assert main(["train", str(work_store), "--core", "3"]) == 2
        assert "not in the store grid" in capsys.readouterr().err

    def test_predict_model_without_artifacts_is_an_error(
        self, work_store, capsys
    ):
        assert main(["predict", "--model", str(work_store)]) == 2
        assert "repro train" in capsys.readouterr().err

    def test_cli_predictions_match_the_artifact(self, work_store, capsys):
        assert main(["train", str(work_store), "--target", "vmin"]) == 0
        capsys.readouterr()
        store = CampaignStore.open(work_store)
        artifact = store.model_store().load("vmin", 0)
        dataset = vmin_dataset_from_store(store, 0)
        expected = dict(zip(dataset.tags, artifact.predict_dataset(dataset)))
        assert main(["predict", "--model", str(work_store), "--core", "0"]) == 0
        out = capsys.readouterr().out
        for name, value in expected.items():
            assert f"{name:<14} {value:>6.1f} mV" in out


class TestSingleCursorArtifact:
    """Compatibility: an artifact saved by ``repro train STORE`` while
    the trainer still held a single journal cursor (no per-shard
    ``fleet_cursors`` in its state) resumes under the per-shard
    trainer.

    The fixture holds that artifact's bytes: ``repro train STORE --core
    0 --target vmin`` on the grid below, with the journal truncated to
    its first six lines (three completed cells).
    """

    FIXTURE = Path(__file__).parent / "fixtures" / "train-vmin-core0-v1.json.gz"
    GRID = ["grid", "TTT", "--benchmarks", "bwaves,mcf,namd,gcc,soplex,zeusmp",
            "--cores", "0", "--campaigns", "2", "--runs-per-level", "3",
            "--start-mv", "930"]

    def test_single_cursor_artifact_resumes(self, tmp_path, capsys):
        legacy = gzip.decompress(self.FIXTURE.read_bytes())
        state = json.loads(legacy)["trainer_state"]
        assert "fleet_cursors" not in state
        store = tmp_path / "store"
        assert main([*self.GRID, "--store", str(store)]) == 0
        reference = tmp_path / "reference"
        shutil.copytree(store, reference)
        (store / "models").mkdir()
        (store / "models" / "vmin-core0-v1.json").write_bytes(legacy)
        capsys.readouterr()

        assert main(["train", str(store), "--core", "0",
                     "--target", "vmin"]) == 0
        out = capsys.readouterr().out
        assert "resuming from v1 (journal offset 6)" in out
        assert "v2 saved (+3 cells, 6 samples, offset 12" in out
        assert main(["train", str(reference), "--core", "0",
                     "--target", "vmin"]) == 0
        capsys.readouterr()

        resumed = CampaignStore.open(store).model_store().load("vmin", 0)
        fresh = CampaignStore.open(reference).model_store().load("vmin", 0)
        assert resumed.train_digest == fresh.train_digest
        assert resumed.selected_features == fresh.selected_features
        assert resumed.n_samples == fresh.n_samples == 6
        dataset = vmin_dataset_from_store(reference, 0)
        assert np.allclose(
            resumed.predict_dataset(dataset),
            fresh.predict_dataset(dataset),
            rtol=1e-12,
        )
