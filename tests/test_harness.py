import json
import struct
from dataclasses import replace

import numpy as np
import pytest

import mlpinit.harness as harness
from mlpinit.data import standardize, holdout_split
from mlpinit.errors import (
    DivergedTrainingError,
    FormatError,
    UnsupportedVersionError,
    ValidationError,
)
from mlpinit.evaluation import ConfusionMatrix, summarize
from mlpinit.harness import (
    STREAM_SPLIT,
    SUITE_SEED_OFFSETS,
    ExperimentConfig,
    ExperimentResult,
    SyntheticSpec,
    load_model,
    render_report,
    report_from_dict,
    report_to_dict,
    result_to_dict,
    run_experiment,
    run_suite,
    save_model,
    suite_to_dict,
    _load_dataset,
)
from mlpinit.initializers import KAIMING_NORMAL, XAVIER_UNIFORM, Family, InitScheme, DistKind
from mlpinit.network import Topology, backward, build_model, forward, predict
from mlpinit.numerics import Rng, derive_seed
from mlpinit.optimizer import Hyperparams, SgdMomentumState, preset_hyperparams, sgd_step


def small_config(**overrides):
    defaults = dict(
        topology=Topology.TWO_LAYER,
        scheme=KAIMING_NORMAL,
        seed=13,
        epochs=2,
        synthetic=SyntheticSpec(participants=4, records_per_participant=8),
        loo_enabled=False,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


class TestRunExperiment:
    def test_identical_configs_give_identical_json(self):
        a = json.dumps(result_to_dict(run_experiment(small_config())), sort_keys=True)
        b = json.dumps(result_to_dict(run_experiment(small_config())), sort_keys=True)
        assert a == b

    def test_loo_diagnostic_reported_when_enabled(self):
        result = run_experiment(small_config(loo_enabled=True))
        assert result.loo_accuracy is not None
        assert len(result.loo_outcomes) == 28  # trainval size for the 32-sample cohort
        assert 0.0 <= result.loo_accuracy <= 1.0

    def test_loo_skipped_when_disabled(self):
        result = run_experiment(small_config())
        assert result.loo_accuracy is None
        assert result.loo_outcomes is None

    def test_preset_hyperparams_used_by_default(self):
        result = run_experiment(small_config())
        assert result.config.resolved_hyperparams() == preset_hyperparams(
            Topology.TWO_LAYER, Family.KAIMING
        )

    def test_holdout_rows_never_enter_training(self, monkeypatch):
        captured = []
        real_train = harness._train

        def spy(config, features, labels, rows, rngs, names):
            captured.append(features[rows.ravel()])
            return real_train(config, features, labels, rows, rngs, names)

        monkeypatch.setattr(harness, "_train", spy)
        config = small_config(loo_enabled=True)
        run_experiment(config)

        # rebuild the standardized test split exactly as the pipeline does
        dataset = _load_dataset(config)
        trainval, test = holdout_split(
            dataset, config.holdout_fraction, seed=derive_seed(config.seed, STREAM_SPLIT)
        )
        (_, test_std), _, _ = standardize(trainval, test)
        test_rows = {row.tobytes() for row in test_std.features}
        assert captured, "training was never invoked"
        for features in captured:
            for row in features:
                assert row.tobytes() not in test_rows

    def test_divergence_raises_with_epoch_and_config(self):
        config = small_config(
            hyperparams=Hyperparams(8, 1e308, 0.6), epochs=3, seed=2
        )
        with np.errstate(all="ignore"), pytest.raises(
            DivergedTrainingError, match=r"epoch \d+.*2-layer.*final training"
        ):
            run_experiment(config)
        with np.errstate(all="ignore"), pytest.raises(
            DivergedTrainingError, match=r"epoch \d+.*2-layer.*LOO fold \d+"
        ):
            run_experiment(replace(config, loo_enabled=True))

    def test_loo_and_final_training_match_one_model_per_fold(self, monkeypatch):
        trained = {}  # model name -> that model's trained parameters
        real_train = harness._train

        def spy(config, features, labels, rows, rngs, names):
            stacked = real_train(config, features, labels, rows, rngs, names)
            for k, name in enumerate(names):
                trained[name] = stacked.fold(k)
            return stacked

        monkeypatch.setattr(harness, "_train", spy)
        # 28 trainval rows: three full lockstep groups and a short one of 4
        config = small_config(topology=Topology.THREE_LAYER, loo_enabled=True)
        result = run_experiment(config)
        hp = config.resolved_hyperparams()
        dataset = _load_dataset(config)
        trainval, test = holdout_split(
            dataset, config.holdout_fraction, seed=derive_seed(config.seed, STREAM_SPLIT)
        )
        (trainval_std, _), _, _ = standardize(trainval, test)
        features, labels = trainval_std.features, trainval_std.labels
        n = len(labels)
        assert n == 28 and n % harness.LOO_GROUP_SIZE != 0

        def train_alone(rng, rows):
            model = build_model(rng, config.topology, config.scheme)
            state = SgdMomentumState(model)
            x_all, y_all = features[rows], labels[rows]
            for _ in range(config.epochs):
                order = rng.permutation(len(rows))
                for start in range(0, len(rows), hp.batch_size):
                    idx = order[start : start + hp.batch_size]
                    fwd = forward(model, x_all[idx])
                    sgd_step(state, model, backward(model, fwd, y_all[idx]), hp)
            return model

        def assert_same(got, want):
            for a, b in zip(got.layers, want.layers):
                assert a.weights.shape == b.weights.shape
                assert a.weights.tobytes() == b.weights.tobytes()
                assert a.bias.tobytes() == b.bias.tobytes()

        loo_root = derive_seed(config.seed, harness.STREAM_LOO)
        expected = []
        for k in range(n):
            model = train_alone(Rng(derive_seed(loo_root, k)), np.delete(np.arange(n), k))
            assert_same(trained[f"LOO fold {k}"], model)
            expected.append(bool(predict(model, features[k : k + 1])[0] == labels[k]))
        assert result.loo_outcomes == expected

        final = train_alone(Rng(derive_seed(config.seed, harness.STREAM_FINAL)), np.arange(n))
        assert_same(trained["final training"], final)
        assert_same(result.model, final)

    def test_config_requires_exactly_one_source(self):
        with pytest.raises(ValidationError):
            ExperimentConfig(
                topology=Topology.ONE_LAYER, scheme=KAIMING_NORMAL, seed=0
            )
        with pytest.raises(ValidationError):
            ExperimentConfig(
                topology=Topology.ONE_LAYER,
                scheme=KAIMING_NORMAL,
                seed=0,
                csv_path="x.csv",
                synthetic=SyntheticSpec(),
            )


class TestRunSuite:
    def test_six_cells_in_fixed_order_with_presets(self):
        cells = run_suite(small_config())
        assert [(c.topology, c.family) for c in cells] == list(SUITE_SEED_OFFSETS)
        for cell in cells:
            assert cell.error is None
            assert cell.seed == 13 + SUITE_SEED_OFFSETS[(cell.topology, cell.family)]
            assert cell.result.config.resolved_hyperparams() == preset_hyperparams(
                cell.topology, cell.family
            )

    def test_suite_rerun_is_identical(self):
        a = suite_to_dict(13, run_suite(small_config()))
        b = suite_to_dict(13, run_suite(small_config()))
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_cell_alone_reproduces_suite_cell(self):
        cells = run_suite(small_config())
        cell = next(
            c for c in cells if (c.topology, c.family) == (Topology.THREE_LAYER, Family.XAVIER)
        )
        alone = run_experiment(
            small_config(
                topology=Topology.THREE_LAYER,
                scheme=InitScheme(Family.XAVIER, DistKind.NORMAL),
                seed=cell.seed,
            )
        )
        assert result_to_dict(alone) == result_to_dict(cell.result)

    def test_cell_errors_do_not_abort_suite(self, monkeypatch):
        real = harness.run_experiment

        def flaky(config):
            if config.topology is Topology.TWO_LAYER and config.scheme.family is Family.XAVIER:
                raise ValidationError("injected failure")
            return real(config)

        monkeypatch.setattr(harness, "run_experiment", flaky)
        cells = run_suite(small_config())
        failed = [c for c in cells if c.error is not None]
        assert len(failed) == 1
        assert "injected failure" in failed[0].error
        assert sum(c.result is not None for c in cells) == 5

    def test_dist_variant_carries_into_cells(self):
        cells = run_suite(small_config(scheme=XAVIER_UNIFORM))
        for cell in cells:
            assert cell.result.config.scheme.dist is DistKind.UNIFORM


class TestRendering:
    def test_report_layout(self):
        result = run_experiment(small_config(loo_enabled=True))
        text = render_report([result])
        for token in ("Depression Level", "Precision", "Recall", "F1 score",
                      "None", "Mild", "Moderate", "Severe", "Average",
                      "Overall Accuracy", "LOO validation accuracy"):
            assert token in text

    def test_single_class_predictions_render_zeros_not_nan(self):
        counts = np.zeros((4, 4), dtype=int)
        counts[:, 0] = [5, 5, 5, 5]  # everything predicted as class 0
        report = summarize(ConfusionMatrix(counts))
        result = ExperimentResult(
            config=small_config(), holdout=report,
            loo_accuracy=None, loo_outcomes=None, wall_time=0.0,
        )
        text = render_report([result])
        assert "0.00" in text
        assert "nan" not in text.lower()

    def test_two_decimal_rounding(self):
        counts = np.diag([1, 1, 1, 0])
        counts[3, 0] = 2  # accuracy 3/5 = 0.6
        report = summarize(ConfusionMatrix(counts))
        result = ExperimentResult(
            config=small_config(), holdout=report,
            loo_accuracy=None, loo_outcomes=None, wall_time=0.0,
        )
        assert "0.60" in render_report([result])

    def test_report_json_round_trip_is_exact(self):
        result = run_experiment(small_config())
        blob = json.dumps(result_to_dict(result), sort_keys=True)
        parsed = report_from_dict(json.loads(blob)["holdout"])
        assert parsed == result.holdout

    def test_report_dict_full_precision(self):
        result = run_experiment(small_config())
        d = report_to_dict(result.holdout)
        assert d["accuracy"] == result.holdout.accuracy  # no rounding


class TestModelSerialization:
    def test_round_trip_bit_exact_forward(self, tmp_path):
        model = build_model(Rng(44), Topology.THREE_LAYER, KAIMING_NORMAL)
        path = tmp_path / "model.bin"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.topology is Topology.THREE_LAYER
        probe = Rng(45).normal(6 * 85).reshape(6, 85)
        np.testing.assert_array_equal(
            forward(loaded, probe).probs, forward(model, probe).probs
        )

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOTMODEL" + b"\x00" * 64)
        with pytest.raises(FormatError, match="magic"):
            load_model(path)

    def test_higher_version_rejected_naming_versions(self, tmp_path):
        model = build_model(Rng(1), Topology.ONE_LAYER, KAIMING_NORMAL)
        path = tmp_path / "future.bin"
        save_model(model, path)
        blob = bytearray(path.read_bytes())
        blob[8:12] = struct.pack("<I", 9)
        path.write_bytes(bytes(blob))
        with pytest.raises(UnsupportedVersionError, match="version 9.*1"):
            load_model(path)

    def test_truncated_file_rejected(self, tmp_path):
        model = build_model(Rng(1), Topology.TWO_LAYER, KAIMING_NORMAL)
        path = tmp_path / "trunc.bin"
        save_model(model, path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(FormatError, match="truncated"):
            load_model(path)

    def test_trailing_garbage_rejected(self, tmp_path):
        model = build_model(Rng(1), Topology.ONE_LAYER, KAIMING_NORMAL)
        path = tmp_path / "extra.bin"
        save_model(model, path)
        path.write_bytes(path.read_bytes() + b"xx")
        with pytest.raises(FormatError, match="trailing"):
            load_model(path)
