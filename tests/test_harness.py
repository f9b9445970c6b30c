import json
import multiprocessing
import os
import re
import struct
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
import reference_trainer
from conftest import HAS_FORK, needs_fork, reaped, run_python

import mlpinit.harness as harness
from mlpinit import _pool, network, numerics
from mlpinit.data import Dataset, holdout_split, save_csv, standardize, synthesize_dataset
from mlpinit.errors import (
    DivergedTrainingError,
    FormatError,
    ShapeError,
    UnsupportedVersionError,
    ValidationError,
)
from mlpinit.evaluation import summarize
from mlpinit.harness import (
    STREAM_SPLIT,
    SUITE_SEED_OFFSETS,
    ExperimentConfig,
    ExperimentResult,
    SyntheticSpec,
    config_to_dict,
    load_model,
    render_report,
    report_to_dict,
    result_to_dict,
    run_experiment,
    run_suite,
    save_model,
    suite_to_dict,
    _load_dataset,
)
from mlpinit.initializers import (
    KAIMING_NORMAL,
    XAVIER_NORMAL,
    XAVIER_UNIFORM,
    DistKind,
    Family,
    InitScheme,
)
from mlpinit.network import Topology, backward, build_model, forward, predict
from mlpinit.numerics import Rng, derive_seed
from mlpinit.optimizer import Hyperparams, preset_hyperparams, sgd_step


# Minor page faults of one full lockstep group's _train at 10 and at 40 epochs,
# after a warm-up call, and the number of extra steps the longer one takes.
FAULT_PROBE = """
import json, resource
from dataclasses import replace
import numpy as np
from mlpinit import harness
from mlpinit.harness import ExperimentConfig, SyntheticSpec
from mlpinit.initializers import KAIMING_NORMAL
from mlpinit.network import Topology
from mlpinit.numerics import Rng

n = 156  # the default cohort's trainval size: LOO folds of 155 rows
features = Rng(5).normal(n * 85).reshape(n, 85)
labels = np.arange(n) % 4
rows = np.stack([np.delete(np.arange(n), k) for k in range(harness.LOO_GROUP_SIZE)])
config = ExperimentConfig(topology=Topology.THREE_LAYER, scheme=KAIMING_NORMAL, seed=1,
                          synthetic=SyntheticSpec(), loo_enabled=False)
steps_per_epoch = -(-(n - 1) // config.resolved_hyperparams().batch_size)
# Only this thread's faults: the training runs here, and OpenBLAS's idle
# threads fault on their own schedule (Linux has RUSAGE_THREAD).
WHO = getattr(resource, "RUSAGE_THREAD", resource.RUSAGE_SELF)

def faults(epochs):
    rngs = [Rng(k) for k in range(len(rows))]
    names = [f"fold {k}" for k in range(len(rows))]
    before = resource.getrusage(WHO).ru_minflt
    harness._train(replace(config, epochs=epochs), features, labels, rows, rngs, names)
    return resource.getrusage(WHO).ru_minflt - before

faults(10)  # warm-up
print(json.dumps([faults(10), faults(40), 30 * steps_per_epoch]))
"""

# One pooled LOO experiment with two forced workers. Python 3.12 and later
# warn when a process that has threads (OpenBLAS keeps some) forks.
FORK_PROBE = """
from mlpinit import _pool
from mlpinit.harness import ExperimentConfig, SyntheticSpec, run_experiment
from mlpinit.initializers import KAIMING_NORMAL
from mlpinit.network import Topology

_pool.workers = lambda n_tasks: 2
run_experiment(ExperimentConfig(
    topology=Topology.TWO_LAYER, scheme=KAIMING_NORMAL, seed=13, epochs=2,
    synthetic=SyntheticSpec(participants=4, records_per_participant=8),
))
"""

# A run without LOO has one task: whether the pool modules were imported.
NO_POOL_PROBE = """
import sys
from mlpinit.harness import ExperimentConfig, SyntheticSpec, run_experiment
from mlpinit.initializers import KAIMING_NORMAL
from mlpinit.network import Topology

run_experiment(ExperimentConfig(
    topology=Topology.TWO_LAYER, scheme=KAIMING_NORMAL, seed=13, epochs=2,
    synthetic=SyntheticSpec(participants=4, records_per_participant=8), loo_enabled=False,
))
print("multiprocessing" in sys.modules, "concurrent.futures.process" in sys.modules)
"""

_TEST_PID = os.getpid()
_real_loo_group = harness._loo_group


def _loo_group_dying_after_first(config, features, labels, loo_root, first):
    """_loo_group, except that the 3-layer Xavier config's worker process
    dies at every group but the first. Module-level, so that a worker pool
    can pickle it; it never ends the test process itself."""
    xavier3 = config.topology is Topology.THREE_LAYER and config.scheme.family is Family.XAVIER
    if xavier3 and first > 0 and os.getpid() != _TEST_PID:
        os._exit(9)
    return _real_loo_group(config, features, labels, loo_root, first)


# Bound on _train's error against tests/reference_trainer.py, as
# max |got - want| / max |want| over each weight or bias array. In the
# reference test's 16 cases, each run with 30 seeds of data and initial
# weights, the worst was 2.5e-15 (a 1-layer model, whose small biases are
# the denominator); the bound is 40 times that.
REFERENCE_RTOL = 1e-13


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


def train_by_public_calls(config, features, labels, rng, rows):
    """One model trained as ``_train`` documents, from public forward,
    backward and sgd_step calls, one layer array at a time."""
    hp = config.resolved_hyperparams()
    model = build_model(rng, config.topology, config.scheme)
    velocity = [(np.zeros_like(l.weights), np.zeros_like(l.bias)) for l in model.layers]
    x_all, y_all = features[rows], labels[rows]
    for _ in range(config.epochs):
        order = rng.permutation(len(rows))
        for start in range(0, len(rows), hp.batch_size):
            idx = order[start : start + hp.batch_size]
            grads = backward(forward(model, x_all[idx]), y_all[idx])
            for layer, (v_w, v_b), d_w, d_b in zip(
                model.layers, velocity, grads.d_weights, grads.d_bias
            ):
                sgd_step(layer.weights, v_w, d_w, hp)
                sgd_step(layer.bias, v_b, d_b, hp)
    return model


def assert_same(got, want):
    for a, b in zip(got.layers, want.layers):
        assert a.weights.shape == b.weights.shape
        assert a.weights.tobytes() == b.weights.tobytes()
        assert a.bias.tobytes() == b.bias.tobytes()


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
        assert result.loo_accuracy == sum(result.loo_outcomes) / 28

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
        # In-process LOO: a spy in a forked worker records nothing this test sees.
        monkeypatch.setattr(_pool, "workers", lambda n_tasks: 1)
        config = small_config(loo_enabled=True)
        run_experiment(config)

        # rebuild the standardized test split exactly as the pipeline does
        dataset = _load_dataset(config, {})
        trainval, test = holdout_split(
            dataset, config.holdout_fraction, seed=derive_seed(config.seed, STREAM_SPLIT)
        )
        (_, test_std), _, _ = standardize(trainval, test)
        test_rows = {row.tobytes() for row in test_std.features}
        assert captured, "training was never invoked"
        for features in captured:
            for row in features:
                assert row.tobytes() not in test_rows

    def test_holdout_features_reach_only_the_holdout_predictions(self, tmp_path):
        # Black-box: arbitrary holdout features leave the trained bits and the
        # LOO outcomes alone, so neither the training rows nor the
        # standardization statistics read them. Each row's participant id is
        # its index, so the split names the holdout rows.
        cohort = synthesize_dataset(5, 6, 8, 1.0)
        ids = np.arange(len(cohort))
        seed = 13
        _, test = holdout_split(
            Dataset(cohort.features, cohort.labels, ids), ExperimentConfig.holdout_fraction,
            seed=derive_seed(seed, STREAM_SPLIT),
        )
        features = cohort.features.copy()
        features[test.participants] = np.random.default_rng(0).uniform(-50, 50, test.features.shape)
        results = []
        for name, rows in (("kept", cohort.features), ("replaced", features)):
            path = tmp_path / f"{name}.csv"
            save_csv(Dataset(rows, cohort.labels, ids), path)
            results.append(run_experiment(small_config(
                seed=seed, epochs=3, loo_enabled=True, synthetic=None, csv_path=str(path)
            )))
        kept, replaced = results
        assert len(kept.loo_outcomes) == len(cohort) - len(test)
        assert replaced.loo_outcomes == kept.loo_outcomes
        assert_same(replaced.model, kept.model)
        assert replaced.holdout != kept.holdout

    def test_participant_ids_reach_nothing(self, tmp_path):
        # The protocol is record-wise: the splits, the LOO folds and the
        # training read labels and features only, so shuffling the
        # participant column leaves every output bit alone.
        cohort = synthesize_dataset(5, 6, 8, 1.0)
        shuffled = cohort.participants[Rng(9).permutation(len(cohort))]
        assert (shuffled != cohort.participants).any()
        results = []
        for name, ids in (("kept", cohort.participants), ("shuffled", shuffled)):
            path = tmp_path / f"{name}.csv"
            save_csv(Dataset(cohort.features, cohort.labels, ids), path)
            results.append(run_experiment(small_config(
                seed=13, epochs=3, loo_enabled=True, synthetic=None, csv_path=str(path)
            )))
        kept, shuffled = results
        assert shuffled.holdout == kept.holdout
        assert shuffled.loo_outcomes == kept.loo_outcomes
        assert_same(shuffled.model, kept.model)

    @pytest.mark.parametrize("seed", range(3))
    def test_per_feature_positive_affine_maps_leave_the_outcomes_alone(self, tmp_path, seed):
        # Standardization undoes a positive scale and a shift per feature,
        # up to rounding: the model bits move, but no prediction does. A
        # scratch probe of 72 cases (12 maps x 6 cells, this cohort, 3
        # epochs) and 24 on the 192-row default cohort at 30 epochs found
        # the report and the LOO outcomes equal in every one.
        cohort = synthesize_dataset(5, 6, 8, 1.0)
        draws = Rng(100 + seed)
        mapped = cohort.features * draws.uniform(0.5, 3.0, 85) + draws.uniform(-10.0, 10.0, 85)
        results = []
        for name, features in (("raw", cohort.features), ("mapped", mapped)):
            path = tmp_path / f"{name}.csv"
            save_csv(Dataset(features, cohort.labels, cohort.participants), path)
            results.append(run_experiment(small_config(
                seed=13 + seed, epochs=3, loo_enabled=True, synthetic=None, csv_path=str(path)
            )))
        raw, mapped = results
        assert mapped.holdout == raw.holdout
        assert mapped.loo_outcomes == raw.loo_outcomes

    def test_divergence_raises_with_epoch_and_config(self, monkeypatch):
        monkeypatch.setattr(harness, "preset_hyperparams", lambda *cell: Hyperparams(8, 1e308, 0.6))
        config = small_config(epochs=3, seed=2)
        with np.errstate(all="ignore"), pytest.raises(
            DivergedTrainingError, match=r"epoch \d+.*2-layer.*final training"
        ):
            run_experiment(config)
        messages = []
        for workers in (1, 2) if HAS_FORK else (1,):  # in-process, then the pool
            monkeypatch.setattr(_pool, "workers", lambda n_tasks: workers)
            with np.errstate(all="ignore"), pytest.raises(
                DivergedTrainingError, match=r"epoch \d+.*2-layer.*LOO fold \d+"
            ) as raised:
                run_experiment(replace(config, loo_enabled=True))
            messages.append(str(raised.value))
            assert multiprocessing.active_children() == []
        assert messages[0] == messages[-1]

    @needs_fork
    def test_worker_pool_matches_in_process_loo(self, monkeypatch):
        # 28 trainval rows: one full lockstep group of 20 and a short one of 8.
        # Two workers are forced, so a 1-CPU machine runs the pool too.
        config = small_config(topology=Topology.THREE_LAYER, loo_enabled=True)
        runs = []
        for workers in (2, 1):
            monkeypatch.setattr(_pool, "workers", lambda n_tasks: workers)
            result = run_experiment(config)
            assert multiprocessing.active_children() == []
            runs.append((
                json.dumps(result_to_dict(result), sort_keys=True),
                result.loo_outcomes,
                b"".join(l.weights.tobytes() + l.bias.tobytes() for l in result.model.layers),
            ))
        assert len(runs[0][1]) == 28
        assert runs[0] == runs[1]

    @pytest.mark.skipif(sys.platform != "linux", reason="LOO workers are forked on Linux only")
    def test_worker_count_follows_cpu_affinity_and_groups(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
        assert [_pool.workers(n) for n in (1, 3, 20)] == [1, 3, 4]
        # multiprocessing.Pool workers are daemonic and may not start children;
        # the forked worker sees the patched affinity too.
        with multiprocessing.get_context("fork").Pool(1) as pool:
            assert pool.apply_async(_pool.workers, (20,)).get(timeout=60) == 1

    def test_loo_and_final_training_match_one_model_per_fold(self, monkeypatch):
        trained = {}  # model name -> that model's trained parameters
        real_train = harness._train

        def spy(config, features, labels, rows, rngs, names):
            stacked = real_train(config, features, labels, rows, rngs, names)
            for k, name in enumerate(names):
                trained[name] = stacked.fold(k)
            return stacked

        monkeypatch.setattr(harness, "_train", spy)
        # In-process LOO: a spy in a forked worker records nothing this test sees.
        monkeypatch.setattr(_pool, "workers", lambda n_tasks: 1)
        # 28 trainval rows: one full lockstep group of 20 and a short one of 8
        config = small_config(topology=Topology.THREE_LAYER, loo_enabled=True)
        result = run_experiment(config)
        dataset = _load_dataset(config, {})
        trainval, test = holdout_split(
            dataset, config.holdout_fraction, seed=derive_seed(config.seed, STREAM_SPLIT)
        )
        (trainval_std, _), _, _ = standardize(trainval, test)
        features, labels = trainval_std.features, trainval_std.labels
        n = len(labels)
        assert n == 28 and n % harness.LOO_GROUP_SIZE != 0

        def train_alone(rng, rows):
            return train_by_public_calls(config, features, labels, rng, rows)

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

    @pytest.mark.parametrize("folds", [1, 20])
    @pytest.mark.parametrize("family", list(Family), ids=lambda f: f.value)
    @pytest.mark.parametrize("topology", list(Topology), ids=lambda t: t.name)
    def test_train_matches_a_loop_of_public_calls(self, topology, family, folds):
        # Every fold trains on 44 rows: each epoch has full batches and a
        # short last one (36 + 8, or 24 + 20 for the batch-24 presets).
        n = 45
        features = Rng(5).normal(n * 85).reshape(n, 85)
        labels = (np.arange(n) * 7) % 4
        rows = np.stack([np.delete(np.arange(n), k) for k in range(folds)])
        config = small_config(topology=topology, scheme=InitScheme(family, DistKind.UNIFORM),
                              epochs=3)
        assert rows.shape[1] % config.resolved_hyperparams().batch_size != 0
        stacked = harness._train(config, features, labels, rows,
                                 [Rng(k) for k in range(folds)], [f"m{k}" for k in range(folds)])
        for k in range(folds):
            assert_same(stacked.fold(k),
                        train_by_public_calls(config, features, labels, Rng(k), rows[k]))

    @pytest.mark.parametrize("batch", ["preset", 5])
    @pytest.mark.parametrize("folds", [1, 3])
    @pytest.mark.parametrize("family", list(Family), ids=lambda f: f.value)
    @pytest.mark.parametrize("topology", [Topology.ONE_LAYER, Topology.THREE_LAYER],
                             ids=lambda t: t.name)
    def test_train_matches_the_reference_trainer(self, monkeypatch, topology, family, folds,
                                                 batch):
        # tests/reference_trainer.py states the training loop once more in
        # plain Python floats, from the same initial weights and epoch
        # orders. One fold trains on 12 rows; three LOO folds of 13 rows
        # train on 12 each. The presets' batches (24, 36) hold all 12, so
        # each epoch is one short batch; a batch of 5 walks 5 + 5 + 2.
        n = 12 if folds == 1 else 13
        features = Rng(6).normal(n * 85).reshape(n, 85)
        labels = (np.arange(n) * 7) % 4
        rows = [[r for r in range(n) if r != k] for k in range(folds)]
        if folds == 1:
            rows = [list(range(n))]
        config = small_config(topology=topology, scheme=InitScheme(family, DistKind.NORMAL),
                              epochs=3)
        hp = config.resolved_hyperparams()
        if batch != "preset":
            hp = replace(hp, batch_size=batch)
            monkeypatch.setattr(ExperimentConfig, "resolved_hyperparams", lambda self: hp)
        stacked = harness._train(config, features, labels, np.array(rows),
                                 [Rng(k) for k in range(folds)], [f"m{k}" for k in range(folds)])
        for k in range(folds):
            rng = Rng(k)
            start = [(l.weights.tolist(), l.bias.tolist())
                     for l in build_model(rng, topology, config.scheme).layers]
            want = reference_trainer.train(features.tolist(), labels.tolist(), rows[k], start,
                                           lambda m: rng.permutation(m).tolist(), hp, config.epochs)
            for layer, (w, b) in zip(stacked.fold(k).layers, want):
                for got, expected in ((layer.weights, np.array(w)), (layer.bias, np.array(b))):
                    assert np.abs(got - expected).max() <= REFERENCE_RTOL * np.abs(expected).max()

    def test_train_checks_its_inputs_once(self, monkeypatch):
        # Every step runs a step plan, which checks nothing, so a training
        # checks its features, labels and row maps once, not once per step.
        calls = dict.fromkeys(("_check_ints", "_check_batch"), 0)

        def counting(name, real):
            def check(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            return check

        for name in calls:
            holders = [module for module in (numerics, network, harness) if hasattr(module, name)]
            assert holders, f"no module defines {name}, so nothing would be counted"
            for module in holders:
                monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
        n = 40
        features = Rng(3).normal(n * 85).reshape(n, 85)
        labels = np.arange(n) % 4
        # 5 steps per epoch over 39 rows
        monkeypatch.setattr(harness, "preset_hyperparams", lambda *cell: Hyperparams(8, 0.01, 0.6))
        for folds in (1, 3):
            counted = []
            for epochs in (1, 3):
                calls.update(dict.fromkeys(calls, 0))
                harness._train(
                    small_config(epochs=epochs), features, labels,
                    np.stack([np.delete(np.arange(n), k) for k in range(folds)]),
                    [Rng(k) for k in range(folds)], [f"model {k}" for k in range(folds)],
                )
                counted.append(dict(calls))
            assert all(counted[0].values()) and counted[0] == counted[1], counted

    def test_train_rejects_bad_inputs_up_front(self):
        n = 12
        features = Rng(3).normal(n * 85).reshape(n, 85)
        labels = np.arange(n) % 4
        rows = np.stack([np.delete(np.arange(n), k) for k in range(2)])
        rngs, names = [Rng(0), Rng(1)], ["model 0", "model 1"]
        config = small_config()
        with pytest.raises(ValidationError, match=r"row maps.*\[0, 12\)"):
            harness._train(config, features, labels, rows + 1, rngs, names)
        with pytest.raises(ShapeError, match="row maps"):
            harness._train(config, features, labels, rows[:1], rngs, names)
        with pytest.raises(ValidationError, match="label 4"):
            harness._train(config, features, labels + 1, rows, rngs, names)
        with pytest.raises(ShapeError, match="features"):
            harness._train(config, features[:, :84], labels, rows, rngs, names)

    @needs_fork
    def test_dead_worker_changes_no_result(self, monkeypatch, forks):
        monkeypatch.setattr(_pool, "workers", lambda n_tasks: 2)
        config = small_config(topology=Topology.THREE_LAYER, scheme=XAVIER_NORMAL, loo_enabled=True)
        expected = json.dumps(result_to_dict(run_experiment(config)))
        monkeypatch.setattr(harness, "_loo_group", _loo_group_dying_after_first)
        forks.clear()
        assert json.dumps(result_to_dict(run_experiment(config))) == expected
        assert len(forks) == 2  # a pool started, so a worker took a group that kills it
        assert all(reaped(pid) for pid in forks)
        assert multiprocessing.active_children() == []

    @needs_fork
    def test_pooled_loo_raises_no_deprecation_warning(self):
        # Shows, on Python 3.12 and later, the fork-with-threads warning
        # that the worker pool has yet to avoid.
        done = run_python("-W", "error::DeprecationWarning", "-c", FORK_PROBE)
        assert done.returncode == 0, done.stderr

    def test_lockstep_steps_take_no_page_faults(self):
        # Steps reuse their buffers, so training longer adds no minor page
        # faults in the training thread: only the first touches of a new
        # model and its buffers fault. A fresh interpreter runs the count,
        # because the allocator's thresholds in this process depend on what
        # earlier tests freed. It runs with glibc's default mmap threshold
        # made static: the dynamic one rises when a large block is freed, so
        # whether the short run reuses memory that the long one does not
        # depends on the heap layout, down to the size of the environment.
        # Static, it also makes any per-step allocation of 128 KiB or more
        # fault on every step, not just the first.
        resource = pytest.importorskip("resource")
        if not hasattr(resource.getrusage(resource.RUSAGE_SELF), "ru_minflt"):
            pytest.skip("getrusage reports no minor page faults here")
        env = {k: None for k in os.environ if k.startswith("MALLOC_")}
        env["MALLOC_MMAP_THRESHOLD_"] = "131072"
        done = run_python("-c", FAULT_PROBE, env=env)
        assert done.returncode == 0, done.stderr
        short, long, steps = json.loads(done.stdout)
        assert (long - short) / steps < 0.2, f"{long - short} more faults over {steps} steps"

    @pytest.mark.parametrize(
        "field, value",
        [
            ("epochs", 2.5),
            ("epochs", True),
            ("seed", "7"),
            ("seed", np.int64(3)),
            ("topology", 3),
            ("scheme", "kaiming"),
            ("participants", 2.5),
            ("participants", 1),
            ("separation", "2"),
            ("separation", np.float32(2.0)),
            ("records_per_participant", True),
            ("synthetic", {"participants": 4}),
            ("csv_path", 123),
            ("csv_path", Path("x.csv")),
            ("loo_enabled", "no"),
        ],
        ids=[
            "float-epochs", "bool-epochs", "str-seed", "numpy-seed", "int-topology",
            "str-scheme", "float-participants", "one-participant", "str-separation",
            "float32-separation", "bool-records",
            "dict-synthetic", "int-csv-path", "path-csv-path", "str-loo-enabled",
        ],
    )
    def test_config_rejects_wrong_field_types(self, field, value):
        with pytest.raises(ValidationError, match=f"{field} must be"):
            if field in {f.name for f in fields(SyntheticSpec)}:
                SyntheticSpec(**{field: value})
            else:
                small_config(**{field: value})

    def test_config_has_no_override_or_holdout_knob(self):
        # every cell trains with its preset and holds out a fixed 20%
        with pytest.raises(TypeError):
            small_config(hyperparams=Hyperparams(8, 0.01, 0.6))
        with pytest.raises(TypeError):
            small_config(holdout_fraction=0.3)
        assert small_config().holdout_fraction == 0.2

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
        real = harness._final_training

        def flaky(config, features, labels):
            if config.topology is Topology.TWO_LAYER and config.scheme.family is Family.XAVIER:
                raise ValidationError("injected failure")
            return real(config, features, labels)

        monkeypatch.setattr(harness, "_final_training", flaky)
        cells = run_suite(small_config())
        failed = [c for c in cells if c.error is not None]
        assert len(failed) == 1
        assert "injected failure" in failed[0].error
        assert sum(c.result is not None for c in cells) == 5

    def test_suite_parses_each_csv_once(self, tmp_path, monkeypatch):
        path = tmp_path / "cohort.csv"
        save_csv(synthesize_dataset(5, 4, 8, 2.0), path)
        real, calls = harness.load_csv, []

        def counting(csv_path):
            calls.append(csv_path)
            return real(csv_path)

        monkeypatch.setattr(harness, "load_csv", counting)
        config = small_config(synthetic=None, csv_path=str(path))
        cells = run_suite(config)
        assert calls == [str(path)]
        # each cell still gets its own result: the one it gets alone
        for cell in cells:
            alone = run_experiment(replace(
                config, topology=cell.topology,
                scheme=InitScheme(cell.family, config.scheme.dist), seed=cell.seed,
            ))
            assert result_to_dict(cell.result) == result_to_dict(alone)
        # a bad or missing file raises from the suite what it raises alone
        path.write_text("participant,label\n")
        for csv_path in (str(path), str(tmp_path / "missing.csv")):
            calls.clear()
            bad = replace(config, csv_path=csv_path)
            with pytest.raises((FormatError, OSError)) as in_suite:
                run_suite(bad)
            assert calls == [csv_path]
            with pytest.raises(in_suite.type) as alone:
                run_experiment(bad)
            assert (alone.type, str(alone.value)) == (in_suite.type, str(in_suite.value))

    @needs_fork
    def test_worker_pool_matches_in_process_suite(self, monkeypatch):
        # 28 trainval rows per cell: two LOO groups and the final training,
        # 18 tasks in all. Two workers are forced, so a 1-CPU machine runs
        # the pool too.
        runs = []
        for workers in (2, 1):
            monkeypatch.setattr(_pool, "workers", lambda n_tasks: workers)
            cells = run_suite(small_config(loo_enabled=True))
            assert multiprocessing.active_children() == []
            runs.append((
                json.dumps(suite_to_dict(13, cells), sort_keys=True),
                [c.result.loo_outcomes for c in cells],
                [b"".join(l.weights.tobytes() + l.bias.tobytes() for l in c.result.model.layers)
                 for c in cells],
            ))
        assert all(len(outcomes) == 28 for outcomes in runs[0][1])
        assert runs[0] == runs[1]

    @needs_fork
    def test_loo_suite_starts_one_pool(self, monkeypatch, forks):
        monkeypatch.setattr(_pool, "workers", lambda n_tasks: 2)
        cells = run_suite(small_config(loo_enabled=True))
        assert all(c.error is None for c in cells)
        assert len(forks) == 2  # one pool: its two workers, forked once
        assert multiprocessing.active_children() == []

    def test_run_without_loo_never_imports_multiprocessing(self):
        # One task (the final training) trains in-process, so the pool
        # modules stay unimported whatever the CPU count.
        done = run_python("-c", NO_POOL_PROBE)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["False", "False"]

    def test_diverging_cell_fails_alone(self, monkeypatch):
        real = harness.preset_hyperparams

        def preset(topology, family):
            hp = real(topology, family)
            if (topology, family) == (Topology.TWO_LAYER, Family.XAVIER):
                return replace(hp, learning_rate=1e308)
            return hp

        monkeypatch.setattr(harness, "preset_hyperparams", preset)
        errors = []
        for workers in (1, 2) if HAS_FORK else (1,):  # in-process, then the pool
            monkeypatch.setattr(_pool, "workers", lambda n_tasks: workers)
            with np.errstate(all="ignore"):
                cells = run_suite(small_config(loo_enabled=True))
            failed = [c for c in cells if c.error is not None]
            assert [(c.topology, c.family) for c in failed] == [(Topology.TWO_LAYER, Family.XAVIER)]
            assert re.fullmatch(
                r"DivergedTrainingError: non-finite loss at epoch \d+ "
                r"\(2-layer xavier-normal .*, LOO fold \d+\)", failed[0].error
            ), failed[0].error
            assert sum(c.result is not None for c in cells) == 5
            assert multiprocessing.active_children() == []
            errors.append(failed[0].error)
        assert errors[0] == errors[-1]

    @needs_fork
    def test_dead_worker_changes_no_cell(self, monkeypatch, forks):
        monkeypatch.setattr(_pool, "workers", lambda n_tasks: 2)
        base = small_config(loo_enabled=True)
        expected = json.dumps(suite_to_dict(base.seed, run_suite(base)))
        monkeypatch.setattr(harness, "_loo_group", _loo_group_dying_after_first)
        forks.clear()
        cells = run_suite(base)
        assert json.dumps(suite_to_dict(base.seed, cells)) == expected
        assert all(c.error is None for c in cells)
        assert len(forks) == 2 and all(reaped(pid) for pid in forks)
        assert multiprocessing.active_children() == []

    def test_dist_variant_carries_into_cells(self):
        cells = run_suite(small_config(scheme=XAVIER_UNIFORM))
        for cell in cells:
            assert cell.result.config.scheme.dist is DistKind.UNIFORM


class TestRendering:
    def test_config_dict_is_pinned(self):
        # the exact config JSON that result.json holds, for each data source
        csv = ExperimentConfig(
            Topology.TWO_LAYER, XAVIER_UNIFORM, seed=7, epochs=5,
            csv_path="cohort.csv", loo_enabled=False,
        )
        synthetic = ExperimentConfig(
            Topology.THREE_LAYER, KAIMING_NORMAL, seed=3,
            synthetic=SyntheticSpec(participants=6, records_per_participant=8, separation=1.5),
        )
        expected = [
            {"topology": 2, "family": "xavier", "dist": "uniform", "seed": 7, "epochs": 5,
             "hyperparams": {"batch_size": 24, "learning_rate": 0.006, "momentum": 0.7},
             "holdout_fraction": 0.2, "loo_enabled": False,
             "data": {"csv_path": "cohort.csv"}},
            {"topology": 3, "family": "kaiming", "dist": "normal", "seed": 3, "epochs": 200,
             "hyperparams": {"batch_size": 36, "learning_rate": 0.0002, "momentum": 0.6},
             "holdout_fraction": 0.2, "loo_enabled": True,
             "data": {"synthetic": {"participants": 6, "records_per_participant": 8,
                                    "separation": 1.5}}},
        ]
        for config, want in zip((csv, synthetic), expected):
            # the JSON text also pins each value's type: 2 and 2.0 are equal dict values
            assert json.dumps(config_to_dict(config)) == json.dumps(want)

    def test_report_layout(self):
        result = run_experiment(small_config(loo_enabled=True))
        text = render_report([result])
        for token in ("Depression Level", "Precision", "Recall", "F1 score",
                      "None", "Mild", "Moderate", "Severe", "Average",
                      "Overall Accuracy", "LOO validation accuracy"):
            assert token in text

    def test_single_class_predictions_render_zeros_not_nan(self, confusion_from_counts):
        counts = np.zeros((4, 4), dtype=int)
        counts[:, 0] = [5, 5, 5, 5]  # everything predicted as class 0
        report = summarize(confusion_from_counts(counts))
        result = ExperimentResult(
            config=small_config(), holdout=report,
            loo_outcomes=None, wall_time=0.0,
        )
        text = render_report([result])
        assert "0.00" in text
        assert "nan" not in text.lower()

    def test_two_decimal_rounding(self, confusion_from_counts):
        counts = np.diag([1, 1, 1, 0])
        counts[3, 0] = 2  # accuracy 3/5 = 0.6
        report = summarize(confusion_from_counts(counts))
        result = ExperimentResult(
            config=small_config(), holdout=report,
            loo_outcomes=None, wall_time=0.0,
        )
        assert "0.60" in render_report([result])

    def test_report_json_round_trip_is_exact(self):
        result = run_experiment(small_config())
        blob = json.dumps(result_to_dict(result), sort_keys=True)
        parsed = json.loads(blob)["holdout"]
        report = result.holdout
        for name in ("macro_precision", "macro_recall", "macro_f1", "accuracy", "total"):
            assert parsed[name] == getattr(report, name)
        for entry, metrics in zip(parsed["per_class"], report.per_class, strict=True):
            assert [entry[k] for k in ("precision", "recall", "f1", "support")] == [
                metrics.precision, metrics.recall, metrics.f1, metrics.support
            ]

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

    def test_version_zero_rejected_naming_version(self, tmp_path):
        model = build_model(Rng(1), Topology.ONE_LAYER, KAIMING_NORMAL)
        path = tmp_path / "zero.bin"
        save_model(model, path)
        blob = bytearray(path.read_bytes())
        blob[8:12] = struct.pack("<I", 0)
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="version 0"):
            load_model(path)

    def test_truncated_file_rejected(self, tmp_path):
        model = build_model(Rng(1), Topology.TWO_LAYER, KAIMING_NORMAL)
        path = tmp_path / "trunc.bin"
        save_model(model, path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(FormatError, match="truncated"):
            load_model(path)

    def test_truncation_at_every_byte_offset_rejected(self, tmp_path):
        # one layer keeps the sweep short: 2,780 bytes of magic, version,
        # topology, layer count, dimensions, weights and bias
        model = build_model(Rng(1), Topology.ONE_LAYER, KAIMING_NORMAL)
        path = tmp_path / "model.bin"
        save_model(model, path)
        blob = path.read_bytes()
        for cut in range(len(blob)):
            path.write_bytes(blob[:cut])
            with pytest.raises(FormatError):
                load_model(path)

    @pytest.mark.parametrize(
        "field, values, kept, message",
        [
            ("kind", (7,), None, "unknown topology kind 7"),
            ("kind", (0,), 0, "unknown topology kind 0"),
            ("layers", (2,), None, "topology 3 expects 3 layers, file has 2"),
            ("layers", (4,), 0, "topology 3 expects 3 layers, file has 4"),
            ("dims1", (20, 51), None, "layer 1 has shape 20x51, expected 20x50"),
            ("dims2", (4, 21), None, "layer 2 has shape 4x21, expected 4x20"),
            # the shape fault comes first in the file, so it wins over the cut
            ("dims1", (21, 50), 100, "layer 1 has shape 21x50, expected 20x50"),
        ],
        ids=["kind", "kind-then-cut", "layer-count", "layer-count-then-cut",
             "layer-1-shape", "layer-2-shape", "layer-1-shape-then-cut"],
    )
    def test_header_and_dims_faults_named(self, tmp_path, field, values, kept, message):
        # Mutate one uint32 field, then keep only ``kept`` bytes after it
        # (None: all). Layer i's (out, in) dims follow the 20-byte header and
        # every byte of the layers before it.
        dims = Topology.THREE_LAYER.layer_dims
        offsets = {"kind": 12, "layers": 16}
        for i in range(3):
            offsets[f"dims{i}"] = 20 + sum(
                8 + 8 * n_out * (n_in + 1) for n_in, n_out in zip(dims[:i], dims[1 : i + 1])
            )
        path = tmp_path / "model.bin"
        save_model(build_model(Rng(1), Topology.THREE_LAYER, KAIMING_NORMAL), path)
        blob = bytearray(path.read_bytes())
        end = offsets[field] + 4 * len(values)
        blob[offsets[field] : end] = struct.pack(f"<{len(values)}I", *values)
        path.write_bytes(bytes(blob if kept is None else blob[: end + kept]))
        with pytest.raises(FormatError, match=f"^{re.escape(f'{path}: {message}')}$"):
            load_model(path)

    def test_trailing_garbage_rejected(self, tmp_path):
        # load_model names "trailing bytes" as a fault, down to a single byte
        model = build_model(Rng(1), Topology.ONE_LAYER, KAIMING_NORMAL)
        path = tmp_path / "extra.bin"
        save_model(model, path)
        blob = path.read_bytes()
        for extra in (1, 2):
            path.write_bytes(blob + b"x" * extra)
            with pytest.raises(FormatError, match=f"^{re.escape(f'{path}: {extra} trailing bytes')}$"):
                load_model(path)

    @pytest.mark.parametrize(
        "change",
        [
            lambda m: replace(m, layers=m.layers[:-1]),
            lambda m: replace(m, topology=Topology.TWO_LAYER),
            lambda m: replace(m, layers=[network.Layer(m.layers[0].weights, np.zeros(1))]),
            lambda m: network._flat_stack([m, m])[1],
        ],
        ids=["missing-layer", "wrong-topology", "short-bias", "stacked"],
    )
    def test_save_rejects_layers_that_do_not_match_the_topology(self, tmp_path, change):
        # numpy would broadcast a (1,) bias into the file's (4,) field
        model = change(build_model(Rng(1), Topology.ONE_LAYER, KAIMING_NORMAL))
        with pytest.raises(ShapeError, match="do not match its"):
            save_model(model, tmp_path / "model.bin")
        assert not (tmp_path / "model.bin").exists()
