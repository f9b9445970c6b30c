"""Acceptance suite: one test per release criterion, in order.

Run with ``pytest -v -s tests/test_acceptance.py`` to see one line per
criterion with the measured values. The end-to-end and determinism criteria
train real models, so the whole module takes a few minutes.
"""

import json
import time
from dataclasses import asdict
from fractions import Fraction

import numpy as np
import pytest
from conftest import run_python

from mlpinit.data import N_CLASSES, holdout_split, loo_splits, synthesize_dataset
from mlpinit.evaluation import accumulate_confusion, summarize
from mlpinit.harness import SUITE_CELLS, ExperimentConfig, SyntheticSpec, run_experiment
from mlpinit.initializers import (
    ALL_SCHEMES,
    KAIMING_NORMAL,
    XAVIER_NORMAL,
    DistKind,
    Family,
    InitScheme,
    initialize,
    target_variance,
    uniform_bound,
)
from mlpinit.network import Topology, build_model, grad_check
from mlpinit.numerics import Rng, relu


def test_criterion_1_initializer_variance():
    started = time.perf_counter()
    fan_ins = (20, 50, 85, 256)
    worst_rel = 0.0
    for scheme in ALL_SCHEMES:
        for d in fan_ins:
            rng = Rng(10_000 + d)
            rows = -(-100_000 // d)  # ceil, so we pool >= 1e5 entries
            w = initialize(rng, scheme, rows=rows, cols=d)
            assert w.size >= 100_000
            target = target_variance(scheme, d)
            rel = abs(w.var() / target - 1.0)
            worst_rel = max(worst_rel, rel)
            assert rel <= 0.03, f"{scheme} d={d}: variance off by {rel:.2%}"
            if scheme.dist is DistKind.UNIFORM:
                assert np.abs(w).max() <= uniform_bound(scheme, d)
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    print(
        f"\ncriterion 1 PASS: 4 schemes x {len(fan_ins)} fan-ins within +-3% "
        f"(worst {worst_rel:.2%}), bounds respected, {elapsed:.2f}s"
    )


def test_criterion_2_variance_propagation():
    started = time.perf_counter()
    d, depth, batch = 256, 10, 10_000

    def layer10_ratio(scheme, seed):
        rng = Rng(seed)
        x = rng.normal(batch * d).reshape(batch, d)
        signal = x
        for _ in range(depth):
            signal = relu(signal) @ initialize(rng, scheme, d, d).T
        return signal.var() / x.var()

    seeds = range(20_000, 20_005)
    kaiming = float(np.mean([layer10_ratio(KAIMING_NORMAL, s) for s in seeds]))
    xavier = float(np.mean([layer10_ratio(XAVIER_NORMAL, s) for s in seeds]))
    elapsed = time.perf_counter() - started
    assert 0.5 <= kaiming <= 2.0, f"kaiming layer-10 ratio {kaiming}"
    assert xavier < 0.25, f"xavier layer-10 ratio {xavier}"
    assert elapsed < 30.0
    print(
        f"\ncriterion 2 PASS: layer-10 variance ratio kaiming {kaiming:.3f} "
        f"(in [0.5, 2.0]), xavier {xavier:.5f} (< 0.25), {elapsed:.1f}s"
    )


def test_criterion_3_gradient_correctness():
    started = time.perf_counter()
    rng = Rng(901)
    batch = rng.normal(8 * 85).reshape(8, 85)
    labels = np.array([rng.randbelow(4) for _ in range(8)])
    worst = 0.0
    for topology in Topology:
        for family in Family:
            model = build_model(Rng(77), topology, InitScheme(family, DistKind.NORMAL))
            err = grad_check(model, batch, labels, epsilon=1e-5)
            worst = max(worst, err)
            assert err < 1e-4, f"{topology.name} {family.value}: {err:.3e}"
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    print(
        f"\ncriterion 3 PASS: grad check < 1e-4 for 3 topologies x 2 families "
        f"(worst {worst:.2e}), {elapsed:.1f}s"
    )


def test_criterion_4_metrics_oracle(confusion_from_counts):
    rng = Rng(424242)
    worst = 0.0
    for _ in range(1000):
        n = 1 + rng.randbelow(60)
        preds = np.array([rng.randbelow(4) for _ in range(n)])
        labels = np.array([rng.randbelow(4) for _ in range(n)])
        report = summarize(accumulate_confusion(preds, labels))
        for c in range(4):
            tp = int(np.sum((preds == c) & (labels == c)))
            fp = int(np.sum((preds == c) & (labels != c)))
            fn = int(np.sum((preds != c) & (labels == c)))
            precision = Fraction(tp, tp + fp) if tp + fp else Fraction(0)
            recall = Fraction(tp, tp + fn) if tp + fn else Fraction(0)
            f1 = (
                2 * precision * recall / (precision + recall)
                if precision + recall
                else Fraction(0)
            )
            m = report.per_class[c]
            worst = max(
                worst,
                abs(m.precision - float(precision)),
                abs(m.recall - float(recall)),
                abs(m.f1 - float(f1)),
            )
    assert worst <= 1e-12

    # published spot values: P=0.89, R=0.30 -> F1 0.45; macro of the
    # published precision column {0.89, 0.08, 0, 0.38} -> 0.34
    counts = np.zeros((4, 4), dtype=int)
    counts[0, 0] = 267
    counts[1, 0] = 33
    counts[0, 1] = 623
    m = summarize(confusion_from_counts(counts)).per_class[0]
    assert m.precision == pytest.approx(0.89, abs=1e-12)
    assert m.recall == pytest.approx(0.30, abs=1e-12)
    assert abs(m.f1 - 0.45) <= 0.005
    macro = (0.89 + 0.08 + 0.0 + 0.38) / 4
    assert abs(macro - 0.34) <= 0.005
    print(
        f"\ncriterion 4 PASS: 1000-case brute-force recount matches "
        f"(worst |diff| {worst:.1e}), spot values F1={m.f1:.4f}~0.45, macro={macro:.4f}~0.34"
    )


def test_criterion_5_published_presets():
    expected = {
        (1, "xavier"): (24, 0.0001, 0.6),
        (2, "xavier"): (24, 0.006, 0.7),
        (3, "xavier"): (36, 0.006, 0.7),
        (1, "kaiming"): (36, 0.0001, 0.6),
        (2, "kaiming"): (36, 0.003, 0.7),
        (3, "kaiming"): (36, 0.0002, 0.6),
    }
    for (layers, family), (bs, lr, m) in expected.items():
        hp = SUITE_CELLS[(Topology(layers), Family(family))]
        assert hp.batch_size == bs
        assert hp.learning_rate == lr
        assert hp.momentum == m
    print("\ncriterion 5 PASS: all 18 published hyperparameter values exact")


def test_criterion_6_split_protocol():
    dataset = synthesize_dataset(seed=6, **asdict(SyntheticSpec()))
    trainval, test = holdout_split(dataset, 0.2, seed=6)
    assert len(test) == 36 and len(trainval) == 156
    np.testing.assert_array_equal(np.bincount(test.labels, minlength=N_CLASSES), [9, 9, 9, 9])
    combined = [r.tobytes() for r in trainval.features] + [
        r.tobytes() for r in test.features
    ]
    assert len(combined) == len(set(combined)) == 192

    # the row maps the LOO groups train on: fold k is every trainval row but k
    row_maps = np.stack(list(loo_splits(len(trainval), range(len(trainval)))))
    assert row_maps.shape == (156, 155)
    for k, rows in enumerate(row_maps):
        assert rows.tolist() == [r for r in range(156) if r != k]
    print(
        "\ncriterion 6 PASS: stratified 156/36 split with exact per-class "
        "floors; LOO covers all 156 trainval samples exactly once"
    )


def test_criterion_7_end_to_end_desk_scale():
    started = time.perf_counter()
    result = run_experiment(
        ExperimentConfig(
            topology=Topology.THREE_LAYER,
            scheme=KAIMING_NORMAL,
            seed=7,
            epochs=200,
            synthetic=SyntheticSpec(separation=2.0),
        )
    )
    elapsed = time.perf_counter() - started
    assert result.holdout.accuracy >= 0.90
    assert elapsed < 120.0

    chance = run_experiment(
        ExperimentConfig(
            topology=Topology.THREE_LAYER,
            scheme=KAIMING_NORMAL,
            seed=7,
            epochs=200,
            synthetic=SyntheticSpec(separation=0.0),
            loo_enabled=False,
        )
    )
    assert 0.10 <= chance.holdout.accuracy <= 0.40
    print(
        f"\ncriterion 7 PASS: separation 2.0 -> holdout {result.holdout.accuracy:.3f} "
        f"(>= 0.90, LOO diagnostic {result.loo_accuracy:.3f}, {elapsed:.0f}s); "
        f"separation 0 -> {chance.holdout.accuracy:.3f} (chance band)"
    )


def test_criterion_8_suite_determinism(tmp_path):
    def run_suite_cli(out_dir):
        proc = run_python(
            "-m", "mlpinit.cli", "suite", "--synthetic", "--seed", "7", "--out", str(out_dir)
        )
        assert proc.returncode == 0, proc.stderr
        return (out_dir / "result.json").read_bytes()

    first = run_suite_cli(tmp_path / "run1")
    second = run_suite_cli(tmp_path / "run2")
    assert first == second
    payload = json.loads(first)
    assert len(payload["cells"]) == 6
    print(
        f"\ncriterion 8 PASS: two `suite --synthetic --seed 7` runs produced "
        f"byte-identical result.json ({len(first)} bytes, 6 cells)"
    )
