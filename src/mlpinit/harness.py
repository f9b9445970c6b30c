"""Experiment orchestration: split, standardize, LOO diagnostic, final train.

``run_experiment`` executes one (topology, initializer) configuration
end-to-end and is fully determined by its config: every random choice comes
from named sub-streams derived from the experiment seed. ``run_suite`` runs
all six (topology x family) cells with per-cell seeds offset from a base
seed, so each cell reproduces exactly when run alone with its derived seed.

Leave-one-out runs as a diagnostic: it reports how often a model trained on
all-but-one trainval record classifies the held-out record correctly. The
reported model is then retrained on the full trainval split and evaluated
once on the untouched holdout set. One training loop serves both: LOO folds
train in lockstep groups of ``LOO_GROUP_SIZE`` stacked models, the final
training as a group of one.
"""

from __future__ import annotations

import struct
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .data import (
    LABEL_NAMES,
    Dataset,
    holdout_split,
    load_csv,
    loo_splits,  # unused here; kept as a harness attribute that tracing tools wrap
    standardize,
    synthesize_dataset,
)
from .errors import (
    DivergedTrainingError,
    FormatError,
    MlpInitError,
    UnsupportedVersionError,
    ValidationError,
)
from .evaluation import Report, ClassMetrics, accumulate_confusion, summarize
from .initializers import Family, InitScheme
from .network import (
    Layer,
    MlpModel,
    Topology,
    backward,
    build_model,
    forward,
    predict,
    stack_models,
)
from .numerics import Rng, derive_seed
from .optimizer import Hyperparams, SgdMomentumState, preset_hyperparams, sgd_step

# Named sub-streams of the experiment seed (see derive_seed).
STREAM_DATA = 1
STREAM_SPLIT = 2
STREAM_LOO = 3
STREAM_FINAL = 4

# Fixed per-cell seed offsets for the six-cell suite.
SUITE_SEED_OFFSETS = {
    (Topology.ONE_LAYER, Family.XAVIER): 0,
    (Topology.ONE_LAYER, Family.KAIMING): 1000,
    (Topology.TWO_LAYER, Family.XAVIER): 2000,
    (Topology.TWO_LAYER, Family.KAIMING): 3000,
    (Topology.THREE_LAYER, Family.XAVIER): 4000,
    (Topology.THREE_LAYER, Family.KAIMING): 5000,
}
SUITE_CELL_ORDER = tuple(SUITE_SEED_OFFSETS)

# LOO folds trained together by one _train call. Larger groups spend less
# Python time per fold step but hold more activations in memory at once.
LOO_GROUP_SIZE = 8


@dataclass(frozen=True)
class SyntheticSpec:
    """Shape of a generated cohort; the synthesis seed derives from the config seed."""

    participants: int = 16
    records_per_participant: int = 12
    separation: float = 2.0


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything that determines one experiment, bit for bit."""

    topology: Topology
    scheme: InitScheme
    seed: int
    epochs: int = 200
    hyperparams: Hyperparams | None = None  # None -> published preset
    csv_path: str | None = None
    synthetic: SyntheticSpec | None = None
    holdout_fraction: float = 0.2
    loo_enabled: bool = True

    def __post_init__(self):
        if (self.csv_path is None) == (self.synthetic is None):
            raise ValidationError(
                "config needs exactly one data source: csv_path or synthetic"
            )
        if self.epochs < 1:
            raise ValidationError(f"epochs must be >= 1, got {self.epochs}")

    def resolved_hyperparams(self) -> Hyperparams:
        if self.hyperparams is not None:
            return self.hyperparams
        return preset_hyperparams(self.topology, self.scheme.family)

    def describe(self) -> str:
        return (
            f"{self.topology.value}-layer {self.scheme} seed={self.seed} "
            f"epochs={self.epochs}"
        )


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    holdout: Report
    loo_accuracy: float | None
    loo_outcomes: list[bool] | None
    wall_time: float
    model: MlpModel = field(repr=False, default=None)  # type: ignore[assignment]


@dataclass
class SuiteCell:
    """One suite entry: a result, or the error that aborted just this cell."""

    topology: Topology
    family: Family
    seed: int
    result: ExperimentResult | None = None
    error: str | None = None


def _train(
    config: ExperimentConfig,
    features: np.ndarray,
    labels: np.ndarray,
    rows: np.ndarray,
    rngs: list[Rng],
    names: list[str],
) -> MlpModel:
    """Train one model per row of ``rows`` in lockstep; returns them stacked.

    Model k trains on ``features[rows[k]]``: ``rngs[k]`` builds it, then draws
    a permutation of its rows each epoch, which it walks in minibatches with
    the last one short. All models have as many rows, so they share one batch
    schedule. A non-finite loss names the epoch and the lowest diverged
    model's entry in ``names``.
    """
    hp = config.resolved_hyperparams()
    model = stack_models([build_model(rng, config.topology, config.scheme) for rng in rngs])
    state = SgdMomentumState(model)
    n = rows.shape[1]
    for epoch in range(config.epochs):
        order = np.take_along_axis(rows, np.stack([rng.permutation(n) for rng in rngs]), axis=1)
        for start in range(0, n, hp.batch_size):
            idx = order[:, start : start + hp.batch_size]
            y = labels[idx]
            fwd = forward(model, features[idx])
            # Divergence check. A softmax row is either all NaN or all in
            # [0, 1], and the clamped loss -log(max(p, 1e-15)) is finite
            # for p in [0, 1], so a model's loss is non-finite exactly when
            # its probabilities hold a NaN, which makes their sum NaN.
            if not np.isfinite(fwd.probs.sum()):
                finite = np.isfinite(fwd.probs.sum(axis=(1, 2)))
                raise DivergedTrainingError(
                    f"non-finite loss at epoch {epoch + 1} "
                    f"({config.describe()}, {names[int(np.argmin(finite))]})"
                )
            sgd_step(state, model, backward(model, fwd, y), hp)
    return model


def _load_dataset(config: ExperimentConfig) -> Dataset:
    if config.csv_path is not None:
        return load_csv(config.csv_path)
    spec = config.synthetic
    return synthesize_dataset(
        seed=derive_seed(config.seed, STREAM_DATA),
        participants=spec.participants,
        records_per_participant=spec.records_per_participant,
        separation=spec.separation,
    )


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run one configuration end-to-end and report holdout metrics.

    Pipeline: load or synthesize -> stratified holdout split -> standardize
    with trainval statistics -> optional leave-one-out diagnostic over
    trainval -> final training on all of trainval -> evaluate once on the
    holdout set.
    """
    started = time.perf_counter()
    dataset = _load_dataset(config)
    trainval, test = holdout_split(
        dataset, config.holdout_fraction, seed=derive_seed(config.seed, STREAM_SPLIT)
    )
    if test is None:
        raise ValidationError(
            f"holdout split left no test samples ({config.describe()})"
        )
    (trainval_std, test_std), _, _ = standardize(trainval, test)
    features, labels = trainval_std.features, trainval_std.labels
    all_rows = np.arange(len(labels))

    loo_accuracy = None
    loo_outcomes = None
    if config.loo_enabled:
        loo_root = derive_seed(config.seed, STREAM_LOO)
        loo_outcomes = []
        for first in range(0, len(all_rows), LOO_GROUP_SIZE):
            # fold k trains on every trainval row but row k
            folds = all_rows[first : first + LOO_GROUP_SIZE]
            group = _train(
                config,
                features,
                labels,
                np.stack([np.delete(all_rows, k) for k in folds]),
                [Rng(derive_seed(loo_root, int(k))) for k in folds],
                [f"LOO fold {k}" for k in folds],
            )
            # each model predicts the one row it did not train on
            preds = predict(group, features[folds[:, None]])[:, 0]
            loo_outcomes += (preds == labels[folds]).tolist()
        loo_accuracy = float(np.mean(loo_outcomes))

    model = _train(
        config,
        features,
        labels,
        all_rows[None, :],
        [Rng(derive_seed(config.seed, STREAM_FINAL))],
        ["final training"],
    ).fold(0)
    preds = predict(model, test_std.features)
    report = summarize(accumulate_confusion(preds, test_std.labels))
    return ExperimentResult(
        config=config,
        holdout=report,
        loo_accuracy=loo_accuracy,
        loo_outcomes=loo_outcomes,
        wall_time=time.perf_counter() - started,
        model=model,
    )


def run_suite(base_config: ExperimentConfig) -> list[SuiteCell]:
    """Run all six (topology x family) cells with per-cell derived seeds.

    Each cell uses its published hyperparameter preset and the base config's
    distribution variant, data source, epochs and protocol flags. A failing
    cell is recorded with its error message; the other cells still run.
    """
    cells = []
    for topology, family in SUITE_CELL_ORDER:
        seed = base_config.seed + SUITE_SEED_OFFSETS[(topology, family)]
        cell = SuiteCell(topology=topology, family=family, seed=seed)
        config = replace(
            base_config,
            topology=topology,
            scheme=InitScheme(family, base_config.scheme.dist),
            hyperparams=None,
            seed=seed,
        )
        try:
            cell.result = run_experiment(config)
        except (MlpInitError, OSError) as exc:
            cell.error = f"{type(exc).__name__}: {exc}"
        cells.append(cell)
    return cells


# ---------------------------------------------------------------------------
# Rendering and serialization
# ---------------------------------------------------------------------------


def _format_row(label: str, values: list[str], widths=(18, 11, 9, 10)) -> str:
    cells = [label.ljust(widths[0])]
    cells += [v.rjust(w) for v, w in zip(values, widths[1:])]
    return "".join(cells)


def render_report(results) -> str:
    """Human-readable tables, one block per result, 2-decimal display."""
    blocks = []
    for result in results:
        cfg = result.config
        title = (
            f"{cfg.topology.value}-layer + {cfg.scheme.family.value.capitalize()} "
            f"({cfg.scheme.dist.value}), seed {cfg.seed}"
        )
        lines = [f"=== {title} ===", _format_row("Depression Level", ["Precision", "Recall", "F1 score"])]
        for name, metrics in zip(LABEL_NAMES, result.holdout.per_class):
            lines.append(
                _format_row(
                    name,
                    [f"{metrics.precision:.2f}", f"{metrics.recall:.2f}", f"{metrics.f1:.2f}"],
                )
            )
        lines.append(
            _format_row(
                "Average",
                [
                    f"{result.holdout.macro_precision:.2f}",
                    f"{result.holdout.macro_recall:.2f}",
                    f"{result.holdout.macro_f1:.2f}",
                ],
            )
        )
        lines.append(_format_row("Overall Accuracy", [f"{result.holdout.accuracy:.2f}"]))
        if result.loo_accuracy is not None:
            lines.append(
                f"LOO validation accuracy (diagnostic): {result.loo_accuracy:.2f} "
                f"over {len(result.loo_outcomes)} folds"
            )
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"


def config_to_dict(config: ExperimentConfig) -> dict:
    hp = config.resolved_hyperparams()
    out = {
        "topology": config.topology.value,
        "family": config.scheme.family.value,
        "dist": config.scheme.dist.value,
        "seed": config.seed,
        "epochs": config.epochs,
        "hyperparams": {
            "batch_size": hp.batch_size,
            "learning_rate": hp.learning_rate,
            "momentum": hp.momentum,
        },
        "holdout_fraction": config.holdout_fraction,
        "loo_enabled": config.loo_enabled,
    }
    if config.csv_path is not None:
        out["data"] = {"csv_path": config.csv_path}
    else:
        spec = config.synthetic
        out["data"] = {
            "synthetic": {
                "participants": spec.participants,
                "records_per_participant": spec.records_per_participant,
                "separation": spec.separation,
            }
        }
    return out


def report_to_dict(report: Report) -> dict:
    return {
        "per_class": [
            {
                "class": LABEL_NAMES[c],
                "precision": m.precision,
                "recall": m.recall,
                "f1": m.f1,
                "support": m.support,
            }
            for c, m in enumerate(report.per_class)
        ],
        "macro_precision": report.macro_precision,
        "macro_recall": report.macro_recall,
        "macro_f1": report.macro_f1,
        "accuracy": report.accuracy,
        "total": report.total,
    }


def report_from_dict(data: dict) -> Report:
    per_class = tuple(
        ClassMetrics(
            precision=entry["precision"],
            recall=entry["recall"],
            f1=entry["f1"],
            support=entry["support"],
        )
        for entry in data["per_class"]
    )
    return Report(
        per_class=per_class,
        macro_precision=data["macro_precision"],
        macro_recall=data["macro_recall"],
        macro_f1=data["macro_f1"],
        accuracy=data["accuracy"],
        total=data["total"],
    )


def result_to_dict(result: ExperimentResult) -> dict:
    """Full-precision JSON-ready view; excludes wall time so reruns are byte-identical."""
    out = {
        "config": config_to_dict(result.config),
        "holdout": report_to_dict(result.holdout),
    }
    if result.loo_accuracy is None:
        out["loo"] = None
    else:
        out["loo"] = {
            "mean_accuracy": result.loo_accuracy,
            "n_folds": len(result.loo_outcomes),
            "outcomes": [int(v) for v in result.loo_outcomes],
        }
    return out


def suite_to_dict(base_seed: int, cells: list[SuiteCell]) -> dict:
    out_cells = []
    for cell in cells:
        entry = {
            "topology": cell.topology.value,
            "family": cell.family.value,
            "seed": cell.seed,
        }
        if cell.result is not None:
            entry["result"] = result_to_dict(cell.result)
        else:
            entry["error"] = cell.error
        out_cells.append(entry)
    return {"base_seed": base_seed, "cells": out_cells}


def results_csv_rows(results) -> list[list[str]]:
    """One row per class per result, full precision, for result.csv."""
    rows = [
        [
            "topology",
            "family",
            "dist",
            "seed",
            "class",
            "precision",
            "recall",
            "f1",
            "support",
            "accuracy",
            "macro_precision",
            "macro_recall",
            "macro_f1",
            "loo_accuracy",
        ]
    ]
    for result in results:
        cfg = result.config
        loo = "" if result.loo_accuracy is None else repr(result.loo_accuracy)
        for c, m in enumerate(result.holdout.per_class):
            rows.append(
                [
                    str(cfg.topology.value),
                    cfg.scheme.family.value,
                    cfg.scheme.dist.value,
                    str(cfg.seed),
                    LABEL_NAMES[c],
                    repr(m.precision),
                    repr(m.recall),
                    repr(m.f1),
                    str(m.support),
                    repr(result.holdout.accuracy),
                    repr(result.holdout.macro_precision),
                    repr(result.holdout.macro_recall),
                    repr(result.holdout.macro_f1),
                    loo,
                ]
            )
    return rows


# ---------------------------------------------------------------------------
# Model serialization
# ---------------------------------------------------------------------------

_MODEL_MAGIC = b"MLPMODEL"
_MODEL_VERSION = 1


def save_model(model: MlpModel, path) -> None:
    """Write the model as magic, version, topology, then per-layer arrays.

    All integers are little-endian uint32; weights and biases are row-major
    little-endian float64, so a round trip restores every parameter bit.
    """
    chunks = [_MODEL_MAGIC, struct.pack("<II", _MODEL_VERSION, model.topology.value)]
    chunks.append(struct.pack("<I", len(model.layers)))
    for layer in model.layers:
        out_dim, in_dim = layer.weights.shape
        chunks.append(struct.pack("<II", out_dim, in_dim))
        chunks.append(np.ascontiguousarray(layer.weights, dtype="<f8").tobytes())
        chunks.append(np.ascontiguousarray(layer.bias, dtype="<f8").tobytes())
    with open(path, "wb") as fh:
        fh.write(b"".join(chunks))


class _Reader:
    def __init__(self, blob: bytes, path):
        self.blob = blob
        self.offset = 0
        self.path = path

    def take(self, n: int) -> bytes:
        if self.offset + n > len(self.blob):
            raise FormatError(f"{self.path}: truncated model file")
        out = self.blob[self.offset : self.offset + n]
        self.offset += n
        return out

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]


def load_model(path) -> MlpModel:
    """Read a model written by save_model, validating layout and version."""
    with open(path, "rb") as fh:
        blob = fh.read()
    reader = _Reader(blob, path)
    if reader.take(len(_MODEL_MAGIC)) != _MODEL_MAGIC:
        raise FormatError(f"{path}: not a model file (bad magic)")
    version = reader.u32()
    if version > _MODEL_VERSION:
        raise UnsupportedVersionError(
            f"{path}: file format version {version}, this library supports "
            f"up to {_MODEL_VERSION}"
        )
    kind = reader.u32()
    try:
        topology = Topology(kind)
    except ValueError:
        raise FormatError(f"{path}: unknown topology kind {kind}") from None
    n_layers = reader.u32()
    dims = topology.layer_dims
    if n_layers != len(dims) - 1:
        raise FormatError(
            f"{path}: topology {kind} expects {len(dims) - 1} layers, file has {n_layers}"
        )
    layers = []
    for i in range(n_layers):
        out_dim = reader.u32()
        in_dim = reader.u32()
        if (in_dim, out_dim) != (dims[i], dims[i + 1]):
            raise FormatError(
                f"{path}: layer {i} has shape {out_dim}x{in_dim}, expected "
                f"{dims[i + 1]}x{dims[i]}"
            )
        weights = np.frombuffer(reader.take(8 * out_dim * in_dim), dtype="<f8")
        bias = np.frombuffer(reader.take(8 * out_dim), dtype="<f8")
        layers.append(
            Layer(
                weights=weights.reshape(out_dim, in_dim).astype(np.float64),
                bias=bias.astype(np.float64),
            )
        )
    if reader.offset != len(blob):
        raise FormatError(f"{path}: {len(blob) - reader.offset} trailing bytes")
    return MlpModel(topology=topology, layers=layers)
