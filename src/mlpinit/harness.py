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
training as a group of one. On Linux the LOO groups run in forked worker
processes, one per CPU the process may use; results do not depend on it.
"""

from __future__ import annotations

import functools
import os
import struct
import sys
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .data import (
    LABEL_NAMES,
    N_CLASSES,
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
    ShapeError,
    UnsupportedVersionError,
    ValidationError,
    WorkerError,
)
from .evaluation import Report, accumulate_confusion, summarize
from .initializers import Family, InitScheme
from .network import (
    ForwardPass,
    Gradients,
    Layer,
    MlpModel,
    Topology,
    _backward,
    _check_batch,
    _forward,
    _layer_outputs,
    backward,  # unused here; kept as a harness attribute that tracing tools wrap
    build_model,
    forward,  # unused here; kept as a harness attribute that tracing tools wrap
    predict,
    stack_models,
)
from .numerics import Rng, _check_labels, _permutations, derive_seed
from .optimizer import (
    Hyperparams,
    _sgd_update,
    preset_hyperparams,
    sgd_step,  # unused here; kept as a harness attribute that tracing tools wrap
)

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
# 20 splits the default cohort's 156 folds into 8 groups, 4 per worker on
# two CPUs.
LOO_GROUP_SIZE = 20


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


def _flat_like(arrays) -> tuple[np.ndarray, list[np.ndarray]]:
    """A zeroed float64 vector, and a C-contiguous view of it shaped like each
    of ``arrays``, in order."""
    sizes = [a.size for a in arrays]
    flat = np.zeros(sum(sizes))
    parts = np.split(flat, np.cumsum(sizes)[:-1])
    return flat, [part.reshape(a.shape) for part, a in zip(parts, arrays)]


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
    # The inputs are checked once, here; every step calls the unchecked cores.
    features = _check_batch(model.fold(0), features)
    labels = _check_labels(labels, features.shape[:1], N_CLASSES)
    n = rows.shape[-1]
    if rows.shape != (len(rngs), n) or len(names) != len(rngs) or n < 1:
        raise ShapeError(
            f"need one nonempty row map and name per model: {len(rngs)} models, "
            f"{len(names)} names, row maps of shape {rows.shape}"
        )
    # take(mode="clip") below would silently clip an index out of range
    if not np.issubdtype(rows.dtype, np.integer) or rows.min() < 0 or rows.max() >= len(features):
        raise ValidationError(f"row maps must hold integers in [0, {len(features)})")
    # The parameters, their velocity, the gradients and the update scratch
    # are one flat vector each, with every layer a view into it, so that an
    # update is four ufunc calls for all layers and folds. Every backward
    # overwrites all gradients, so the batch shapes share one vector.
    params, views = _flat_like(list(model.parameter_arrays()))
    for view, array in zip(views, model.parameter_arrays()):
        view[...] = array
    model = MlpModel(model.topology, [Layer(w, b) for w, b in zip(views[0::2], views[1::2])])
    grad, grad_views = _flat_like(views)
    velocity, scratch = np.zeros_like(params), np.empty_like(params)
    # Every step reuses the buffers of its batch shape (full, or the short
    # last batch): freeing and re-allocating them each step would have the
    # allocator return them to the OS and page-fault them back in.
    buffers = {}
    schedule = []
    for start in range(0, n, hp.batch_size):
        size = min(hp.batch_size, n - start)
        if size not in buffers:
            grads = Gradients(grad_views[0::2], grad_views[1::2], _layer_outputs(model, size))
            buffers[size] = (ForwardPass.empty(model, size), grads)
        fwd, grads = buffers[size]
        schedule.append((start, start + size, fwd.activations[0], fwd, grads))
    for epoch in range(config.epochs):
        order = np.take_along_axis(rows, _permutations(rngs, n), axis=1)
        for start, stop, batch, fwd, grads in schedule:
            idx = order[:, start:stop]
            # mode="clip" gathers straight into batch; the default "raise"
            # buffers. The row maps were range-checked above.
            features.take(idx, axis=0, out=batch, mode="clip")
            _forward(model, batch, fwd)
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
            _backward(model, fwd, labels[idx], grads)
            _sgd_update([params], [velocity], [grad], [scratch], hp)
    return model


def _loo_group(
    config: ExperimentConfig,
    features: np.ndarray,
    labels: np.ndarray,
    loo_root: int,
    first: int,
) -> list[bool]:
    """Train LOO folds ``first`` .. ``first + LOO_GROUP_SIZE - 1`` in lockstep.

    Fold k trains on every row but row k, from the sub-stream ``k`` of
    ``loo_root``. Returns, per fold, whether its model classifies row k
    correctly.
    """
    all_rows = np.arange(len(labels))
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
    return (preds == labels[folds]).tolist()


def _loo_workers(n_groups: int) -> int:
    """Worker processes for ``n_groups`` LOO groups; 1 means in-process.

    One per CPU this process may use, on Linux, where workers are forked.
    A daemonic multiprocessing worker may not start children, so it trains
    in-process; a process that never imported multiprocessing is not one.
    """
    if sys.platform != "linux":
        return 1
    mp = sys.modules.get("multiprocessing")
    if mp is not None and mp.current_process().daemon:
        return 1
    return min(len(os.sched_getaffinity(0)), n_groups)


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

    loo_accuracy = None
    loo_outcomes = None
    if config.loo_enabled:
        # The groups are independent: each fold draws from its own sub-stream.
        # Both paths below yield their outcomes in group order.
        group = functools.partial(
            _loo_group, config, features, labels, derive_seed(config.seed, STREAM_LOO)
        )
        starts = range(0, len(labels), LOO_GROUP_SIZE)
        workers = _loo_workers(len(starts))
        if workers > 1:
            # Imported here, not at the top: they add about 15 ms to importing
            # this module, which runs without LOO would pay for nothing.
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor
            from concurrent.futures.process import BrokenProcessPool

            # fork, unlike spawn and forkserver, re-imports no __main__, so
            # caller scripts need no `if __name__ == "__main__":` guard. The
            # first error in group order (the lowest diverged group) leaves
            # map, which cancels the groups not yet started.
            try:
                with ProcessPoolExecutor(
                    workers, mp_context=multiprocessing.get_context("fork")
                ) as pool:
                    per_group = list(pool.map(group, starts))
            except BrokenProcessPool as exc:
                raise WorkerError(
                    f"a LOO worker process died ({config.describe()}): {exc}"
                ) from exc
        else:
            per_group = list(map(group, starts))
        loo_outcomes = [ok for outcomes in per_group for ok in outcomes]
        loo_accuracy = float(np.mean(loo_outcomes))

    model = _train(
        config,
        features,
        labels,
        np.arange(len(labels))[None, :],
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
