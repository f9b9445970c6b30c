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
training as a group of one. Each group and each final training is an
independent task, and a ``run_experiment`` or ``run_suite`` call maps all
its tasks, of every cell, through one ``_pool.fork_map``: ``_pool`` says
when it forks and what a failure does, and its workers inherit the tasks,
so only the trained models and LOO outcomes pass between processes. The
cells of a call that read the same CSV path share one parse of it.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, field, replace
from numbers import Real
from typing import ClassVar

import numpy as np

from . import _pool
from .data import (
    LABEL_NAMES,
    N_CLASSES,
    Dataset,
    holdout_split,
    load_csv,
    loo_splits,
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
    _check_types,
)
from .evaluation import Report, accumulate_confusion, summarize
from .initializers import Family, InitScheme
from .network import (
    ForwardPass,
    Layer,
    MlpModel,
    Topology,
    _check_batch,
    _flat_stack,
    _one_hot,
    backward,  # unused here; kept as a harness attribute that tracing tools wrap
    build_model,
    forward,  # unused here; kept as a harness attribute that tracing tools wrap
    predict,
)
from .numerics import Rng, _check_ints, _permutations, derive_seed
from .optimizer import Hyperparams, preset_hyperparams, sgd_step

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

    def __post_init__(self):
        # synthesize_dataset checks the ranges
        _check_types(self, (
            ("participants", (int,), "an int"),
            ("records_per_participant", (int,), "an int"),
            ("separation", (Real,), "a real number"),
        ))


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything that determines one experiment, bit for bit. Every cell
    trains with its published preset and holds out a fixed fraction."""

    holdout_fraction: ClassVar[float] = 0.2

    topology: Topology
    scheme: InitScheme
    seed: int
    epochs: int = 200
    csv_path: str | None = None
    synthetic: SyntheticSpec | None = None
    loo_enabled: bool = True

    def __post_init__(self):
        _check_types(self, (
            ("topology", (Topology,), "a Topology"),
            ("scheme", (InitScheme,), "an InitScheme"),
            ("seed", (int,), "an int"),
            ("epochs", (int,), "an int"),
            ("csv_path", (str, type(None)), "a str"),
            ("synthetic", (SyntheticSpec, type(None)), "a SyntheticSpec"),
            ("loo_enabled", (bool,), "a bool"),
        ))
        if (self.csv_path is None) == (self.synthetic is None):
            raise ValidationError(
                "config needs exactly one data source: csv_path or synthetic"
            )
        if self.epochs < 1:
            raise ValidationError(f"epochs must be >= 1, got {self.epochs}")

    def resolved_hyperparams(self) -> Hyperparams:
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
    loo_outcomes: list[bool] | None
    wall_time: float
    model: MlpModel = field(repr=False, default=None)  # type: ignore[assignment]

    @property
    def loo_accuracy(self) -> float | None:
        """The mean of ``loo_outcomes``, or None when LOO was off."""
        return None if self.loo_outcomes is None else float(np.mean(self.loo_outcomes))


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
    # The parameters, their velocity and the gradients are one flat vector
    # each, so an update is four ufunc calls for all layers and folds. The
    # model's weights and biases are views of the parameter vector (see
    # network._flat_stack), and each plan's gradients views of the gradient
    # vector. Every backward step overwrites all gradients, so the batch
    # shapes share one vector, and the update may use it as scratch.
    params, model = _flat_stack([build_model(rng, config.topology, config.scheme) for rng in rngs])
    grad = np.zeros_like(params)
    velocity = np.zeros_like(params)
    # The inputs are checked once, here; the step plans check nothing.
    features = _check_batch(model.fold(0), features)
    labels = _check_ints("label", labels, features.shape[:1], 0, N_CLASSES)
    n = rows.shape[-1]
    if rows.shape != (len(rngs), n) or len(names) != len(rngs) or n < 1:
        raise ShapeError(
            f"need one nonempty row map and name per model: {len(rngs)} models, "
            f"{len(names)} names, row maps of shape {rows.shape}"
        )
    # take(mode="clip") below would silently clip an index out of range
    rows = _check_ints("row maps", rows, lo=0, hi=len(features))
    # The features get the plans' ones column once, so that a batch is one
    # gather straight into its plan's input.
    features = np.concatenate((features, np.ones((len(features), 1))), axis=1)
    # Every step runs the step plan of its batch shape (full, or the short
    # last batch): freeing and re-allocating its arrays each step would have
    # the allocator return them to the OS and page-fault them back in.
    one_hot = _one_hot(labels)
    plans = {}
    schedule = []
    for start in range(0, n, hp.batch_size):
        size = min(hp.batch_size, n - start)
        if size not in plans:
            plans[size] = ForwardPass(model, size, grad)
        schedule.append((start, start + size, plans[size]))
    for epoch in range(config.epochs):
        order = np.take_along_axis(rows, _permutations(rngs, n), axis=1)
        for start, stop, plan in schedule:
            idx = order[:, start:stop]
            # mode="clip" gathers straight into the plan; the default
            # "raise" buffers. The row maps were range-checked above.
            features.take(idx, axis=0, out=plan.inputs[0], mode="clip")
            one_hot.take(idx, axis=0, out=plan.one_hot, mode="clip")
            plan._forward()
            # Divergence check. A softmax row is either all NaN or all in
            # [0, 1], and the clamped loss -log(max(p, 1e-15)) is finite
            # for p in [0, 1], so a model's loss is non-finite exactly when
            # its probabilities hold a NaN, which makes their sum NaN.
            if not math.isfinite(plan.probs.sum()):
                finite = np.isfinite(plan.probs.sum(axis=(1, 2)))
                raise DivergedTrainingError(
                    f"non-finite loss at epoch {epoch + 1} "
                    f"({config.describe()}, {names[int(np.argmin(finite))]})"
                )
            plan._backward()
            sgd_step(params, velocity, grad, hp)
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
    folds = np.arange(first, min(first + LOO_GROUP_SIZE, len(labels)))
    group = _train(
        config,
        features,
        labels,
        np.stack(list(loo_splits(len(labels), folds))),
        [Rng(derive_seed(loo_root, int(k))) for k in folds],
        [f"LOO fold {k}" for k in folds],
    )
    # each model predicts the one row it did not train on
    preds = predict(group, features[folds[:, None]])[:, 0]
    return (preds == labels[folds]).tolist()


def _final_training(config: ExperimentConfig, features: np.ndarray, labels: np.ndarray) -> MlpModel:
    """Train the reported model on every trainval row."""
    return _train(
        config,
        features,
        labels,
        np.arange(len(labels))[None, :],
        [Rng(derive_seed(config.seed, STREAM_FINAL))],
        ["final training"],
    ).fold(0)


def _run_task(task):
    """Call one training task. A library error is returned, not raised, so
    that it stays its own cell's error while the other tasks run on."""
    fn, args = task
    try:
        return fn(*args)
    except MlpInitError as exc:
        return exc


def _load_dataset(config: ExperimentConfig, loaded: dict) -> Dataset:
    """The config's dataset. Each CSV path is parsed once per ``loaded``,
    which keeps the path's dataset, or the error that parsing it raised."""
    if config.csv_path is None:
        return synthesize_dataset(seed=derive_seed(config.seed, STREAM_DATA), **asdict(config.synthetic))
    if config.csv_path not in loaded:
        try:
            loaded[config.csv_path] = load_csv(config.csv_path)
        except (MlpInitError, OSError) as exc:
            loaded[config.csv_path] = exc
    dataset = loaded[config.csv_path]
    if isinstance(dataset, Exception):
        raise dataset
    return dataset


def _prepare(config: ExperimentConfig, loaded: dict) -> tuple[Dataset, Dataset]:
    """Load or synthesize, split, and standardize with trainval statistics."""
    dataset = _load_dataset(config, loaded)
    trainval, test = holdout_split(
        dataset, config.holdout_fraction, seed=derive_seed(config.seed, STREAM_SPLIT)
    )
    (trainval_std, test_std), _, _ = standardize(trainval, test)
    return trainval_std, test_std


def _run_configs(configs: list[ExperimentConfig]) -> list[ExperimentResult | Exception]:
    """Run each config end to end; per config its result, or the library or
    OS error that stopped it.

    Every config's trainings are independent tasks, each drawing from its
    own sub-stream: its LOO groups, then its final training. All tasks of
    all configs go through one map, on a fork pool started once when more
    than one CPU can take them. A config's error is that of its lowest
    failing task. Each distinct CSV path is parsed once, and every config
    that names it gets its dataset, or the error parsing gave.
    """
    started = time.perf_counter()
    tests, spans, tasks = [], [], []  # per config: its test split or error, its task indices
    loaded = {}  # per CSV path, its dataset or error: each file is parsed once
    for config in configs:
        try:
            trainval, test = _prepare(config, loaded)
        except (MlpInitError, OSError) as exc:
            tests.append(exc)
            spans.append(range(0))
            continue
        features, labels = trainval.features, trainval.labels
        first = len(tasks)
        if config.loo_enabled:
            loo_root = derive_seed(config.seed, STREAM_LOO)
            tasks += [
                (_loo_group, (config, features, labels, loo_root, start))
                for start in range(0, len(labels), LOO_GROUP_SIZE)
            ]
        tasks.append((_final_training, (config, features, labels)))
        tests.append(test)
        spans.append(range(first, len(tasks)))
    del loaded  # the trainings need only the splits, not the parsed files

    outputs = list(_pool.fork_map(_run_task, tasks))

    results = []
    for config, test, span in zip(configs, tests, spans):
        if isinstance(test, Exception):
            results.append(test)
            continue
        done = [outputs[t] for t in span]
        error = next((out for out in done if isinstance(out, Exception)), None)
        if error is not None:
            results.append(error)
            continue
        *per_group, model = done
        loo_outcomes = [ok for outcomes in per_group for ok in outcomes] if config.loo_enabled else None
        results.append(ExperimentResult(
            config=config,
            holdout=summarize(accumulate_confusion(predict(model, test.features), test.labels)),
            loo_outcomes=loo_outcomes,
            wall_time=time.perf_counter() - started,
            model=model,
        ))
    return results


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run one configuration end-to-end and report holdout metrics.

    Pipeline: load or synthesize -> stratified holdout split -> standardize
    with trainval statistics -> optional leave-one-out diagnostic over
    trainval -> final training on all of trainval -> evaluate once on the
    holdout set.
    """
    [result] = _run_configs([config])
    if isinstance(result, Exception):
        raise result
    return result


def run_suite(base_config: ExperimentConfig) -> list[SuiteCell]:
    """Run all six (topology x family) cells with per-cell derived seeds.

    Each cell uses its published hyperparameter preset and the base config's
    distribution variant, data source, epochs and protocol flags. A failing
    cell is recorded with its error message; the other cells still run. The
    cells' trainings share one worker pool.
    """
    cells, configs = [], []
    for topology, family in SUITE_CELL_ORDER:
        seed = base_config.seed + SUITE_SEED_OFFSETS[(topology, family)]
        cells.append(SuiteCell(topology=topology, family=family, seed=seed))
        configs.append(replace(
            base_config,
            topology=topology,
            scheme=InitScheme(family, base_config.scheme.dist),
            seed=seed,
        ))
    for cell, result in zip(cells, _run_configs(configs)):
        if isinstance(result, Exception):
            cell.error = f"{type(result).__name__}: {result}"
        else:
            cell.result = result
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
    return {
        "topology": config.topology.value,
        "family": config.scheme.family.value,
        "dist": config.scheme.dist.value,
        "seed": config.seed,
        "epochs": config.epochs,
        "hyperparams": asdict(config.resolved_hyperparams()),
        "holdout_fraction": config.holdout_fraction,
        "loo_enabled": config.loo_enabled,
        "data": (
            {"csv_path": config.csv_path}
            if config.csv_path is not None
            else {"synthetic": asdict(config.synthetic)}
        ),
    }


def report_to_dict(report: Report) -> dict:
    out = asdict(report)
    out["per_class"] = [{"class": name, **m} for name, m in zip(LABEL_NAMES, out["per_class"])]
    return out


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


# result.csv's columns, in order. Each names a field of result_to_dict: of
# the config, the holdout report, or one class's entry in it.
_CSV_COLUMNS = (
    "topology", "family", "dist", "seed", "class", "precision", "recall", "f1", "support",
    "accuracy", "macro_precision", "macro_recall", "macro_f1", "loo_accuracy",
)


def results_csv_rows(results) -> list[list[str]]:
    """One row per class per result, full precision, for result.csv."""
    rows = [list(_CSV_COLUMNS)]
    for result in results:
        out = result_to_dict(result)
        loo = "" if out["loo"] is None else out["loo"]["mean_accuracy"]
        for entry in out["holdout"]["per_class"]:
            fields = {**out["config"], **out["holdout"], **entry, "loo_accuracy": loo}
            rows.append([str(fields[column]) for column in _CSV_COLUMNS])
    return rows


# ---------------------------------------------------------------------------
# Model serialization
# ---------------------------------------------------------------------------

_MODEL_MAGIC = b"MLPMODEL"
_MODEL_VERSION = 1
# magic, format version, topology kind, layer count
_MODEL_HEADER = np.dtype([("magic", "S8"), ("version", "<u4"), ("kind", "<u4"), ("layers", "<u4")])


def _model_layout(topology: Topology) -> np.dtype:
    """The packed little-endian record a model file of ``topology`` holds:
    the header, then per layer i its ``dims{i}`` (out, in) as uint32, its
    row-major (out, in) ``weights{i}`` and its ``bias{i}`` as float64."""
    dims = topology.layer_dims
    fields = list(_MODEL_HEADER.descr)
    for i, (in_dim, out_dim) in enumerate(zip(dims[:-1], dims[1:])):
        fields += [
            (f"dims{i}", "<u4", (2,)),
            (f"weights{i}", "<f8", (out_dim, in_dim)),
            (f"bias{i}", "<f8", (out_dim,)),
        ]
    return np.dtype(fields)


def save_model(model: MlpModel, path) -> None:
    """Write the model as one record of its topology's layout (see
    _model_layout), so a round trip restores every parameter bit."""
    layout = _model_layout(model.topology)
    values = (_MODEL_MAGIC, _MODEL_VERSION, model.topology.value, len(model.layers))
    for layer in model.layers:
        values += (layer.weights.shape, layer.weights, layer.bias)
    # numpy would broadcast a misshapen array into its field
    if [np.shape(v) for v in values] != [layout[name].shape for name in layout.names]:
        raise ShapeError(
            f"the model's layers do not match its {model.topology.value}-layer topology"
        )
    with open(path, "wb") as fh:
        fh.write(np.array(values, layout).tobytes())


def _read_field(blob: bytes, layout: np.dtype, name: str, path):
    """Field ``name`` of the ``layout`` record at the start of ``blob``;
    FormatError if the file ends before the field's last byte."""
    dtype, offset = layout.fields[name]
    if len(blob) < offset + dtype.itemsize:
        raise FormatError(f"{path}: truncated model file")
    return np.frombuffer(blob, dtype, 1, offset)[0]


def load_model(path) -> MlpModel:
    """Read a model written by save_model, validating layout and version.

    The fields are checked in file order, each when the file holds all of
    it, so an error names the first fault in the file.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if _read_field(blob, _MODEL_HEADER, "magic", path) != _MODEL_MAGIC:
        raise FormatError(f"{path}: not a model file (bad magic)")
    version = int(_read_field(blob, _MODEL_HEADER, "version", path))
    if version < 1:
        raise FormatError(f"{path}: file format version {version} was never written")
    if version > _MODEL_VERSION:
        raise UnsupportedVersionError(
            f"{path}: file format version {version}, this library supports "
            f"up to {_MODEL_VERSION}"
        )
    kind = int(_read_field(blob, _MODEL_HEADER, "kind", path))
    try:
        topology = Topology(kind)
    except ValueError:
        raise FormatError(f"{path}: unknown topology kind {kind}") from None
    layout = _model_layout(topology)
    n_layers = int(_read_field(blob, layout, "layers", path))
    dims = topology.layer_dims
    if n_layers != len(dims) - 1:
        raise FormatError(
            f"{path}: topology {kind} expects {len(dims) - 1} layers, file has {n_layers}"
        )
    for i in range(n_layers):
        out_dim, in_dim = _read_field(blob, layout, f"dims{i}", path).tolist()
        if (in_dim, out_dim) != (dims[i], dims[i + 1]):
            raise FormatError(
                f"{path}: layer {i} has shape {out_dim}x{in_dim}, expected "
                f"{dims[i + 1]}x{dims[i]}"
            )
    _read_field(blob, layout, layout.names[-1], path)  # are the parameters cut short?
    if len(blob) > layout.itemsize:
        raise FormatError(f"{path}: {len(blob) - layout.itemsize} trailing bytes")
    record = np.frombuffer(blob, layout, 1)[0]
    # astype copies: the record's fields are read-only and may be unaligned
    layers = [
        Layer(
            weights=record[f"weights{i}"].astype(np.float64),
            bias=record[f"bias{i}"].astype(np.float64),
        )
        for i in range(n_layers)
    ]
    return MlpModel(topology=topology, layers=layers)
