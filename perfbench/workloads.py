"""The three closed-loop workloads: their inputs, one op each, and its checks.

A workload's ``setup`` turns the workload seed into the inputs the library
receives; ``op`` makes the public calls one op consists of and returns its
raw outputs; ``check`` verifies those outputs outside the timed region and
returns an :class:`Outcome`. Calls go through the module attributes (for
example ``harness.predict``), so the tracer's wrappers see them when it is
installed.

Every op's outputs are reduced to a sha256 digest of the JSON the CLI would
write (``json.dumps(..., indent=2, sort_keys=True)``). Ops that repeat a key
(the experiment seed, or the base seed of a suite) must repeat the digest.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

from mlpinit import data, harness
from mlpinit.harness import (
    STREAM_DATA,
    STREAM_SPLIT,
    ExperimentConfig,
    SyntheticSpec,
    report_to_dict,
    result_to_dict,
    suite_to_dict,
)
from mlpinit.initializers import KAIMING_NORMAL
from mlpinit.network import Topology
from mlpinit.numerics import derive_seed


class CheckFailed(Exception):
    """An op returned, but its outputs are wrong."""


@dataclass(frozen=True)
class Sizes:
    """Problem sizes; ``FULL`` is what the benchmark measures."""

    epochs: int = 200  # loo3 and suite-noloo: the published budget
    cohort_io_participants: int = 384  # 4,608 rows: ops of about a second
    cohort_io_records: int = 12
    cohort_io_epochs: int = 20  # the one training in cohort-io's set-up
    participants: int = 16  # the default synthetic cohort, 16 x 12
    records: int = 12


FULL = Sizes()
# Small enough for self-tests; still leaves a non-empty stratified holdout.
TINY = Sizes(epochs=2, cohort_io_participants=8, cohort_io_records=4,
             cohort_io_epochs=2, participants=5, records=4)


@dataclass
class Outcome:
    key: int  # ops with the same key must produce the same digest
    digest: str
    steps: int  # SGD steps of the protocols whose results the op produces or handles
    rows: int  # cohort rows through the data layer
    holdout_acc: list[float] = field(default_factory=list)
    loo_acc: list[float] = field(default_factory=list)


def _digest(payload) -> str:
    text = json.dumps(payload, indent=2, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def protocol_steps(result) -> int:
    """SGD steps of one experiment's protocol: LOO folds, then the final training.

    Each training runs ``epochs`` passes of ceil(n / batch_size) minibatches,
    the last one short; a LOO fold trains on n - 1 of the n trainval rows.
    """
    cfg = result.config
    batch = cfg.resolved_hyperparams().batch_size
    n = _synthetic_rows(cfg) - result.holdout.total
    steps = cfg.epochs * math.ceil(n / batch)
    if cfg.loo_enabled:
        steps += n * cfg.epochs * math.ceil((n - 1) / batch)
    return steps


def _synthetic_rows(config: ExperimentConfig) -> int:
    return config.synthetic.participants * config.synthetic.records_per_participant


class Loo3:
    """One 3-layer Kaiming-normal experiment with LOO, the run people wait on."""

    name = "loo3"

    def __init__(self, sizes: Sizes = FULL):
        self.sizes = sizes

    def setup(self, seed: int):
        return ExperimentConfig(
            topology=Topology.THREE_LAYER,
            scheme=KAIMING_NORMAL,
            seed=seed,
            epochs=self.sizes.epochs,
            synthetic=SyntheticSpec(self.sizes.participants, self.sizes.records, 2.0),
            loo_enabled=True,
        )

    def op(self, config, i: int):
        return harness.run_experiment(config)

    def check(self, config, i: int, result) -> Outcome:
        if result.loo_outcomes is None or len(result.loo_outcomes) < 1:
            raise CheckFailed("LOO was on but the result has no fold outcomes")
        return Outcome(
            key=config.seed,
            digest=_digest(result_to_dict(result)),
            steps=protocol_steps(result),
            rows=_synthetic_rows(config),
            holdout_acc=[result.holdout.accuracy],
            loo_acc=[result.loo_accuracy],
        )


class SuiteNoLoo:
    """The six-cell suite with LOO off; the base seed cycles over four values."""

    name = "suite-noloo"
    SEEDS_PER_RUN = 4

    def __init__(self, sizes: Sizes = FULL):
        self.sizes = sizes

    def setup(self, seed: int):
        base = ExperimentConfig(
            topology=Topology.THREE_LAYER,
            scheme=KAIMING_NORMAL,
            seed=0,
            epochs=self.sizes.epochs,
            synthetic=SyntheticSpec(self.sizes.participants, self.sizes.records, 2.0),
            loo_enabled=False,
        )
        return [replace(base, seed=seed * self.SEEDS_PER_RUN + j)
                for j in range(self.SEEDS_PER_RUN)]

    def op(self, bases, i: int):
        return harness.run_suite(bases[i % len(bases)])

    def check(self, bases, i: int, cells) -> Outcome:
        base = bases[i % len(bases)]
        failed = [cell.error for cell in cells if cell.result is None]
        if failed:
            raise CheckFailed(f"{len(failed)} suite cell(s) failed: {failed[0]}")
        results = [cell.result for cell in cells]
        return Outcome(
            key=base.seed,
            digest=_digest(suite_to_dict(base.seed, cells)),
            steps=sum(protocol_steps(r) for r in results),
            rows=sum(_synthetic_rows(r.config) for r in results),
            holdout_acc=[r.holdout.accuracy for r in results],
        )


@dataclass
class CohortInputs:
    config: ExperimentConfig
    result: object  # the set-up training's ExperimentResult; its model is scored


@dataclass
class CohortOutputs:
    written: object
    loaded: object
    model: object
    report: object


class CohortIo:
    """Write, read, split and standardize a wide cohort; round-trip and score a model."""

    name = "cohort-io"

    def __init__(self, workdir: Path, sizes: Sizes = FULL):
        self.workdir = workdir
        self.sizes = sizes

    def setup(self, seed: int) -> CohortInputs:
        config = ExperimentConfig(
            topology=Topology.THREE_LAYER,
            scheme=KAIMING_NORMAL,
            seed=seed,
            epochs=self.sizes.cohort_io_epochs,
            synthetic=SyntheticSpec(
                self.sizes.cohort_io_participants, self.sizes.cohort_io_records, 2.0
            ),
            loo_enabled=False,
        )
        result = harness.run_experiment(config)
        self.workdir.mkdir(parents=True, exist_ok=True)
        return CohortInputs(config, result)

    def op(self, inputs: CohortInputs, i: int) -> CohortOutputs:
        cfg = inputs.config
        spec = cfg.synthetic
        written = harness.synthesize_dataset(
            seed=derive_seed(cfg.seed, STREAM_DATA),
            participants=spec.participants,
            records_per_participant=spec.records_per_participant,
            separation=spec.separation,
        )
        csv_path = self.workdir / "cohort.csv"
        data.save_csv(written, csv_path)
        loaded = harness.load_csv(csv_path)
        trainval, test = harness.holdout_split(
            loaded, cfg.holdout_fraction, seed=derive_seed(cfg.seed, STREAM_SPLIT)
        )
        (_, test_std), _, _ = harness.standardize(trainval, test)
        model_path = self.workdir / "model.bin"
        harness.save_model(inputs.result.model, model_path)
        model = harness.load_model(model_path)
        preds = harness.predict(model, test_std.features)
        report = harness.summarize(harness.accumulate_confusion(preds, test_std.labels))
        return CohortOutputs(written, loaded, model, report)

    def check(self, inputs: CohortInputs, i: int, out: CohortOutputs) -> Outcome:
        w, r = out.written, out.loaded
        for column in ("features", "labels", "participants"):
            if getattr(w, column).tobytes() != getattr(r, column).tobytes():
                raise CheckFailed(f"CSV round trip changed the {column}")
        for k, (a, b) in enumerate(zip(inputs.result.model.layers, out.model.layers)):
            if a.weights.tobytes() != b.weights.tobytes() or a.bias.tobytes() != b.bias.tobytes():
                raise CheckFailed(f"model round trip changed layer {k}")
        if out.report != inputs.result.holdout:
            raise CheckFailed("the reloaded model scores the reloaded holdout differently")
        files = {
            name: hashlib.sha256((self.workdir / name).read_bytes()).hexdigest()
            for name in ("cohort.csv", "model.bin")
        }
        return Outcome(
            key=inputs.config.seed,
            digest=_digest({"holdout": report_to_dict(out.report), "files": files}),
            # the op trains nothing; it round-trips and scores the set-up's model
            steps=protocol_steps(inputs.result),
            rows=len(w) + len(r),
            holdout_acc=[out.report.accuracy],
        )


def make(name: str, workdir: Path, sizes: Sizes = FULL):
    if name == Loo3.name:
        return Loo3(sizes)
    if name == SuiteNoLoo.name:
        return SuiteNoLoo(sizes)
    if name == CohortIo.name:
        return CohortIo(workdir, sizes)
    raise ValueError(f"unknown workload {name!r}")


NAMES = (Loo3.name, SuiteNoLoo.name, CohortIo.name)
