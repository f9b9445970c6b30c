"""Spans around the public calls into mlpinit's layers, recorded from outside.

The tracer replaces selected functions with timing wrappers while it is
installed and restores the originals when it is removed, so an untraced op
runs the library exactly as shipped. It wraps the names that
``mlpinit.harness`` imports (the calls the experiment pipeline makes),
``Rng.permutation``, the ``initialize`` that ``build_model`` calls, and the
I/O functions the benchmark calls directly.

Every span records its id, its parent's id, its name, start and end in
nanoseconds, and its self time (duration minus the time covered by its child
spans). Spans stay in memory; ``write`` saves them when the run ends.
"""

from __future__ import annotations

import itertools
import os
import time
from array import array
from collections import defaultdict

import numpy as np

from mlpinit import data, harness, network
from mlpinit.numerics import Rng


def _matmul_flops_per_row(model) -> tuple[int, int]:
    """Multiply-add FLOPs per input row of one forward and one backward pass.

    Forward: 2*in*out per layer. Backward: the same for each weight gradient,
    plus the same again to propagate the delta below every layer but the
    first.
    """
    sizes = [layer.weights.size for layer in model.layers]
    return 2 * sum(sizes), 2 * (sum(sizes) + sum(sizes[1:]))


def _forward_extra(tracer, args, result):
    model, batch = args[0], args[1]
    tracer.counters["network.fwd_flops"] += tracer.flops_per_row(model)[0] * len(batch)


def _backward_extra(tracer, args, result):
    model, fwd = args[0], args[1]
    tracer.counters["network.bwd_flops"] += tracer.flops_per_row(model)[1] * len(fwd.probs)


def _save_csv_extra(tracer, args, result):
    tracer.counters["data.save_csv.rows"] += len(args[0])
    tracer.counters["data.save_csv.bytes"] += os.path.getsize(args[1])


def _load_csv_extra(tracer, args, result):
    tracer.counters["data.load_csv.rows"] += len(result)
    tracer.counters["data.load_csv.bytes"] += os.path.getsize(args[0])


def _save_model_extra(tracer, args, result):
    tracer.counters["harness.save_model.bytes"] += os.path.getsize(args[1])


def _load_model_extra(tracer, args, result):
    tracer.counters["harness.load_model.bytes"] += os.path.getsize(args[0])


# (span name, owner whose attribute is replaced, attribute, extra counter hook)
TARGETS = (
    ("network.forward", harness, "forward", _forward_extra),
    ("network.backward", harness, "backward", _backward_extra),
    ("network.predict", harness, "predict", None),
    ("network.build_model", harness, "build_model", None),
    ("initializers.initialize", network, "initialize", None),
    ("optimizer.sgd_step", harness, "sgd_step", None),
    ("numerics.Rng.permutation", Rng, "permutation", None),
    ("data.synthesize_dataset", harness, "synthesize_dataset", None),
    ("data.holdout_split", harness, "holdout_split", None),
    ("data.standardize", harness, "standardize", None),
    ("data.load_csv", harness, "load_csv", _load_csv_extra),
    ("data.save_csv", data, "save_csv", _save_csv_extra),
    ("evaluation.accumulate_confusion", harness, "accumulate_confusion", None),
    ("evaluation.summarize", harness, "summarize", None),
    ("harness.save_model", harness, "save_model", _save_model_extra),
    ("harness.load_model", harness, "load_model", _load_model_extra),
    ("harness.run_experiment", harness, "run_experiment", None),
    ("harness.run_suite", harness, "run_suite", None),
)
# Generator functions: each next() that yields an item is one span.
ITER_TARGETS = (("data.loo_splits", harness, "loo_splits"),)

SPAN_NAMES = tuple(t[0] for t in TARGETS) + tuple(t[0] for t in ITER_TARGETS)
OP_SPAN = "perfbench.op"


class Tracer:
    """Records spans while installed; aggregates them per op afterwards."""

    def __init__(self):
        self.names = [OP_SPAN, *SPAN_NAMES]
        self._name_id = {name: i for i, name in enumerate(self.names)}
        self.span_id = array("q")
        self.parent = array("q")
        self.name = array("q")
        self.start_ns = array("q")
        self.end_ns = array("q")
        self.counters = defaultdict(float)
        self.ops = 0
        self._ids = itertools.count()
        self._stack = []  # ids of the open spans, innermost last
        self._saved = []
        self._flops = {}  # topology -> FLOPs per row (forward, backward)

    def flops_per_row(self, model) -> tuple[int, int]:
        flops = self._flops.get(model.topology)
        if flops is None:
            flops = self._flops[model.topology] = _matmul_flops_per_row(model)
        return flops

    # -- recording ---------------------------------------------------------

    def _span(self, nid: int, fn, args, kwargs):
        """Call ``fn`` inside a span; the per-span work is kept small on purpose."""
        stack = self._stack
        sid = next(self._ids)
        stack.append(sid)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            self.span_id.append(sid)
            self.parent.append(stack[-1] if stack else -1)
            self.name.append(nid)
            self.start_ns.append(start)
            self.end_ns.append(end)

    def _wrap(self, name: str, fn, extra):
        nid = self._name_id[name]
        span = self._span

        if extra is None:
            def traced(*args, **kwargs):
                return span(nid, fn, args, kwargs)
        else:
            def traced(*args, **kwargs):
                result = span(nid, fn, args, kwargs)
                extra(self, args, result)
                return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_iter(self, name: str, fn):
        nid = self._name_id[name]
        span = self._span
        exhausted = object()

        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                item = span(nid, next, (inner, exhausted), {})
                if item is exhausted:
                    self._drop_last_span()  # the next() that found no fold
                    return
                yield item

        traced.__wrapped__ = fn
        return traced

    def _drop_last_span(self) -> None:
        for column in (self.span_id, self.parent, self.name, self.start_ns, self.end_ns):
            column.pop()

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer is already installed")
        for name, owner, attr, extra in TARGETS:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, extra))
        for name, owner, attr in ITER_TARGETS:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap_iter(name, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def run_op(self, op):
        """Run ``op()`` with the tracer installed, under one root span."""
        self.install()
        try:
            result = self._span(self._name_id[OP_SPAN], op, (), {})
        finally:
            self.uninstall()
        self.ops += 1
        return result

    # -- aggregation -------------------------------------------------------

    def columns(self) -> dict[str, np.ndarray]:
        """Every span as parallel arrays, with self time derived from the children."""
        cols = {
            name: np.frombuffer(getattr(self, name), dtype=np.int64)
            for name in ("span_id", "parent", "name", "start_ns", "end_ns")
        }
        duration = cols["end_ns"] - cols["start_ns"]
        nested = cols["parent"] >= 0
        size = int(cols["span_id"].max()) + 1 if len(duration) else 0
        child_ns = np.bincount(cols["parent"][nested], weights=duration[nested], minlength=size)
        cols["self_ns"] = duration - child_ns[cols["span_id"]].astype(np.int64)
        return cols

    def layer_metrics(self) -> dict[str, float]:
        """Per-op span metrics: ``<span>.{calls,busy_s,us_p50}`` plus rollups."""
        ops = max(self.ops, 1)
        cols = self.columns()
        names = cols["name"]
        duration = cols["end_ns"] - cols["start_ns"]
        self_ns = cols["self_ns"]
        out: dict[str, float] = {}
        module_self: dict[str, float] = defaultdict(float)
        for nid, name in enumerate(self.names):
            if name == OP_SPAN:
                continue
            mask = names == nid
            spans = duration[mask]
            out[f"{name}.calls"] = len(spans) / ops
            out[f"{name}.busy_s"] = float(spans.sum()) / 1e9 / ops
            out[f"{name}.us_p50"] = float(np.median(spans)) / 1e3 if len(spans) else 0.0
            module_self[name.split(".", 1)[0]] += float(self_ns[mask].sum()) / 1e9 / ops
        for module in ("numerics", "initializers", "network", "optimizer", "data",
                       "evaluation", "harness"):
            out[f"{module}.self_s"] = module_self[module]

        run_exp = names == self._name_id["harness.run_experiment"]
        out["harness.train.self_s"] = float(self_ns[run_exp].sum()) / 1e9 / ops
        out["harness.train.steps"] = out["optimizer.sgd_step.calls"]
        out["harness.train.trainings"] = out["network.build_model.calls"]

        flops = self.counters["network.fwd_flops"] + self.counters["network.bwd_flops"]
        steps = out["network.forward.calls"] * ops  # one forward per SGD step
        out["network.step_flops"] = flops / steps if steps else 0.0
        fwd_bwd_s = (out["network.forward.busy_s"] + out["network.backward.busy_s"]) * ops
        out["network.fwd_bwd_gflops"] = flops / fwd_bwd_s / 1e9 if fwd_bwd_s else 0.0

        for fn in ("data.save_csv", "data.load_csv"):
            busy = out[f"{fn}.busy_s"] * ops
            out[f"{fn}.bytes"] = self.counters[f"{fn}.bytes"] / ops
            out[f"{fn}.rows_per_s"] = self.counters[f"{fn}.rows"] / busy if busy else 0.0
        for fn in ("harness.save_model", "harness.load_model"):
            out[f"{fn}.bytes"] = self.counters[f"{fn}.bytes"] / ops
        out["trace.spans"] = len(names) / ops
        return out

    def write(self, path) -> None:
        """Save every span as parallel arrays, with the name table."""
        np.savez_compressed(path, names=np.array(self.names), **self.columns())
