"""The benchmark in perfbench/ still runs against this library.

perfbench relies on library names and shapes: its tracer wraps
``harness.forward``, ``backward``, ``sgd_step`` and ``loo_splits``, and its
workloads read ``config.holdout_fraction`` and ``resolved_hyperparams()`` and
unpack the 3-tuple ``standardize`` returns. ``sgd_step`` and ``loo_splits``
are what the training loop calls, so a traced run that trains in-process
counts them; ``forward`` and ``backward`` are imported into ``harness`` only
for the tracer. One short traced run per workload, at the self-test sizes,
breaks when any of them goes. One short untraced run per workload, the mode
the benchmark's end-to-end numbers come from, must report every end-to-end
metric that ``BENCHMARK.json`` declares.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ["loo3", "suite-noloo", "cohort-io"]


def _run(workload, trace, seed=0, preexec_fn=None):
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.1", "--tiny", "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=300, preexec_fn=preexec_fn,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["attempted"] >= 1
    assert result["failed"] == 0, done.stdout
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_runs_without_failed_ops(workload):
    _run(workload, trace=1)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_workload_reports_every_end_to_end_metric(workload):
    result = _run(workload, trace=0)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for metric in spec["end_to_end"]:
        assert metric["name"] in result["metrics"], metric["name"]
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]


@pytest.mark.skipif(sys.platform != "linux", reason="pins the run to one CPU with sched_setaffinity")
def test_tracer_sees_the_pipelines_loo_and_sgd_calls_in_process():
    # With one CPU in its affinity the library trains in-process, where the
    # tracer's wrappers of harness.loo_splits and harness.sgd_step record.
    cpu = min(os.sched_getaffinity(0))
    result = _run("loo3", trace=1, seed=2,
                  preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    # one row map per fold of the 16 tiny trainval rows
    assert metrics["data.loo_splits.calls"] == 16
    # one update per lockstep step: the one LOO group and the final
    # training, each 2 epochs of one batch
    assert metrics["optimizer.sgd_step.calls"] == 4
