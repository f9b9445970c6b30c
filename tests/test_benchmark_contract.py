"""The benchmark in perfbench/ still runs against this library.

perfbench relies on library names and shapes that nothing else uses: its
tracer wraps ``harness.forward``, ``backward``, ``sgd_step`` and
``loo_splits``, and its workloads read ``config.holdout_fraction`` and
``resolved_hyperparams()`` and unpack the 3-tuple ``standardize`` returns.
One short traced run per workload, at the self-test sizes, breaks when any
of them goes. One short untraced run per workload, the mode the benchmark's
end-to-end numbers come from, must report every end-to-end metric that
``BENCHMARK.json`` declares.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ["loo3", "suite-noloo", "cohort-io"]


def _run(workload, trace):
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "0.1", "--tiny", "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=300,
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
