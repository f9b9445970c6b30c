"""Self-tests of the benchmark itself.

Run from the checkout root with ``python3 -m pytest -q perfbench``. They run
every workload at a tiny size (``--tiny``), so they check plumbing, names and
digests, not timings.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_spec_names_and_limits():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.NAMES)
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = [m["name"] for group in ("workloads", "end_to_end", "per_layer")
             for m in SPEC[group]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for metric in SPEC["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
    assert {"name": "setup_s", "unit": "s", "better": "lower"}.items() <= next(
        m for m in SPEC["end_to_end"] if m["name"] == "setup_s").items()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.NAMES)
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    proc = _run("--workload", workload, "--seed", "5", "--seconds", "0.5",
                "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    for m in expected:
        assert f"perfbench: {m['name']} = " in proc.stdout
    if not trace:
        # two epochs on 16 rows can score 0 on the holdout; nothing else may be 0
        assert all(result["metrics"][m["name"]]["value"] > 0
                   for m in expected if m["name"] != "holdout_acc.mean")


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_tracing_leaves_every_digest_unchanged(workload, tmp_path):
    wl = workloads.make(workload, tmp_path / "work", workloads.TINY)
    inputs = wl.setup(11)
    tracer = Tracer()
    for k in range(2):
        plain = wl.check(inputs, k, wl.op(inputs, k))
        traced_raw = tracer.run_op(lambda: wl.op(inputs, k))
        traced = wl.check(inputs, k, traced_raw)
        assert (traced.key, traced.digest) == (plain.key, plain.digest)
    metrics = tracer.layer_metrics()
    assert metrics["trace.spans"] > 0
    # the wrappers are gone again
    from mlpinit import harness
    assert not hasattr(harness.forward, "__wrapped__")


def test_a_digest_that_differs_from_the_reference_fails_the_op():
    wl = workloads.Loo3(workloads.TINY)
    config = wl.setup(3)
    loop = run.run_loop(wl, config, 0, reference={3: "0" * 64})
    assert loop.attempted == 1 and not loop.outcomes
    assert "recorded in baseline.json" in loop.errors[0]
    loop = run.run_loop(wl, config, 0, reference={4: "0" * 64})
    assert loop.attempted == 1 and not loop.errors


def test_reference_digests_apply_only_in_their_environment():
    env = dict(json.loads(run.BASELINE.read_text())["reference"]["environment"])
    for workload in workloads.NAMES:
        digests, _ = run.reference_digests(workload, env)
        assert digests and all(isinstance(k, int) for k in digests)
    env["blas_kernel"] = "another kernel"
    assert run.reference_digests("loo3", env)[0] == {}


def test_loo3_trace_counts_match_the_protocol():
    wl = workloads.Loo3(workloads.TINY)
    config = wl.setup(2)
    tracer = Tracer()
    result = tracer.run_op(lambda: wl.op(config, 0))
    metrics = tracer.layer_metrics()
    n = len(result.loo_outcomes)
    assert metrics["harness.train.trainings"] == n + 1
    assert metrics["data.loo_splits.calls"] == n
    assert metrics["harness.train.steps"] == workloads.protocol_steps(result)
    assert metrics["initializers.initialize.calls"] == 3 * (n + 1)


def test_without_the_library_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "loo3", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
