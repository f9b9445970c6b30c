"""Measure the baseline and record the reference digests in perfbench/baseline.json.

Run from the checkout root (about 45 minutes on two cores):

    python3 perfbench/make_baseline.py

It makes two sets of untraced runs. Each set runs every workload once on each
of the seeds 1-10; each seed runs every workload before the next seed
starts, and the second set takes the seeds in reverse order, so a drift in
the machine's speed spreads over seeds and workloads instead of reading as
a seed effect. For each set and end-to-end metric it records the values,
their median and quartiles (``statistics.quantiles(values, n=4)``), the
spread (the distance between the quartiles as a share of the median) and the
range (maximum minus minimum, as a share of the median), since a single run
is what gets compared with a bound. It prints both next to a third of the
metric's bound from BENCHMARK.json, the target for a steady benchmark, and
how much worse the second set's median is than the first's. One traced run
per workload gives the per-layer metrics and the tracing overhead.

Last, every workload runs on the seeds 0-31 that the sets did not cover.
The digests of all runs, which must agree key by key, become the reference
that run.py checks each op against. run.py checks these runs against the
reference already recorded; to re-record it after a deliberate change of
results, delete the ``reference`` entry of baseline.json first.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "baseline.json"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
BOUNDS = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
HIGHER_IS_BETTER = {m["name"] for m in SPEC["end_to_end"] if m["better"] == "higher"}
SEEDS = list(range(1, 11))
SETS = (SEEDS, SEEDS[::-1])
REFERENCE_SEEDS = range(32)
# Reference runs only need digests: a short run still repeats each suite-noloo key.
REFERENCE_SECONDS = 5
# The environment a digest depends on; run.py checks the reference only within it.
NUMERICS = ("numpy", "blas", "blas_version", "blas_kernel")


def run(workload: str, seed: int, trace: int = 0,
        seconds: float = SPEC["run_seconds"]) -> tuple[dict, dict, dict]:
    """(result, environment, digests by key) of one run of run.py."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 else None
    if result is None or not result["correct"]:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                           f"{proc.stdout}{proc.stderr}")
    env = json.loads(_line(lines, "perfbench: environment "))
    digests = json.loads(_line(lines, "perfbench: digests ").split(" ", 1)[1])
    return result, env, digests


def _line(lines: list[str], prefix: str) -> str:
    return next(line for line in lines if line.startswith(prefix))[len(prefix):]


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "min": min(values), "max": max(values),
            "range": (max(values) - min(values)) / median if median else 0.0}


class Recorder:
    """Collects the environment and the digests of every run, checking they agree."""

    def __init__(self):
        self.environment = None
        self.digests = {workload: {} for workload in WORKLOADS}

    def add(self, workload: str, env: dict, digests: dict) -> None:
        numerics = {k: env[k] for k in NUMERICS}
        if self.environment is None:
            self.environment = env
        elif numerics != {k: self.environment[k] for k in NUMERICS}:
            raise RuntimeError(f"the numerics environment changed during the baseline: {env}")
        seen = self.digests[workload]
        for key, digest in digests.items():
            if seen.setdefault(key, digest) != digest:
                raise RuntimeError(f"{workload} key {key}: two runs gave different digests")


def measure_set(number: int, seeds: list[int], recorder: Recorder) -> dict:
    results = {workload: [] for workload in WORKLOADS}
    for seed in seeds:
        for workload in WORKLOADS:
            result, env, digests = run(workload, seed)
            recorder.add(workload, env, digests)
            results[workload].append(result)
            print(f"set {number} {workload} seed {seed}: attempted={result['attempted']} "
                  + " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()),
                  flush=True)
    return {
        workload: {
            "seeds": seeds,
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "end_to_end": {name: summary([r["metrics"][name]["value"] for r in runs])
                           for name in BOUNDS},
        }
        for workload, runs in results.items()
    }


def worse_by(first: float, second: float, name: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``."""
    change = (second - first) / first if first else 0.0
    return -change if name in HIGHER_IS_BETTER else change


def main() -> int:
    recorder = Recorder()
    sets = [measure_set(n + 1, seeds, recorder) for n, seeds in enumerate(SETS)]
    baseline = {"run_seconds": SPEC["run_seconds"], "workloads": {}}
    for workload in WORKLOADS:
        entry = {"sets": [s[workload] for s in sets], "second_median_worse_by": {}}
        for name, bound in BOUNDS.items():
            stats = [s[workload]["end_to_end"][name] for s in sets]
            worse = worse_by(stats[0]["median"], stats[1]["median"], name)
            entry["second_median_worse_by"][name] = worse
            print(f"{workload} {name}: medians {stats[0]['median']:.5g} {stats[1]['median']:.5g}"
                  f" (second worse by {worse:+.4f}, bound {bound}); spreads "
                  + " ".join(f"{s['spread']:.4f}" for s in stats) + "; ranges "
                  + " ".join(f"{s['range']:.4f}" for s in stats)
                  + f"; a third of the bound {bound / 3:.4f}", flush=True)
        traced, env, digests = run(workload, SEEDS[0], trace=1)
        recorder.add(workload, env, digests)
        entry["traced"] = {"seed": SEEDS[0],
                           "metrics": {k: v["value"] for k, v in traced["metrics"].items()}}
        print(f"{workload} tracing overhead: "
              f"{traced['metrics']['trace.overhead_frac']['value']:.4f}", flush=True)
        baseline["workloads"][workload] = entry

    # Timings do not matter here, so two runs go at a time.
    todo = [(w, seed) for w in WORKLOADS for seed in REFERENCE_SEEDS if seed not in SEEDS]
    with ThreadPoolExecutor(max_workers=2) as pool:
        runs = pool.map(lambda job: run(*job, seconds=REFERENCE_SECONDS), todo)
        for (workload, seed), (_, env, digests) in zip(todo, runs):
            recorder.add(workload, env, digests)
            print(f"reference {workload} seed {seed}: {len(digests)} keys", flush=True)

    baseline["environment"] = recorder.environment
    baseline["reference"] = {
        "environment": {k: recorder.environment[k] for k in NUMERICS},
        "seeds": list(REFERENCE_SEEDS),
        "digests": {w: dict(sorted(d.items(), key=lambda kv: int(kv[0])))
                    for w, d in recorder.digests.items()},
    }
    OUT.write_text(json.dumps(baseline, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
