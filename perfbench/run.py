"""mlpinit's benchmark: one closed-loop client in one process, ops back to back.

Run from the root of a checkout:

    python3 perfbench/run.py --workload loo3 --seed 1 --seconds 30 --trace 0

The library is imported from the checkout's ``src/`` (never from an
installed copy). Each op starts when the previous one finished; ops run
until the next one would end after ``--seconds``, and at least one runs.
With ``--trace 0`` the run prints every end-to-end metric; with
``--trace 1`` ops alternate untraced and traced, and the run prints the
per-layer metrics from the traced ops and the tracing overhead. Each op's
result digest must match the digest recorded for its key in baseline.json
when the run's numerics environment (numpy, BLAS and BLAS kernel) is the one
recorded there, and must match every other op with the same key. The last
line of standard output is the JSON result; the lines before it carry the
environment, the result digests and each metric with its unit.
See README.md in this directory for the workloads and metrics.
"""

import time

_STARTED = time.perf_counter()  # set-up is timed from here, before numpy loads

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
BASELINE = HERE / "baseline.json"
# Set-up runs this many more times in fresh processes; setup_s is the median.
SETUP_PROBES = 4

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for group in ("end_to_end", "per_layer") for m in SPEC[group]}


def import_library():
    """Put the checkout's src/ first on the path and import mlpinit from it."""
    init = SRC / "mlpinit" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"perfbench: {init} is missing; run from an mlpinit checkout")
    sys.path.insert(0, str(SRC))
    import mlpinit

    if Path(mlpinit.__file__).resolve() != init.resolve():
        raise SystemExit(f"perfbench: imported mlpinit from {mlpinit.__file__}, not {init}")


def tail(values):
    """(value, percentile): the highest percentile with at least 10 samples beyond it.

    Interpolates linearly between order statistics, as the median does. Below
    20 samples no percentile from the median up has 10 beyond it, so the
    median stands in.
    """
    ordered = sorted(values)
    n = len(ordered)
    q = max(0.5, (n - 10) / n)
    pos = q * (n - 1)
    lo = int(pos)
    hi = min(lo + 1, n - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo), 100.0 * q


def _median(values, default=0.0):
    return statistics.median(values) if values else default


class Loop:
    """Results of the closed loop: per-op times, outcomes and failures."""

    def __init__(self):
        self.untraced_s = []  # without a tracer, one per entry of ``outcomes``
        self.traced_s = []
        self.outcomes = []
        self.errors = []
        self.digests = {}
        self.attempted = 0


def reference_digests(workload: str, env: dict) -> tuple[dict, str]:
    """The digests recorded for ``workload``, keyed by op key, and why they apply or not.

    They apply only in the numerics environment they were recorded in: the
    same digest needs the same numpy, BLAS build and BLAS kernel.
    """
    reference = json.loads(BASELINE.read_text()).get("reference")
    if reference is None:
        return {}, "not checked, baseline.json records none"
    recorded = reference["environment"]
    differ = [f"{k}={env[k]} (recorded {v})" for k, v in recorded.items() if env[k] != v]
    if differ:
        return {}, "not checked, the environment differs: " + ", ".join(differ)
    digests = {int(k): v for k, v in reference["digests"][workload].items()}
    return digests, f"checked against {len(digests)} recorded keys"


def run_loop(workload, inputs, seconds: float, tracer=None, reference=None) -> Loop:
    """Run ops back to back; ``reference`` maps op keys to the digests they must have."""
    from workloads import CheckFailed

    reference = reference or {}
    loop = Loop()
    started = time.perf_counter()
    while True:
        i = loop.attempted
        traced = tracer is not None and i % 2 == 1
        # A traced op repeats the input of the untraced op before it.
        k = i // 2 if tracer is not None else i
        t0 = time.perf_counter()
        try:
            if traced:
                raw = tracer.run_op(lambda: workload.op(inputs, k))
            else:
                raw = workload.op(inputs, k)
            op_s = time.perf_counter() - t0
            outcome = workload.check(inputs, k, raw)
            key = outcome.key
            expected = loop.digests.setdefault(key, reference.get(key, outcome.digest))
            if expected != outcome.digest:
                raise CheckFailed(
                    f"key {key}: digest {outcome.digest[:16]} differs from {expected[:16]} "
                    + ("recorded in baseline.json" if key in reference else "of an earlier op")
                )
        except Exception as exc:  # the loop records every failure and goes on
            loop.errors.append(f"op {i}{' (traced)' if traced else ''}: "
                               f"{type(exc).__name__}: {exc}")
        else:
            (loop.traced_s if traced else loop.untraced_s).append(op_s)
            loop.outcomes.append(outcome)
        loop.attempted += 1
        if tracer is not None and loop.attempted % 2 == 1:
            continue  # finish the untraced/traced pair
        next_s = _median(loop.untraced_s) + (_median(loop.traced_s) if tracer else 0.0)
        if time.perf_counter() - started + next_s > seconds:
            return loop


def probe_setups(args) -> list:
    """Set up again in fresh processes; each reports its set-up time."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
    if args.tiny:
        cmd.append("--tiny")
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def end_to_end(loop: Loop, setups: list) -> dict:
    times = loop.untraced_s
    busy_s = sum(times)
    outcomes = loop.outcomes
    holdout = [a for o in outcomes for a in o.holdout_acc]
    return {
        "setup_s": _median(setups),
        "op_s.p50": _median(times),
        "op_s.tail": tail(times)[0] if times else 0.0,
        "train_steps_per_s": sum(o.steps for o in outcomes) / busy_s if busy_s else 0.0,
        "rows_per_s": sum(o.rows for o in outcomes) / busy_s if busy_s else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "holdout_acc.mean": statistics.fmean(holdout) if holdout else 0.0,
    }


def per_layer(loop: Loop, tracer) -> dict:
    out = tracer.layer_metrics()
    loo = [a for o in loop.outcomes for a in o.loo_acc]
    out["harness.loo_acc.mean"] = statistics.fmean(loo) if loo else 0.0
    untraced = _median(loop.untraced_s)
    traced = _median(loop.traced_s)
    out["trace.untraced_op_s.p50"] = untraced
    out["trace.traced_op_s.p50"] = traced
    out["trace.overhead_s"] = traced - untraced
    out["trace.overhead_frac"] = (traced - untraced) / untraced if untraced else 0.0
    return out


def parse_args(argv):
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="problem sizes for the self-tests, not for measuring")
    parser.add_argument("--setup-probe", action="store_true",
                        help="set up, print the set-up time in seconds and exit")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    import_library()
    args = parse_args(argv)
    import envinfo
    import workloads
    from tracer import Tracer

    sizes = workloads.TINY if args.tiny else workloads.FULL
    workdir = OUT / f"{args.workload}-{os.getpid()}"
    workload = workloads.make(args.workload, workdir, sizes)
    try:
        inputs = workload.setup(args.seed)
        own_setup = time.perf_counter() - _STARTED
        if args.setup_probe:
            print(repr(own_setup))
            return 0
        env = envinfo.collect(ROOT)
        if args.tiny:  # digests were recorded at the full sizes only
            reference, checked = {}, "not checked at --tiny sizes"
        else:
            reference, checked = reference_digests(args.workload, env)
        tracer = Tracer() if args.trace else None
        loop = run_loop(workload, inputs, args.seconds, tracer, reference)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if tracer is not None:
        metrics = per_layer(loop, tracer)
        OUT.mkdir(exist_ok=True)
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.npz"
        tracer.write(trace_path)
    else:
        metrics = end_to_end(loop, [own_setup, *probe_setups(args)])

    failed = loop.attempted - len(loop.outcomes)
    print(f"perfbench: workload={args.workload} seed={args.seed} trace={args.trace} "
          f"seconds={args.seconds:g} attempted={loop.attempted} failed={failed} "
          f"failed_frac={failed / loop.attempted:g}")
    print("perfbench: environment " + json.dumps(env, sort_keys=True))
    print(f"perfbench: digests blas_kernel={env['blas_kernel']} "
          + json.dumps({str(k): v for k, v in sorted(loop.digests.items())}))
    print(f"perfbench: reference digests {checked}")
    for error in loop.errors:
        print(f"perfbench: FAILED {error}")
    if loop.untraced_s:
        value, pct = tail(loop.untraced_s)
        print(f"perfbench: untraced op_s n={len(loop.untraced_s)} "
              f"p50={_median(loop.untraced_s):.6g} s tail=p{pct:.4g} {value:.6g} s")
    if tracer is not None:
        print(f"perfbench: spans written to {trace_path.relative_to(ROOT)}")
    for name, value in metrics.items():
        print(f"perfbench: {name} = {value:.6g} {UNITS[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": loop.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
