"""Holdout reports do not depend on the BLAS kernel.

Training is bit-identical only per BLAS kernel: matrix products round
differently under different OpenBLAS kernels, so trained weights may differ
in their last bits. The reported holdout metrics must not. This test runs
one suite, LOO off, on the default synthetic cohort in two subprocesses,
each told by ``OPENBLAS_CORETYPE`` to use another kernel of numpy's
DYNAMIC_ARCH OpenBLAS, and compares their holdout reports.
"""

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

from openblas_probe import cpu_features, dynamic_openblas

KERNELS = ("Haswell", "Prescott")

# One suite; prints the OpenBLAS kernel that ran it and each cell's holdout
# report.
CHILD = """
import json
from mlpinit.harness import ExperimentConfig, SyntheticSpec, report_to_dict, run_suite
from mlpinit.initializers import KAIMING_NORMAL
from mlpinit.network import Topology
from openblas_probe import corenames

cells = run_suite(ExperimentConfig(
    topology=Topology.THREE_LAYER, scheme=KAIMING_NORMAL, seed=0,
    synthetic=SyntheticSpec(), loo_enabled=False,
))
print(json.dumps({
    "corenames": corenames(),
    "reports": [cell.error or report_to_dict(cell.result.holdout) for cell in cells],
}))
"""


@pytest.mark.skipif(
    sys.platform != "linux" or platform.machine() != "x86_64",
    reason="the kernels named here are x86_64 OpenBLAS kernels",
)
def test_holdout_reports_agree_across_blas_kernels():
    if not cpu_features().get("AVX2") or not dynamic_openblas():
        pytest.skip("needs AVX2 and numpy's OpenBLAS built with DYNAMIC_ARCH")
    tests = Path(__file__).resolve().parent
    runs = []
    for kernel in KERNELS:
        env = dict(os.environ, OPENBLAS_CORETYPE=kernel)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(tests.parent / "src"), str(tests), env.get("PYTHONPATH", "")]
        )
        done = subprocess.run(
            [sys.executable, "-c", CHILD], capture_output=True, text=True, env=env
        )
        assert done.returncode == 0, done.stderr
        runs.append(json.loads(done.stdout))
    haswell, prescott = runs
    # each child ran one kernel, and not the same one
    assert len(haswell["corenames"]) == len(prescott["corenames"]) == 1
    assert haswell["corenames"] != prescott["corenames"]
    assert haswell["reports"] == prescott["reports"]
    assert all(isinstance(report, dict) for report in haswell["reports"])
