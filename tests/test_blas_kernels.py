"""Holdout reports do not depend on the BLAS kernel.

Training is bit-identical only per BLAS kernel: matrix products round
differently under different OpenBLAS kernels, so trained weights may differ
in their last bits. The reported holdout metrics must not. This test runs
one suite, LOO off, on the default synthetic cohort in two subprocesses,
each told by ``OPENBLAS_CORETYPE`` to use another kernel of numpy's
DYNAMIC_ARCH OpenBLAS (Haswell, and Katmai, which ``Prescott`` selects),
and compares their holdout reports.
"""

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

from mlpinit._platform import fingerprint

KERNELS = ("Haswell", "Prescott")

# One suite; prints the OpenBLAS kernel that ran it and each cell's holdout
# report.
CHILD = """
import json
from mlpinit._platform import fingerprint
from mlpinit.harness import ExperimentConfig, SyntheticSpec, report_to_dict, run_suite
from mlpinit.initializers import KAIMING_NORMAL
from mlpinit.network import Topology

cells = run_suite(ExperimentConfig(
    topology=Topology.THREE_LAYER, scheme=KAIMING_NORMAL, seed=0,
    synthetic=SyntheticSpec(), loo_enabled=False,
))
print(json.dumps({
    "corenames": fingerprint()[0],
    "reports": [cell.error or report_to_dict(cell.result.holdout) for cell in cells],
}))
"""


@pytest.mark.skipif(
    sys.platform != "linux" or platform.machine() != "x86_64",
    reason="the kernels named here are x86_64 OpenBLAS kernels",
)
def test_holdout_reports_agree_across_blas_kernels(dynamic_openblas):
    if fingerprint()[1] not in ("avx2", "avx512") or not dynamic_openblas:
        pytest.skip("needs AVX2 and numpy's OpenBLAS built with DYNAMIC_ARCH")
    runs = []
    for kernel in KERNELS:
        env = dict(os.environ, OPENBLAS_CORETYPE=kernel)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(__file__).resolve().parent.parent / "src"), env.get("PYTHONPATH", "")]
        )
        done = subprocess.run(
            [sys.executable, "-c", CHILD], capture_output=True, text=True, env=env
        )
        assert done.returncode == 0, done.stderr
        runs.append(json.loads(done.stdout))
    haswell, katmai = runs
    # each child ran one kernel, and not the same one; the kernel that
    # OPENBLAS_CORETYPE=Prescott runs names itself Katmai
    assert len(haswell["corenames"]) == len(katmai["corenames"]) == 1
    assert haswell["corenames"] != katmai["corenames"]
    assert katmai["corenames"] == ["Katmai"]
    assert haswell["reports"] == katmai["reports"]
    assert all(isinstance(report, dict) for report in haswell["reports"])
