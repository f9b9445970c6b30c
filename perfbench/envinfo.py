"""The environment block: what a run's timings and digests depend on.

Digests are comparable only between runs on the same BLAS kernel, so the
block names the kernel OpenBLAS selected, which it prints at load time when
``OPENBLAS_VERBOSE=2`` is set; a child process is started for that, because
the variable is read only when the library loads.
"""

from __future__ import annotations

import os
import platform
import re
import subprocess
import sys

import numpy as np

THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "GOTO_NUM_THREADS",
)

_KERNEL_PROBE = "import numpy as np; a = np.ones((64, 64)); a @ a"


def blas_kernel(cwd) -> str:
    """The core type OpenBLAS dispatches to, or 'unknown' if it does not say."""
    env = dict(os.environ, OPENBLAS_VERBOSE="2")
    try:
        proc = subprocess.run(
            [sys.executable, "-c", _KERNEL_PROBE],
            cwd=cwd, env=env, capture_output=True, text=True, timeout=60,
        )
    except (OSError, subprocess.TimeoutExpired) as exc:
        return f"unknown ({type(exc).__name__})"
    match = re.search(r"Core:\s*(\S+)", proc.stdout + proc.stderr)
    return match.group(1) if match else "unknown"


def _blas_build() -> dict:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
    except (TypeError, KeyError):  # numpy < 1.26 has no dict mode
        return {"name": "unknown", "version": "unknown"}
    blas = deps.get("blas", {})
    return {"name": blas.get("name", "unknown"), "version": blas.get("version", "unknown")}


def collect(cwd) -> dict:
    blas = _blas_build()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas["name"],
        "blas_version": blas["version"],
        "blas_kernel": blas_kernel(cwd),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARS},
    }
