"""``mlpinit._platform.fingerprint()`` names no tier it cannot tell, and the
library does not import it."""

import os
import platform
import subprocess
import sys
from pathlib import Path

from mlpinit._platform import fingerprint

SRC = str(Path(__file__).resolve().parent.parent / "src")


def test_simd_path_is_unknown_where_numpy_has_no_feature_table(monkeypatch):
    # as under numpy 1, which has no numpy._core
    monkeypatch.setitem(sys.modules, "numpy._core._multiarray_umath", None)
    assert fingerprint()[1] == "unknown"


def test_simd_path_is_unknown_off_x86(monkeypatch):
    monkeypatch.setattr(platform, "machine", lambda: "aarch64")
    assert fingerprint()[1] == "unknown"


def test_import_mlpinit_leaves_the_probe_unimported():
    done = subprocess.run(
        [sys.executable, "-c", "import sys, mlpinit; print('mlpinit._platform' in sys.modules)"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=SRC),
    )
    assert done.stdout == "False\n", done.stderr

