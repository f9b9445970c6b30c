"""``mlpinit._platform.fingerprint()`` names no tier it cannot tell, and the
library does not import it."""

import platform
import sys

from conftest import run_python

from mlpinit._platform import fingerprint


def test_simd_path_is_unknown_where_numpy_has_no_feature_table(monkeypatch):
    # as under numpy 1, which has no numpy._core
    monkeypatch.setitem(sys.modules, "numpy._core._multiarray_umath", None)
    assert fingerprint()[1] == "unknown"


def test_simd_path_is_unknown_off_x86(monkeypatch):
    monkeypatch.setattr(platform, "machine", lambda: "aarch64")
    assert fingerprint()[1] == "unknown"


def test_import_mlpinit_leaves_the_probe_unimported():
    done = run_python("-c", "import sys, mlpinit; print('mlpinit._platform' in sys.modules)")
    assert done.stdout == "False\n", done.stderr

