"""Every script in demos/ runs to the end, without a warning or traceback."""

from pathlib import Path

import pytest
from conftest import run_python

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[demo.stem for demo in DEMOS])
def test_demo_runs_cleanly(demo, tmp_path):
    done = run_python(str(demo), cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    assert done.stdout
