"""Smoke test: the wsdb example scripts run to completion.

Each example runs in its own interpreter, the way its docstring says to
run it, with ``PYTHONPATH`` pointing at this checkout's ``src``.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]


@pytest.mark.parametrize("script", ["citywide_wsdb.py", "wsdb_cluster.py"])
def test_example_runs(script):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, str(ROOT / "examples" / script)],
        capture_output=True,
        text=True,
        env=env,
        cwd=ROOT,
        timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert result.stdout
