"""Each script under demos/ runs to the end in a fresh interpreter."""

import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo, child_env):
    out = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True,
        env=child_env, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip()
    assert "Traceback" not in out.stderr
