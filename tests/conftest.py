import os
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture
def child_env():
    """Environment for a child Python that imports cltwist from this checkout.

    ``src`` goes first on PYTHONPATH, so a subprocess finds the package
    whatever the caller's PYTHONPATH is, and also when it is unset.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
    )
    return env
