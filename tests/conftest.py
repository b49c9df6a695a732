import os
from pathlib import Path

import pytest

import nilorb


@pytest.fixture
def nilorb_env():
    """Environment for a child interpreter that imports this nilorb."""
    src = str(Path(nilorb.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}
