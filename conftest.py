import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).parent / "src"
sys.path.insert(0, str(SRC))


@pytest.fixture
def fresh_python():
    """Run `python ARGS...` in a new interpreter that imports pinchjac from src/."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)

    def run(*args: str) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                              encoding="utf-8", env=env, timeout=120)

    return run
