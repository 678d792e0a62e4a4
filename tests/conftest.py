"""Fixtures shared across the test modules."""

import os
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture
def subprocess_env() -> dict[str, str]:
    """The environment with ``src/`` first on PYTHONPATH, for child interpreters.

    pytest finds the package through ``pythonpath`` in pyproject.toml; a
    subprocess does not inherit that setting.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env
