"""Child interpreters the tests start (`python -m rturan.cli ...`) import
rturan from this checkout's src, as the tests do through pytest's
`pythonpath` setting, which reaches only the test process itself.

The supply_cuts fixture records the color-supply counts the search
kernels run."""

import os
from pathlib import Path

import pytest

from rturan import search

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)


@pytest.fixture
def supply_cuts(monkeypatch):
    """Each color-supply count the search kernels run from here on
    (search._starved, which they look up by name at every node where the
    gate is open), in order: True where it cut."""
    log = []
    inner = search._starved

    def spy(*args):
        log.append(inner(*args))
        return log[-1]

    monkeypatch.setattr(search, "_starved", spy)
    return log
