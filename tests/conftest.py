"""Child interpreters the tests start (`python -m rturan.cli ...`) import
rturan from this checkout's src, as the tests do through pytest's
`pythonpath` setting, which reaches only the test process itself.

The supply_cut fixture runs searches with the color-supply cut of the
longest/exists kernel and again without it, and checks that the cut
changed only how much they searched."""

import os
from pathlib import Path

import pytest

from rturan import search

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)


@pytest.fixture
def supply_cut(monkeypatch):
    """check(run): run() returns (output, work), the work counted in search
    nodes. check runs it as it is, then with every carry-field layout
    search._dfs builds (search._supply_layout, which _dfs, its one caller,
    looks up by name) given no guard bits, so its count is 0 and neither
    the cut nor forcing, which reads the same count, ever fires while the
    tables stay the same. It asserts that the outputs are equal and that
    the cut did strictly less work: so the cut fired. Returns the output."""
    def check(run):
        output, work = run()
        inner = search._supply_layout
        with monkeypatch.context() as patch:
            patch.setattr(search, "_supply_layout",
                          lambda *args: inner(*args)[:3] + (0,))
            uncut, uncut_work = run()
        assert output == uncut
        assert work < uncut_work
        return output

    return check
