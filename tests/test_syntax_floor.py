"""Every Python file of the project parses at the Python floor that
pyproject.toml declares (requires-python), so syntax newer than the floor,
such as `except*` or a `type X = ...` alias, fails here on any interpreter
that runs the suite. It checks grammar only, not library APIs."""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def declared_floor() -> tuple:
    text = (ROOT / "pyproject.toml").read_text()
    major, minor = re.search(r'requires-python = ">=(\d+)\.(\d+)"',
                             text).groups()
    return int(major), int(minor)


@pytest.mark.parametrize("top", ["src", "tests", "perfbench"])
def test_every_file_parses_at_the_declared_floor(top):
    floor = declared_floor()
    files = sorted((ROOT / top).rglob("*.py"))
    assert files
    for path in files:
        ast.parse(path.read_text(encoding="utf-8"), str(path),
                  feature_version=floor)


def test_the_floor_check_refuses_newer_syntax():
    newer = "try:\n    pass\nexcept* ValueError:\n    pass\n"
    if sys.version_info >= (3, 11):
        ast.parse(newer)  # the interpreter's own grammar takes it
    with pytest.raises(SyntaxError):
        ast.parse(newer, feature_version=declared_floor())
