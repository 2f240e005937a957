"""Child interpreters the tests start (`python -m rturan.cli ...`) import
rturan from this checkout's src, as the tests do through pytest's
`pythonpath` setting, which reaches only the test process itself."""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)
