"""Run the suite from a fresh checkout with a bare ``python3 -m pytest``:
put ``src/`` on the import path of this process and, through
PYTHONPATH, of the ``python -m corecuts.cli`` subprocesses the tests
start."""

import os
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

if SRC not in sys.path:
    sys.path.insert(0, SRC)
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (SRC, os.environ.get("PYTHONPATH")) if p
)
