"""Test set-up shared by ``tests`` and ``benchmark/tests``: ``src`` first on
the import path of the test process and, through ``PYTHONPATH``, of every
Python process a test starts; and hafformer imported before anything loads
numpy, so its BLAS thread cap acts in the test process."""

import os
import sys
from pathlib import Path

SRC = str(Path(__file__).parent / "src")
sys.path.insert(0, SRC)
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))

import hafformer  # noqa: E402,F401
