"""Test set-up shared by ``tests`` and ``benchmark/tests``: ``src`` on the
import path, and hafformer imported before anything loads numpy, so its BLAS
thread cap acts in the test process."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent / "src"))

import hafformer  # noqa: E402,F401
