import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))  # oracle modules live next to the tests


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
