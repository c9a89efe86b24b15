import numpy as np
import pytest

from mltc.verify import random_htensor  # noqa: F401  (imported by the test modules)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
