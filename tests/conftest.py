import sys
from pathlib import Path

import numpy as np
import pytest

from membranes.problem import ProblemSpec, normalize

# The benchmark's exact discrete solver (perfbench/reference.py) shares no
# code with the package, so tests compare against it; they only import it.
sys.path.append(str(Path(__file__).resolve().parents[1] / "perfbench"))


@pytest.fixture(scope="session")
def spec2():
    return normalize(ProblemSpec(2, (1.0, 1.0), (1.0, -1.0)))


@pytest.fixture(scope="session")
def spec3():
    return normalize(ProblemSpec(3, (1.0, 2.0, 1.5), (2.0, 0.3, -1.0)))


@pytest.fixture(scope="session")
def spec3_unit():
    return normalize(ProblemSpec(3, (1.0, 1.0, 1.0), (1.0, 0.2, -0.8)))


@pytest.fixture(scope="session")
def spec4():
    return normalize(ProblemSpec(4, (1.0, 0.7, 2.0, 1.1), (3.0, 1.0, 0.0, -2.0)))


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)
