import numpy as np
import pytest
from hypothesis import settings

from nctorus import algebra, cocycle, lattice
from nctorus.cocycle import ReducedTheta, reduce_theta
from nctorus.experiments import default_theta

# Property tests draw the same examples on every run, with no per-example
# time limit: a failure reproduces, and a slow host does not fail a test.
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")


@pytest.fixture
def theta2():
    """Full skew matrix, d=2, irrational twist."""
    return default_theta(2)


@pytest.fixture
def red2(theta2):
    """Reduced (strictly lower triangular) form of theta2."""
    return reduce_theta(theta2)


@pytest.fixture
def quarter():
    """d=2 reduction with a rational twist 1/4: clean quarter-turn phases."""
    return ReducedTheta(np.array([[0.0, 0.0], [0.25, 0.0]]))


@pytest.fixture
def rng():
    return np.random.Generator(np.random.Philox(key=2024))


@pytest.fixture
def memos():
    """Every memo of per-box tables and thetas, by name, each cleared."""
    found = {
        "geometry": lattice._geometry_memo,
        "diagonal": cocycle._diagonal_memo,
        "theta": cocycle.reduce_theta,
        "embedding": lattice._embedding_memo,
        "plan": algebra._plan_memo,
    }
    for memo in found.values():
        memo.cache_clear()
    return found
