import numpy as np
import pytest
from hypothesis import settings

from randers import make_custom, make_paraboloid

# Tier-1 runs the same examples every time and keeps no example database.
settings.register_profile("tier1", derandomize=True, database=None)
settings.load_profile("tier1")


@pytest.fixture(scope="session")
def parab():
    """Paraboloid-like profile, mu = 1, default domain."""
    return make_paraboloid(1.0)


@pytest.fixture(scope="session")
def parab60():
    """Same surface with a wide domain for long geodesics."""
    return make_paraboloid(1.0, r_max=60.0)


@pytest.fixture(scope="session")
def parab03():
    return make_paraboloid(0.3)


@pytest.fixture(scope="session")
def flat():
    """Euclidean plane in polar form; distances have closed forms."""
    return make_custom("r", "1", "0", mu=0.04, r_max=20.0)


@pytest.fixture(scope="session")
def sphere():
    """Unit-curvature cap m = sin r; geodesic distance is the spherical law
    of cosines and the conjugate parameter along any meridian chain is pi."""
    return make_custom("sin(r)", "cos(r)", "-sin(r)", mu=0.2, r_max=2.8)


@pytest.fixture(scope="session")
def bump():
    """Profile with one interior critical point of m at r = sqrt(2) and a
    curvature that increases with r (not von Mangoldt)."""
    return make_custom("r - r^5/20", "1 - r^4/4", "-r^3", mu=0.5, r_max=1.8)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)
