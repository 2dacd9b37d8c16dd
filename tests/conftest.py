import numpy as np
import pytest

from curlflux import fields as flds
from curlflux import geometry as geo
from curlflux.testfns import (
    ScalarTestFunction,
    cutoff_profile,
    cutoff_profile_prime,
)


@pytest.fixture(scope="session")
def unit_disk_manifold():
    return geo.disk_manifold((0.0, 0.0, 0.0), 1.0)


@pytest.fixture(scope="session")
def unit_disk_collar(unit_disk_manifold):
    return geo.build_tangential_collar(unit_disk_manifold)


@pytest.fixture(scope="session")
def half_ball():
    return geo.half_ball_region(order=24, n_angular=64)


@pytest.fixture(scope="session")
def unit_cylinder():
    return geo.cylinder_region(order=20, n_angular=64)


@pytest.fixture(scope="session")
def cylinder_collar(unit_cylinder):
    return geo.build_transversal_collar(unit_cylinder)


@pytest.fixture(scope="session")
def rigid_rotation():
    return flds.catalog("rigid_rotation")


@pytest.fixture(scope="session")
def line_vortex():
    return flds.catalog("line_vortex")


@pytest.fixture(scope="session")
def newtonian():
    return flds.catalog("newtonian")


@pytest.fixture(scope="session")
def annuli():
    return flds.catalog("annuli")


@pytest.fixture(scope="session")
def cutoff_one():
    """Cutoff equal to 1 on the origin-centred ball of radius 1.5, zero past
    radius 3; it declares no support ball, so pairings use the whole region."""
    radius = 3.0

    def value(x):
        r = np.linalg.norm(np.atleast_2d(x), axis=1)
        return cutoff_profile(r / radius, 0.5)

    def gradient(x):
        x = np.atleast_2d(x)
        r = np.linalg.norm(x, axis=1)
        mag = cutoff_profile_prime(r / radius, 0.5) / radius
        safe = np.where(r == 0.0, 1.0, r)
        return mag[:, None] * x / safe[:, None]

    return ScalarTestFunction(value, gradient)

