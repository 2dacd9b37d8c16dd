import numpy as np
import pytest

from curlflux import fields as flds
from curlflux import geometry as geo
from curlflux.testfns import (
    ScalarTestFunction,
    cutoff_profile,
    cutoff_profile_prime,
)


def rim(patch):
    """The rim of a disk or spherical-cap patch at the patch's own angles:
    the curve, the unit conormals (pointing into the patch) and the tangents
    tau = nu x conormal. The orientation oracle of the tangential route."""
    s = patch.v.nodes
    if patch.name == "disk":
        e1, e2, nu = patch.frame
        curve = geo.circle_curve(patch.origin, patch.scale, e1, e2, s.size)
        conormals = -(np.cos(s)[:, None] * e1 + np.sin(s)[:, None] * e2)
        return curve, conormals, np.cross(nu, conormals)
    # a cap about the +z pole; its u rule spans (cos th0, 1)
    ct = 1.0 - np.sum(patch.u.weights)
    st, radius = np.sqrt(1.0 - ct * ct), patch.scale
    curve = geo.circle_curve(patch.origin + [0.0, 0.0, radius * ct], radius * st,
                             (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), s.size)
    # unit tangents to the sphere pointing toward the pole
    conormals = np.stack([-ct * np.cos(s), -ct * np.sin(s), st * np.ones_like(s)], axis=1)
    nu = -(curve.nodes - patch.origin) / radius
    return curve, conormals, np.cross(nu, conormals)


@pytest.fixture(scope="session")
def unit_disk():
    return geo.disk_patch((0.0, 0.0, 0.0), 1.0)


@pytest.fixture(scope="session")
def unit_disk_collar(unit_disk):
    return geo.build_tangential_collar(unit_disk)


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

