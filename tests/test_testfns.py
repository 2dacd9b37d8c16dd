import numpy as np
import pytest

from curlflux import testfns


def _norm_bump(center, radius, plateau, profile, profile_prime):
    # the bump with |x - c| taken by np.linalg.norm: the reference its value
    # and gradient must equal bit for bit
    def value(x):
        r = np.linalg.norm(np.atleast_2d(x) - center, axis=1)
        return profile(r / radius, plateau)

    def gradient(x):
        rel = np.atleast_2d(x) - center
        r = np.linalg.norm(rel, axis=1)
        mag = profile_prime(r / radius, plateau) / radius
        safe = np.where(r == 0.0, 1.0, r)
        return mag[:, None] * rel / safe[:, None]

    return value, gradient


@pytest.mark.parametrize("make, profile, profile_prime", [
    (testfns.radial_bump, testfns.cutoff_profile, testfns.cutoff_profile_prime),
    (testfns.smooth_bump, testfns._exp_profile, testfns._exp_profile_prime),
])
@pytest.mark.parametrize("plateau", [0.5, 0.3])
def test_bumps_equal_the_norm_formulation(make, profile, profile_prime, plateau):
    center, radius = np.array([0.1, -0.2, 0.3]), 0.7
    rng = np.random.default_rng(5)
    dirs = rng.standard_normal((40, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    # the centre, the plateau radius, the support radius, outside it, and between
    radii = np.concatenate([[0.0, plateau, 1.0, 1.4], rng.uniform(0.0, 1.2, 6)]) * radius
    x = np.concatenate([center + r * dirs for r in radii])
    bump = make(center, radius, plateau)
    value, gradient = _norm_bump(center, radius, plateau, profile, profile_prime)
    v, g = bump.value(x), bump.gradient(x)
    assert np.array_equal(v, value(x)) and np.array_equal(g, gradient(x))
    # every kind of point is there: the plateau, the transition and outside
    assert np.any(v == 1.0) and np.any(np.abs(v) < 1e-15) and np.any((0.1 < v) & (v < 0.9))
    assert np.array_equal(bump.value(center), [1.0]) and np.array_equal(bump.gradient(center),
                                                                         [[0.0, 0.0, 0.0]])
