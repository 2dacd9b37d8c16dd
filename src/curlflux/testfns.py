"""Smooth test functions and vector fields with analytic derivatives.

Dual bounds, tangentiality checks, and divergence dictionaries all pair
against these: radial bumps and low-order trigonometric fields, each with a
closed-form gradient and curl so the pairings never fall back to finite
differences.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

import numpy as np

from .geometry import _by_columns, _columns, _cross_rows, _norm


def smoothstep(u):
    """Quintic smoothstep: 0 at u<=0, 1 at u>=1, C^2 at the ends."""
    u = np.clip(u, 0.0, 1.0)
    return u ** 3 * (10.0 - 15.0 * u + 6.0 * u * u)


def smoothstep_prime(u):
    inside = (u > 0.0) & (u < 1.0)
    u = np.clip(u, 0.0, 1.0)
    return np.where(inside, 30.0 * u ** 2 * (1.0 - u) ** 2, 0.0)


def cutoff_profile(u, plateau: float):
    """Decreasing C^2 profile: 1 for u <= plateau, 0 for u >= 1; |slope| <= 3.75
    at plateau 1/2."""
    return 1.0 - smoothstep((u - plateau) / (1.0 - plateau))


def cutoff_profile_prime(u, plateau: float):
    return -smoothstep_prime((u - plateau) / (1.0 - plateau)) / (1.0 - plateau)


@dataclass(frozen=True)
class RadialProfile:
    """A radial bump as a function of the radius about its `center`:
    profile(r / radius), 0 outside `radius` and kinked only at r / radius =
    `kink`, a fraction of the radius, with `profile_prime` its derivative in
    r / radius. The ball (center, radius) is its support, on which pairings
    integrate."""

    center: np.ndarray
    radius: float
    kink: float
    profile: Callable[[np.ndarray], np.ndarray]
    profile_prime: Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class ScalarTestFunction:
    """Compactly supported scalar with analytic gradient; a radial bump also
    holds its `radial` profile, so pairings can integrate over its support
    ball instead of a whole region."""

    value: Callable[[np.ndarray], np.ndarray]
    gradient: Callable[[np.ndarray], np.ndarray]
    radial: Optional[RadialProfile] = None


def _exp_profile(u, plateau: float):
    """C-infinity profile: 1 for u <= plateau, exp(1 - 1/(1-v^2)) decay to 0 at u = 1."""
    u = np.asarray(u, dtype=float)
    v = np.clip((u - plateau) / (1.0 - plateau), 0.0, 1.0)
    out = np.zeros_like(v)
    inside = v < 1.0
    vi = v[inside]
    out[inside] = np.exp(1.0 - 1.0 / np.maximum(1.0 - vi * vi, 1e-300))
    return out


def _exp_profile_prime(u, plateau: float):
    u = np.asarray(u, dtype=float)
    v = (u - plateau) / (1.0 - plateau)
    out = np.zeros_like(v)
    inside = (v > 0.0) & (v < 1.0)
    vi = v[inside]
    g = 1.0 - vi * vi
    out[inside] = np.exp(1.0 - 1.0 / g) * (-2.0 * vi / (g * g)) / (1.0 - plateau)
    return out


def _bump(center, radius: float, plateau: float, profile, profile_prime) -> ScalarTestFunction:
    """The radial bump profile(|x-c| / radius, plateau) with the gradient of
    `profile_prime`: 1 on |x-c| <= plateau*radius, 0 outside radius, which
    are its support ball and its one kink."""
    center = np.asarray(center, dtype=float)
    column = center[:, None]
    prof, prime = partial(profile, plateau=plateau), partial(profile_prime, plateau=plateau)

    def offsets(x):
        # x - center as its three columns, (3, n): each difference runs
        # along the nodes, not over a length-3 axis
        return np.subtract(np.atleast_2d(x).T, column, order="C")

    def value(x):
        return prof(_norm(offsets(x).T) / radius)

    def gradient(x):
        rel = offsets(x)
        r = _norm(rel.T)
        mag = prime(r / radius) / radius
        safe = np.where(r == 0.0, 1.0, r)
        return _columns(*(mag * rel / safe))

    return ScalarTestFunction(value, gradient,
                              RadialProfile(center, radius, plateau, prof, prime))


def smooth_bump(center, radius: float, plateau: float = 0.5) -> ScalarTestFunction:
    """C-infinity bump: 1 on |x-c| <= plateau*radius, 0 outside radius.

    Spectrally friendly for Gauss rules; use where quadrature error must sit
    well below 1e-8.
    """
    return _bump(center, radius, plateau, _exp_profile, _exp_profile_prime)


@dataclass(frozen=True)
class VectorTestField:
    """Vector test field with analytic curl (and gradient action where needed)."""

    value: Callable[[np.ndarray], np.ndarray]
    curl: Callable[[np.ndarray], np.ndarray]


def radial_bump(center, radius: float, plateau: float = 0.5) -> ScalarTestFunction:
    """C^2 bump equal to 1 on |x-c| <= plateau*radius, 0 outside radius."""
    return _bump(center, radius, plateau, cutoff_profile, cutoff_profile_prime)


def trig_scalar(k) -> ScalarTestFunction:
    k = np.asarray(k, dtype=float)

    def value(x):
        return np.sin(np.atleast_2d(x) @ k)

    def gradient(x):
        c = np.cos(np.atleast_2d(x) @ k)
        return _by_columns(np.multiply, c[:, None], k)

    return ScalarTestFunction(value, gradient)


def trig_vector(modes) -> VectorTestField:
    """Sum of plane-wave modes (amplitude a, wavevector k, phase p); analytic curl."""
    modes = [(np.asarray(a, float), np.asarray(k, float), float(p)) for a, k, p in modes]

    def value(x):
        x = np.atleast_2d(x)
        out = np.zeros_like(x)
        for a, k, p in modes:
            out += _by_columns(np.multiply, np.sin(x @ k + p)[:, None], a)
        return out

    def curl(x):
        x = np.atleast_2d(x)
        out = np.zeros_like(x)
        for a, k, p in modes:
            out += _by_columns(np.multiply, np.cos(x @ k + p)[:, None], np.cross(k, a))
        return out

    return VectorTestField(value, curl)


def random_trig_vector(seed: int, n_modes: int = 3, kmax: float = 2.0) -> VectorTestField:
    rng = np.random.default_rng(seed)
    modes = [(rng.standard_normal(3), kmax * rng.standard_normal(3),
              float(rng.uniform(0, 2 * np.pi))) for _ in range(n_modes)]
    return trig_vector(modes)


def gradient_field(phi: ScalarTestFunction) -> VectorTestField:
    """Curl-free vector field grad(phi)."""
    return VectorTestField(phi.gradient, lambda x: np.zeros_like(np.atleast_2d(x)))


def bump_vector(center, radius: float, direction) -> VectorTestField:
    """Constant direction modulated by a radial bump; curl = grad(bump) x direction."""
    d = np.asarray(direction, dtype=float)
    bump = radial_bump(center, radius)

    def value(x):
        return _by_columns(np.multiply, bump.value(x)[:, None], d)

    def curl(x):
        return _cross_rows(bump.gradient(x), d)

    return VectorTestField(value, curl)

