"""1-D Gauss-Legendre and trapezoid quadrature rules.

Weights are plain parameter-measure weights, so a rule sums to the length of
its interval. Patches and regions form their product rules by broadcasting
these and apply their own metric factors (area and volume elements).
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes in parameter space with positive weights."""

    nodes: np.ndarray  # (n,) or (n, d)
    weights: np.ndarray  # (n,)

    def __post_init__(self):
        if (self.weights <= 0).any():
            raise ValueError("quadrature weights must be positive")


@lru_cache(maxsize=None)
def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Reference n-point Gauss-Legendre nodes and weights on [-1, 1], built
    once per n; the cached arrays are read-only."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def gauss_legendre(n: int, a: float, b: float) -> QuadratureRule:
    """n-point Gauss-Legendre rule on [a, b]; exact on polynomials of degree 2n-1.

    The returned arrays are fresh, so callers may modify them."""
    x, w = _leggauss(n)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return QuadratureRule(mid + half * x, half * w)


def periodic_trapezoid(n: int) -> QuadratureRule:
    """Equispaced rule on [0, 2 pi); spectrally accurate for periodic integrands."""
    h = 2.0 * np.pi / n
    return QuadratureRule(np.arange(n) * h, np.full(n, h))


def gauss_legendre_segments(n: int, segments) -> QuadratureRule:
    """The n-point Gauss-Legendre rules of the segments (lo, hi), in order,
    as one rule: per segment the nodes and weights of `gauss_legendre(n, lo,
    hi)`, formed by one broadcast over all of them, so the same floats."""
    seg = np.asarray(segments, dtype=float).reshape(-1, 2)
    x, w = _leggauss(n)
    mid, half = 0.5 * (seg[:, :1] + seg[:, 1:]), 0.5 * (seg[:, 1:] - seg[:, :1])
    return QuadratureRule((mid + half * x).ravel(), (half * w).ravel())


def gauss_legendre_split(n: int, breakpoints: np.ndarray) -> QuadratureRule:
    """Composite GL rule with subintervals split at the given sorted breakpoints."""
    bp = np.asarray(breakpoints, dtype=float)
    seg = np.stack([bp[:-1], bp[1:]], axis=1)[bp[1:] > bp[:-1]]
    if not len(seg):
        raise ValueError("empty breakpoint partition")
    return gauss_legendre_segments(n, seg)
