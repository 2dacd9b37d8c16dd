"""Limit extraction from geometric parameter sequences.

Localizer and layer limits are sampled at parameters 2^-j, finest last; smooth
cases carry polynomial error expansions in the parameter, so a Richardson
triangle with ratio 2 collapses them. One rule decides whether a limit is
reported at all: the order-3 Richardson values of the last four samples and
of the four before them must agree to GAP_TOL times a scale. The scale comes
from the route's integrand (the integral of its absolute value, or the sup of
the sampled field), never from the values, so a verdict does not depend on
the units of the field and a limit of zero is judged like any other.
"""

from dataclasses import dataclass

import numpy as np

GAP_TOL = 1e-6


def richardson_limit(values):
    """Richardson triangle along axis 0 of an (m, ...) array of samples at
    steps h/2^k, finest last; each trailing index is its own sequence."""
    level = np.asarray(values, dtype=float)
    m = 1
    while level.shape[0] > 1:
        mult = 2.0 ** m
        level = (mult * level[1:] - level[:-1]) / (mult - 1.0)
        m += 1
    return level[0]


def richardson_gap(values):
    """Order-3 Richardson value of the last four samples minus that of the
    four before them, along axis 0; infinite with fewer than five samples."""
    v = np.asarray(values, dtype=float)
    if v.shape[0] < 5:
        return np.full(v.shape[1:], np.inf)[()]
    return richardson_limit(v[-4:]) - richardson_limit(v[-5:-1])


@dataclass(frozen=True)
class SequenceVerdict:
    converged: bool
    limit: float  # Richardson value of the whole sequence
    tail_oscillation: float  # sup - inf of the last six values
    gap: float
    scale: float


def judge_sequence(values, scale: float) -> SequenceVerdict:
    """Convergence verdict for a sequence at parameters 2^-j: converged when
    |richardson_gap| <= GAP_TOL * scale."""
    v = np.asarray(values, dtype=float)
    gap = float(richardson_gap(v))
    return SequenceVerdict(bool(abs(gap) <= GAP_TOL * scale), float(richardson_limit(v)),
                           float(np.ptp(v[-6:])), gap, float(scale))
