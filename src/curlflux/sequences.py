"""Limit extraction from geometric parameter sequences.

Localizer and layer limits are sampled at parameters 2^-j; smooth cases carry
polynomial error expansions in the parameter, so a Richardson triangle with
ratio 2 collapses them. Aitken acceleration provides the rate-agnostic
convergence diagnostic that decides whether a limit is reported at all.
"""

from dataclasses import dataclass

import numpy as np


def richardson_limit(values) -> float:
    """Richardson triangle for samples at geometrically decreasing steps.

    `values[k]` corresponds to step h/2^k, finest last.
    """
    level = [float(v) for v in values]
    m = 1
    while len(level) > 1:
        mult = 2.0 ** m
        level = [(mult * level[i + 1] - level[i]) / (mult - 1.0) for i in range(len(level) - 1)]
        m += 1
    return level[0]


def aitken(values) -> np.ndarray:
    """One Aitken delta-squared pass along axis 0; entries with vanishing
    curvature pass through.

    `values` has shape (m, ...): each trailing index is its own sequence, so
    one call on an (m, n, 3) stack equals n * 3 calls on its columns.
    """
    v = np.asarray(values, dtype=float)
    if v.shape[0] < 3:
        return v.copy()
    num = (v[2:] - v[1:-1]) ** 2
    den = v[2:] - 2.0 * v[1:-1] + v[:-2]
    out = v[2:].copy()
    ok = np.abs(den) > 1e-300
    out[ok] = v[2:][ok] - num[ok] / den[ok]
    return out


@dataclass(frozen=True)
class SequenceVerdict:
    converged: bool
    limit: float | None
    tail_oscillation: float
    accelerated_spread: float


def judge_sequence(values, spread_tol: float = 1e-5, osc_tol: float = 5e-2) -> SequenceVerdict:
    """Convergence verdict for a sequence at parameters 2^-j.

    Converged requires the Aitken-accelerated tail to settle below
    `spread_tol` and the oscillation (sup - inf) of the last six raw values
    to stay below `osc_tol`. The reported limit is the Richardson value,
    which is only meaningful when the verdict is positive.
    """
    v = np.asarray(values, dtype=float)
    tail_vals = v[-min(6, v.size):]
    t_osc = float(tail_vals.max() - tail_vals.min())
    acc = aitken(v)
    if acc.size >= 3:
        acc = aitken(acc)
    spread = float(np.max(np.abs(np.diff(acc[-3:])))) if acc.size >= 2 else np.inf
    converged = bool(spread < spread_tol and t_osc < osc_tol)
    limit = richardson_limit(v) if converged else None
    return SequenceVerdict(converged, limit, t_osc, spread)


def fit_decay_slope(params, errors) -> float:
    """Least-squares slope of log(error) against log(parameter)."""
    p = np.log(np.asarray(params, dtype=float))
    e = np.log(np.maximum(np.asarray(errors, dtype=float), 1e-300))
    A = np.stack([p, np.ones_like(p)], axis=1)
    slope, _ = np.linalg.lstsq(A, e, rcond=None)[0]
    return float(slope)
