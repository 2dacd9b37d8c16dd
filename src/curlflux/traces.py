"""Distributional tangential trace pairings and their boundary-layer limits.

Two independent routes are provided for the same object: the volume pairing
(curl measure against the test function minus the field against its curl),
and the layer route that integrates the field against the gradient of a solid
ramp supported on an inward shell. The tests cross-check the layer route
against `trace_pairing_vector`; no command runs that check.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .fields import CurlMeasure, VectorField, integrate_measure
from .geometry import (
    BLOCK_POINTS,
    SolidRegion,
    SurfacePatch,
    TransversalCollar,
    _by_columns,
    _columns,
    _cross_rows,
    _finite,
    _norm,
    disk_patch,
    integrate,
    shell_integral,
    support_rule,
)
from .sequences import (
    GAP_TOL,
    SequenceVerdict,
    judge_sequence,
    richardson_gap,
    richardson_limit,
)
from .stokes import StokesRefusal
from .testfns import RadialProfile, ScalarTestFunction, VectorTestField


def _scalar_as_vec(phi):
    def testvec(x):
        v = np.asarray(phi(x), dtype=float)
        return _columns(v, v, v)
    return testvec


def trace_pairing(mu: CurlMeasure, fld: VectorField, region: SolidRegion,
                  testfn: ScalarTestFunction) -> np.ndarray:
    """Vector-valued pairing of the interior tangential trace with a scalar
    test function.

    The integral of testfn against the curl measure minus the volume
    integral of F x grad(testfn), both on `support_rule`'s rule for a radial
    bump: its support ball split at the profile kink when it lies in the
    region, or the half ball on a flat face the support is centred on. There
    the Lebesgue part and F x grad(testfn) go by `_radial_pairing`; the
    sheet and line parts, and a test function with no radial profile or
    whose support leaves the region, integrate `value` and `gradient` at
    every node, over the region's own rule in the last two cases.
    """
    radial = testfn.radial
    support = region if radial is None else support_rule(
        region, (radial.center, radial.radius), (radial.kink,))
    testvec = _scalar_as_vec(testfn.value)
    if support is region:
        def fxg(x):
            return _cross_rows(fld.eval(x), testfn.gradient(x))

        return integrate_measure(mu, testvec, support) - integrate(support, fxg)
    lebesgue, volume = _radial_pairing(mu.lebesgue_density, fld, support, radial)
    singular = replace(mu, lebesgue_density=None)
    return (lebesgue + integrate_measure(singular, testvec, support)) - volume


def _radial_pairing(density, fld: VectorField, support: SolidRegion, radial: RadialProfile):
    """The integrals of phi * density (a zero vector for None) and of F x
    grad(phi) over the support ball or half ball of the radial bump phi.

    The rule is a product about the bump's centre, so phi takes one value
    per radius r_k, profile(r_k / R), and grad(phi) at the node of direction
    d_j is profile'(r_k / R) / R d_j. F x grad(phi) summed over the nodes is
    then the sum over directions of (sum over radii of w slope F) x d_j. F
    and the density are evaluated on blocks of whole shells under
    `BLOCK_POINTS` and summed as each block is evaluated; non-finite values
    raise, as `integrate` does.
    """
    dirs = support.directions
    m = len(dirs)
    u = support.volume_rules[0].nodes / radial.radius
    phi, slope = radial.profile(u), radial.profile_prime(u) / radial.radius
    nodes, weights = support.nodes, support.weights.reshape(-1, m)
    lebesgue, along = np.zeros(3), np.zeros((m, 3))
    step = max(1, BLOCK_POINTS // m)
    for k in range(0, len(u), step):
        x = nodes[k * m:(k + step) * m]
        w = weights[k:k + step]
        f = _finite(fld.eval(x)).reshape(len(w), m, 3)
        along += np.einsum("kj,kjc->jc", w * slope[k:k + step, None], f)
        if density is not None:
            rho = _finite(np.atleast_2d(density(x)))
            lebesgue += np.tensordot((w * phi[k:k + step, None]).ravel(), rho, axes=(0, 0))
    return lebesgue, np.sum(_cross_rows(along, dirs), axis=0)


def trace_pairing_vector(mu: CurlMeasure, fld: VectorField, region: SolidRegion,
                         testvec: VectorTestField) -> float:
    """Scalar pairing of the interior trace against a vector test field
    (componentwise contraction): the curl measure against the test field
    minus the volume integral of F . curl(test field)."""
    def fdotcurl(x):
        return np.einsum("ij,ij->i", fld.eval(x), testvec.curl(x))

    return (float(np.sum(integrate_measure(mu, testvec.value, region)))
            - integrate(region, fdotcurl))


# ---------------------------------------------------------------------------
# layerwise trace estimation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TangentialTrace:
    """Per-node boundary trace samples from shifted-layer extrapolation."""

    points: np.ndarray  # (n,3) base boundary points
    values: np.ndarray  # (n,3) extrapolated F x nu
    converged: np.ndarray  # (n,) bool
    tangentiality_residual: np.ndarray  # (n,) |value . nu|


def estimate_trace_layerwise(fld: VectorField, patch: SurfacePatch,
                             collar: TransversalCollar, t_grid: Sequence[float],
                             side: str = "interior") -> TangentialTrace:
    """Pull back F x nu from transversally shifted copies of a boundary
    patch, sampled at its own nodes.

    `t_grid` lists the shifts 2^-j, finest last. Each node's value is the
    Richardson limit of its column of the (shifts, nodes, 3) stack. A node
    is converged when the norm of its Richardson gap is at most GAP_TOL
    times sup |F x nu| over the stack, so fewer than five shifts flag every
    node. Non-convergent nodes keep their value but are flagged.
    """
    slide = collar.slide_for(patch)
    base, nu0 = patch.nodes, patch.normals
    sign = 1.0 if side == "interior" else -1.0
    seq = []
    for t in t_grid:
        pts = slide.shift_point(base, sign * t)
        nu_t = slide.shifted_normal(pts, sign * t)
        seq.append(_cross_rows(fld.eval(pts), nu_t))
    stack = np.stack(seq, axis=0)  # (m, n, 3)
    values = richardson_limit(stack)
    scale = np.sqrt(np.einsum("mij,mij->mi", stack, stack).max())
    conv = _norm(richardson_gap(stack)) <= GAP_TOL * scale
    resid = np.abs(np.einsum("ij,ij->i", values, nu0))
    return TangentialTrace(base, values, conv, resid)


def _layer_pairing(fld: VectorField, collar: TransversalCollar, data,
                   eps_grid: Sequence[float]) -> list[SequenceVerdict]:
    """Solid ramp route: the gradient of the inward ramp of depth eps is
    -h/eps along each slide, so the pairing at eps is the shell integral of
    (F x -h/eps) . data. `data(base, pts, nu)` gives a sequence of paired
    vector arrays at the slid points of the boundary feet `base` with inner
    normals `nu`, one per pairing, all evaluated in one shell pass per eps.
    Each verdict's scale is the largest shell integral of |F x h/eps| |data|."""
    sums = []
    for eps in eps_grid:
        def integrand(pts, slide, i):
            fx = _cross_rows(fld.eval(pts), -slide.outward_field(pts) / eps)
            fx2 = np.einsum("ij,ij->i", fx, fx)
            rows = []
            for d in data(slide.patch.nodes[i], pts, slide.patch.normals[i]):
                d = np.atleast_2d(d)
                rows += [np.einsum("ij,ij->i", fx, d),
                         np.sqrt(fx2 * np.einsum("ij,ij->i", d, d))]
            return np.stack(rows)
        sums.append(shell_integral(collar, eps, integrand))
    rows = np.transpose(sums)
    return [judge_sequence(vals, mags.max()) for vals, mags in zip(rows[::2], rows[1::2])]


def _backed(verdict: SequenceVerdict) -> float:
    if not verdict.converged:
        raise StokesRefusal(f"layer pairing did not converge (gap {verdict.gap:.3g}, "
                            f"scale {verdict.scale:.3g})")
    return verdict.limit


def tangentiality_defect(fld: VectorField, region: SolidRegion,
                         collar: TransversalCollar, boundary_data,
                         eps_grid: Sequence[float] = tuple(2.0 ** -k for k in range(3, 9))) -> float:
    """|T(phi) - T(phi_tau)| with phi_tau the pointwise tangential part of the
    boundary data phi, extended constantly along the slides: both pairings
    by the layer route in one shell pass per eps, and refused when either
    limit is not backed."""
    # `region` is unread (the layer loop needs only the collar); it stays
    # because perfbench/workloads.py passes it positionally

    def data(base, pts, nu):
        vals = np.atleast_2d(boundary_data(base))
        return vals, vals - _by_columns(np.multiply, np.einsum("ij,ij->i", vals, nu)[:, None], nu)

    full, tangential = _layer_pairing(fld, collar, data, tuple(eps_grid))
    return abs(_backed(full) - _backed(tangential))


# ---------------------------------------------------------------------------
# principal-value face pairings
# ---------------------------------------------------------------------------


def _geometric_breaks(eps: float, radius: float) -> tuple[float, ...]:
    # dyadic radial splits resolve 1/r^k integrands across several decades
    breaks = []
    r = 2.0 * eps
    while r < radius:
        breaks.append(r)
        r *= 2.0
    return tuple(breaks)


def pv_face_pairing(kernel, center, radius: float, testfn: ScalarTestFunction,
                    eps: float) -> np.ndarray:
    """Symmetric-exclusion quadrature of a principal-value face kernel:
    integral over the z-plane annulus eps < |x - center| < radius, with
    dyadic radial splits so the near-singular decades are resolved."""
    annulus = disk_patch(center, radius, order=16, n_angular=96,
                         inner_radius=eps,
                         radial_breaks=_geometric_breaks(eps, radius))
    return np.asarray(integrate(annulus, lambda pts: _by_columns(
        np.multiply, np.atleast_2d(kernel(pts)), testfn.value(pts)[:, None])))
