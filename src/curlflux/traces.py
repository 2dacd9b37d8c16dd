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
    frame_from_normal,
    integrate,
    shell_integral,
    support_fit,
    support_rule,
    unit_support,
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
    integral of F x grad(testfn). For a radial bump whose support ball lies
    in the region, or whose half ball lies on a flat face the support is
    centred on (`support_fit`), the Lebesgue part and F x grad(testfn) go by
    `_radial_pairing` on the support's cached unit rule, and the sheet and
    line parts, when there are any, by `integrate_measure` over the
    `support_rule` region, which only clips and contains. A test function
    with no radial profile, or whose support leaves the region, integrates
    `value` and `gradient` at every node of the region's own rule.
    """
    radial = testfn.radial
    kind, normal = (None, None) if radial is None else support_fit(
        region, radial.center, radial.radius)
    testvec = _scalar_as_vec(testfn.value)
    if kind is None:
        def fxg(x):
            return _cross_rows(fld.eval(x), testfn.gradient(x))

        return integrate_measure(mu, testvec, region) - integrate(region, fxg)
    lebesgue, volume = _radial_pairing(mu.lebesgue_density, fld, radial, normal)
    if mu.sheet_parts or mu.line_parts:
        support = support_rule(region, (radial.center, radial.radius),
                               (radial.kink * radial.radius,))
        lebesgue = lebesgue + integrate_measure(replace(mu, lebesgue_density=None), testvec,
                                                support)
    return lebesgue - volume


def _radial_pairing(density, fld: VectorField, radial: RadialProfile, normal):
    """The integrals of phi * density (a zero vector for None) and of F x
    grad(phi) over the support ball of the radial bump phi, or with a face's
    inner `normal` over its half ball on that side.

    The rule is `unit_support`'s for the profile's kink, scaled about the
    bump's centre: the node c + R r_k d_j has the weight R^3 w_kj, so phi
    takes one value per radius, profile(r_k), and grad(phi) there is
    profile'(r_k) / R d_j. F x grad(phi) summed over the nodes is then the
    sum over directions of (sum over radii of w slope F) x d_j. The nodes are
    formed by columns on blocks of whole shells under `BLOCK_POINTS`, where F
    and the density are evaluated and summed, so no array of every node is
    built; non-finite values raise, as `integrate` does.
    """
    r, weights, dirs = unit_support(radial.kink, normal is not None)
    if normal is not None:
        dirs = dirs @ np.stack(frame_from_normal(normal))
    m, rad = len(dirs), radial.radius
    radii = rad * r
    # R^3 w phi and R^3 w profile' / R, with the profiles at the unit radii
    phi, slope = rad ** 3 * radial.profile(r), rad ** 2 * radial.profile_prime(r)
    lebesgue, along = np.zeros(3), np.zeros((m, 3))
    step = max(1, BLOCK_POINTS // m)
    for k in range(0, len(r), step):
        w = weights[k:k + step]
        x = np.empty((len(w), m, 3))
        for c in range(3):  # c + R r_k d_j, written by columns
            np.multiply(radii[k:k + step, None], dirs[:, c], out=x[..., c])
            x[..., c] += radial.center[c]
        x = x.reshape(-1, 3)
        # F and the density are summed as they are evaluated, so only the
        # block's nodes outlive a statement
        along += np.einsum("kj,kjc->jc", w * slope[k:k + step, None],
                           _finite(fld.eval(x)).reshape(len(w), m, 3))
        if density is not None:
            lebesgue += np.tensordot((w * phi[k:k + step, None]).ravel(),
                                     _finite(np.atleast_2d(density(x))), axes=(0, 0))
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
