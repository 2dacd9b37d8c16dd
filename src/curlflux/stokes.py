"""Stokes functionals and their limits.

The tangential route integrates a boundary trace against the gradient of the
ramp localizer and sends the ramp width to zero; the reported flux functional
is minus that limit, which matches the classical identity
flux(curl F . nu) = -circulation for smooth fields under the inward-normal
orientation used throughout. The transversal route reduces the same flux to a
Gauss-Green functional of the trace on a shifted manifold: the trace's
surface divergence, a pointwise part plus atoms at declared singular points,
paired with 1. The mass route replaces the circulation by the boundary
pairing of an integrable divergence representative against 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace
from typing import Optional, Sequence

import numpy as np

from .fields import PiecewiseField, VectorField
from .geometry import (
    GeometryError,
    SolidRegion,
    SurfacePatch,
    TangentialCollar,
    TransversalCollar,
    _by_columns,
    _cross_rows,
    _node_values,
    _norm,
    circle_curve,
    integrate,
    ramp_bands,
    ramp_integral,
    shift_transversal,
)
from .quadrature import gauss_legendre
from .sequences import judge_sequence, richardson_limit
from .testfns import ScalarTestFunction, VectorTestField, radial_bump

DELTA_J_RANGE = range(2, 13)  # default ramp widths 2^-j


class StokesRefusal(RuntimeError):
    """Raised when a route's admissibility precondition fails."""


# ---------------------------------------------------------------------------
# results
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StokesResult:
    deltas: tuple[float, ...]
    delta_values: tuple[float, ...]  # ramp-localizer integrals per delta
    t_osc: float
    converged: bool
    extrapolated: Optional[float]  # flux functional = -(limit of delta_values)
    gap: float  # the verdict's Richardson gap
    scale: float  # the magnitude integral the gap is judged against

    @property
    def verdict(self) -> str:
        return "CONVERGED" if self.converged else "NON-CONVERGENT"


# ---------------------------------------------------------------------------
# tangential localizer route
# ---------------------------------------------------------------------------


def _breaks_in_s(collar: TangentialCollar, radii: Sequence[float]) -> tuple[float, ...]:
    if not radii:
        return ()
    if collar.param_of_radius is None:
        # a cap's or a closed sphere's collar cannot place them; the bands would not split
        raise GeometryError("break radii need a disk's collar, which places them in s")
    return tuple(collar.param_of_radius(r) for r in radii)


def stokes_tangential(trace, patch: SurfacePatch, collar: TangentialCollar,
                      t: float, j_range: Sequence[int] = DELTA_J_RANGE,
                      breaks_radii: Sequence[float] = ()) -> StokesResult:
    """Ramp-localizer integrals at widths 2^-j with convergence verdict.

    `trace` maps boundary points to the interior tangential trace vectors.
    The stored delta values are the raw ramp integrals; the flux functional
    is minus their Richardson limit. It is only reported when
    `judge_sequence` finds the sequence converged against the largest, over
    the widths, band integral of |trace| |grad ramp|; the result holds that
    `scale` and the Richardson `gap`.

    The widths read one band table (`ramp_bands`) on the collar's layers
    ringed on the patch's angular rule `v`, with grad s in closed form on the
    same rule. It is built before any width is read, so each band segment
    (split at the trace's break radii) is evaluated once per call: a default
    solve without breaks evaluates its 11 segments in 3 layer calls, and on
    the dyadic annuli at t = 0 the 11 widths evaluate the 39 segments of the
    widest band instead of 374. The widths are powers of two, so the values
    equal those of separately evaluated bands (see `ramp_integral`). A band
    outside the collar range raises `GeometryError`, on a closed sphere's
    collar too.
    """
    deltas = tuple(2.0 ** (-j) for j in j_range)
    bands = ramp_bands(collar, trace, None, patch.v, 10,
                       _breaks_in_s(collar, breaks_radii), t, deltas)
    vals, mags = zip(*(ramp_integral(bands, d) for d in deltas))
    verdict = judge_sequence(vals, max(mags))
    # + 0.0 makes the flux of a zero limit 0, not -0, and keeps every other value's bits
    flux = -verdict.limit + 0.0 if verdict.converged else None
    return StokesResult(deltas, vals, verdict.tail_oscillation, verdict.converged, flux,
                        verdict.gap, verdict.scale)


def stokes_density(trace, patch: SurfacePatch, collar: TangentialCollar,
                   t: float, x0, r_grid: Sequence[float]) -> Optional[float]:
    """Boundary-measure density at a point of the shrunk disk's rim, or None
    when no radius gives an estimate.

    Each radius pairs the localizer limit over ramp widths 2^-5 ... 2^-13
    against a bump and normalizes by the curve mass of the same bump; a
    radius whose ramp sequence fails `judge_sequence` gives no estimate.
    `r_grid` lists the radii finest last; they are tried finest first, and
    the first estimate is reported: as r -> 0 it reproduces -(trace .
    tangent) at continuity points. Quadrature is windowed to the bump's
    angular support: the collar's own layers and gradient are ringed on a
    48-node Gauss-Legendre rule there, so radii far below the global angular
    resolution remain well resolved.
    """
    if patch.name != "disk":
        raise GeometryError("density estimation implemented for disks")
    x0 = np.asarray(x0, dtype=float)
    center, radius = patch.origin, patch.scale
    e1, e2, _ = patch.frame
    rel = x0 - center
    a0 = float(np.arctan2(rel @ e2, rel @ e1))
    deltas = [2.0 ** (-j) for j in range(5, 14)]
    for r in reversed(r_grid):
        bump = radial_bump(x0, r, plateau=0.6)
        half_width = 1.5 * r / (radius * (1.0 - t))
        window = gauss_legendre(48, a0 - half_width, a0 + half_width)
        bands = ramp_bands(collar, trace, bump.value, window, 8, (), t, deltas)
        vals, mags = zip(*(ramp_integral(bands, d) for d in deltas))
        verdict = judge_sequence(vals, max(mags))
        curve_mass = integrate(collar.layer(t, window), bump.value)
        if verdict.converged and curve_mass > 0:
            # estimates converge slowly in the window radius; keep the finest
            return -verdict.limit / curve_mass
    return None


# ---------------------------------------------------------------------------
# the Gauss-Green route on a flat manifold
# ---------------------------------------------------------------------------


def manifold_div_flux(values, patch: SurfacePatch,
                      singular_points: Sequence = ()) -> tuple[float, float]:
    """(flux, div_mass) of a tangential field on a flat disk: its surface
    divergence paired with 1, and the total mass of that divergence.

    Rejects data whose normal component exceeds 1e-8. The divergence splits
    into a pointwise part, a central difference at step 1e-5 evaluated at
    the patch nodes in the blocks `integrate` takes and zero on disks of
    radius 2e-3 around the declared singular points, and point atoms there,
    whose strengths come from outward circulation flux through circles of
    radii 0.05, 0.025 and 0.0125, Richardson-extrapolated.
    """
    if patch.name != "disk":
        raise GeometryError("pointwise surface divergence implemented for flat disks only")
    e1, e2, n = patch.frame
    vals = np.atleast_2d(values(patch.nodes))
    resid = float(np.max(np.abs(vals @ n)))
    if resid > 1e-8:
        raise StokesRefusal(f"surface field is not tangential (residual {resid:.2e})")
    fd_step = 1e-5
    h1, h2 = fd_step * e1, fd_step * e2
    singular_points = [np.asarray(sp, dtype=float) for sp in singular_points]

    def excluded_div(p):
        vp1 = np.atleast_2d(values(_by_columns(np.add, p, h1)))
        vm1 = np.atleast_2d(values(_by_columns(np.subtract, p, h1)))
        vp2 = np.atleast_2d(values(_by_columns(np.add, p, h2)))
        vm2 = np.atleast_2d(values(_by_columns(np.subtract, p, h2)))
        out = ((vp1 - vm1) @ e1 + (vp2 - vm2) @ e2) / (2.0 * fd_step)
        for sp in singular_points:
            out = out * (_norm(_by_columns(np.subtract, p, sp)) > 2e-3).astype(float)
        return out

    atoms = []
    for sp in singular_points:
        fluxes = []
        for r in (0.05, 0.025, 0.0125):
            circ = circle_curve(sp, r, e1, e2, n_nodes=128)
            outward = lambda q: _by_columns(np.subtract, np.atleast_2d(q), sp) / r
            fluxes.append(integrate(circ, lambda q: np.einsum(
                "ij,ij->i", np.atleast_2d(values(q)), outward(q))))
        atoms.append(float(richardson_limit(fluxes)))
    div = _node_values(patch.nodes, excluded_div)
    flux = float(np.sum(patch.weights * div))
    for strength in atoms:  # one at a time, in order: float addition does not associate
        flux += strength
    mass = float(np.sum(patch.weights * np.abs(div)))
    return flux, float(mass + sum(abs(s) for s in atoms))


def stokes_transversal(trace_on_shifted, patch: SurfacePatch,
                       collar: TransversalCollar, t: float,
                       maximal_value: Optional[float] = None,
                       singular_points: Sequence = ()) -> dict:
    """Flux through the transversally shifted disk via the Gauss-Green
    functional of its trace (`manifold_div_flux`), with the mass of the
    trace's surface divergence.

    Refuses when the supplied transversal maximal value at t is infinite
    (concentration on the shifted layer).
    """
    if maximal_value is not None and not np.isfinite(maximal_value):
        raise StokesRefusal(f"transversal maximal function infinite at t={t}")
    shifted = shift_transversal(patch, collar, t)
    flux, div_mass = manifold_div_flux(trace_on_shifted, shifted, singular_points)
    return {"flux": flux, "div_mass": div_mass}


# ---------------------------------------------------------------------------
# boundary pairing and masses (integrable-representative route)
# ---------------------------------------------------------------------------


def boundary_pairing_mass(G, patch: SurfacePatch, collar: TangentialCollar,
                          t: float, breaks_radii: Sequence[float] = ()
                          ) -> tuple[float, float, StokesResult]:
    """Boundary pairing <<G . nu, 1>> by ramp limits, and the induced mass.

    Returns (pairing, mass, diagnostics); mass = -<<G . nu, 1>>. Refuses
    when the ramp sequence does not converge.
    """
    res = stokes_tangential(G, patch, collar, t, breaks_radii=breaks_radii)
    if not res.converged:
        raise StokesRefusal("boundary pairing did not converge at this parameter")
    # extrapolated values are already -(limit); + 0.0 as in stokes_tangential
    return -float(res.extrapolated) + 0.0, float(res.extrapolated), res


def _normal_integral(patch, integrand) -> float | np.ndarray:
    """Integral of integrand(points, normals) over a patch, by node indices."""
    indices = SimpleNamespace(nodes=np.arange(len(patch.weights)), weights=patch.weights)
    return integrate(indices, lambda i: integrand(patch.nodes[i], patch.normals[i]))


# ---------------------------------------------------------------------------
# smooth validators and jump conditions
# ---------------------------------------------------------------------------


def smooth_validators(fld: VectorField, region: SolidRegion,
                      phi: ScalarTestFunction, other: VectorTestField) -> dict:
    """Residuals of the three Gauss-Green-type identities on a region with
    inner normals; both sides by quadrature."""
    if fld.analytic_curl is None:
        raise StokesRefusal("smooth validators need the analytic curl")

    def bd(values):
        # values(points, inner normals) over every boundary patch
        return sum(_normal_integral(patch, values) for patch in region.boundary)

    vol_curl = integrate(region, fld.analytic_curl)
    d1 = np.linalg.norm(vol_curl - bd(lambda p, nu: _cross_rows(fld.eval(p), nu)))

    def scaled(x, v):
        return _by_columns(np.multiply, phi.value(x)[:, None], v)

    lhs2 = integrate(region, lambda x: scaled(x, fld.analytic_curl(x))
                     - _cross_rows(fld.eval(x), phi.gradient(x)))
    rhs2 = bd(lambda p, nu: scaled(p, _cross_rows(fld.eval(p), nu)))
    d2 = np.linalg.norm(lhs2 - rhs2)

    lhs3 = bd(lambda p, nu: np.einsum(
        "ij,ij->i", _cross_rows(fld.eval(p), other.value(p)), nu))
    rhs3 = integrate(region, lambda x: np.einsum("ij,ij->i", fld.eval(x), other.curl(x))) \
        - integrate(region, lambda x: np.einsum("ij,ij->i", fld.analytic_curl(x),
                                                other.value(x)))
    d3 = abs(lhs3 - rhs3)
    return {"D1": float(d1), "D2": float(d2), "D3": float(d3)}


def rankine_hugoniot_check(pw: PiecewiseField, sheet_density=None) -> tuple[float, float]:
    """(max normal-jump, max tangential-jump mismatch against the sheet density).

    The tangential jump is measured as (u+ - u-) x nu with nu pointing away
    from the plus side, matching the sheet part of the distributional curl.
    """
    pts = pw.interface.nodes
    tp, tm = pw.one_sided_traces(pts)
    res_n = float(np.max(np.abs((tp - tm) @ pw.plane_normal)))
    omega = (sheet_density or pw.jump_density)(pts)
    jump_tau = _cross_rows(tp - tm, -pw.plane_normal)
    res_t = float(np.max(_norm(jump_tau - omega)))
    return res_n, res_t
