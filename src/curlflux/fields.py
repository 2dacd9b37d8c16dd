"""Vector fields with measure-valued curl: the closed-form catalog, piecewise
glued fields, curl-measure decomposition, and measure integration.

Catalog entries carry their exact curl decomposition (Lebesgue density, sheet
parts on flat patches, line parts on straight segments), except the annuli,
whose entry has `curl=None`. The trace of a field on any surface is F x nu,
with nu read from its patch (`surface_trace`); an entry's z-plane trace is
that rule at nu = e3. Singular sets are declared, never detected.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .geometry import (
    Curve,
    SolidRegion,
    SurfacePatch,
    _by_columns,
    _columns,
    _cross_rows,
    _norm,
    _rows,
    _unit,
    integrate,
)
from .quadrature import QuadratureRule, gauss_legendre_split

Array = np.ndarray


class FieldError(ValueError):
    pass


# ---------------------------------------------------------------------------
# singular sets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SingularSet:
    """Declared singular locus for quadrature exclusion: the origin or the
    z axis."""

    kind: str  # "point" | "line"

    def distance(self, x: Array) -> Array:
        x = np.atleast_2d(x)
        if self.kind == "point":
            return _norm(x)
        if self.kind == "line":
            return _norm(x[:, :2])
        raise FieldError(f"unknown singular set kind {self.kind!r}")


# ---------------------------------------------------------------------------
# vector fields and curl measures
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VectorField:
    eval: Callable[[Array], Array]  # (n,3) -> (n,3)
    analytic_curl: Optional[Callable[[Array], Array]] = None
    singular_set: Optional[SingularSet] = None


@dataclass(frozen=True)
class LinePart:
    """Vector line measure on a straight segment: density * H^1 restricted to it."""

    point: Array
    direction: Array  # unit
    lo: float
    hi: float
    density: Callable[[Array], Array]  # points on the line -> (n,3)

    def positions(self, s: Array) -> Array:
        s = np.ravel(s)
        return _by_columns(lambda p, d: p + s * d, self.point, self.direction)

    def segment(self, rule: QuadratureRule) -> Curve:
        """The segment as a node set at the parameters of `rule`; the
        direction is unit, so the rule's weights are arclength weights."""
        return Curve(self.positions(rule.nodes), rule.weights)


@dataclass(frozen=True)
class SheetPart:
    """Vector surface measure: density * H^2 restricted to a patch."""

    patch: SurfacePatch
    density: Callable[[Array], Array]


@dataclass(frozen=True)
class CurlMeasure:
    """Decomposition of a curl measure into Lebesgue, sheet, and line parts."""

    lebesgue_density: Optional[Callable[[Array], Array]] = None
    sheet_parts: tuple[SheetPart, ...] = ()
    line_parts: tuple[LinePart, ...] = ()


ZERO_MEASURE = CurlMeasure()


def integrate_measure(mu: CurlMeasure, testvec, region: SolidRegion) -> Array:
    """Pairing of a curl measure against a vector test function over a region.

    Each part is integrated over its own node set: the Lebesgue part over the
    region's, a sheet part over its patch with the region's indicator as a
    0/1 factor of the integrand, and a line part over its segment clipped
    exactly to the region. The segment's rule is a composite 8-point rule on
    24 panels, so kinks of piecewise-polynomial test profiles cost only
    O(panel_width^3) instead of polluting a single global rule.
    """
    def paired(density):
        return lambda x: np.atleast_2d(density(x)) * np.atleast_2d(testvec(x))

    out = np.zeros(3)
    if mu.lebesgue_density is not None:
        out = out + integrate(region, paired(mu.lebesgue_density))
    for sp in mu.sheet_parts:
        f = paired(sp.density)
        out = out + integrate(sp.patch, lambda x: _by_columns(
            np.multiply, f(x), region.contains(x)[:, None].astype(float)))
    for lp in mu.line_parts:
        lo, hi = region.clip(lp.point, lp.direction, lp.lo, lp.hi)
        if hi <= lo:
            continue
        edges = np.linspace(lo, hi, 25)
        out = out + integrate(lp.segment(gauss_legendre_split(8, edges)), paired(lp.density))
    return out


def numeric_curl(fld: VectorField, x, h: float = 1e-3) -> Array:
    """Central-difference curl at a point; O(h^2) at smooth points."""
    x = np.asarray(x, dtype=float).reshape(3)
    if fld.singular_set is not None and fld.singular_set.distance(x[None, :])[0] <= 2.0 * h:
        raise FieldError("difference stencil touches the declared singular set")
    eye = np.eye(3)
    J = np.zeros((3, 3))  # J[i, j] = d F_i / d x_j
    for j in range(3):
        fp = fld.eval((x + h * eye[j])[None, :])[0]
        fm = fld.eval((x - h * eye[j])[None, :])[0]
        J[:, j] = (fp - fm) / (2.0 * h)
    return np.array([J[2, 1] - J[1, 2], J[0, 2] - J[2, 0], J[1, 0] - J[0, 1]])


# ---------------------------------------------------------------------------
# face traces
# ---------------------------------------------------------------------------


def _face_trace(fld: VectorField, nu: Array) -> Callable[[Array], Array]:
    """x -> F(x) x nu for a constant normal: F times the matrix of v -> v x nu,
    exact when nu is an axis (each product is by 0 or +-1)."""
    n0, n1, n2 = nu
    cross_nu = np.array([[0.0, -n2, n1], [n2, 0.0, -n0], [-n1, n0, 0.0]])
    return lambda x: fld.eval(x) @ cross_nu


def surface_trace(fld: VectorField, patch: SurfacePatch) -> Callable[[Array], Array]:
    """The tangential trace x -> F(x) x nu(x) of a field on a patch, with nu
    the patch's normal: its frame normal if flat, and on a sphere the inner
    normal -(x - origin) / |x - origin|, the floats of `patch.normals`."""
    if patch.coordinates == "spherical":
        return lambda x: _cross_rows(fld.eval(x), -_unit(
            _by_columns(np.subtract, np.atleast_2d(x), patch.origin)))
    if patch.frame is None:
        raise FieldError(f"no face trace on a {patch.name!r} patch")
    return _face_trace(fld, patch.frame[2])


def line_crossings(mu: CurlMeasure, disk: SurfacePatch) -> list[Array]:
    """The points where the line parts of `mu` cross a flat disk strictly
    inside its radius: the atoms of the surface divergence of a trace on it.
    A segment parallel to the disk, or ending before its plane, has none,
    and a measure with no line parts has none on any patch."""
    if not mu.line_parts:
        return []
    if disk.name != "disk":
        raise FieldError(f"line crossings are found on flat disks, not a {disk.name!r} patch")
    nu, points = disk.frame[2], []
    for lp in mu.line_parts:
        along = lp.direction @ nu  # 0 for a segment parallel to the disk, which never crosses
        s = (disk.origin - lp.point) @ nu / along if along else np.nan
        x = lp.point + s * lp.direction
        if lp.lo <= s <= lp.hi and np.linalg.norm(x - disk.origin) < disk.scale:
            points.append(x)
    return points


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CatalogEntry:
    vector_field: VectorField
    curl: Optional[CurlMeasure]
    trace_z_plane: Callable[[Array], Array]  # F x e3: the trace on z-plane faces, nu = +e3
    trace_breaks_radii: tuple[float, ...] = ()


CATALOG_NAMES = ("newtonian", "line_vortex", "annuli", "rigid_rotation", "plane_wave_em")

LINE_EXTENT = 8.0  # declared extent of the axis filament carrying the line measure


def alternation_profile(rho: Array) -> Array:
    """+1/-1 on the dyadic annuli (1-2^-k, 1-2^-(k+1)), k >= 1; zero elsewhere."""
    rho = np.asarray(rho, dtype=float)
    out = np.zeros_like(rho)
    inside = (rho > 0.5) & (rho < 1.0)
    k = np.floor(-np.log2(np.maximum(1.0 - rho[inside], 1e-300))).astype(int)
    out[inside] = np.where(k % 2 == 1, 1.0, -1.0)
    return out


def alternation_radii() -> tuple[float, ...]:
    """The interface radii 1 - 2^-k of `alternation_profile`, k = 1 ... 53:
    1 - 2^-53 is the largest double below 1, so no later interface is a
    double below 1 and a rule split at these radii resolves every one."""
    return tuple(1.0 - 2.0 ** (-k) for k in range(1, 54))


def catalog(name: str) -> CatalogEntry:
    """Closed-form fields with exact curl measures; an entry's z-plane trace
    is the face trace F x e3 of its field."""
    e3 = np.array([0.0, 0.0, 1.0])
    breaks = ()
    if name == "newtonian":
        def ev(x):
            x = np.atleast_2d(x)
            r3 = _norm(x) ** 3
            return _by_columns(np.divide, -x, 4.0 * np.pi * r3[:, None])

        vf = VectorField(ev, lambda x: np.zeros_like(np.atleast_2d(x)), SingularSet("point"))
        mu = ZERO_MEASURE
    elif name == "line_vortex":
        def ev(x):
            x = np.atleast_2d(x)
            rho2 = x[:, 0] ** 2 + x[:, 1] ** 2
            return _columns(-x[:, 1] / rho2, x[:, 0] / rho2, x[:, 2]) / (2.0 * np.pi)

        line = LinePart(np.zeros(3), e3, -LINE_EXTENT, LINE_EXTENT,
                        lambda pts: _rows(e3, len(np.atleast_2d(pts))))
        vf = VectorField(ev, lambda x: np.zeros_like(np.atleast_2d(x)), SingularSet("line"))
        mu = CurlMeasure(line_parts=(line,))
    elif name == "annuli":
        def surface_data(x):
            x = np.atleast_2d(x)
            rho = np.hypot(x[:, 0], x[:, 1])
            eta = alternation_profile(rho)
            f = eta / np.where(rho == 0.0, 1.0, rho)
            return _columns(f * x[:, 1], f * -x[:, 0], f * 0.0)

        # a bounded extension of the boundary data, constant across the face plane;
        # its one-sided limits on z = 0 reproduce the declared data
        vf, mu, breaks = VectorField(surface_data), None, alternation_radii()
    elif name == "rigid_rotation":
        def ev(x):
            x = np.atleast_2d(x)
            return _columns(-x[:, 1], x[:, 0], 0.0)

        def const(x):
            return _rows((0.0, 0.0, 2.0), len(np.atleast_2d(x)))

        vf = VectorField(ev, analytic_curl=const)
        mu = CurlMeasure(lebesgue_density=const)
    elif name == "plane_wave_em":
        def ev(x):
            x = np.atleast_2d(x)
            return _columns(0.0, np.sin(x[:, 0]), 0.0)

        def crl(x):
            x = np.atleast_2d(x)
            return _columns(0.0, 0.0, np.cos(x[:, 0]))

        vf, mu = VectorField(ev, analytic_curl=crl), CurlMeasure(lebesgue_density=crl)
    else:
        names = ", ".join(CATALOG_NAMES)
        raise FieldError(f"unknown catalog field {name!r}; choose one of {names}")
    return CatalogEntry(vf, mu, _face_trace(vf, e3), breaks)


# ---------------------------------------------------------------------------
# piecewise fields across a flat interface (vortex sheets)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PiecewiseField:
    """Two one-sided fields glued across a flat interface patch."""

    interface: SurfacePatch
    plane_point: Array
    plane_normal: Array  # unit, pointing to the plus side
    plus_field: VectorField
    minus_field: VectorField

    def side(self, x: Array) -> Array:
        return _by_columns(np.subtract, np.atleast_2d(x), self.plane_point) @ self.plane_normal

    def one_sided_traces(self, pts: Array) -> tuple[Array, Array]:
        """(plus, minus) limits at interface points, via normal offsets of 1e-6."""
        pts = np.atleast_2d(pts)
        h = 1e-6 * self.plane_normal
        return (self.plus_field.eval(_by_columns(np.add, pts, h)),
                self.minus_field.eval(_by_columns(np.subtract, pts, h)))

    def jump_density(self, pts: Array) -> Array:
        """Sheet density of the distributional curl: (tr_minus - tr_plus) x nu."""
        tp, tm = self.one_sided_traces(pts)
        return _cross_rows(tm - tp, self.plane_normal)


def make_vortex_sheet(u_plus: VectorField, u_minus: VectorField,
                      interface: SurfacePatch) -> tuple[PiecewiseField, CurlMeasure]:
    """Glue two one-sided fields; the curl gains a sheet part carrying the
    tangential jump of the traces."""
    n = interface.normals[0]
    if np.max(_norm(interface.normals - n)) > 1e-12:
        raise FieldError("vortex sheet interface must be a flat patch")
    pw = PiecewiseField(interface, interface.nodes[0], n, u_plus, u_minus)

    sheet = SheetPart(interface, pw.jump_density)
    parts_lebesgue = None
    if u_plus.analytic_curl is not None or u_minus.analytic_curl is not None:
        def interior_curl(x):
            x = np.atleast_2d(x)
            s = pw.side(x)
            out = np.zeros_like(x)
            plus = s > 0
            if u_plus.analytic_curl is not None and np.any(plus):
                out[plus] = u_plus.analytic_curl(x[plus])
            if u_minus.analytic_curl is not None and np.any(~plus):
                out[~plus] = u_minus.analytic_curl(x[~plus])
            return out
        parts_lebesgue = interior_curl
    mu = CurlMeasure(lebesgue_density=parts_lebesgue, sheet_parts=(sheet,))
    return pw, mu


def gluing_total_variation(pw: PiecewiseField, region: SolidRegion) -> float:
    """|curl| of the glued field over a region: interior parts plus the
    integrated magnitude of the tangential trace jump across the interface."""
    total = 0.0
    for fld, sign in ((pw.plus_field, 1.0), (pw.minus_field, -1.0)):
        if fld.analytic_curl is None:
            continue
        def dens(x, fld=fld, sign=sign):
            mags = _norm(np.atleast_2d(fld.analytic_curl(x)))
            side = pw.side(x)
            mask = side > 0 if sign > 0 else side < 0
            return mags * mask.astype(float)
        total += integrate(region, dens)
    total += integrate(pw.interface, lambda pts: _norm(pw.jump_density(pts)))
    return float(total)


def constant_field(vec) -> VectorField:
    vec = np.asarray(vec, dtype=float)
    return VectorField(lambda x: _rows(vec, len(np.atleast_2d(x))),
                       analytic_curl=lambda x: np.zeros_like(np.atleast_2d(x)))
