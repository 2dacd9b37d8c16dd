"""Surface patches, boundary curves, collar maps, localizer ramps, and solid
regions with volume rules.

Every curve, surface patch and solid region is held as its quadrature node
set: the points (and normals) and weights of a closed-form parametrization
(no meshes). A curve evaluates them when it is built; a surface patch holds
the 1-D rules of its parameters and evaluates them on first read, as a solid
region does its volume rule. Curves, patches and regions all read `nodes`
(n, 3) and `weights` (n,): `integrate` is the one integral over any of them,
and `_band_lines` the one over a family of layers (collar bands, slide slabs,
shells and a maximal scan's depth profile). A route's collar bands, one per
ramp width, are one table that `ramp_bands` builds once and `ramp_integral`
reads. A solid region describes its shape once, as a round part cut by
flat faces; containment, clipping and fit tests read that. Collars and slides
(each patch along its own normal) of the canonical shapes are exact, which
keeps the localizer limits free of mesh noise.

A surface with boundary is its `SurfacePatch`: collars, shifts and routes
read the patch's origin, scale, frame and rules, and no rim curve is stored.
`disk_manifold` and `closed_sphere_manifold` are other names of `disk_patch`
and `sphere_patch`, the ones the benchmark calls. Conventions fixed once and
used everywhere:

* regions carry the *inner* unit normal on their boundary, and sphere,
  cap and cylinder-side patches always carry it (toward the centre or axis);
* the conormal nu_gamma of a boundary curve points *into* the surface;
* the curve tangent is tau = nu_sigma x nu_gamma (right-hand rule); the
  tangential route's sign rests on it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from types import SimpleNamespace
from typing import Callable, Optional, Sequence

import numpy as np

from .quadrature import (
    QuadratureRule,
    gauss_legendre,
    gauss_legendre_segments,
    gauss_legendre_split,
    periodic_trapezoid,
)

POSITION_TOL = 1e-9  # "lies on patch" node tolerance, absolute

# points per evaluation block: a block's (n, 3) float64 array (120 KB) stays
# under glibc's 128 KiB mmap threshold, so it reuses heap memory instead of
# freshly mapped pages that fault on first touch
BLOCK_POINTS = 5000

DEFAULT_ORDER = 24
DEFAULT_ANGULAR = 96
BOX_ORDER = 16


# Column kernels: per-node vector arithmetic on (..., 3) arrays goes one
# column at a time. An (..., 3) array broadcast against a (3,) row or an
# (..., 1) column runs numpy's loop over the length-3 axis, about three times
# the cost of the same products and sums on the three columns, so every such
# row or column broadcast goes by columns, and an (..., 3) result is written
# column by column, never stacked, tiled or repeated. Each float is formed as
# numpy forms it on the rows. `@` and einsum add in another order, so their
# last bit may differ from a column sum; they stay as they are.


def _columns(c0, c1, c2) -> np.ndarray:
    """The (..., 3) array of three columns broadcast against each other (a
    float is a constant column)."""
    out = np.empty(np.broadcast(c0, c1, c2).shape + (3,))
    out[..., 0], out[..., 1], out[..., 2] = c0, c1, c2
    return out


def _by_columns(f, *arrays) -> np.ndarray:
    """f(*arrays) over the last axis, one column at a time: f of the k-th
    columns, k = 0, 1, 2, as the columns of one (..., 3) array. A (3,) row
    gives its k-th entry and an (..., 1) array its one column, as numpy
    broadcasts them, so each float is the one f forms on the rows. A ufunc
    writes each column straight into the result."""
    columns = list(zip(*((a[..., 0], a[..., 1], a[..., 2]) if a.shape[-1] == 3
                         else (a[..., 0],) * 3 for a in arrays)))
    if not isinstance(f, np.ufunc):
        return _columns(*(f(*c) for c in columns))
    out = np.empty(np.broadcast(*columns[0]).shape + (3,))
    for k, c in enumerate(columns):
        f(*c, out=out[..., k])
    return out


def _rows(row, n: int) -> np.ndarray:
    """(n, 3): the 3-vector `row` in every row, written by columns."""
    out = np.empty((n, 3))
    out[:, 0], out[:, 1], out[:, 2] = row
    return out


def _norm(v: np.ndarray) -> np.ndarray:
    """|v| over the last axis: its squares added first to last, the sum
    np.linalg.norm(v, axis=-1) forms, so the same floats."""
    sq = v[..., 0] * v[..., 0]
    for k in range(1, v.shape[-1]):
        sq += v[..., k] * v[..., k]
    return np.sqrt(sq, out=sq)


def _unit(v: np.ndarray) -> np.ndarray:
    """v over |v| along the last axis; zero rows stay zero."""
    n = _norm(v)
    return _by_columns(np.divide, v, np.where(n == 0.0, 1.0, n)[..., None])


def _cross(a, b) -> np.ndarray:
    """a x b of two 3-vectors: the products and differences np.cross forms,
    so the same floats, without its per-call cost on single vectors."""
    a0, a1, a2 = a
    b0, b1, b2 = b
    return np.array([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0])


def _cross_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a x b over the last axis of (..., 3) arrays, broadcast against each
    other (one may be a single 3-vector): `_cross` by columns."""
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    out = np.empty(np.broadcast_shapes(a.shape, b.shape))
    np.subtract(a1 * b2, a2 * b1, out=out[..., 0])
    np.subtract(a2 * b0, a0 * b2, out=out[..., 1])
    np.subtract(a0 * b1, a1 * b0, out=out[..., 2])
    return out


def frame_from_normal(normal) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Right-handed orthonormal frame (e1, e2, n) with n the given direction."""
    n = np.asarray(normal, dtype=float)
    n = n / np.linalg.norm(n)
    a = (0.0, 0.0, 1.0) if abs(n[2]) < 0.9 else (1.0, 0.0, 0.0)
    e1 = _cross(a, n)
    e1 /= np.linalg.norm(e1)
    e2 = _cross(n, e1)
    return e1, e2, n


class GeometryError(ValueError):
    pass


# ---------------------------------------------------------------------------
# curves
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Curve:
    """Curve (closed or an arc) as its node set, or a family of
    k curves on one shared parameter rule.

    `nodes` holds the points, (m, 3) or (k, m, 3) for a family, and `weights`
    the arclength weights (rule weight times |gamma'|), (m,) or (k, m).
    Collar layers at an array of parameters are families; `integrate` takes
    one curve.
    """

    nodes: np.ndarray
    weights: np.ndarray


def _ring(e1, e2, rule: QuadratureRule) -> np.ndarray:
    """u = cos(theta) e1 + sin(theta) e2 at the angles of `rule`, (m, 3)."""
    cos, sin = np.cos(rule.nodes), np.sin(rule.nodes)
    return _by_columns(lambda a, b: cos * a + sin * b, np.asarray(e1, float), np.asarray(e2, float))


def _arc(center, radius, e1, e2, rule: QuadratureRule) -> Curve:
    """The circle about `center` in the plane (e1, e2) at the angles of
    `rule`, its nodes c + radius u; with a (k,) `radius` and a (3,) or (k, 3)
    `center`, k circles."""
    radius = np.asarray(radius, dtype=float)[..., None]
    pts = _by_columns(lambda c, u: c[..., None] + radius * u, np.asarray(center, dtype=float),
                      _ring(e1, e2, rule))
    return Curve(pts, rule.weights * radius)


def circle_curve(center, radius, e1, e2, n_nodes: int) -> Curve:
    """Circle (or family of circles, see `_arc`) with a trapezoid rule."""
    return _arc(center, radius, e1, e2, periodic_trapezoid(n_nodes))


def _node_sum(w: np.ndarray, vals: np.ndarray) -> float | np.ndarray:
    """sum_i w_i vals_i: a float for scalar values, an array for vector ones."""
    if vals.ndim == 1:
        return float(np.sum(w * vals))
    return np.tensordot(w, vals, axes=(0, 0))


def integrate(node_set, integrand) -> float | np.ndarray:
    """Integral of an integrand over a node set: a curve, a surface patch or a
    solid region, or anything else with `nodes` (n, 3) and `weights` (n,).
    Raises on non-finite integrand values.

    The integrand must be pointwise (its value at a node depends on that
    node alone): it is evaluated on slices of at most `BLOCK_POINTS` nodes,
    written into one values array that is summed once. Per-node data such as
    a patch's normals is read by integrating over the node indices.
    """
    return _node_sum(node_set.weights, _node_values(node_set.nodes, integrand))


def _node_values(nodes: np.ndarray, integrand) -> np.ndarray:
    """The integrand at every node, the values `integrate` sums: evaluated
    on slices of at most `BLOCK_POINTS` nodes; raises on non-finite values."""
    first = np.asarray(integrand(nodes[:BLOCK_POINTS]), dtype=float)
    vals = np.empty((len(nodes),) + first.shape[1:])
    vals[:BLOCK_POINTS] = first
    for k in range(BLOCK_POINTS, len(nodes), BLOCK_POINTS):
        vals[k:k + BLOCK_POINTS] = integrand(nodes[k:k + BLOCK_POINTS])
    return _finite(vals)


def _finite(vals) -> np.ndarray:
    """`vals` as a float array; raises on non-finite integrand values."""
    vals = np.asarray(vals, dtype=float)
    if not np.all(np.isfinite(vals)):
        raise GeometryError("non-finite integrand")
    return vals


# ---------------------------------------------------------------------------
# surface patches
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SurfacePatch:
    """Patch of a parametrized surface (u, v) -> R^3 and its node set: the
    one description of a surface, with or without boundary.

    The patch holds the parameters of its nodes with their plain rule
    weights, as the two rules `u` and `v` of a product rule, u slowest: the
    arrays of `u` are a column (n_u, 1), so the two broadcast to the node
    grid. `coordinates` names the map of (u, v) about `origin`:

    * "polar": (rho, phi) -> origin + rho (cos phi e1 + sin phi e2), with
      (e1, e2, n) the rows of `frame`, n the normal and `scale` the outer
      radius (the weights read the rho nodes, not `scale`);
    * "spherical": (cos colatitude, phi) on the sphere of radius `scale`;
    * "cylinder_side": (z, phi) on the cylinder of radius `scale` about the
      z axis through `origin`;
    * "rectangle": (u, v) -> origin + u e1 + v e2, with (e1, e2, n) the rows
      of `frame`, n the unit normal and `scale` = |e1 x e2|.

    A sphere, cap or cylinder side carries its inner normal, toward its
    centre or axis. `nodes` (points), `normals` (unit) and `weights` (rule
    weight times the area element |X_u x X_v|) are built from these on first
    read, into read-only arrays, so a surface integral is sum(weights * f(nodes)).
    """

    name: str
    coordinates: str
    u: QuadratureRule
    v: QuadratureRule
    origin: np.ndarray
    frame: Optional[np.ndarray]  # (3, 3): polar and rectangle
    scale: float

    @cached_property
    def nodes(self) -> np.ndarray:  # (n, 3)
        u, v = self.u.nodes, self.v.nodes
        x, y, z = self.origin
        if self.coordinates == "polar":
            cos, sin = np.cos(v), np.sin(v)
            pts = _by_columns(lambda o, a, b: o + u * (cos * a + sin * b),
                              self.origin, *self.frame[:2])
        elif self.coordinates == "spherical":
            st, r = np.sqrt(np.clip(1.0 - u * u, 0.0, None)), self.scale
            pts = _columns(x + r * (st * np.cos(v)), y + r * (st * np.sin(v)), z + r * u)
        elif self.coordinates == "cylinder_side":
            r = self.scale
            pts = _columns(x + r * np.cos(v), y + r * np.sin(v), z + u)
        else:
            pts = _by_columns(lambda o, a, b: o + u * a + v * b, self.origin, *self.frame[:2])
        return _read_only(pts.reshape(-1, 3))

    @cached_property
    def normals(self) -> np.ndarray:  # (n, 3), unit
        if self.coordinates == "spherical":
            return _read_only(-_unit(_by_columns(np.subtract, self.nodes, self.origin)))
        if self.coordinates == "cylinder_side":
            phi = self.v.nodes
            zero = np.zeros((self.u.nodes.size, phi.size))
            ring = _columns(-np.cos(phi), -np.sin(phi), -zero)
            return _read_only(ring.reshape(-1, 3))
        return _read_only(_rows(self.frame[2], np.broadcast(self.u.nodes, self.v.nodes).size))

    @cached_property
    def weights(self) -> np.ndarray:  # (n,)
        w = self.u.weights * self.v.weights
        if self.coordinates == "polar":
            w = w * self.u.nodes
        elif self.coordinates == "spherical":
            w = w * (self.scale * self.scale)
        else:
            w = w * self.scale
        return _read_only(w.ravel())


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _column(rule: QuadratureRule) -> QuadratureRule:
    """`rule` with its arrays as a column (n, 1): the slow axis of a product."""
    return QuadratureRule(rule.nodes[:, None], rule.weights[:, None])


def disk_patch(center, radius: float, normal=(0.0, 0.0, 1.0),
               order: int = DEFAULT_ORDER, n_angular: int = DEFAULT_ANGULAR,
               radial_breaks: Sequence[float] = (), inner_radius: float = 0.0) -> SurfacePatch:
    """Flat disk (or annulus) in the plane through `center` with given normal.

    Polar parameters (rho, phi); Gauss-Legendre radially (split at the given
    break radii) x trapezoid in angle.
    """
    if not radius > inner_radius:
        raise GeometryError(f"a disk needs a radius above {inner_radius:g}, not {radius:g}")
    bp = sorted({float(inner_radius), float(radius), *(float(b) for b in radial_breaks
                                                       if inner_radius < b < radius)})
    center = np.asarray(center, dtype=float)
    e1, e2, n = frame_from_normal(normal)
    return SurfacePatch("disk", "polar", _column(gauss_legendre_split(order, np.asarray(bp))),
                        periodic_trapezoid(n_angular), center, np.stack([e1, e2, n]),
                        float(radius))


def sphere_patch(center, radius: float, order: int = DEFAULT_ORDER,
                 n_angular: int = DEFAULT_ANGULAR, u_range=(-1.0, 1.0)) -> SurfacePatch:
    """Sphere (or cap-band) of the given radius; parameters (u, phi), u = cos(colatitude).

    The area element is R^2 du dphi exactly, so the product rule is exact for
    polynomial integrands. The normal points toward the center.
    """
    name = "sphere" if u_range == (-1.0, 1.0) else "spherical_cap"
    return SurfacePatch(name, "spherical", _column(gauss_legendre(order, *u_range)),
                        periodic_trapezoid(n_angular), np.asarray(center, dtype=float), None,
                        float(radius))


def spherical_cap_patch(center, radius: float, colatitude: float) -> SurfacePatch:
    """Cap around the +z pole, colatitude in (0, pi), on the default rules,
    with the inner normal."""
    return sphere_patch(center, radius, u_range=(float(np.cos(colatitude)), 1.0))


def cylinder_side_patch(center, radius: float, z0: float, z1: float,
                        order: int = DEFAULT_ORDER,
                        n_angular: int = DEFAULT_ANGULAR) -> SurfacePatch:
    return SurfacePatch("cylinder_side", "cylinder_side", _column(gauss_legendre(order, z0, z1)),
                        periodic_trapezoid(n_angular), np.asarray(center, dtype=float), None,
                        float(radius))


def rectangle_patch(corner, e1, e2, extent1: float, extent2: float, normal_sign: float = 1.0,
                    order: int = DEFAULT_ORDER) -> SurfacePatch:
    e1 = np.asarray(e1, dtype=float)
    e2 = np.asarray(e2, dtype=float)
    n = normal_sign * _cross(e1, e2)
    n /= np.linalg.norm(n)
    return SurfacePatch("rectangle", "rectangle", _column(gauss_legendre(order, 0.0, extent1)),
                        gauss_legendre(order, 0.0, extent2), np.asarray(corner, dtype=float),
                        np.stack([e1, e2, n]), np.linalg.norm(_cross(e1, e2)))


# the names perfbench/workloads.py builds its surfaces by; a surface is its patch
disk_manifold = disk_patch
closed_sphere_manifold = sphere_patch


# ---------------------------------------------------------------------------
# tangential collars
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TangentialCollar:
    """Bi-Lipschitz sliding of the boundary curve into the surface, a point
    of it (s, theta): layer s=0 is the boundary, and the layers, s in [0, 1],
    foliate a neighborhood inside the patch. `layer(s, rule)` is the ring at
    s on an angular rule (the patch's `v` or a window of it), for an array s
    the family, nodes (k, m, 3); `grad_s(s, rule)` is the surface gradient of
    s there in closed form, an array that broadcasts against those nodes (a
    disk's -u(theta)/R is (m, 3)). `layer_jacobian` converts ds x arclength
    to area, so |grad s| = 1/layer_jacobian, the localizer slope per unit
    delta. A closed surface's collar has no `layer` and no `grad_s` (None).
    """

    layer: Optional[Callable[[float | np.ndarray, QuadratureRule], Curve]]
    grad_s: Optional[Callable[[float | np.ndarray, QuadratureRule], np.ndarray]]
    layer_jacobian: float
    param_of_radius: Optional[Callable[[float], float]] = None  # shape-specific break mapping


def build_tangential_collar(patch: SurfacePatch) -> TangentialCollar:
    """Closed-form collar of a disk or a cap, read off its patch (a cap's
    colatitude th0 off its u rule, which spans (cos th0, 1)); its layers are
    circles ringed on a given angular rule, the patch's own `v` in a route.

    A closed sphere has no boundary, so its collar has no layers, and the
    localizer degenerates to the constant 1.
    """
    if patch.name == "sphere":
        return TangentialCollar(None, None, 0.0)

    if patch.name == "disk":
        center, radius = patch.origin, patch.scale
        e1, e2, _ = patch.frame
        return TangentialCollar(lambda s, rule: _arc(center, radius * (1.0 - s), e1, e2, rule),
                                lambda s, rule: _ring(e1, e2, rule) / -radius, radius,
                                param_of_radius=lambda r: 1.0 - r / radius)

    if patch.name == "spherical_cap":
        center, R = patch.origin, patch.scale
        height = float(np.sum(patch.u.weights))  # 1 - cos(th0)
        th0 = float(np.arctan2(np.sqrt(height * (2.0 - height)), 1.0 - height))
        e1 = np.array([1.0, 0.0, 0.0])
        e2 = np.array([0.0, 1.0, 0.0])
        e3 = np.array([0.0, 0.0, 1.0])

        def layer(s, rule):
            th = th0 * (1.0 - np.asarray(s))
            up = R * np.cos(th)
            c = _by_columns(lambda o, a: o + up * a, center, e3)
            return _arc(c, R * np.sin(th), e1, e2, rule)

        def grad_s(s, rule):
            # -(cos th u - sin th e3) / (R th0) at th = th0 (1 - s)
            th = th0 * (1.0 - np.asarray(s))[..., None]
            cos = np.cos(th)
            return _columns(cos * np.cos(rule.nodes), cos * np.sin(rule.nodes),
                            -np.sin(th)) / -(R * th0)

        return TangentialCollar(layer, grad_s, float(R * th0))

    raise GeometryError(f"no collar construction for a {patch.name!r} patch")


# ---------------------------------------------------------------------------
# localizer ramps (collar band integrals)
# ---------------------------------------------------------------------------


def _segments(lo: float, hi: float, breaks: Sequence[float]) -> list[tuple[float, float]]:
    """The pieces (lo, b1), (b1, b2), ..., (bk, hi) of the band (lo, hi) split
    at the breaks inside it, in s order."""
    bp = sorted({lo, hi, *(b for b in breaks if lo < b < hi)})
    return list(zip(bp[:-1], bp[1:]))


def _band_lines(layer, s_order: int, segments: Sequence[tuple[float, float]], integrand):
    """The one evaluation of a layered integral (collar bands, slide slabs,
    shells and depth profiles): per-layer sums of an integrand on
    Gauss-Legendre segments in s.

    Segment (lo, hi) carries `gauss_legendre(s_order, lo, hi)`, all of them
    formed in one `gauss_legendre_segments`. `layer` maps
    k of the s nodes to a node-set family, `nodes` (k, m, 3) and `weights`
    (k, m); `integrand(pts, s)` maps its points (k*m, 3) and the k layers' s
    to rows of values (rows, k*m) or one row (k*m,). Whole layers go in s
    order in blocks of at most `BLOCK_POINTS` points (a larger layer alone),
    m read off an empty family; a layer's sum is a row reduction, which the
    blocks leave unchanged. Returns the s nodes and weights, (n_s,), and the
    layer sums, (rows, n_s): callers apply their Jacobian and add in s order,
    or fit them.
    """
    rule = gauss_legendre_segments(s_order, segments)
    s = rule.nodes
    step = max(1, BLOCK_POINTS // layer(s[:0]).weights.shape[-1])
    lines = []
    for k in range(0, len(s), step):
        family = layer(s[k:k + step])
        w = family.weights
        vals = integrand(family.nodes.reshape(-1, 3), s[k:k + step])
        lines.append(np.sum(w * np.reshape(vals, (-1, *w.shape)), axis=-1))
    return s, rule.weights, np.concatenate(lines, axis=1)


def ramp_bands(collar: TangentialCollar, covector_field, scalar, rule: QuadratureRule,
               s_order: int, breaks: Sequence[float], t: float, deltas: Sequence[float]) -> dict:
    """The band table of one route call: per width delta, the band
    (t, t + delta) of scalar * (field . grad s) and of |scalar| |field|
    (`scalar` None for 1) on the collar's layers ringed on `rule`, grad s
    the collar's closed form broadcast against each block's (k, m, 3) field
    values. Every band is checked before anything is evaluated; each is
    split at the `breaks` inside it into `s_order`-node Gauss-Legendre
    segments, whose sorted union is evaluated in one `_band_lines` call.
    Maps delta to (layer weights in s order, line sums (2, n_s),
    `layer_jacobian`); a collar without layers (a closed sphere's) has no
    bands, so its table is empty.
    """
    if not all(0.0 < d and t >= 0.0 and t + d <= 1.0 for d in deltas):
        raise GeometryError("ramp band outside collar range")
    if collar.layer is None:
        return {}

    def integrand(pts, s):
        f = np.asarray(covector_field(pts), dtype=float)
        g, fk = collar.grad_s(s, rule), f.reshape(len(s), -1, 3)
        vals = (fk[..., 0] * g[..., 0] + fk[..., 1] * g[..., 1] + fk[..., 2] * g[..., 2]).ravel()
        mags = np.sqrt(np.einsum("ij,ij->i", f, f))
        if scalar is not None:
            phi = np.asarray(scalar(pts), dtype=float)
            vals, mags = vals * phi, mags * np.abs(phi)
        return np.stack([vals, mags])

    pieces = {d: _segments(t, t + d, breaks) for d in deltas}
    union = sorted({p for ps in pieces.values() for p in ps})
    _, w, lines = _band_lines(lambda s: collar.layer(s, rule), s_order, union, integrand)
    layer_w = w * collar.layer_jacobian
    nodes = {p: np.arange(i * s_order, (i + 1) * s_order) for i, p in enumerate(union)}
    bands = {}
    for d, ps in pieces.items():
        idx = np.concatenate([nodes[p] for p in ps])
        bands[d] = (layer_w[idx], lines[:, idx], collar.layer_jacobian)
    return bands


def _layer_sum(layer_w: np.ndarray, lines: np.ndarray) -> float:
    """The layers' line sums added one by one in s order (cumsum is sequential)."""
    return float(np.cumsum(layer_w * lines)[-1])


def ramp_integral(bands: dict, delta: float) -> tuple[float, float]:
    """Integral of scalar * (field . grad ramp) over the collar band (t, t+delta),
    and of |scalar| |field| |grad ramp|, the scale its limit is judged against,
    read off the table `ramp_bands` built; it evaluates nothing.

    The band is parametrized as (s, curve), with dH^2 = layer_jacobian ds dH^1,
    so |grad s| = 1 / layer_jacobian (coarea); grad ramp = grad s / delta.
    The read divides the band's line sums by delta and adds the layers one by
    one, so the result equals evaluating the band on its own whenever
    dividing by delta is exact, as it is for the routes' widths 2^-j. An
    empty table (a closed sphere's) reads 0 at every width.
    """
    if not bands:
        return 0.0, 0.0
    layer_w, (vals, mags), jacobian = bands[delta]
    return _layer_sum(layer_w, vals / delta), _layer_sum(layer_w, mags) / (jacobian * delta)


# ---------------------------------------------------------------------------
# solid regions and transversal collars
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PatchSlide:
    """Inward normal sliding of one boundary patch: Phi(t, x) = x - t h(x).
    `slab_coordinate` is the slide depth of arbitrary points. `shift_point`
    takes a float t or an array that broadcasts against a column of the
    points: (k, 1) slides (n, 3) points to k layers, (k, n, 3)."""

    patch: SurfacePatch
    shift_point: Callable[[np.ndarray, float], np.ndarray]
    shifted_normal: Callable[[np.ndarray, float], np.ndarray]
    outward_field: Callable[[np.ndarray], np.ndarray]  # h, unit
    area_scale: Callable[[float], float]  # H^2(Phi(t, patch)) / H^2(patch)
    depth_range: float
    slab_coordinate: Callable[[np.ndarray], np.ndarray]


def planar_slide(patch: SurfacePatch) -> PatchSlide:
    """A flat patch slid along its inner normal."""
    inward = patch.frame[2]

    def shift(pts, t):
        return _by_columns(np.add, np.atleast_2d(pts), np.asarray(t)[..., None] * inward)

    def outward(pts):
        return _rows(-inward, len(np.atleast_2d(pts)))

    def slab(pts):
        return _by_columns(np.subtract, np.atleast_2d(pts), patch.origin) @ inward

    return PatchSlide(patch, shift, lambda pts, t: -outward(pts), outward, lambda t: 1.0,
                      depth_range=np.inf, slab_coordinate=slab)


def spherical_slide(patch: SurfacePatch) -> PatchSlide:
    """A sphere patch slid toward its centre."""
    center, radius = patch.origin, patch.scale

    def rel(pts):
        return _by_columns(np.subtract, np.atleast_2d(pts), center)

    def shift(pts, t):
        f = 1.0 - t / radius
        return _by_columns(lambda p, c: c + f * (p - c), np.atleast_2d(pts), center)

    def outward(pts):
        return _unit(rel(pts))

    def slab(pts):
        return radius - _norm(rel(pts))

    return PatchSlide(patch, shift, lambda pts, t: -outward(pts), outward,
                      lambda t: (1.0 - t / radius) ** 2, depth_range=radius, slab_coordinate=slab)


def cylinder_slide(patch: SurfacePatch) -> PatchSlide:
    """A cylinder side slid toward its axis."""
    center, radius = patch.origin, patch.scale

    def radial(pts):
        pts = np.atleast_2d(pts)
        return _unit(_columns(pts[..., 0] - center[0], pts[..., 1] - center[1], 0.0))

    def shift(pts, t):
        pts = np.atleast_2d(pts)
        return _by_columns(lambda p, r: p - t * r, pts, radial(pts))

    def slab(pts):
        pts = np.atleast_2d(pts)
        return radius - np.hypot(pts[..., 0] - center[0], pts[..., 1] - center[1])

    return PatchSlide(patch, shift, lambda pts, t: -radial(pts), radial,
                      lambda t: (1.0 - t / radius), depth_range=radius, slab_coordinate=slab)


@dataclass(frozen=True)
class TransversalCollar:
    """Per-patch inward slides with a globally transversal outward field h:
    every slide moves its patch along the patch's own normal, so each has a
    depth coordinate and the margin min(-nu . h) is 1 up to rounding."""

    slides: tuple[PatchSlide, ...]

    def slide_for(self, patch: SurfacePatch) -> PatchSlide:
        """The slide of `patch` itself, else the first slide whose depth
        vanishes on every node of `patch`: a surface built on a region's
        face is a fresh patch, and faces share their names. A disk is
        matched on c, c +- r e1 and c +- r e2 without its nodes: three collinear
        points lie on no sphere, and on a cylinder only along its axis, which
        e1 and e2 cannot both follow."""
        for s in self.slides:
            if s.patch is patch:
                return s
        if patch.name == "disk":
            e1, e2, _ = patch.frame
            probes = patch.origin + patch.scale * np.array([np.zeros(3), e1, -e1, e2, -e2])
        else:
            probes = patch.nodes
        for s in self.slides:
            if np.all(np.abs(s.slab_coordinate(probes)) <= POSITION_TOL):
                return s
        raise GeometryError(f"no slide registered for patch {patch.name!r}")


@dataclass(frozen=True)
class SolidRegion:
    """Bounded region: one description of its shape, the patches of its
    boundary and a volume rule.

    The shape is a round part cut by flat faces. The round part is the ball
    of `radius` about `center`, or with an `axis` the infinite cylinder of
    that radius about the line through `center` along it; a radius of inf
    leaves it unbounded (a box). Each face is a (point, inner unit normal)
    pair whose open half-space the region lies in. `contains`, `clip` and
    `support_rule`'s fit test read this description only.

    The volume rule is the product of the three 1-D `volume_rules` (slowest
    first) mapped about `center` by `coordinates`: "spherical" (r, u = cos
    colatitude measured along the third row of `frame`, default e3, phi),
    "cylindrical" (rho, phi, z) or "cartesian" offsets. It is built on first
    read of `nodes` or `weights` by broadcasting the 1-D rules, into
    read-only arrays; collars and radial pairings never read it.
    """

    name: str
    boundary: tuple[SurfacePatch, ...]
    volume_rules: tuple[QuadratureRule, QuadratureRule, QuadratureRule]
    coordinates: str
    center: np.ndarray
    radius: float
    axis: Optional[np.ndarray]  # (3,) unit for a cylinder, None for a ball
    faces: tuple[tuple[np.ndarray, np.ndarray], ...]
    frame: Optional[np.ndarray] = None

    def _off_axis(self, v: np.ndarray) -> np.ndarray:
        """v less its component along the axis (v itself without one)."""
        if self.axis is None:
            return v
        return v - _by_columns(np.multiply, (v @ self.axis)[..., None], self.axis)

    def contains(self, x) -> np.ndarray:
        """Whether each point lies in the open region."""
        x = np.atleast_2d(x)
        inside = _norm(self._off_axis(_by_columns(np.subtract, x, self.center))) < self.radius
        for point, normal in self.faces:
            inside &= _by_columns(np.subtract, x, point) @ normal > 0.0
        return inside

    def clip(self, point, direction, lo: float, hi: float) -> tuple[float, float]:
        """The parameters (s0, s1) within (lo, hi) between which point + s
        direction lies in the region, exactly; s1 <= s0 when it misses."""
        p, d = np.asarray(point, dtype=float), np.asarray(direction, dtype=float)
        rel, along = self._off_axis(p - self.center), self._off_axis(d)
        a, b, c = along @ along, rel @ along, rel @ rel - self.radius ** 2
        if a > 1e-30:
            disc = b * b - a * c
            if disc <= 0:
                return 0.0, 0.0
            lo, hi = max(lo, (-b - np.sqrt(disc)) / a), min(hi, (-b + np.sqrt(disc)) / a)
        elif c >= 0:
            return 0.0, 0.0
        for q, n in self.faces:
            dn, rn = d @ n, (p - q) @ n
            if abs(dn) > 1e-15:
                lo, hi = (max(lo, -rn / dn), hi) if dn > 0 else (lo, min(hi, -rn / dn))
            elif rn <= 0:
                return 0.0, 0.0
        return lo, hi

    @cached_property
    def _volume(self) -> tuple[np.ndarray, np.ndarray]:
        # the flat (n, 3) grid's products in its order: bit-identical to it
        ra, rb, rc = self.volume_rules
        a, b, c = ra.nodes[:, None, None], rb.nodes[:, None], rc.nodes
        w = ra.weights[:, None, None] * rb.weights[:, None] * rc.weights
        if self.coordinates == "spherical":
            w *= a
            w *= a
            st, cos, sin = _sphere_factors(b, c)
            a, b, c = a * st * cos, a * st * sin, a * b
        elif self.coordinates == "cylindrical":
            w *= a
            a, b, c = a * np.cos(b), a * np.sin(b), c
        if self.frame is None:
            # the centre goes on before the grid is broadcast: the same sums
            x, y, z = self.center
            pts = _columns(a + x, b + y, c + z)
        else:
            pts = _by_columns(np.add, _columns(a, b, c).reshape(-1, 3) @ self.frame, self.center)
        return _read_only(pts.reshape(-1, 3)), _read_only(w.reshape(-1))

    @cached_property
    def nodes(self) -> np.ndarray:  # (n, 3) physical points
        return self._volume[0]

    @cached_property
    def weights(self) -> np.ndarray:  # plain weights including metric factor
        return self._volume[1]


def _sphere_factors(u, phi):
    """sin(colatitude), cos(phi) and sin(phi) of the spherical parameters
    (u = cos colatitude, phi): the factors of a direction and of a node."""
    return np.sqrt(np.clip(1.0 - u * u, 0.0, None)), np.cos(phi), np.sin(phi)


def _faces(*patches: SurfacePatch) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """The (point, inner unit normal) of each flat patch."""
    return tuple((p.origin, p.frame[2]) for p in patches)


def _spherical_rules(radius, order, n_angular, u_range=(-1.0, 1.0), radial_breaks=()):
    """The (r, u, phi) rules of a ball, r split at `radial_breaks`; u_range
    (0, 1) gives the half ball on the side of the frame's third row."""
    bp = sorted({0.0, float(radius), *(float(b) for b in radial_breaks if 0.0 < b < radius)})
    return (gauss_legendre_split(order, np.asarray(bp)),
            gauss_legendre(order, u_range[0], u_range[1]), periodic_trapezoid(n_angular))


def ball_region(center=(0.0, 0.0, 0.0), radius: float = 1.0, order: int = DEFAULT_ORDER,
                n_angular: int = DEFAULT_ANGULAR) -> SolidRegion:
    center = np.asarray(center, dtype=float)
    rules = _spherical_rules(radius, order, n_angular)
    sphere = sphere_patch(center, radius, order, n_angular)
    return SolidRegion("ball", (sphere,), rules, "spherical", center, float(radius), None, ())


def half_ball_region(center=(0.0, 0.0, 0.0), radius: float = 1.0, order: int = DEFAULT_ORDER,
                     n_angular: int = DEFAULT_ANGULAR) -> SolidRegion:
    """Upper half ball {x3 > c3}; flat face oriented by the inner normal +e3."""
    center = np.asarray(center, dtype=float)
    rules = _spherical_rules(radius, order, n_angular, u_range=(0.0, 1.0))
    dome = sphere_patch(center, radius, order, n_angular, u_range=(0.0, 1.0))
    face = disk_patch(center, radius, normal=(0.0, 0.0, 1.0), order=order, n_angular=n_angular)
    return SolidRegion("half_ball", (face, dome), rules, "spherical", center, float(radius),
                       None, _faces(face))


def cylinder_region(center=(0.0, 0.0, 0.0), radius: float = 1.0, z0: float = 0.0, z1: float = 1.0,
                    order: int = DEFAULT_ORDER, n_angular: int = DEFAULT_ANGULAR) -> SolidRegion:
    """Cylinder {rho < radius, z0 < z < z1} relative to `center` in the xy plane."""
    center = np.asarray(center, dtype=float)
    rules = (gauss_legendre(order, 0.0, radius), periodic_trapezoid(n_angular),
             gauss_legendre(order, z0, z1))
    bottom = disk_patch(center + np.array([0, 0, z0]), radius, normal=(0, 0, 1.0),
                        order=order, n_angular=n_angular)
    top = disk_patch(center + np.array([0, 0, z1]), radius, normal=(0, 0, -1.0),
                     order=order, n_angular=n_angular)
    side = cylinder_side_patch(center, radius, z0, z1, order, n_angular)
    return SolidRegion("cylinder", (bottom, top, side), rules, "cylindrical", center,
                       float(radius), np.array([0.0, 0.0, 1.0]), _faces(bottom, top))


def box_region(center=(0.0, 0.0, 0.0), half_widths=(1.0, 1.0, 1.0),
               order: int = BOX_ORDER) -> SolidRegion:
    center = np.asarray(center, dtype=float)
    h = np.asarray(half_widths, dtype=float)
    rules = tuple(gauss_legendre(order, -h[k], h[k]) for k in range(3))
    faces = []
    axes = np.eye(3)
    for k in range(3):
        for sgn in (+1.0, -1.0):
            e1 = axes[(k + 1) % 3] * h[(k + 1) % 3]
            e2 = axes[(k + 2) % 3] * h[(k + 2) % 3]
            corner = center + sgn * axes[k] * h[k] - e1 - e2
            faces.append(rectangle_patch(corner, 2 * e1 / (2 * h[(k + 1) % 3]),
                                         2 * e2 / (2 * h[(k + 2) % 3]),
                                         2 * h[(k + 1) % 3], 2 * h[(k + 2) % 3],
                                         normal_sign=-sgn, order=order))
    return SolidRegion("box", tuple(faces), rules, "cartesian", center, np.inf, None,
                       _faces(*faces))


# ---------------------------------------------------------------------------
# support-adapted rules for test-function pairings
# ---------------------------------------------------------------------------


# the product rule of a support ball: Gauss-Legendre in r (per kink-split
# segment) and u, the periodic trapezoid in phi
SUPPORT_ORDER, SUPPORT_ANGULAR = 16, 32


def support_fit(region: SolidRegion, center, radius: float):
    """Where the support ball (center, radius) of a test function lies in
    `region`: ("ball", None) when the whole ball does, ("half_ball", n) when
    the ball is centred on a flat face and its half on the face's inner side,
    n that face's inner normal, does; (None, None) otherwise."""
    if _ball_fits(region, center, radius):
        return "ball", None
    for point, n in region.faces:
        if abs((center - point) @ n) <= POSITION_TOL and _ball_fits(region, center, radius, n):
            return "half_ball", n
    return None, None


def support_rule(region: SolidRegion, support, breaks: Sequence[float] = ()) -> SolidRegion:
    """Volume rule for pairing against a test function supported in a ball.

    `support` is the ball (center, radius) outside which the test function
    vanishes and `breaks` are the radii of its profile kinks inside it. The
    returned region covers the support only, split radially at the kinks:
    the support ball or the half ball `support_fit` finds, the half ball
    oriented by its face's inner normal. It is quadrature-only: its `contains`
    and `clip` are the support's, and it has no boundary. A support leaving
    the region returns `region` itself, whose own rule is then used.
    """
    center, radius = np.asarray(support[0], dtype=float), float(support[1])
    kind, n = support_fit(region, center, radius)
    if kind is None:
        return region
    kinks = sorted(float(b) for b in breaks if 0.0 < b < radius)
    u_range, faces, frame = (((-1.0, 1.0), (), None) if n is None else
                             ((0.0, 1.0), ((center, n),), np.stack(frame_from_normal(n))))
    rules = _spherical_rules(radius, SUPPORT_ORDER, SUPPORT_ANGULAR, u_range, kinks)
    return SolidRegion(kind, (), rules, "spherical", center, radius, None, faces, frame=frame)


@lru_cache(maxsize=None)
def unit_support(kink: float, half: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`support_rule`'s rule for the unit ball about the origin (with `half`
    its upper half, u = cos colatitude in (0, 1)), split radially at the
    kink fraction `kink`, as its three factors: the radial nodes (n_r,) on
    [0, 1], the weights (n_r, n_u * n_phi) with r^2 and the angular weights,
    and the unit directions (n_u * n_phi, 3) in node order within a radius.
    The support of radius R about c has the node c + R r_k d_j and the
    weight R^3 w_kj there (d_j rotated by a face frame for a half ball), up
    to rounding. Built once per (kink, half); the arrays are read-only."""
    ra, ru, rp = _spherical_rules(1.0, SUPPORT_ORDER, SUPPORT_ANGULAR,
                                  (0.0, 1.0) if half else (-1.0, 1.0), (kink,))
    u = ru.nodes[:, None]
    st, cos, sin = _sphere_factors(u, rp.nodes)
    directions = _columns(st * cos, st * sin, u).reshape(-1, 3)
    angular = (ru.weights[:, None] * rp.weights).reshape(-1)
    weights = (ra.weights * ra.nodes * ra.nodes)[:, None] * angular
    return _read_only(ra.nodes), _read_only(weights), _read_only(directions)


def _ball_fits(region: SolidRegion, center, radius: float, normal=None) -> bool:
    """Whether the ball about `center`, or with `normal` its half on that side,
    lies in the closure of `region`: the whole ball in the round part, and
    the piece on the inner side of every face."""

    def reach(v):
        # min of (x - center) . v over the piece
        vn = 0.0 if normal is None else float(v @ normal)
        return -radius * (np.sqrt(max(0.0, 1.0 - vn * vn)) if vn > 0.0 else 1.0)

    return bool(np.linalg.norm(region._off_axis(center - region.center)) + radius <= region.radius
                and all((center - point) @ n + reach(n) >= 0.0 for point, n in region.faces))


def build_transversal_collar(region: SolidRegion) -> TransversalCollar:
    """Per-patch inward slides, read off each boundary patch: a flat patch
    slides along its inner normal, a sphere toward its centre and a cylinder
    side toward its axis, with the centre and radius the patch's `origin`
    and `scale`. Every patch carries its inner normal nu and every slide's
    outward field is h = -nu, so the transversality margin kappa =
    min(-nu . h) is 1 by construction."""
    make = {"spherical": spherical_slide, "cylinder_side": cylinder_slide}
    return TransversalCollar(tuple(make.get(p.coordinates, planar_slide)(p)
                                   for p in region.boundary))


def shift_transversal(patch: SurfacePatch, collar: TransversalCollar,
                      t: float) -> SurfacePatch:
    """Slide a disk or a closed sphere inward by t along its region collar:
    a disk's origin moves along its slide, a sphere's radius shrinks by t.
    Its rules, frame and orientation are kept."""
    if not abs(t) < 0.5:
        raise GeometryError("transversal shift requires |t| < 1/2")
    slide = collar.slide_for(patch)
    if t >= slide.depth_range:
        raise GeometryError("shift leaves the collar neighborhood")
    if patch.name == "disk":
        return replace(patch, origin=slide.shift_point(patch.origin, t)[0])
    if patch.name == "sphere":
        return replace(patch, scale=patch.scale - t)
    raise GeometryError(f"cannot shift a {patch.name!r} patch")


def _slid_layers(slide: PatchSlide):
    """The slid copies of a slide's patch as a layer family for `_band_lines`:
    at an array of k depths, nodes (k, m, 3) and the patch weights (k, m)."""
    nodes, weights = slide.patch.nodes, slide.patch.weights

    def layers(s):
        pts = slide.shift_point(nodes, s[:, None]) if len(s) else np.empty((0, *nodes.shape))
        return SimpleNamespace(nodes=pts, weights=np.broadcast_to(weights, (len(s), len(weights))))

    return layers


def slab_integral(slide: PatchSlide, lo: float, hi: float, integrand) -> np.ndarray:
    """Integral of each row of `integrand(pts, s)` (see `_band_lines`) over the
    slab of depths (lo, hi) along a slide: eight Gauss layers of slid copies
    of its patch in one `_band_lines` call, weighted by `area_scale` and
    added in depth order. Returns (rows,)."""
    s, w, lines = _band_lines(_slid_layers(slide), 8, [(lo, hi)], integrand)
    return np.cumsum(w * slide.area_scale(s) * lines, axis=-1)[:, -1]


def shell_integral(collar: TransversalCollar, eps: float, integrand) -> np.ndarray:
    """Volume integral over the inward shell of depth eps: the sum of the
    slides' slabs (0, eps). `integrand(pts, slide, i)` maps slid points to
    rows of values, with `i` the index of each point's foot in `slide.patch`.
    Overlaps near patch junctions contribute O(eps^2) volume and vanish in
    the localizer limits this is used for."""
    def slab(sl):
        n = len(sl.patch.weights)
        return slab_integral(sl, 0.0, eps,
                             lambda pts, s: integrand(pts, sl, np.arange(len(pts)) % n))

    return sum(slab(sl) for sl in collar.slides)
