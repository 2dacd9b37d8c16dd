"""Surface patches, boundary curves, collar maps, localizer ramps, and solid
regions with volume rules.

Every curve, patch and boundary manifold is held as its quadrature node set:
the points, normals and weights of a closed-form parametrization (no meshes),
evaluated once when the shape is built. Collar maps for the canonical catalog
(disk, spherical cap, sphere, cylinder side, planar faces) are exact, which
keeps the localizer-limit computations free of mesh noise.
Conventions fixed once and used everywhere:

* regions carry the *inner* unit normal on their boundary;
* the conormal nu_gamma of a boundary curve points *into* the surface;
* the curve tangent is tau = nu_sigma x nu_gamma (right-hand rule).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable, Optional, Sequence

import numpy as np

from .quadrature import (
    QuadratureRule,
    gauss_legendre,
    gauss_legendre_split,
    periodic_trapezoid,
    tensor_product_3d,
)

POSITION_TOL = 1e-9  # "lies on patch" node tolerance, absolute

DEFAULT_ORDER = 24
DEFAULT_ANGULAR = 96


def _unit(v):
    n = np.linalg.norm(v, axis=-1, keepdims=True)
    return v / np.where(n == 0.0, 1.0, n)


def frame_from_normal(normal) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Right-handed orthonormal frame (e1, e2, n) with n the given direction."""
    n = np.asarray(normal, dtype=float)
    n = n / np.linalg.norm(n)
    a = np.array([0.0, 0.0, 1.0]) if abs(n[2]) < 0.9 else np.array([1.0, 0.0, 0.0])
    e1 = np.cross(a, n)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(n, e1)
    return e1, e2, n


class GeometryError(ValueError):
    pass


# ---------------------------------------------------------------------------
# curves
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Curve:
    """Curve (closed, an arc, or degenerate) as its node set, or a family of
    k curves on one shared parameter rule.

    `nodes` holds the points, (m, 3) or (k, m, 3) for a family, and `weights`
    the arclength weights (rule weight times |gamma'|), (m,) or (k, m).
    Collar layers at an array of parameters are families; `length` and
    `line_integral` take one curve.
    """

    nodes: np.ndarray
    weights: np.ndarray

    def length(self) -> float:
        return float(np.sum(self.weights))


def _arc(center, radius, e1, e2, rule: QuadratureRule) -> Curve:
    """The circle about `center` in the plane (e1, e2) at the angles of
    `rule`; with a (k,) `radius` and a (3,) or (k, 3) `center`, k circles."""
    center = np.asarray(center, dtype=float)[..., None, :]
    radius = np.asarray(radius, dtype=float)
    s = rule.nodes
    ring = (np.cos(s)[:, None] * np.asarray(e1, dtype=float)
            + np.sin(s)[:, None] * np.asarray(e2, dtype=float))
    return Curve(center + radius[..., None, None] * ring, rule.weights * radius[..., None])


def circle_curve(center, radius, e1, e2, n_nodes: int = DEFAULT_ANGULAR) -> Curve:
    """Circle (or family of circles, see `_arc`) with a trapezoid rule."""
    return _arc(center, radius, e1, e2, periodic_trapezoid(n_nodes))


def arc_curve(center, radius, e1, e2, angle_lo: float, angle_hi: float,
              n_nodes: int = 48) -> Curve:
    """Circular arc (or family of arcs) with a Gauss-Legendre rule; for
    window-localized integrands."""
    return _arc(center, radius, e1, e2, gauss_legendre(n_nodes, angle_lo, angle_hi))


def empty_curve() -> Curve:
    """Zero-length placeholder for boundaryless (closed) surfaces."""
    return Curve(np.zeros((1, 3)), np.zeros(1))


def _node_sum(w: np.ndarray, vals: np.ndarray) -> float | np.ndarray:
    """sum_i w_i vals_i: a float for scalar values, an array for vector ones."""
    if vals.ndim == 1:
        return float(np.sum(w * vals))
    return np.tensordot(w, vals, axes=(0, 0))


def line_integral(curve: Curve, integrand) -> float | np.ndarray:
    """Arclength integral of a pointwise integrand over a curve; raises on a
    non-finite result."""
    vals = _node_sum(curve.weights, np.asarray(integrand(curve.nodes)))
    if not np.all(np.isfinite(np.asarray(vals, dtype=float))):
        raise GeometryError("non-finite line integrand")
    return vals


# ---------------------------------------------------------------------------
# surface patches
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SurfacePatch:
    """Patch of a parametrized surface (u, v) -> R^3 as its node set.

    Constructors evaluate the map once, on the product of two 1-D rules (u
    slowest) or on the rays of `support_rule`'s singular polar rule, into
    read-only arrays: `nodes` (points), `normals` (unit) and `weights` (rule
    weight times the area element |X_u x X_v|), so a surface integral is
    sum(weights * f(nodes)).
    """

    name: str
    nodes: np.ndarray  # (n, 3)
    normals: np.ndarray  # (n, 3), unit
    weights: np.ndarray  # (n,)
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        for a in (self.nodes, self.normals, self.weights):
            a.flags.writeable = False

    def area(self) -> float:
        return float(np.sum(self.weights))


def surface_integral(patch: SurfacePatch, integrand) -> float | np.ndarray:
    """Surface integral over a patch's node set; raises on non-finite
    integrand values."""
    vals = np.asarray(integrand(patch.nodes), dtype=float)
    if not np.all(np.isfinite(vals)):
        bad = np.argwhere(~np.isfinite(np.atleast_1d(vals)))[0]
        raise GeometryError(f"non-finite surface integrand at node index {bad}")
    return _node_sum(patch.weights, vals)


def disk_patch(center, radius: float, normal=(0.0, 0.0, 1.0),
               order: int = DEFAULT_ORDER, n_angular: int = DEFAULT_ANGULAR,
               radial_breaks: Sequence[float] = (), inner_radius: float = 0.0) -> SurfacePatch:
    """Flat disk (or annulus) in the plane through `center` with given normal.

    Polar parameters (rho, phi); Gauss-Legendre radially (split at the given
    break radii) x trapezoid in angle.
    """
    bp = sorted({float(inner_radius), float(radius), *(float(b) for b in radial_breaks
                                                       if inner_radius < b < radius)})
    r_rule = gauss_legendre_split(order, np.asarray(bp))
    a_rule = periodic_trapezoid(n_angular)
    return _polar_patch(center, normal, r_rule.nodes[:, None], a_rule.nodes,
                        np.outer(r_rule.weights, a_rule.weights), radius, inner_radius)


def _polar_patch(center, normal, rho, phi, w, radius: float,
                 inner_radius: float) -> SurfacePatch:
    """Flat patch in polar coordinates (rho, phi) about `center`, from node
    coordinates and plain rule weights `w` of broadcasting shapes; the nodes
    may be any set inside the annulus inner_radius <= rho <= radius."""
    center = np.asarray(center, dtype=float)
    e1, e2, n = frame_from_normal(normal)
    ring = np.cos(phi)[..., None] * e1 + np.sin(phi)[..., None] * e2
    nodes = (center + rho[..., None] * ring).reshape(-1, 3)
    return SurfacePatch("disk", nodes, np.tile(n, (len(nodes), 1)), (w * rho).ravel(),
                        meta={"center": center, "normal": n, "radius": float(radius),
                              "inner_radius": float(inner_radius)})


def sphere_patch(center, radius: float, order: int = DEFAULT_ORDER,
                 n_angular: int = DEFAULT_ANGULAR, inner_normal: bool = True,
                 u_range=(-1.0, 1.0)) -> SurfacePatch:
    """Sphere (or cap-band) of the given radius; parameters (u, phi), u = cos(colatitude).

    The area element is R^2 du dphi exactly, so the product rule is exact for
    polynomial integrands. `inner_normal` orients nu toward the center.
    """
    center = np.asarray(center, dtype=float)
    sign = -1.0 if inner_normal else 1.0
    u_rule = gauss_legendre(order, u_range[0], u_range[1])
    a_rule = periodic_trapezoid(n_angular)
    u, phi = u_rule.nodes[:, None], a_rule.nodes
    st = np.sqrt(np.clip(1.0 - u * u, 0.0, None))
    local = np.stack(np.broadcast_arrays(st * np.cos(phi), st * np.sin(phi), u), axis=-1)
    nodes = (center + radius * local).reshape(-1, 3)
    weights = np.outer(u_rule.weights, a_rule.weights).ravel() * (radius * radius)
    name = "sphere" if u_range == (-1.0, 1.0) else "spherical_cap"
    return SurfacePatch(name, nodes, sign * _unit(nodes - center), weights)


def spherical_cap_patch(center, radius: float, colatitude: float,
                        order: int = DEFAULT_ORDER, n_angular: int = DEFAULT_ANGULAR,
                        inner_normal: bool = True) -> SurfacePatch:
    """Cap around the +z pole: colatitude in (0, pi)."""
    return sphere_patch(center, radius, order, n_angular, inner_normal,
                        u_range=(float(np.cos(colatitude)), 1.0))


def cylinder_side_patch(center, radius: float, z0: float, z1: float,
                        order: int = DEFAULT_ORDER, n_angular: int = DEFAULT_ANGULAR,
                        inner_normal: bool = True) -> SurfacePatch:
    center = np.asarray(center, dtype=float)
    sign = -1.0 if inner_normal else 1.0
    z_rule = gauss_legendre(order, z0, z1)
    a_rule = periodic_trapezoid(n_angular)
    z, phi = z_rule.nodes[:, None], a_rule.nodes
    local = np.stack(np.broadcast_arrays(radius * np.cos(phi), radius * np.sin(phi), z), axis=-1)
    normals = sign * np.stack([np.cos(phi), np.sin(phi), np.zeros_like(phi)], axis=1)
    weights = np.outer(z_rule.weights, a_rule.weights).ravel() * float(radius)
    return SurfacePatch("cylinder_side", (center + local).reshape(-1, 3),
                        np.tile(normals, (z.size, 1)), weights)


def rectangle_patch(corner, e1, e2, extent1: float, extent2: float, normal_sign: float = 1.0,
                    order: int = DEFAULT_ORDER) -> SurfacePatch:
    corner = np.asarray(corner, dtype=float)
    e1 = np.asarray(e1, dtype=float)
    e2 = np.asarray(e2, dtype=float)
    n = normal_sign * np.cross(e1, e2)
    n /= np.linalg.norm(n)
    u_rule = gauss_legendre(order, 0.0, extent1)
    v_rule = gauss_legendre(order, 0.0, extent2)
    nodes = (corner + u_rule.nodes[:, None, None] * e1
             + v_rule.nodes[None, :, None] * e2).reshape(-1, 3)
    weights = (np.outer(u_rule.weights, v_rule.weights).ravel()
               * np.linalg.norm(np.cross(e1, e2)))
    return SurfacePatch("rectangle", nodes, np.tile(n, (len(nodes), 1)), weights)


# ---------------------------------------------------------------------------
# boundary manifolds and tangential collars
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundaryManifold:
    """Oriented patch with its boundary curve and, at the boundary nodes, the
    unit conormal (pointing into the patch) and the induced tangent
    tau = nu_sigma x nu_gamma."""

    patch: SurfacePatch
    boundary: Curve
    conormals: np.ndarray  # (m, 3)
    tangents: np.ndarray  # (m, 3)
    kind: str
    meta: dict

    @property
    def closed(self) -> bool:
        return self.kind == "closed"


@dataclass(frozen=True)
class TangentialCollar:
    """Bi-Lipschitz sliding of the boundary curve into the surface.

    Layer s=0 is the boundary itself; layers foliate a neighborhood inside the
    patch. `layer(s)` is one curve, or for an array s the family of those
    layers on one shared rule. `grad_s` is the surface gradient of the collar
    parameter (its magnitude is the localizer slope per unit delta);
    `layer_jacobian` is the constant factor that converts ds x arclength to
    surface area.
    """

    layer: Callable[[float | np.ndarray], Curve]
    grad_s: Callable[[np.ndarray, np.ndarray], np.ndarray]  # points, per-point s -> (n,3)
    layer_jacobian: float
    s_max: float
    bilip: float  # fitted comparability constant, >= 1
    param_of_radius: Optional[Callable[[float], float]] = None  # shape-specific break mapping
    empty: bool = False

    def layer_distance(self, s0: float, s1: float) -> float:
        """min distance between two layer curves at equal rule nodes; for the
        concentric circles of the catalog collars this is the min over all
        node pairs."""
        a, b = self.layer(np.array([s0, s1])).nodes
        return float(np.linalg.norm(a - b, axis=1).min())


def _fit_bilip(collar: TangentialCollar) -> float:
    """Largest distortion max(d/gap, gap/d) between pairs of six sampled
    layers, with d their `layer_distance`; 1 if no pair is distorted."""
    ss = np.linspace(0.0, min(0.45, collar.s_max * 0.9), 6)
    pts = collar.layer(ss).nodes
    d = np.linalg.norm(pts[:, None] - pts[None, :], axis=-1).min(axis=-1)
    gap = np.abs(ss[:, None] - ss[None, :])
    pair = np.triu((gap > 0) & (d > 0), 1)
    return float(np.max([1.0, *(d[pair] / gap[pair]), *(gap[pair] / d[pair])]))


def disk_manifold(center, radius: float, normal=(0.0, 0.0, 1.0), order: int = DEFAULT_ORDER,
                  n_angular: int = DEFAULT_ANGULAR) -> BoundaryManifold:
    """Flat disk whose boundary circle slides radially toward the center."""
    center = np.asarray(center, dtype=float)
    e1, e2, n = frame_from_normal(normal)
    patch = disk_patch(center, radius, normal, order, n_angular)
    rule = periodic_trapezoid(n_angular)
    s = rule.nodes
    conormals = -(np.cos(s)[:, None] * e1 + np.sin(s)[:, None] * e2)
    return BoundaryManifold(patch, _arc(center, radius, e1, e2, rule), conormals,
                            np.cross(n, conormals), kind="disk",
                            meta={"center": center, "radius": float(radius),
                                  "frame": (e1, e2, n), "order": order, "n_angular": n_angular})


def spherical_cap_manifold(center, radius: float, colatitude: float,
                           order: int = DEFAULT_ORDER, n_angular: int = DEFAULT_ANGULAR,
                           inner_normal: bool = True) -> BoundaryManifold:
    """Cap around the +z pole; its boundary circle slides along meridians."""
    center = np.asarray(center, dtype=float)
    patch = spherical_cap_patch(center, radius, colatitude, order, n_angular, inner_normal)
    rim_r = radius * np.sin(colatitude)
    rim_c = center + np.array([0.0, 0.0, radius * np.cos(colatitude)])
    rule = periodic_trapezoid(n_angular)
    curve = _arc(rim_c, rim_r, np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]), rule)
    sign = -1.0 if inner_normal else 1.0
    # unit tangent to the sphere pointing toward the pole (decreasing colatitude)
    s = rule.nodes
    ct, st = np.cos(colatitude), np.sin(colatitude)
    conormals = -np.stack([ct * np.cos(s), ct * np.sin(s), -st * np.ones_like(s)], axis=1)
    tangents = np.cross(sign * _unit(curve.nodes - center), conormals)
    return BoundaryManifold(patch, curve, conormals, tangents, kind="spherical_cap",
                            meta={"center": center, "radius": float(radius),
                                  "colatitude": float(colatitude), "inner_normal": inner_normal,
                                  "order": order, "n_angular": n_angular})


def closed_sphere_manifold(center, radius: float, order: int = DEFAULT_ORDER,
                           n_angular: int = DEFAULT_ANGULAR, inner_normal: bool = True) -> BoundaryManifold:
    patch = sphere_patch(center, radius, order, n_angular, inner_normal)
    return BoundaryManifold(patch, empty_curve(), np.zeros((1, 3)), np.zeros((1, 3)),
                            kind="closed",
                            meta={"center": np.asarray(center, dtype=float),
                                  "radius": float(radius),
                                  "order": order, "n_angular": n_angular,
                                  "inner_normal": inner_normal})


def build_tangential_collar(manifold: BoundaryManifold) -> TangentialCollar:
    """Closed-form collar for the canonical catalog shapes; its layers are
    circles on the default angular rule.

    For a closed surface (empty boundary) the collar is empty and the
    localizer degenerates to the constant 1.
    """
    if manifold.closed:
        return TangentialCollar(lambda s: empty_curve(),
                                lambda pts, s: np.zeros_like(np.atleast_2d(pts)),
                                0.0, s_max=1.0, bilip=1.0, empty=True)
    if manifold.boundary.length() <= 0.0:
        raise GeometryError("degenerate boundary curve")

    if manifold.kind == "disk":
        center = manifold.meta["center"]
        radius = manifold.meta["radius"]
        e1, e2, _ = manifold.meta["frame"]

        def layer(s):
            return circle_curve(center, radius * (1.0 - s), e1, e2)

        axis = np.cross(e1, e2)

        def grad_s(pts, s):
            pts = np.atleast_2d(pts)
            rel = pts - center
            rho = _unit(rel - np.outer(rel @ axis, axis))
            return -rho / radius

        collar = TangentialCollar(layer, grad_s, float(radius), s_max=1.0, bilip=1.0,
                                  param_of_radius=lambda r: 1.0 - r / radius)
        return replace(collar, bilip=_fit_bilip(collar))

    if manifold.kind == "spherical_cap":
        center = manifold.meta["center"]
        R = manifold.meta["radius"]
        th0 = manifold.meta["colatitude"]
        e1 = np.array([1.0, 0.0, 0.0])
        e2 = np.array([0.0, 1.0, 0.0])

        def layer(s):
            th = th0 * (1.0 - np.asarray(s))
            c = center + np.multiply.outer(R * np.cos(th), [0.0, 0.0, 1.0])
            return circle_curve(c, R * np.sin(th), e1, e2)

        def grad_s(pts, s):
            pts = np.atleast_2d(pts)
            rel = _unit(pts - center)
            phi = np.arctan2(rel[:, 1], rel[:, 0])
            th = np.arccos(np.clip(rel[:, 2], -1.0, 1.0))
            e_theta = np.stack([np.cos(th) * np.cos(phi), np.cos(th) * np.sin(phi),
                                -np.sin(th)], axis=1)
            return -e_theta / (R * th0)

        collar = TangentialCollar(layer, grad_s, float(R * th0), s_max=1.0, bilip=1.0)
        return replace(collar, bilip=_fit_bilip(collar))

    raise GeometryError(f"no collar construction for manifold kind {manifold.kind!r}")


def shrink_tangential(manifold: BoundaryManifold, collar: TangentialCollar,
                      t: float) -> BoundaryManifold:
    """Remove the collar band of depth t; returns the shrunk manifold."""
    if not 0.0 <= t < 0.5:
        raise GeometryError("shrink parameter must satisfy 0 <= t < 1/2")
    if manifold.closed or t == 0.0:
        return manifold
    m = manifold.meta
    if manifold.kind == "disk":
        return disk_manifold(m["center"], m["radius"] * (1.0 - t), m["frame"][2],
                             order=m["order"], n_angular=m["n_angular"])
    if manifold.kind == "spherical_cap":
        return spherical_cap_manifold(m["center"], m["radius"], m["colatitude"] * (1.0 - t),
                                      m["order"], m["n_angular"], m["inner_normal"])
    raise GeometryError(f"cannot shrink manifold kind {manifold.kind!r}")


# ---------------------------------------------------------------------------
# localizer ramps (collar band integrals)
# ---------------------------------------------------------------------------


def _band(collar: TangentialCollar, lo: float, hi: float, s_order: int,
          breaks: Sequence[float] = (), layer=None):
    """All nodes of the collar band (lo, hi), with the s-rule split at `breaks`.

    Returns the stacked points (n_s*m, 3), the layer weights w_s * J (J the
    collar's constant `layer_jacobian`), the line weights (n_s, m) and the
    collar parameter of each point.
    `layer` maps the (n_s,) s-rule nodes to the family of their layer curves
    on one m-node rule (default `collar.layer`), in a single call.
    """
    bp = sorted({lo, hi, *(b for b in breaks if lo < b < hi)})
    s_rule = gauss_legendre_split(s_order, np.asarray(bp))
    layers = (layer or collar.layer)(s_rule.nodes)
    return (layers.nodes.reshape(-1, 3), s_rule.weights * collar.layer_jacobian,
            layers.weights, np.repeat(s_rule.nodes, layers.weights.shape[1]))


def _band_integral(layer_w: np.ndarray, line_w: np.ndarray, vals) -> float:
    """Integral of per-point band values: a sum along each layer, then the
    layers added one by one in s-rule order (cumsum is sequential)."""
    lines = np.sum(line_w * np.reshape(vals, line_w.shape), axis=1)
    return float(np.cumsum(layer_w * lines)[-1])


def ramp_integral(manifold: BoundaryManifold, collar: TangentialCollar, t: float, delta: float,
                  covector_field, scalar, s_order: int = 8, breaks: Sequence[float] = (),
                  layer=None) -> tuple[float, float]:
    """Integral of scalar * (field . grad ramp) over the collar band (t, t+delta),
    and of |scalar| |field| |grad ramp|, the scale its limit is judged against.

    `covector_field` maps points (n,3) to vectors (n,3); `scalar` maps points
    to (n,), or is None for 1. Discontinuity parameters of the integrand may
    be passed in `breaks` (collar parameter values); the band quadrature
    splits there. `layer` restricts the band to a window of each layer (see
    `_band`). The band is parametrized as (s, curve), with
    dH^2 = layer_jacobian ds dH^1, so |grad s| = 1 / layer_jacobian (coarea).
    """
    if collar.empty:
        return 0.0, 0.0
    if not (0.0 < delta and t >= 0.0 and t + delta <= collar.s_max):
        raise GeometryError("ramp band outside collar range")
    pts, layer_w, line_w, s = _band(collar, t, t + delta, s_order, breaks, layer)
    f = np.asarray(covector_field(pts), dtype=float)
    vals = np.einsum("ij,ij->i", f, collar.grad_s(pts, s) / delta)
    mags = np.sqrt(np.einsum("ij,ij->i", f, f))
    if scalar is not None:
        phi = np.asarray(scalar(pts), dtype=float)
        vals, mags = vals * phi, mags * np.abs(phi)
    return (_band_integral(layer_w, line_w, vals),
            _band_integral(layer_w, line_w, mags) / (collar.layer_jacobian * delta))


def band_area(collar: TangentialCollar, t: float, delta: float) -> float:
    """Surface area of the collar band Psi((t, t+delta) x Gamma)."""
    if collar.empty:
        return 0.0
    _, layer_w, line_w, _ = _band(collar, t, t + delta, 8)
    return _band_integral(layer_w, line_w, np.ones_like(line_w))


def band_mass(collar: TangentialCollar, lo: float, hi: float, density,
              breaks: Sequence[float] = ()) -> float:
    """Integral of a scalar surface density over the collar band (lo, hi)."""
    if collar.empty or hi <= lo:
        return 0.0
    lo = max(lo, 0.0)
    hi = min(hi, collar.s_max)
    if hi <= lo:
        return 0.0
    pts, layer_w, line_w, _ = _band(collar, lo, hi, 8, breaks)
    return _band_integral(layer_w, line_w, np.asarray(density(pts), dtype=float))


# ---------------------------------------------------------------------------
# finite-difference gradients
# ---------------------------------------------------------------------------


def central_gradient(value, x: np.ndarray) -> np.ndarray:
    """Central-difference gradient of a scalar function of points (n,3), at
    step 1e-6."""
    h = 1e-6
    x = np.atleast_2d(x)
    out = np.zeros_like(x)
    for k in range(3):
        e = np.zeros(3)
        e[k] = h
        out[:, k] = (value(x + e) - value(x - e)) / (2.0 * h)
    return out


# ---------------------------------------------------------------------------
# solid regions and transversal collars
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PatchSlide:
    """Inward normal sliding of one boundary patch: Phi(t, x) = x - t h(x)."""

    patch: SurfacePatch
    shift_point: Callable[[np.ndarray, float], np.ndarray]
    shifted_normal: Callable[[np.ndarray, float], np.ndarray]
    outward_field: Callable[[np.ndarray], np.ndarray]  # h, unit
    area_scale: Callable[[float], float]  # H^2(Phi(t, patch)) / H^2(patch)
    depth_range: float
    slab_coordinate: Optional[Callable[[np.ndarray], np.ndarray]] = None  # depth of arbitrary points


def planar_slide(patch: SurfacePatch, inward) -> PatchSlide:
    inward = np.asarray(inward, dtype=float)
    base = patch.nodes[0]

    def shift(pts, t):
        return np.atleast_2d(pts) + t * inward

    def nrm(pts, t):
        return np.broadcast_to(patch.normals[0], (np.atleast_2d(pts).shape[0], 3)).copy()

    def slab(pts):
        return (np.atleast_2d(pts) - base) @ inward

    return PatchSlide(patch, shift, nrm, lambda pts: np.broadcast_to(-inward, (np.atleast_2d(pts).shape[0], 3)).copy(),
                      lambda t: 1.0, depth_range=np.inf, slab_coordinate=slab)


def spherical_slide(patch: SurfacePatch, center, radius: float) -> PatchSlide:
    center = np.asarray(center, dtype=float)

    def shift(pts, t):
        pts = np.atleast_2d(pts)
        return center + (1.0 - t / radius) * (pts - center)

    def nrm(pts, t):
        return -_unit(np.atleast_2d(pts) - center)

    def outward(pts):
        return _unit(np.atleast_2d(pts) - center)

    def slab(pts):
        return radius - np.linalg.norm(np.atleast_2d(pts) - center, axis=1)

    return PatchSlide(patch, shift, nrm, outward, lambda t: (1.0 - t / radius) ** 2,
                      depth_range=radius, slab_coordinate=slab)


def cylinder_slide(patch: SurfacePatch, center, radius: float) -> PatchSlide:
    center = np.asarray(center, dtype=float)

    def radial(pts):
        rel = np.atleast_2d(pts) - center
        rel = rel.copy()
        rel[:, 2] = 0.0
        return _unit(rel)

    def shift(pts, t):
        pts = np.atleast_2d(pts)
        return pts - t * radial(pts)

    def nrm(pts, t):
        return -radial(pts)

    def slab(pts):
        rel = np.atleast_2d(pts) - center
        return radius - np.hypot(rel[:, 0], rel[:, 1])

    return PatchSlide(patch, shift, nrm, radial, lambda t: (1.0 - t / radius),
                      depth_range=radius, slab_coordinate=slab)


def star_slide(patch: SurfacePatch, center) -> PatchSlide:
    """Star-shaped slide of a flat patch along the normalized ray field from an
    interior point."""
    center = np.asarray(center, dtype=float)

    def outward(pts):
        return _unit(np.atleast_2d(pts) - center)

    def shift(pts, t):
        pts = np.atleast_2d(pts)
        return pts - t * outward(pts)

    def nrm(pts, t):
        # transported normal approximated by the base normal, one constant
        # vector on a flat patch; adequate for small t
        return np.broadcast_to(patch.normals[0], (np.atleast_2d(pts).shape[0], 3)).copy()

    return PatchSlide(patch, shift, nrm, outward, lambda t: 1.0, depth_range=np.inf)


@dataclass(frozen=True)
class TransversalCollar:
    """Per-patch inward slides with a globally transversal outward field h."""

    slides: tuple[PatchSlide, ...]
    kappa: float

    def slide_for(self, patch: SurfacePatch) -> PatchSlide:
        """The slide of `patch` itself, else the first slide whose depth
        vanishes on every node of `patch`: manifolds rebuilt on a region's
        face carry a fresh patch, and faces share their names."""
        for s in self.slides:
            if s.patch is patch:
                return s
        for s in self.slides:
            if (s.slab_coordinate is not None
                    and np.all(np.abs(s.slab_coordinate(patch.nodes)) <= POSITION_TOL)):
                return s
        raise GeometryError(f"no slide registered for patch {patch.name!r}")


@dataclass(frozen=True)
class SolidRegion:
    """Bounded region with patch boundary, a volume rule, and an ambient ball.

    The volume rule is the product of the three 1-D `volume_rules` (slowest
    first) mapped about `ambient_center` by `coordinates`: "spherical"
    (r, u = cos colatitude measured along the third row of `frame`, default
    e3, phi), "cylindrical" (rho, phi, z) or "cartesian" offsets. It is built
    on first read of `volume_nodes` or `volume_weights`, into read-only
    arrays; collars and support rules never read it.
    """

    name: str
    boundary: tuple[SurfacePatch, ...]
    volume_rules: tuple[QuadratureRule, QuadratureRule, QuadratureRule]
    coordinates: str
    contains: Callable[[np.ndarray], np.ndarray]
    ambient_radius: float
    ambient_center: np.ndarray
    meta: dict = field(default_factory=dict)
    frame: Optional[np.ndarray] = None

    @cached_property
    def _volume(self) -> tuple[np.ndarray, np.ndarray]:
        rule = tensor_product_3d(*self.volume_rules)
        a, b, c = rule.nodes[:, 0], rule.nodes[:, 1], rule.nodes[:, 2]
        if self.coordinates == "spherical":
            st = np.sqrt(np.clip(1.0 - b * b, 0.0, None))
            local = np.stack([a * st * np.cos(c), a * st * np.sin(c), a * b], axis=1)
            pts = self.ambient_center + (local if self.frame is None else local @ self.frame)
            w = rule.weights * a * a
        elif self.coordinates == "cylindrical":
            pts = self.ambient_center + np.stack([a * np.cos(b), a * np.sin(b), c], axis=1)
            w = rule.weights * a
        else:
            pts, w = self.ambient_center + rule.nodes, rule.weights
        pts.flags.writeable = False
        w.flags.writeable = False
        return pts, w

    @cached_property
    def volume_nodes(self) -> np.ndarray:  # (n, 3) physical points
        return self._volume[0]

    @cached_property
    def volume_weights(self) -> np.ndarray:  # plain weights including metric factor
        return self._volume[1]

    def volume(self) -> float:
        return float(np.sum(self.volume_weights))


def volume_integral(region: SolidRegion, integrand) -> float | np.ndarray:
    """Volume integral over a region's node set; raises on non-finite
    integrand values."""
    vals = np.asarray(integrand(region.volume_nodes), dtype=float)
    if not np.all(np.isfinite(vals)):
        raise GeometryError("non-finite volume integrand")
    return _node_sum(region.volume_weights, vals)


def _spherical_rules(radius, order, n_angular, u_range=(-1.0, 1.0), radial_breaks=()):
    """The (r, u, phi) rules of a ball, r split at `radial_breaks`; u_range
    (0, 1) gives the half ball on the side of the frame's third row."""
    bp = sorted({0.0, float(radius), *(float(b) for b in radial_breaks if 0.0 < b < radius)})
    return (gauss_legendre_split(order, np.asarray(bp)),
            gauss_legendre(order, u_range[0], u_range[1]), periodic_trapezoid(n_angular))


def ball_region(center=(0.0, 0.0, 0.0), radius: float = 1.0, order: int = DEFAULT_ORDER,
                n_angular: int = DEFAULT_ANGULAR, radial_breaks=()) -> SolidRegion:
    center = np.asarray(center, dtype=float)
    rules = _spherical_rules(radius, order, n_angular, radial_breaks=radial_breaks)
    sphere = sphere_patch(center, radius, order, n_angular, inner_normal=True)

    def contains(x):
        return np.linalg.norm(np.atleast_2d(x) - center, axis=1) < radius

    return SolidRegion("ball", (sphere,), rules, "spherical", contains, 2.0 * radius, center,
                       meta={"center": center, "radius": float(radius)})


def half_ball_region(center=(0.0, 0.0, 0.0), radius: float = 1.0, order: int = DEFAULT_ORDER,
                     n_angular: int = DEFAULT_ANGULAR) -> SolidRegion:
    """Upper half ball {x3 > c3}; flat face oriented by the inner normal +e3."""
    center = np.asarray(center, dtype=float)
    rules = _spherical_rules(radius, order, n_angular, u_range=(0.0, 1.0))
    dome = sphere_patch(center, radius, order, n_angular, inner_normal=True, u_range=(0.0, 1.0))
    face = disk_patch(center, radius, normal=(0.0, 0.0, 1.0), order=order, n_angular=n_angular)

    def contains(x):
        rel = np.atleast_2d(x) - center
        return (np.linalg.norm(rel, axis=1) < radius) & (rel[:, 2] > 0.0)

    return SolidRegion("half_ball", (face, dome), rules, "spherical", contains,
                       2.0 * radius, center,
                       meta={"center": center, "radius": float(radius),
                             "normal": np.array([0.0, 0.0, 1.0])})


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
    side = cylinder_side_patch(center, radius, z0, z1, order, n_angular, inner_normal=True)

    def contains(x):
        rel = np.atleast_2d(x) - center
        return (np.hypot(rel[:, 0], rel[:, 1]) < radius) & (rel[:, 2] > z0) & (rel[:, 2] < z1)

    amb = 2.0 * max(radius, abs(z0), abs(z1))
    return SolidRegion("cylinder", (bottom, top, side), rules, "cylindrical", contains,
                       amb, center,
                       meta={"center": center, "radius": float(radius),
                             "z0": float(z0), "z1": float(z1)})


def box_region(center=(0.0, 0.0, 0.0), half_widths=(1.0, 1.0, 1.0),
               order: int = 16) -> SolidRegion:
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

    def contains(x):
        rel = np.abs(np.atleast_2d(x) - center)
        return np.all(rel < h, axis=1)

    return SolidRegion("box", tuple(faces), rules, "cartesian", contains,
                       2.0 * float(np.max(h)), center,
                       meta={"center": center, "half_widths": h})


# ---------------------------------------------------------------------------
# support-adapted rules for test-function pairings
# ---------------------------------------------------------------------------


def support_rule(domain, support, breaks: Sequence[float] = (), singular_point=None):
    """Quadrature domain for pairing against a test function supported in a ball.

    `support` is the ball (center, radius) outside which the test function
    vanishes and `breaks` are the radii of its profile kinks inside it, as in
    `ScalarTestFunction.support` and `.support_breaks`. The returned patch or
    region covers the support only, and its rule is split at the kinks:

    * flat disk patch (disk ∩ face): the polar sub-disk centred on the foot
      of the support's center, split at the in-plane kink radii;
    * the same with a `singular_point` whose foot lies inside the support: a
      polar rule centred at that foot, whose area element absorbs a 1/rho
      singularity there. The kink circles are not concentric with it, so
      each angular ray runs to the support circle and is split where it
      crosses them;
    * solid region (ball ∩ region): the support ball when it lies inside the
      region, or the half ball on the inner side of a flat face the support
      is centred on, oriented by that face's inner normal.

    Any other case (no support, a curved patch, a support leaving the
    domain) returns `domain` itself, whose own rule is then used.
    """
    if support is None:
        return domain
    center, radius = np.asarray(support[0], dtype=float), float(support[1])
    kinks = sorted(float(b) for b in breaks if 0.0 < b < radius)
    if isinstance(domain, SolidRegion):
        return _support_region(domain, center, radius, kinks)
    return _support_disk(domain, center, radius, kinks, singular_point)


def _support_disk(patch: SurfacePatch, center, radius, kinks, singular_point):
    if patch.name != "disk":
        return patch
    m = patch.meta
    n = m["normal"]
    height = abs((center - m["center"]) @ n)
    if height >= radius:
        return patch
    foot = center - ((center - m["center"]) @ n) * n
    # the support ball and its kink spheres cut the plane in concentric circles
    r_plane = np.sqrt(radius ** 2 - height ** 2)
    k_plane = [np.sqrt(b * b - height * height) for b in kinks if b > height]
    offset = float(np.linalg.norm(foot - m["center"]))
    if offset + r_plane > m["radius"] or (m["inner_radius"] > 0.0
                                          and offset - r_plane < m["inner_radius"]):
        return patch
    sing = None
    if singular_point is not None:
        sing = np.asarray(singular_point, dtype=float)
        sing = sing - ((sing - m["center"]) @ n) * n
    if sing is None or np.linalg.norm(foot - sing) >= r_plane:
        return disk_patch(foot, r_plane, n, order=12, n_angular=48, radial_breaks=k_plane)

    e1, e2, _ = frame_from_normal(n)
    order, angles = 16, periodic_trapezoid(96)
    d = foot - sing
    rho, phis, weights = [], [], []
    for phi, w_phi in zip(angles.nodes, angles.weights):
        # the ray sing + rho u meets the circle |x - foot| = b where
        # rho^2 - 2 rho (d . u) + |d|^2 - b^2 = 0; sing lies inside the support
        du = d @ (np.cos(phi) * e1 + np.sin(phi) * e2)
        cuts = [0.0]
        for b in (*k_plane, r_plane):
            disc = du * du - d @ d + b * b
            if disc > 0.0:
                cuts += [du - np.sqrt(disc), du + np.sqrt(disc)]
        hi = cuts[-1]  # far crossing of the support circle
        rho_rule = gauss_legendre_split(order, np.unique(np.clip(cuts, 0.0, hi)))
        rho.append(rho_rule.nodes)
        phis.append(np.full(rho_rule.nodes.size, phi))
        weights.append(rho_rule.weights * w_phi)
    rho = np.concatenate(rho)
    return _polar_patch(sing, n, rho, np.concatenate(phis), np.concatenate(weights),
                        float(np.max(rho)), 0.0)


def _support_region(region: SolidRegion, center, radius, kinks) -> SolidRegion:
    # a quadrature-only ball or half ball: pairings need its nodes, not its boundary
    order, n_angular = 16, 32
    meta = {"center": center, "radius": radius}
    if _ball_fits(region, center, radius):
        return SolidRegion("ball", (), _spherical_rules(radius, order, n_angular,
                                                        radial_breaks=kinks), "spherical",
                           lambda x: np.linalg.norm(np.atleast_2d(x) - center, axis=1) < radius,
                           2.0 * radius, center, meta=meta)
    for patch in region.boundary:
        if patch.name not in ("disk", "rectangle"):
            continue
        n = patch.normals[0]
        if abs((center - patch.nodes[0]) @ n) > POSITION_TOL \
                or not _ball_fits(region, center, radius, n):
            continue
        rules = _spherical_rules(radius, order, n_angular, u_range=(0.0, 1.0),
                                 radial_breaks=kinks)

        def contains(x, n=n):
            rel = np.atleast_2d(x) - center
            return (np.linalg.norm(rel, axis=1) < radius) & (rel @ n > 0.0)

        return SolidRegion("half_ball", (), rules, "spherical", contains, 2.0 * radius, center,
                           meta={**meta, "normal": n}, frame=np.stack(frame_from_normal(n)))
    return region


def _ball_fits(region: SolidRegion, center, radius: float, normal=None) -> bool:
    """Whether the ball about `center`, or with `normal` its half on that side,
    lies in the closure of a canonical region; False for other regions."""

    def reach(v):
        # min of (x - center) . v over the piece
        vn = 0.0 if normal is None else float(v @ normal)
        return -radius * (np.sqrt(max(0.0, 1.0 - vn * vn)) if vn > 0.0 else 1.0)

    m = region.meta
    rel = center - m.get("center", region.ambient_center)
    axes = np.eye(3)
    if region.name == "ball":
        return bool(np.linalg.norm(rel) + radius <= m["radius"])
    if region.name == "half_ball":
        return bool(np.linalg.norm(rel) + radius <= m["radius"]
                    and rel @ m["normal"] + reach(m["normal"]) >= 0.0)
    if region.name == "cylinder":
        return bool(np.hypot(rel[0], rel[1]) + radius <= m["radius"]
                    and rel[2] + reach(axes[2]) >= m["z0"]
                    and rel[2] - reach(-axes[2]) <= m["z1"])
    if region.name == "box":
        h = m["half_widths"]
        return all(rel[k] + reach(axes[k]) >= -h[k] and rel[k] - reach(-axes[k]) <= h[k]
                   for k in range(3))
    return False


def build_transversal_collar(region: SolidRegion) -> TransversalCollar:
    """Per-patch inward slides; reports the transversality margin kappa > 0."""
    slides = []
    if region.name == "ball":
        slides.append(spherical_slide(region.boundary[0], region.meta["center"],
                                      region.meta["radius"]))
    elif region.name == "half_ball":
        face, dome = region.boundary
        slides.append(planar_slide(face, inward=np.array([0.0, 0.0, 1.0])))
        slides.append(spherical_slide(dome, region.meta["center"], region.meta["radius"]))
    elif region.name == "cylinder":
        bottom, top, side = region.boundary
        slides.append(planar_slide(bottom, inward=np.array([0.0, 0.0, 1.0])))
        slides.append(planar_slide(top, inward=np.array([0.0, 0.0, -1.0])))
        slides.append(cylinder_slide(side, region.meta["center"], region.meta["radius"]))
    elif region.name == "box":
        for p in region.boundary:
            slides.append(star_slide(p, region.meta["center"]))
    else:
        raise GeometryError(f"no transversal collar for region {region.name!r}")

    kappa = np.inf
    for sl in slides:
        h = sl.outward_field(sl.patch.nodes)
        kappa = min(kappa, float(np.min(-np.einsum("ij,ij->i", sl.patch.normals, h))))
    if not kappa > 0.0:
        raise GeometryError("failed to find a transversal field with kappa > 0")
    return TransversalCollar(tuple(slides), kappa)


def shift_transversal(manifold: BoundaryManifold, collar: TransversalCollar,
                      t: float) -> BoundaryManifold:
    """Slide a canonical manifold inward by t along its region collar."""
    if not abs(t) < 0.5:
        raise GeometryError("transversal shift requires |t| < 1/2")
    slide = collar.slide_for(manifold.patch)
    if t >= slide.depth_range:
        raise GeometryError("shift leaves the collar neighborhood")
    if manifold.kind == "disk":
        m = manifold.meta
        new_center = slide.shift_point(m["center"][None, :], t)[0]
        return disk_manifold(new_center, m["radius"], m["frame"][2],
                             order=m["order"], n_angular=m["n_angular"])
    if manifold.kind == "closed":
        m = manifold.meta
        return closed_sphere_manifold(m["center"], m["radius"] - t, order=m["order"],
                                      n_angular=m["n_angular"],
                                      inner_normal=m["inner_normal"])
    raise GeometryError(f"cannot shift manifold kind {manifold.kind!r}")


def shell_integral(collar: TransversalCollar, eps: float, integrand) -> float | np.ndarray:
    """Volume integral over the inward shell of depth eps, via per-patch slides.

    `integrand(base_pts, shifted_pts, slide, s)` returns per-node values at the
    slid points; base points identify the boundary feet. Overlaps near patch
    junctions contribute O(eps^2) volume and vanish in the localizer limits
    this is used for.
    """
    total = None
    for sl in collar.slides:
        s_rule = gauss_legendre(8, 0.0, eps)
        base = sl.patch.nodes
        acc = None
        for s, w in zip(s_rule.nodes, s_rule.weights):
            pts = sl.shift_point(base, s)
            vals = np.asarray(integrand(base, pts, sl, s))
            contrib = w * sl.area_scale(s) * np.tensordot(sl.patch.weights, vals, axes=(0, 0))
            acc = contrib if acc is None else acc + contrib
        total = acc if total is None else total + acc
    return total
