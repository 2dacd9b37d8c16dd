import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from curlflux import fields as flds
from curlflux import geometry as geo
from curlflux.quadrature import (
    gauss_legendre,
    gauss_legendre_split,
    periodic_trapezoid,
)
from curlflux.testfns import radial_bump

from conftest import rim


def test_disk_area_and_moment():
    disk = geo.disk_patch((0, 0, 0), 1.0)
    assert abs(np.sum(disk.weights) - np.pi) < 1e-10
    assert abs(geo.integrate(disk, lambda p: p[:, 0] ** 2) - np.pi / 4) < 1e-12


def test_sphere_area_order16():
    sph = geo.sphere_patch((0, 0, 0), 1.0, order=16)
    assert abs(np.sum(sph.weights) - 4 * np.pi) < 1e-8


def test_unit_circle_integrals(unit_disk):
    curve, _, _ = rim(unit_disk)
    assert abs(np.sum(curve.weights) - 2 * np.pi) < 1e-12
    # int cos^2 over the circle
    val = geo.integrate(curve, lambda p: p[:, 0] ** 2)
    assert abs(val - np.pi) < 1e-12


def test_degenerate_curve_integral():
    # one node of zero weight: a curve of no length
    curve = geo.Curve(np.zeros((1, 3)), np.zeros(1))
    assert geo.integrate(curve, lambda p: np.ones(len(p))) == 0.0


@settings(max_examples=20, deadline=None, derandomize=True)
@given(st.integers(0, 6), st.integers(0, 6))
def test_disk_polynomial_exactness(i, j):
    # polar GL x trapezoid integrates x^i y^j exactly on the unit disk
    disk = geo.disk_patch((0, 0, 0), 1.0, order=12, n_angular=32)
    val = geo.integrate(disk, lambda p: p[:, 0] ** i * p[:, 1] ** j)
    if i % 2 == 1 or j % 2 == 1:
        exact = 0.0
    else:
        from math import gamma
        # radial moment 1/(i+j+2) times the angular beta integral
        exact = 2.0 * gamma((i + 1) / 2) * gamma((j + 1) / 2) / gamma((i + j) / 2 + 1) / (i + j + 2)
    assert abs(val - exact) < 1e-12


def test_surface_rule_convergence_order():
    # non-polynomial smooth integrand: error collapses fast with order
    exact_ref = geo.integrate(geo.disk_patch((0, 0, 0), 1.0, order=64),
                              lambda p: np.exp(p[:, 0] + 0.5 * p[:, 1]))
    errs = []
    for order in (4, 8, 16):
        val = geo.integrate(geo.disk_patch((0, 0, 0), 1.0, order=order),
                            lambda p: np.exp(p[:, 0] + 0.5 * p[:, 1]))
        errs.append(abs(val - exact_ref))
    assert errs[1] < errs[0] / 10
    assert errs[2] < errs[1] / 10 or errs[2] < 1e-14


def _nan_rows(x):
    return np.full((len(np.atleast_2d(x)), 3), np.nan)


_E3 = np.array([0.0, 0.0, 1.0])
_UNIT_BALL = geo.ball_region(order=8, n_angular=16)
# a non-finite integrand on each kind of node set, directly or as a part of a
# curl measure paired over the unit ball; a measure part's pairing raises
# like any other integral instead of returning NaN
NONFINITE = {
    "curve": lambda: geo.integrate(geo.circle_curve((0, 0, 0), 1.0, (1, 0, 0), (0, 1, 0), 96),
                                   lambda p: np.full(len(p), np.nan)),
    "patch": lambda: geo.integrate(geo.disk_patch((0, 0, 0), 1.0),
                                   lambda p: 1.0 / (p[:, 0] - p[:, 0])),
    "region": lambda: geo.integrate(_UNIT_BALL, lambda p: np.full((len(p), 3), np.inf)),
    "sheet_part": lambda: flds.integrate_measure(
        flds.CurlMeasure(sheet_parts=(flds.SheetPart(geo.disk_patch((0, 0, 0), 0.5),
                                                     _nan_rows),)), _nan_rows, _UNIT_BALL),
    "line_part": lambda: flds.integrate_measure(
        flds.CurlMeasure(line_parts=(flds.LinePart(np.zeros(3), _E3, -2.0, 2.0, _nan_rows),)),
        lambda x: np.ones((len(x), 3)), _UNIT_BALL),
}


@pytest.mark.parametrize("kind", sorted(NONFINITE))
def test_nonfinite_integrand_raises(kind):
    with pytest.raises(geo.GeometryError), np.errstate(divide="ignore", invalid="ignore"):
        NONFINITE[kind]()


PATCHES = {
    "disk": lambda: geo.disk_patch((0.1, 0.2, 0.3), 1.5, (1.0, 1.0, 0.5), order=6,
                                   n_angular=12, radial_breaks=(0.5,)),
    "annulus": lambda: geo.disk_patch((0, 0, 0), 1.0, order=6, n_angular=12, inner_radius=0.3),
    "sphere": lambda: geo.sphere_patch((0, 0, 1), 2.0, order=6, n_angular=12),
    "cap": lambda: geo.spherical_cap_patch((0, 0, 0), 1.0, 0.7),
    "cylinder_side": lambda: geo.cylinder_side_patch((0, 0, 0), 0.8, -0.5, 1.0, order=6,
                                                     n_angular=12),
    "rectangle": lambda: geo.rectangle_patch((1, 0, 0), (0, 1, 0), (0, 0.6, 0.8), 2.0, 0.5,
                                             normal_sign=-1.0, order=6),
}


def _product(rule_u, rule_v):
    # node coordinates and weights of a product rule, u slowest
    u, v = np.meshgrid(rule_u.nodes, rule_v.nodes, indexing="ij")
    return u.ravel(), v.ravel(), np.outer(rule_u.weights, rule_v.weights).ravel()


def _closed_form(kind):
    # (nodes, normals, weights) of a PATCHES entry from its parametrization
    angles = periodic_trapezoid(12)
    if kind in ("disk", "annulus"):
        c, normal, bp = (((0.1, 0.2, 0.3), (1.0, 1.0, 0.5), [0.0, 0.5, 1.5]) if kind == "disk"
                         else ((0.0, 0.0, 0.0), (0.0, 0.0, 1.0), [0.3, 1.0]))
        e1, e2, n = geo.frame_from_normal(normal)
        rho, phi, w = _product(gauss_legendre_split(6, np.array(bp)), angles)
        ring = np.cos(phi)[:, None] * e1 + np.sin(phi)[:, None] * e2
        return np.add(c, rho[:, None] * ring), np.tile(n, (rho.size, 1)), w * rho
    if kind in ("sphere", "cap"):
        # the sphere and the cap (colatitude 0.7, on the default rules) have
        # inner normals
        c, R, u_rule = (((0.0, 0.0, 1.0), 2.0, gauss_legendre(6, -1.0, 1.0))
                        if kind == "sphere" else
                        ((0.0, 0.0, 0.0), 1.0,
                         gauss_legendre(geo.DEFAULT_ORDER, np.cos(0.7), 1.0)))
        if kind == "cap":
            angles = periodic_trapezoid(geo.DEFAULT_ANGULAR)
        u, phi, w = _product(u_rule, angles)
        st = np.sqrt(1.0 - u * u)
        radial = np.stack([st * np.cos(phi), st * np.sin(phi), u], axis=1)
        return np.add(c, R * radial), -radial, R * R * w
    if kind == "cylinder_side":
        z, phi, w = _product(gauss_legendre(6, -0.5, 1.0), angles)
        radial = np.stack([np.cos(phi), np.sin(phi), np.zeros_like(phi)], axis=1)
        return 0.8 * radial + np.outer(z, [0.0, 0.0, 1.0]), -radial, 0.8 * w
    # rectangle: |e1 x e2| = 0.8 and the normal is -(e1 x e2) / 0.8
    u, v, w = _product(gauss_legendre(6, 0.0, 2.0), gauss_legendre(6, 0.0, 0.5))
    pts = np.array([1.0, 0.0, 0.0]) + np.outer(u, [0.0, 1.0, 0.0]) + np.outer(v, [0.0, 0.6, 0.8])
    return pts, np.tile([-1.0, 0.0, 0.0], (u.size, 1)), 0.8 * w


@pytest.mark.parametrize("kind", sorted(PATCHES))
def test_patch_node_set_matches_closed_form_maps(kind):
    patch = PATCHES[kind]()
    nodes, normals, weights = _closed_form(kind)
    np.testing.assert_allclose(patch.nodes, nodes, rtol=0.0, atol=1e-14)
    np.testing.assert_allclose(patch.normals, normals, rtol=0.0, atol=1e-14)
    np.testing.assert_allclose(patch.weights, weights, rtol=1e-14, atol=0.0)
    for arr in (patch.nodes, patch.normals, patch.weights):
        with pytest.raises(ValueError):
            arr[0] = 0.0


def _eager_polar(center, normal, rho, phi, w):
    # the node set as disk patches built it when they were evaluated on
    # construction: rho and phi broadcast, w their plain rule weights
    center = np.asarray(center, dtype=float)
    e1, e2, n = geo.frame_from_normal(normal)
    ring = np.cos(phi)[..., None] * e1 + np.sin(phi)[..., None] * e2
    nodes = (center + rho[..., None] * ring).reshape(-1, 3)
    return nodes, np.tile(n, (len(nodes), 1)), (w * rho).ravel()


def _eager_sphere(center, radius, u_lo, order, n_angular):
    center = np.asarray(center, dtype=float)
    u_rule, a_rule = gauss_legendre(order, u_lo, 1.0), periodic_trapezoid(n_angular)
    u, phi = u_rule.nodes[:, None], a_rule.nodes
    st = np.sqrt(np.clip(1.0 - u * u, 0.0, None))
    local = np.stack(np.broadcast_arrays(st * np.cos(phi), st * np.sin(phi), u), axis=-1)
    nodes = (center + radius * local).reshape(-1, 3)
    weights = np.outer(u_rule.weights, a_rule.weights).ravel() * (radius * radius)
    return nodes, -geo._unit(nodes - center), weights


def _eager_patch(kind):
    angles = periodic_trapezoid(12)
    if kind in ("disk", "annulus"):
        c, normal, bp = (((0.1, 0.2, 0.3), (1.0, 1.0, 0.5), [0.0, 0.5, 1.5]) if kind == "disk"
                         else ((0.0, 0.0, 0.0), (0.0, 0.0, 1.0), [0.3, 1.0]))
        r_rule = gauss_legendre_split(6, np.array(bp))
        return _eager_polar(c, normal, r_rule.nodes[:, None], angles.nodes,
                            np.outer(r_rule.weights, angles.weights))
    if kind == "sphere":
        return _eager_sphere((0, 0, 1), 2.0, -1.0, 6, 12)
    if kind == "cap":
        return _eager_sphere((0, 0, 0), 1.0, float(np.cos(0.7)), geo.DEFAULT_ORDER,
                             geo.DEFAULT_ANGULAR)
    if kind == "cylinder_side":
        z_rule = gauss_legendre(6, -0.5, 1.0)
        z, phi = z_rule.nodes[:, None], angles.nodes
        local = np.stack(np.broadcast_arrays(0.8 * np.cos(phi), 0.8 * np.sin(phi), z), axis=-1)
        normals = -1.0 * np.stack([np.cos(phi), np.sin(phi), np.zeros_like(phi)], axis=1)
        return (local.reshape(-1, 3), np.tile(normals, (z.size, 1)),
                np.outer(z_rule.weights, angles.weights).ravel() * 0.8)
    e1, e2 = np.array([0.0, 1.0, 0.0]), np.array([0.0, 0.6, 0.8])
    n = -1.0 * np.cross(e1, e2)
    n /= np.linalg.norm(n)
    u_rule, v_rule = gauss_legendre(6, 0.0, 2.0), gauss_legendre(6, 0.0, 0.5)
    nodes = (np.array([1.0, 0.0, 0.0]) + u_rule.nodes[:, None, None] * e1
             + v_rule.nodes[None, :, None] * e2).reshape(-1, 3)
    weights = np.outer(u_rule.weights, v_rule.weights).ravel() * np.linalg.norm(np.cross(e1, e2))
    return nodes, np.tile(n, (len(nodes), 1)), weights


@pytest.mark.parametrize("kind", sorted(PATCHES))
def test_lazy_patch_equals_the_eager_one_and_builds_once(kind):
    patch = PATCHES[kind]()
    assert not {"nodes", "normals", "weights"} & set(vars(patch))
    nodes, normals, weights = _eager_patch(kind)
    # the weights alone build no points
    assert np.array_equal(patch.weights, weights) and "nodes" not in vars(patch)
    assert np.array_equal(patch.nodes, nodes)
    assert np.array_equal(patch.normals, normals)
    for name in ("nodes", "normals", "weights"):
        a = getattr(patch, name)
        assert getattr(patch, name) is a and not a.flags.writeable
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(patch, name, a.copy())


def test_frame_from_normal_equals_the_np_cross_frame():
    rng = np.random.default_rng(5)
    for normal in [(0, 0, 1.0), (1.0, 1.0, 0.5), (0.3, 0.1, -1.0), *rng.normal(size=(50, 3))]:
        n = np.asarray(normal, dtype=float) / np.linalg.norm(normal)
        a = np.array([0.0, 0.0, 1.0]) if abs(n[2]) < 0.9 else np.array([1.0, 0.0, 0.0])
        e1 = np.cross(a, n)
        e1 /= np.linalg.norm(e1)
        for got, want in zip(geo.frame_from_normal(normal), (e1, np.cross(n, e1), n)):
            assert np.array_equal(got, want)


def _callable_members(shape, path):
    # paths of the fields that hold callables, nested curves and patches included
    found = []
    for f in dataclasses.fields(shape):
        value = getattr(shape, f.name)
        if callable(value):
            found.append(f"{path}.{f.name}")
        elif isinstance(value, (geo.Curve, geo.SurfacePatch)):
            found += _callable_members(value, f"{path}.{f.name}")
    return found


def test_shapes_hold_arrays_not_callables():
    collar = geo.build_tangential_collar(geo.disk_patch((0, 0, 0), 1.0))
    shapes = {**{kind: make() for kind, make in PATCHES.items()},
              "tilted_disk": geo.disk_patch((0.1, 0.2, 0.3), 1.5, (1.0, 1.0, 0.5)),
              "cap": geo.spherical_cap_patch((0, 0, 0), 1.0, 0.7),
              "closed_sphere": geo.sphere_patch((0, 0, 0), 1.0),
              "layer_family": collar.layer(np.array([0.1, 0.2, 0.3]), periodic_trapezoid(8))}
    assert not [p for kind, shape in shapes.items() for p in _callable_members(shape, kind)]


# ---------------------------------------------------------------------------
# orientation conventions
# ---------------------------------------------------------------------------


def test_tangent_convention(unit_disk):
    nu = unit_disk.normals[0]
    curve, con, tau = rim(unit_disk)
    assert np.abs(con @ nu).max() < 1e-12
    assert np.abs(tau - np.cross(nu, con)).max() < 1e-10
    assert np.abs(np.linalg.norm(tau, axis=1) - 1).max() < 1e-10
    # conormal points into the disk
    pts = curve.nodes
    assert np.all(np.linalg.norm(pts + 0.1 * con, axis=1) < 1.0)


def test_cap_tangent_convention():
    c, R = np.array([0.1, 0.2, -0.3]), 1.3
    curve, con, tau = rim(geo.spherical_cap_patch(c, R, 1.0))
    pts = curve.nodes
    nu = -(pts - c) / R
    assert np.abs(np.linalg.norm(pts - c, axis=1) - R).max() < 1e-12
    assert np.abs(np.einsum("ij,ij->i", nu, con)).max() < 1e-12
    assert np.abs(np.linalg.norm(con, axis=1) - 1).max() < 1e-12
    assert np.abs(tau - np.cross(nu, con)).max() < 1e-12
    # the conormal points up the meridian, toward the pole
    assert np.all(con[:, 2] > 0.0)


def test_curve_on_patch(unit_disk):
    pts = rim(unit_disk)[0].nodes
    assert np.abs(np.linalg.norm(pts, axis=1) - 1.0).max() < geo.POSITION_TOL


# ---------------------------------------------------------------------------
# tangential collars
# ---------------------------------------------------------------------------


def test_disk_collar_radial(unit_disk, unit_disk_collar):
    col = unit_disk_collar
    # layer distance equals the parameter gap for the radial collar
    assert abs(_all_pairs_distance(col, unit_disk.v, 0.0, 0.25) - 0.25) < 1e-12


def test_cap_collar_great_circle_oracle():
    man = geo.spherical_cap_patch((0, 0, 0), 1.0, np.pi / 2)
    col = geo.build_tangential_collar(man)
    # great-circle distance between colatitude rings theta0*(1-s)
    th0 = np.pi / 2
    for s0, s1 in [(0.0, 0.1), (0.1, 0.3)]:
        chord = 2.0 * np.sin(0.5 * th0 * (s1 - s0))
        assert abs(_all_pairs_distance(col, man.v, s0, s1) - chord) < 1e-10


def _collar_cases():
    # (collar, the angular rule of its patch)
    for r in (0.1, 0.37, 1.0, 2.9):
        patch = geo.disk_patch((0.2, -0.1, 0.5), r, normal=(0.3, 0.1, 1.0))
        yield geo.build_tangential_collar(patch), patch.v
    for th in (0.3, 1.0, 2.0):
        patch = geo.spherical_cap_patch((0.1, 0.2, -0.3), 1.3, th)
        yield geo.build_tangential_collar(patch), patch.v


def _all_pairs_distance(collar, rule, s0, s1):
    # reference: min over every pair of nodes of two separately built layers
    a, b = collar.layer(s0, rule).nodes, collar.layer(s1, rule).nodes
    return float(np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2).min())


def test_layer_family_equals_stacked_layers():
    ss = gauss_legendre_split(8, np.array([0.1, 0.13, 0.35])).nodes
    for col, rule in _collar_cases():
        family = col.layer(ss, rule)
        layers = [col.layer(s, rule) for s in ss]
        assert family.nodes.shape == (ss.size, geo.DEFAULT_ANGULAR, 3)
        assert np.array_equal(family.nodes, np.stack([c.nodes for c in layers]))
        assert np.array_equal(family.weights, np.stack([c.weights for c in layers]))
        # the closed-form gradient of the family is each layer's, broadcast
        grads = [np.broadcast_to(col.grad_s(s, rule), c.nodes.shape) for s, c in zip(ss, layers)]
        assert np.array_equal(np.broadcast_to(col.grad_s(ss, rule), family.nodes.shape),
                              np.stack(grads))


def test_arc_family_equals_stacked_arcs():
    # a disk collar's layers on a window rule (the arcs of stokes_density)
    center, normal = np.array([0.2, -0.1, 0.5]), (0.3, 0.1, 1.0)
    col = geo.build_tangential_collar(geo.disk_patch(center, 1.7, normal=normal))
    window = gauss_legendre(48, 0.4, 0.9)
    ss = gauss_legendre_split(8, np.array([0.1, 0.2, 0.3])).nodes
    family = col.layer(ss, window)
    arcs = [col.layer(s, window) for s in ss]
    assert np.array_equal(family.nodes, np.stack([c.nodes for c in arcs]))
    assert np.array_equal(family.weights, np.stack([c.weights for c in arcs]))


def _pointwise_grad_s(patch, pts):
    # the collar gradient read off points: the direction to the axis (a
    # disk) or the colatitude direction (a cap), normalized node by node
    if patch.name == "disk":
        e1, e2, _ = patch.frame
        axis = np.cross(e1, e2)
        rel = np.atleast_2d(pts) - patch.origin
        radial = rel - (rel @ axis)[:, None] * axis
        return -radial / np.linalg.norm(radial, axis=1, keepdims=True) / patch.scale
    height = float(np.sum(patch.u.weights))
    th0 = float(np.arctan2(np.sqrt(height * (2.0 - height)), 1.0 - height))
    rel = np.atleast_2d(pts) - patch.origin
    rel = rel / np.linalg.norm(rel, axis=1, keepdims=True)
    phi, th = np.arctan2(rel[:, 1], rel[:, 0]), np.arccos(np.clip(rel[:, 2], -1.0, 1.0))
    e_theta = np.stack([np.cos(th) * np.cos(phi), np.cos(th) * np.sin(phi), -np.sin(th)], axis=1)
    return -e_theta / (patch.scale * th0)


LAYER_FAMILIES = arrays(np.float64, st.integers(1, 4), elements=st.floats(0.0, 0.75))


@st.composite
def _collar_patches(draw):
    # a disk on its own rule or on a stokes_density window, or a cap whose
    # rings stay off the pole and its antipode, where sin(th) is small and
    # the pointwise arccos itself loses digits
    kind = draw(st.sampled_from(["disk", "window", "cap"]))
    radius = draw(st.floats(0.05, 5.0))
    direction = draw(arrays(np.float64, 3, elements=st.floats(-1.0, 1.0)).filter(
        lambda v: np.linalg.norm(v) > 1e-3))
    center = draw(st.floats(0.0, 4.0)) * radius * direction / np.linalg.norm(direction)
    if kind == "cap":
        patch = geo.spherical_cap_patch(center, radius, draw(st.floats(0.3, 3.0)))
        return patch, patch.v
    normal = draw(arrays(np.float64, 3, elements=st.floats(-1.0, 1.0)).filter(
        lambda v: np.linalg.norm(v) > 1e-3))
    patch = geo.disk_patch(center, radius, normal=normal, order=4, n_angular=32)
    if kind == "disk":
        return patch, patch.v
    a0, half = draw(st.floats(-np.pi, np.pi)), draw(st.floats(1e-4, 1.0))
    return patch, gauss_legendre(48, a0 - half, a0 + half)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=_collar_patches(), s=LAYER_FAMILIES)
def test_the_closed_form_collar_gradient_is_the_pointwise_one(case, s):
    # the closed form on (s, theta) against the gradient read off the layer
    # nodes, to 32 ulps of its magnitude 1/R (1/(R th0) on a cap); nearer
    # s = 1 the rings shrink and the pointwise reading itself loses digits
    patch, rule = case
    collar = geo.build_tangential_collar(patch)
    family = collar.layer(s, rule)
    got = np.broadcast_to(collar.grad_s(s, rule), family.nodes.shape)
    want = _pointwise_grad_s(patch, family.nodes.reshape(-1, 3)).reshape(got.shape)
    scale = 1.0 / collar.layer_jacobian
    assert np.max(np.abs(got - want)) <= 32 * np.spacing(scale)


def test_closed_sphere_collar_is_empty(rigid_rotation):
    # no boundary, so no layers and no bands: every width reads 0
    man = geo.sphere_patch((0, 0, 0), 1.0)
    col = geo.build_tangential_collar(man)
    assert col.layer is None and col.grad_s is None
    bands = geo.ramp_bands(col, rigid_rotation.trace_z_plane, None, man.v, 10, (), 0.0,
                           (0.25, 0.125))
    assert bands == {}
    assert geo.ramp_integral(bands, 0.25) == (0.0, 0.0)


@pytest.mark.parametrize("radius, inner_radius", [(0.0, 0.0), (-1.0, 0.0), (0.3, 0.3)])
def test_a_disk_needs_a_radius_above_its_inner_radius(radius, inner_radius):
    # its rim would have no positive length for a collar to slide
    with pytest.raises(geo.GeometryError, match="radius above"):
        geo.disk_patch((0, 0, 0), radius, inner_radius=inner_radius)


# ---------------------------------------------------------------------------
# collar bands
# ---------------------------------------------------------------------------


def test_band_quadrature_matches_layer_loop(annuli):
    # reference: one layer curve and one integrand call per s node, layers
    # added in s-rule order; the batched band must give the same floats
    man = geo.disk_patch((0.2, -0.1, 0.5), 1.7)
    collar = geo.build_tangential_collar(man)
    t, delta, breaks = 0.1, 0.0625, (0.12, 0.14)
    weight = lambda p: 1.0 + p[:, 0] ** 2
    bp = np.array(sorted({t, t + delta, *breaks}))
    s_rule = gauss_legendre_split(8, bp)
    ramp = magnitude = 0.0
    for s, w in zip(s_rule.nodes, s_rule.weights):
        curve = collar.layer(s, man.v)
        pts, lw = curve.nodes, curve.weights
        g = collar.grad_s(s, man.v) / delta
        f = annuli.trace_z_plane(pts)
        vals = _dot(f, g) * weight(pts)
        mags = np.linalg.norm(f, axis=1) * np.linalg.norm(g, axis=1) * np.abs(weight(pts))
        ramp += w * collar.layer_jacobian * np.sum(lw * vals)
        magnitude += w * collar.layer_jacobian * np.sum(lw * mags)
    bands = geo.ramp_bands(collar, annuli.trace_z_plane, weight, man.v, 8, breaks, t, (delta,))
    got, got_magnitude = geo.ramp_integral(bands, delta)
    assert got == ramp
    # the magnitude takes its norms in another order, so it agrees to roundoff
    assert got_magnitude == pytest.approx(magnitude, rel=1e-13)
    assert got_magnitude >= abs(got)


def _dot(f, g):
    # f . g over the last axis, its products added first to last
    return f[..., 0] * g[..., 0] + f[..., 1] * g[..., 1] + f[..., 2] * g[..., 2]


def _separate_band(collar, rule, s_order, breaks, trace, scalar, t, delta):
    # reference: the band (t, t+delta) on a split rule of its own, evaluated
    # in one batch with the gradient scaled by 1/delta before the line sums
    bp = np.array(sorted({t, t + delta, *(b for b in breaks if t < b < t + delta)}))
    s_rule = gauss_legendre_split(s_order, bp)
    layers = collar.layer(s_rule.nodes, rule)
    pts = layers.nodes.reshape(-1, 3)
    f = trace(pts)
    vals = _dot(f.reshape(layers.nodes.shape), collar.grad_s(s_rule.nodes, rule) / delta).ravel()
    mags = np.sqrt(np.einsum("ij,ij->i", f, f))
    if scalar is not None:
        vals, mags = vals * scalar(pts), mags * np.abs(scalar(pts))
    layer_w = s_rule.weights * collar.layer_jacobian

    def band(v):
        lines = np.sum(layers.weights * v.reshape(layers.weights.shape), axis=1)
        return float(np.cumsum(layer_w * lines)[-1])

    return band(vals), band(mags) / (collar.layer_jacobian * delta)


def _read_widths(collar, trace, scalar, rule, s_order, breaks, t, deltas):
    # one table for all widths, then each width read off it; a read leaves
    # the table's arrays as they were
    bands = geo.ramp_bands(collar, trace, scalar, rule, s_order, breaks, t, deltas)
    table = {d: tuple(np.copy(a) for a in band[:2]) for d, band in bands.items()}
    got = [geo.ramp_integral(bands, d) for d in deltas]
    assert all(np.array_equal(a, b) for d in deltas for a, b in zip(bands[d], table[d]))
    return got


@pytest.mark.parametrize("t", [0.0, 0.1, 0.3])
@pytest.mark.parametrize("with_scalar", [False, True], ids=["one", "scalar"])
@pytest.mark.parametrize("radius", [1.0, 1.7])
def test_shared_segments_equal_separate_bands(annuli, t, with_scalar, radius):
    # the widths of one route read one segment table, filled in blocks of
    # whole segments; every width's (value, scale) must be the floats of its
    # own band evaluated from scratch
    center = np.array([0.2, -0.1, 0.5]) if radius != 1.0 else np.zeros(3)
    man = geo.disk_patch(center, radius)
    collar = geo.build_tangential_collar(man)
    trace = lambda p: annuli.trace_z_plane((p - center) / radius)  # noqa: E731
    scalar = (lambda p: 1.0 + p[:, 0] ** 2) if with_scalar else None
    breaks = tuple(collar.param_of_radius(radius * r) for r in annuli.trace_breaks_radii)
    deltas = [2.0 ** -j for j in range(2, 13)]
    for delta, got in zip(deltas, _read_widths(collar, trace, scalar, man.v, 10, breaks, t,
                                               deltas)):
        assert got == _separate_band(collar, man.v, 10, breaks, trace, scalar, t, delta)


def test_shared_segments_equal_separate_bands_on_a_window(rigid_rotation):
    # the windowed bands of one stokes_density radius
    center, radius = np.array([0.3, 0.2, 0.7]), 1.0
    man = geo.disk_patch(center, radius, n_angular=512)
    collar = geo.build_tangential_collar(man)
    e1, e2, _ = man.frame
    a0, half_width = 0.1, 1.5 * 2.0 ** -5 / radius
    bump = radial_bump(center + radius * (np.cos(a0) * e1 + np.sin(a0) * e2), 2.0 ** -5,
                       plateau=0.6)

    window = gauss_legendre(48, a0 - half_width, a0 + half_width)
    deltas = [2.0 ** -j for j in range(5, 14)]
    for delta, got in zip(deltas, _read_widths(collar, rigid_rotation.trace_z_plane, bump.value,
                                               window, 8, (), 0.0, deltas)):
        assert got == _separate_band(collar, window, 8, (), rigid_rotation.trace_z_plane,
                                     bump.value, 0.0, delta)


def test_a_band_outside_the_collar_is_refused_before_any_evaluation(unit_disk_collar):
    # on every collar, a closed sphere's too, one message and no field value
    points = []

    def trace(p):
        points.append(len(p))
        return np.ones((len(p), 3))

    sphere_collar = geo.build_tangential_collar(geo.sphere_patch((0, 0, 0), 1.0))
    for collar in (unit_disk_collar, sphere_collar):
        for t, deltas in ((0.0, (0.25, 1.5)), (-0.1, (0.25,)), (0.1, (0.0,)),
                          (0.9, (0.25, 0.125))):
            with pytest.raises(geo.GeometryError, match="^ramp band outside collar range$"):
                geo.ramp_bands(collar, trace, None, periodic_trapezoid(8), 10, (), t, deltas)
    assert points == []


# ---------------------------------------------------------------------------
# transversal collars / regions
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("region", [
    geo.ball_region(order=12, n_angular=32), geo.half_ball_region(order=12, n_angular=32),
    geo.cylinder_region(order=12, n_angular=32), geo.box_region(order=10),
], ids=["ball", "half_ball", "cylinder", "box"])
def test_the_transversality_margin_is_1(region):
    # every patch carries its inner normal nu and every slide's outward field
    # is h = -nu, so kappa = min(-nu . h) over the patch nodes is 1 to rounding
    col = geo.build_transversal_collar(region)
    kappa = min(float(np.min(-np.einsum("ij,ij->i", sl.patch.normals,
                                        sl.outward_field(sl.patch.nodes))))
                for sl in col.slides)
    assert abs(kappa - 1.0) <= 1e-12


def test_ball_transversal_collar():
    ball = geo.ball_region(order=12, n_angular=32)
    col = geo.build_transversal_collar(ball)
    man = geo.sphere_patch((0, 0, 0), 1.0, order=12, n_angular=32)
    shifted = geo.shift_transversal(man, col, 0.1)
    assert abs(shifted.scale - 0.9) < 1e-12


def test_half_ball_face_slide(half_ball):
    col = geo.build_transversal_collar(half_ball)
    face = geo.disk_patch((0, 0, 0), 1.0)
    shifted = geo.shift_transversal(face, col, 0.1)
    assert np.abs(shifted.nodes[:, 2] - 0.1).max() < 1e-12


def test_shift_identity_and_range(unit_cylinder, cylinder_collar):
    man = geo.disk_patch((0, 0, 0), 1.0)
    same = geo.shift_transversal(man, cylinder_collar, 0.0)
    assert np.abs(same.nodes - man.nodes).max() < 1e-12
    with pytest.raises(geo.GeometryError):
        geo.shift_transversal(man, cylinder_collar, 0.6)


def test_box_face_slides_keep_the_face_normal():
    box = geo.box_region((0.1, -0.2, 0.3), (0.5, 1.0, 1.5), order=6)
    col = geo.build_transversal_collar(box)
    assert len(col.slides) == 6
    for sl in col.slides:
        for t in (0.0, 0.05, 0.3):
            pts = sl.shift_point(sl.patch.nodes, t)
            assert np.array_equal(sl.shifted_normal(pts, t), sl.patch.normals)


def test_box_faces_get_their_own_slides():
    # all six faces are named "rectangle"; each must get its own slide
    box = geo.box_region(order=4)
    col = geo.build_transversal_collar(box)
    for face, sl in zip(box.boundary, col.slides):
        assert col.slide_for(face) is sl
        assert np.array_equal(col.slide_for(face).patch.normals, face.normals)


def test_fresh_patch_falls_back_to_slide_by_name(half_ball):
    col = geo.build_transversal_collar(half_ball)
    face = geo.disk_patch((0, 0, 0), 1.0)
    assert col.slide_for(face) is col.slides[0]
    with pytest.raises(geo.GeometryError):
        col.slide_for(geo.cylinder_side_patch((0, 0, 0), 1.0, 0.0, 1.0))


def test_fresh_face_patch_gets_the_slide_it_lies_on(unit_cylinder, cylinder_collar):
    # both flat faces of a cylinder are named "disk"; a disk rebuilt on the
    # top face must get the top face's slide, and a disk on no face none
    for face, slide in zip(unit_cylinder.boundary[:2], cylinder_collar.slides[:2]):
        man = geo.disk_patch(face.origin, 1.0, face.frame[2])
        assert cylinder_collar.slide_for(man) is slide
    with pytest.raises(geo.GeometryError):
        cylinder_collar.slide_for(geo.disk_patch((0, 0, 0.5), 1.0))


def _slide_on_every_node(collar, patch):
    # the match by all nodes, which a disk no longer needs
    return next(s for s in collar.slides
                if np.all(np.abs(s.slab_coordinate(patch.nodes)) <= geo.POSITION_TOL))


def test_a_disk_finds_its_slide_without_building_its_nodes(unit_cylinder, cylinder_collar):
    for face in unit_cylinder.boundary[:2]:
        man = geo.disk_patch(face.origin, 0.6, face.frame[2], order=8, n_angular=16)
        shifted = geo.shift_transversal(man, cylinder_collar, 0.1)
        assert "nodes" not in vars(man) and "nodes" not in vars(shifted)
        fresh = geo.disk_patch(face.origin, 0.6, face.frame[2], order=8, n_angular=16)
        slide = _slide_on_every_node(cylinder_collar, fresh)
        assert cylinder_collar.slide_for(man) is slide
        assert np.allclose(shifted.origin, slide.shift_point(face.origin, 0.1))


@pytest.mark.parametrize("center, normal", [((0, 0, 0), (0.1, 0, 1)),  # tilted
                                            ((0, 0, 1e-6), (0, 0, 1)),  # off the plane
                                            ((0, 0, 0.5), (0, 0, 1))])  # a plane with no face
def test_a_disk_off_every_face_still_gets_no_slide(cylinder_collar, center, normal):
    man = geo.disk_patch(center, 0.5, normal, order=8, n_angular=16)
    with pytest.raises(geo.GeometryError):
        geo.shift_transversal(man, cylinder_collar, 0.1)


def test_a_disk_on_a_sphere_at_three_points_gets_no_slide():
    # centre, centre + r e1 and centre + r e2 lie on the unit sphere, so a
    # match on those three alone would give the disk the sphere's slide
    r = 0.5
    e1, e2, n = geo.frame_from_normal((0, 0, 1))
    center = -0.5 * r * (e1 + e2) + np.sqrt(1.0 - 0.5 * r * r) * n
    patch = geo.disk_patch(center, r, n, order=8, n_angular=16)
    for p in (center, center + r * e1, center + r * e2):
        assert abs(np.linalg.norm(p) - 1.0) < 1e-15
    col = geo.build_transversal_collar(geo.ball_region(order=8, n_angular=16))
    with pytest.raises(geo.GeometryError):
        col.slide_for(patch)


def test_shift_keeps_the_disk_rule(half_ball):
    col = geo.build_transversal_collar(half_ball)
    face = geo.disk_patch((0, 0, 0), 0.8, order=12, n_angular=48)
    shifted = geo.shift_transversal(face, col, 0.1)
    assert shifted.nodes.shape == face.nodes.shape == (576, 3)
    assert shifted.u is face.u and shifted.v is face.v
    assert np.array_equal(shifted.weights, face.weights)
    assert np.abs(shifted.nodes - face.nodes - [0.0, 0.0, 0.1]).max() < 1e-15


@pytest.mark.parametrize("center, radius, step", [((0.0, 0.0, 0.0), 1.0, 0.1),  # bottom face
                                                 ((0.2, -0.1, 1.0), 0.5, -0.1)])  # top face
def test_a_shifted_disk_is_the_disk_built_at_its_shifted_centre(cylinder_collar, center,
                                                                radius, step):
    # moving a +e3 disk's patch gives, bit for bit, the disk built afresh there
    man = geo.disk_patch(center, radius, order=12, n_angular=48)
    shifted = geo.shift_transversal(man, cylinder_collar, 0.1)
    fresh = geo.disk_patch(np.add(center, (0.0, 0.0, step)), radius, order=12, n_angular=48)
    (shifted_rim, *shifted_frame), (fresh_rim, *fresh_frame) = rim(shifted), rim(fresh)
    for got, want in ((shifted, fresh), (shifted_rim, fresh_rim)):
        assert np.array_equal(got.nodes, want.nodes)
        assert np.array_equal(got.weights, want.weights)
    assert np.array_equal(shifted.normals, fresh.normals)
    for got, want in zip(shifted_frame, fresh_frame):
        assert np.array_equal(got, want)


def test_shift_keeps_the_sphere_rule():
    col = geo.build_transversal_collar(geo.ball_region(order=12, n_angular=32))
    man = geo.sphere_patch((0, 0, 0), 1.0, order=12, n_angular=32)
    shifted = geo.shift_transversal(man, col, 0.1)
    assert shifted.nodes.shape == man.nodes.shape == (384, 3)
    assert shifted.u is man.u and shifted.v is man.v
    slide = col.slide_for(man)
    assert np.abs(shifted.nodes - slide.shift_point(man.nodes, 0.1)).max() < 1e-15
    assert np.abs(shifted.normals - man.normals).max() < 1e-15
    assert np.abs(shifted.weights - 0.81 * man.weights).max() < 1e-15


def test_region_volumes(half_ball, unit_cylinder):
    assert abs(np.sum(half_ball.weights) - 2 * np.pi / 3) < 1e-10
    assert abs(np.sum(unit_cylinder.weights) - np.pi) < 1e-10
    ball = geo.ball_region(order=16, n_angular=32)
    assert abs(np.sum(ball.weights) - 4 * np.pi / 3) < 1e-10


def test_region_boundary_tiles(half_ball):
    # inner normals + boundary patches tile the boundary: divergence theorem
    # for a linear field: int div dx = -int F . nu dH^2 with inner normals
    def f(x):
        return x

    vol = 3.0 * np.sum(half_ball.weights)
    bd = 0.0
    for patch in half_ball.boundary:
        pts, nu, w = patch.nodes, patch.normals, patch.weights
        bd += float(np.sum(w * np.einsum("ij,ij->i", f(pts), nu)))
    assert abs(vol + bd) < 1e-10


def _eager_product(ru, rv, rw):
    # the flat (n, 3) tensor grid of three 1-D rules, u slowest, as the
    # deleted quadrature.tensor_product_3d built it through meshgrid
    u, v, w = np.meshgrid(ru.nodes, rv.nodes, rw.nodes, indexing="ij")
    a, b, c = np.meshgrid(ru.weights, rv.weights, rw.weights, indexing="ij")
    return np.stack([u.ravel(), v.ravel(), w.ravel()], axis=1), (a * b * c).ravel()


def _eager_spherical(center, radius, order, n_angular, u_range=(-1.0, 1.0),
                     radial_breaks=(), frame=None):
    # the volume rule as regions built it before it became lazy
    center = np.asarray(center, dtype=float)
    bp = sorted({0.0, float(radius), *(float(b) for b in radial_breaks if 0.0 < b < radius)})
    nodes, weights = _eager_product(gauss_legendre_split(order, np.asarray(bp)),
                                    gauss_legendre(order, u_range[0], u_range[1]),
                                    periodic_trapezoid(n_angular))
    r, u, phi = nodes[:, 0], nodes[:, 1], nodes[:, 2]
    st = np.sqrt(np.clip(1.0 - u * u, 0.0, None))
    local = np.stack([r * st * np.cos(phi), r * st * np.sin(phi), r * u], axis=1)
    pts = center + (local if frame is None else local @ np.asarray(frame, dtype=float))
    return pts, weights * r * r


def _eager_cylinder(center, radius, z0, z1, order, n_angular):
    nodes, weights = _eager_product(gauss_legendre(order, 0.0, radius),
                                    periodic_trapezoid(n_angular), gauss_legendre(order, z0, z1))
    rho, phi, z = nodes[:, 0], nodes[:, 1], nodes[:, 2]
    pts = np.asarray(center, dtype=float) + np.stack([rho * np.cos(phi), rho * np.sin(phi), z],
                                                     axis=1)
    return pts, weights * rho


def _eager_box(center, h, order):
    nodes, weights = _eager_product(*(gauss_legendre(order, -h[k], h[k]) for k in range(3)))
    return np.asarray(center, dtype=float) + nodes, weights


CENTER = (0.1, -0.2, 0.3)
_HALF = geo.half_ball_region(CENTER, 0.9, order=10, n_angular=12)
LAZY_VOLUMES = {
    "ball": (lambda: geo.ball_region(CENTER, 0.9, order=10, n_angular=12),
             lambda: _eager_spherical(CENTER, 0.9, 10, 12)),
    "half_ball": (lambda: geo.half_ball_region(CENTER, 0.9, order=10, n_angular=12),
                  lambda: _eager_spherical(CENTER, 0.9, 10, 12, u_range=(0.0, 1.0))),
    "cylinder": (lambda: geo.cylinder_region(CENTER, 0.9, -0.2, 0.7, order=10, n_angular=12),
                 lambda: _eager_cylinder(CENTER, 0.9, -0.2, 0.7, 10, 12)),
    "box": (lambda: geo.box_region(CENTER, (0.5, 0.7, 0.9), order=6),
            lambda: _eager_box(CENTER, (0.5, 0.7, 0.9), 6)),
    # support rules: the support ball inside the region, and the half ball on
    # the flat face the support is centred on, oriented by its inner normal
    "support_ball": (lambda: geo.support_rule(_HALF, ((0.1, -0.1, 0.7), 0.3), (0.1, 0.2)),
                     lambda: _eager_spherical((0.1, -0.1, 0.7), 0.3, 16, 32,
                                              radial_breaks=(0.1, 0.2))),
    "support_half_ball": (lambda: geo.support_rule(_HALF, ((0.2, -0.1, 0.3), 0.3), (0.1,)),
                          lambda: _eager_spherical((0.2, -0.1, 0.3), 0.3, 16, 32,
                                                   u_range=(0.0, 1.0), radial_breaks=(0.1,),
                                                   frame=np.stack(geo.frame_from_normal(
                                                       [0.0, 0.0, 1.0])))),
}


@pytest.mark.parametrize("kind", sorted(LAZY_VOLUMES))
def test_lazy_volume_rule_equals_the_eager_one(kind):
    build, eager = LAZY_VOLUMES[kind]
    region = build()
    assert region.name == kind.removeprefix("support_")
    pts, w = eager()
    assert np.array_equal(region.nodes, pts)
    assert np.array_equal(region.weights, w)
    # read-only, and built once
    for a in (region.nodes, region.weights):
        assert not a.flags.writeable
    assert region.nodes is region.nodes
    assert region.weights is region.weights


@pytest.mark.parametrize("kind", sorted(LAZY_VOLUMES))
def test_a_region_contains_its_own_volume_nodes(kind):
    region = LAZY_VOLUMES[kind][0]()
    assert region.contains(region.nodes).all()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(LAZY_VOLUMES)), st.integers(0, 2 ** 32 - 1))
def test_clip_gives_the_chord_that_contains_accepts(kind, seed):
    # regions are convex, so a line meets one in the one interval clip gives:
    # inside it every point is contained, a little outside it none is
    region = LAZY_VOLUMES[kind][0]()
    rng = np.random.default_rng(seed)
    p = region.center + rng.uniform(-1.5, 1.5, 3)
    if rng.random() < 0.25:  # along an axis: parallel to faces and the cylinder axis
        d = np.eye(3)[rng.integers(3)] * rng.choice((-1.0, 1.0))
    else:
        d = rng.normal(size=3)
        d /= np.linalg.norm(d)
    lo, hi = region.clip(p, d, -4.0, 4.0)
    if hi <= lo:
        assert not region.contains(p + np.outer(np.linspace(-3.99, 3.99, 81), d)).any()
        return
    inside = [lo + f * (hi - lo) for f in (0.01, 0.5, 0.99)]
    assert region.contains(p + np.outer(inside, d)).all()
    outside = [s for s in (lo - 1e-6, hi + 1e-6) if -4.0 < s < 4.0]
    assert not region.contains(p + np.outer(outside, d)).any()


def test_a_region_read_for_its_collar_builds_no_volume_rule():
    region = geo.cylinder_region(order=8, n_angular=16)
    col = geo.build_transversal_collar(region)
    man = geo.disk_patch((0, 0, 0), 1.0, order=8, n_angular=16)
    geo.shift_transversal(man, col, 0.1)
    geo.shell_integral(col, 0.1, lambda pts, sl, i: np.ones(len(pts)))
    geo.support_rule(region, ((0.0, 0.0, 0.5), 0.2))
    assert not {"_volume", "nodes", "weights"} & set(vars(region))
    assert region.weights.size == 8 * 8 * 16
    assert {"_volume", "weights"} <= set(vars(region))


@pytest.mark.parametrize("region", [geo.cylinder_region(order=8, n_angular=16),
                                    geo.ball_region(order=8, n_angular=16)],
                         ids=["cylinder", "ball"])
def test_a_slab_slides_no_empty_family(region):
    # the layer size comes from the patch, so the slide shifts only real layers
    for sl in geo.build_transversal_collar(region).slides:
        depths = []

        def shift(pts, s, sl=sl):
            depths.append(np.size(s))
            return sl.shift_point(pts, s)

        def integrand(pts, s):
            return np.stack([np.exp(pts[:, 0]) * pts[:, 2], np.cos(pts[:, 1])])

        got = geo.slab_integral(dataclasses.replace(sl, shift_point=shift), 0.05, 0.2, integrand)
        assert depths and min(depths) > 0
        # the same sums as the layers one at a time, added in depth order
        rule = gauss_legendre(8, 0.05, 0.2)
        lines = np.array([np.sum(sl.patch.weights * integrand(sl.shift_point(sl.patch.nodes, s),
                                                              None), axis=-1)
                          for s in rule.nodes]).T
        want = np.cumsum(rule.weights * sl.area_scale(rule.nodes) * lines, axis=-1)[:, -1]
        assert np.array_equal(got, want)


def test_a_support_volume_rule_allocates_under_three_times_its_output():
    region = geo.half_ball_region((0.1, -0.2, 0.3), 0.9)
    support = (((0.2, -0.1, 0.3), 0.3), (0.15,))
    geo.support_rule(region, *support).nodes  # the cached 1-D reference rules
    half = geo.support_rule(region, *support)
    assert half.name == "half_ball"
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        nodes, weights = half._volume
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert weights.size == 16384
    assert peak <= 3 * (nodes.nbytes + weights.nbytes)


def test_shell_integral_evaluates_whole_layers_that_know_their_feet():
    # a half ball's faces have 2304 nodes, so each slide's 8 layers take
    # 18 432 points, evaluated in blocks of whole layers under the budget
    col = geo.build_transversal_collar(geo.half_ball_region((0.1, -0.2, 0.3), 0.9))
    eps = 0.05
    calls = []

    def integrand(pts, sl, i):
        n = len(sl.patch.weights)
        calls.append(len(pts))
        assert len(pts) % n == 0 and len(pts) <= geo.BLOCK_POINTS
        # each point is its foot slid along the slide, and each layer names
        # every foot once
        rel = pts - sl.patch.nodes[i]
        assert np.all(np.linalg.norm(np.cross(rel, sl.outward_field(sl.patch.nodes[i])),
                                     axis=1) < 1e-12)
        assert np.all(np.linalg.norm(rel, axis=1) <= eps)
        assert np.all(np.bincount(i, minlength=n) == len(pts) // n)
        depth = np.einsum("ij,ij->i", rel, sl.patch.normals[i])
        return np.stack([depth * np.exp(pts[:, 2]), np.sin(pts[:, 0]) * pts[:, 1]])

    got = geo.shell_integral(col, eps, integrand)
    assert [len(sl.patch.weights) for sl in col.slides] == [2304, 2304]
    assert sum(calls) == 2 * 8 * 2304 and len(calls) == 2 * 4

    # reference: one layer at a time, summed with tensordot
    want = 0.0
    for sl in col.slides:
        rule = gauss_legendre(8, 0.0, eps)
        n = len(sl.patch.weights)
        for s, w in zip(rule.nodes, rule.weights):
            vals = integrand(sl.shift_point(sl.patch.nodes, s), sl, np.arange(n))
            want = want + w * sl.area_scale(s) * np.tensordot(vals, sl.patch.weights,
                                                               axes=(1, 0))
    assert got.shape == (2,) and np.all(np.abs(want) > 1e-3)
    assert np.allclose(got, want, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("vector", [False, True])
def test_blocked_volume_integral_equals_one_evaluation(vector):
    # `integrate` on a region, a patch and a curve above BLOCK_POINTS nodes
    # equals one evaluation on all nodes summed by the same reduction
    node_sets = (geo.ball_region((0.1, -0.2, 0.3), 0.9, order=20),
                 geo.disk_patch((0.1, -0.2, 0.3), 0.9, order=64),
                 geo.circle_curve((0.1, -0.2, 0.3), 0.9, (1, 0, 0), (0, 1, 0), n_nodes=12000))
    assert [len(s.weights) for s in node_sets] == [38400, 6144, 12000]
    for node_set in node_sets:
        sizes = []

        def integrand(x):
            sizes.append(len(x))
            v = np.stack([np.sin(x[:, 0]) * x[:, 1], np.exp(x[:, 2]), x[:, 0] * x[:, 2]], axis=1)
            return v if vector else np.sin(x[:, 0]) * np.exp(x[:, 1] * x[:, 2])

        blocked = geo.integrate(node_set, integrand)
        assert len(sizes) > 1 and max(sizes) <= geo.BLOCK_POINTS
        assert sum(sizes) == node_set.weights.size
        whole = geo._node_sum(node_set.weights, integrand(node_set.nodes))
        assert np.array_equal(blocked, whole) and np.shape(blocked) == ((3,) if vector else ())
