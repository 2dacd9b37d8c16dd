import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from curlflux import geometry as geo
from curlflux.quadrature import (
    gauss_legendre,
    gauss_legendre_split,
    periodic_trapezoid,
    tensor_product_3d,
)


def test_disk_area_and_moment():
    disk = geo.disk_patch((0, 0, 0), 1.0)
    assert abs(disk.area() - np.pi) < 1e-10
    assert abs(geo.surface_integral(disk, lambda p: p[:, 0] ** 2) - np.pi / 4) < 1e-12


def test_sphere_area_order16():
    sph = geo.sphere_patch((0, 0, 0), 1.0, order=16)
    assert abs(sph.area() - 4 * np.pi) < 1e-8


def test_unit_circle_integrals(unit_disk_manifold):
    curve = unit_disk_manifold.boundary
    assert abs(curve.length() - 2 * np.pi) < 1e-12
    # int cos^2 over the circle
    val = geo.line_integral(curve, lambda p: p[:, 0] ** 2)
    assert abs(val - np.pi) < 1e-12


def test_degenerate_curve_integral():
    assert geo.line_integral(geo.empty_curve(), lambda p: np.ones(len(p))) == 0.0


@settings(max_examples=20, deadline=None, derandomize=True)
@given(st.integers(0, 6), st.integers(0, 6))
def test_disk_polynomial_exactness(i, j):
    # polar GL x trapezoid integrates x^i y^j exactly on the unit disk
    disk = geo.disk_patch((0, 0, 0), 1.0, order=12, n_angular=32)
    val = geo.surface_integral(disk, lambda p: p[:, 0] ** i * p[:, 1] ** j)
    if i % 2 == 1 or j % 2 == 1:
        exact = 0.0
    else:
        from math import gamma
        # radial moment 1/(i+j+2) times the angular beta integral
        exact = 2.0 * gamma((i + 1) / 2) * gamma((j + 1) / 2) / gamma((i + j) / 2 + 1) / (i + j + 2)
    assert abs(val - exact) < 1e-12


def test_surface_rule_convergence_order():
    # non-polynomial smooth integrand: error collapses fast with order
    exact_ref = geo.surface_integral(geo.disk_patch((0, 0, 0), 1.0, order=64),
                                     lambda p: np.exp(p[:, 0] + 0.5 * p[:, 1]))
    errs = []
    for order in (4, 8, 16):
        val = geo.surface_integral(geo.disk_patch((0, 0, 0), 1.0, order=order),
                                   lambda p: np.exp(p[:, 0] + 0.5 * p[:, 1]))
        errs.append(abs(val - exact_ref))
    assert errs[1] < errs[0] / 10
    assert errs[2] < errs[1] / 10 or errs[2] < 1e-14


def test_nonfinite_integrand_rejected():
    disk = geo.disk_patch((0, 0, 0), 1.0)
    with pytest.raises(geo.GeometryError), np.errstate(divide="ignore"):
        geo.surface_integral(disk, lambda p: 1.0 / (p[:, 0] - p[:, 0]))


def test_nonfinite_line_and_volume_integrands_rejected(unit_disk_manifold):
    with pytest.raises(geo.GeometryError):
        geo.line_integral(unit_disk_manifold.boundary, lambda p: np.full(len(p), np.nan))
    with pytest.raises(geo.GeometryError):
        geo.volume_integral(geo.ball_region(order=8, n_angular=16),
                            lambda p: np.full((len(p), 3), np.inf))


PATCHES = {
    "disk": lambda: geo.disk_patch((0.1, 0.2, 0.3), 1.5, (1.0, 1.0, 0.5), order=6,
                                   n_angular=12, radial_breaks=(0.5,)),
    "annulus": lambda: geo.disk_patch((0, 0, 0), 1.0, order=6, n_angular=12, inner_radius=0.3),
    "polar_support": lambda: geo.support_rule(geo.disk_patch((0, 0, 0), 1.0),
                                              ((0.1, 0.0, 0.0), 0.3), (0.15,),
                                              singular_point=(0.0, 0.0, 0.0)),
    "sphere": lambda: geo.sphere_patch((0, 0, 1), 2.0, order=6, n_angular=12),
    "cap": lambda: geo.spherical_cap_patch((0, 0, 0), 1.0, 0.7, order=6, n_angular=12,
                                           inner_normal=False),
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
        # the sphere has inner normals, the cap (colatitude 0.7) outer ones
        c, R, u_lo, sign = (((0.0, 0.0, 1.0), 2.0, -1.0, -1.0) if kind == "sphere"
                            else ((0.0, 0.0, 0.0), 1.0, np.cos(0.7), 1.0))
        u, phi, w = _product(gauss_legendre(6, u_lo, 1.0), angles)
        st = np.sqrt(1.0 - u * u)
        radial = np.stack([st * np.cos(phi), st * np.sin(phi), u], axis=1)
        return np.add(c, R * radial), sign * radial, R * R * w
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
    if kind == "polar_support":
        # rays from the singular point (the origin) across the support disk
        # about (0.1, 0, 0) of radius 0.3: exact area and first moment
        x = patch.nodes
        assert np.all(x[:, 2] == 0.0) and np.all(patch.normals == [0.0, 0.0, 1.0])
        assert np.linalg.norm(x - [0.1, 0.0, 0.0], axis=1).max() <= 0.3 + 1e-12
        assert abs(patch.area() - 0.09 * np.pi) < 1e-13
        assert abs(patch.weights @ x[:, 0] - 0.009 * np.pi) < 1e-13
    else:
        nodes, normals, weights = _closed_form(kind)
        np.testing.assert_allclose(patch.nodes, nodes, rtol=0.0, atol=1e-14)
        np.testing.assert_allclose(patch.normals, normals, rtol=0.0, atol=1e-14)
        np.testing.assert_allclose(patch.weights, weights, rtol=1e-14, atol=0.0)
    for arr in (patch.nodes, patch.normals, patch.weights):
        with pytest.raises(ValueError):
            arr[0] = 0.0


def _callable_members(shape, path):
    # paths of the fields and meta values that hold callables, nested
    # curves and patches included
    found = [f"{path}.meta[{k!r}]" for k, v in getattr(shape, "meta", {}).items() if callable(v)]
    for f in dataclasses.fields(shape):
        value = getattr(shape, f.name)
        if callable(value):
            found.append(f"{path}.{f.name}")
        elif isinstance(value, (geo.Curve, geo.SurfacePatch)):
            found += _callable_members(value, f"{path}.{f.name}")
    return found


def test_shapes_hold_arrays_not_callables():
    collar = geo.build_tangential_collar(geo.disk_manifold((0, 0, 0), 1.0))
    shapes = {**{kind: make() for kind, make in PATCHES.items()},
              "disk_manifold": geo.disk_manifold((0.1, 0.2, 0.3), 1.5, (1.0, 1.0, 0.5)),
              "cap_manifold": geo.spherical_cap_manifold((0, 0, 0), 1.0, 0.7),
              "closed_manifold": geo.closed_sphere_manifold((0, 0, 0), 1.0),
              "layer_family": collar.layer(np.array([0.1, 0.2, 0.3])),
              "empty_curve": geo.empty_curve()}
    assert not [p for kind, shape in shapes.items() for p in _callable_members(shape, kind)]


# ---------------------------------------------------------------------------
# orientation conventions
# ---------------------------------------------------------------------------


def test_tangent_convention(unit_disk_manifold):
    nu = unit_disk_manifold.patch.normals[0]
    con = unit_disk_manifold.conormals
    tau = unit_disk_manifold.tangents
    assert np.abs(con @ nu).max() < 1e-12
    assert np.abs(tau - np.cross(nu, con)).max() < 1e-10
    assert np.abs(np.linalg.norm(tau, axis=1) - 1).max() < 1e-10
    # conormal points into the disk
    pts = unit_disk_manifold.boundary.nodes
    assert np.all(np.linalg.norm(pts + 0.1 * con, axis=1) < 1.0)


def test_cap_tangent_convention():
    c, R = np.array([0.1, 0.2, -0.3]), 1.3
    man = geo.spherical_cap_manifold(c, R, 1.0, inner_normal=True)
    pts, con, tau = man.boundary.nodes, man.conormals, man.tangents
    nu = -(pts - c) / R
    assert np.abs(np.linalg.norm(pts - c, axis=1) - R).max() < 1e-12
    assert np.abs(np.einsum("ij,ij->i", nu, con)).max() < 1e-12
    assert np.abs(np.linalg.norm(con, axis=1) - 1).max() < 1e-12
    assert np.abs(tau - np.cross(nu, con)).max() < 1e-12
    # the conormal points up the meridian, toward the pole
    assert np.all(con[:, 2] > 0.0)


def test_curve_on_patch(unit_disk_manifold):
    pts = unit_disk_manifold.boundary.nodes
    assert np.abs(np.linalg.norm(pts, axis=1) - 1.0).max() < geo.POSITION_TOL


# ---------------------------------------------------------------------------
# tangential collars
# ---------------------------------------------------------------------------


def test_disk_collar_radial(unit_disk_manifold, unit_disk_collar):
    col = unit_disk_collar
    # layer distance equals the parameter gap for the radial collar
    assert abs(col.layer_distance(0.0, 0.25) - 0.25) < 1e-12
    assert col.bilip < 1.005


def test_cap_collar_great_circle_oracle():
    man = geo.spherical_cap_manifold((0, 0, 0), 1.0, np.pi / 2)
    col = geo.build_tangential_collar(man)
    # great-circle distance between colatitude rings theta0*(1-s)
    th0 = np.pi / 2
    for s0, s1 in [(0.0, 0.1), (0.1, 0.3)]:
        chord = 2.0 * np.sin(0.5 * th0 * (s1 - s0))
        assert abs(col.layer_distance(s0, s1) - chord) < 1e-10
    assert col.bilip <= 2.0


def _collar_cases():
    for r in (0.1, 0.37, 1.0, 2.9):
        yield geo.build_tangential_collar(geo.disk_manifold((0.2, -0.1, 0.5), r,
                                                            normal=(0.3, 0.1, 1.0)))
    for th in (0.3, 1.0, 2.0):
        yield geo.build_tangential_collar(geo.spherical_cap_manifold((0.1, 0.2, -0.3), 1.3, th))


def _all_pairs_distance(collar, s0, s1):
    # reference: min over every pair of nodes of two separately built layers
    a, b = collar.layer(s0).nodes, collar.layer(s1).nodes
    return float(np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2).min())


def test_layer_family_equals_stacked_layers():
    ss = gauss_legendre_split(8, np.array([0.1, 0.13, 0.35])).nodes
    for col in _collar_cases():
        family = col.layer(ss)
        layers = [col.layer(s) for s in ss]
        assert family.nodes.shape == (ss.size, geo.DEFAULT_ANGULAR, 3)
        assert np.array_equal(family.nodes, np.stack([c.nodes for c in layers]))
        assert np.array_equal(family.weights, np.stack([c.weights for c in layers]))


def test_arc_family_equals_stacked_arcs():
    center, (e1, e2, _) = np.array([0.2, -0.1, 0.5]), geo.frame_from_normal((0.3, 0.1, 1.0))
    ss = gauss_legendre_split(8, np.array([0.1, 0.2, 0.3])).nodes
    family = geo.arc_curve(center, 1.7 * (1.0 - ss), e1, e2, 0.4, 0.9, 48)
    arcs = [geo.arc_curve(center, 1.7 * (1.0 - s), e1, e2, 0.4, 0.9, 48) for s in ss]
    assert np.array_equal(family.nodes, np.stack([c.nodes for c in arcs]))
    assert np.array_equal(family.weights, np.stack([c.weights for c in arcs]))


def test_layer_distance_and_bilip_equal_all_pairs_minimum():
    for col in _collar_cases():
        ss = np.linspace(0.0, 0.45, 6)
        theta = 1.0
        for i in range(len(ss)):
            for j in range(i + 1, len(ss)):
                d = _all_pairs_distance(col, ss[i], ss[j])
                assert col.layer_distance(ss[i], ss[j]) == d
                theta = max(theta, d / (ss[j] - ss[i]), (ss[j] - ss[i]) / d)
        assert col.bilip == theta


def test_closed_sphere_collar_is_empty():
    man = geo.closed_sphere_manifold((0, 0, 0), 1.0)
    col = geo.build_tangential_collar(man)
    assert col.empty


def test_degenerate_boundary_rejected():
    man = geo.disk_manifold((0, 0, 0), 1.0)
    shrunk = geo.BoundaryManifold(man.patch, geo.empty_curve(), np.zeros((1, 3)),
                                  np.zeros((1, 3)), kind="disk", meta=man.meta)
    with pytest.raises(geo.GeometryError):
        geo.build_tangential_collar(shrunk)


def test_shrink_tangential(unit_disk_manifold, unit_disk_collar):
    shrunk = geo.shrink_tangential(unit_disk_manifold, unit_disk_collar, 0.25)
    assert abs(shrunk.meta["radius"] - 0.75) < 1e-12
    same = geo.shrink_tangential(unit_disk_manifold, unit_disk_collar, 0.0)
    assert same is unit_disk_manifold
    with pytest.raises(geo.GeometryError):
        geo.shrink_tangential(unit_disk_manifold, unit_disk_collar, 0.7)


def test_shrink_cap_area_monotone():
    man = geo.spherical_cap_manifold((0, 0, 0), 1.0, 1.0)
    col = geo.build_tangential_collar(man)
    areas = [geo.shrink_tangential(man, col, t).patch.area() for t in (0.0, 0.1, 0.2)]
    assert areas[0] > areas[1] > areas[2]


@pytest.mark.parametrize("man", [
    geo.disk_manifold((0, 0, 0), 1.0),
    geo.disk_manifold((0, 0, 0), 1.0, order=12, n_angular=48),
    geo.spherical_cap_manifold((0, 0, 0), 1.0, 1.0, order=10, n_angular=40),
], ids=["disk_default", "disk_12x48", "cap_10x40"])
def test_shrink_tangential_keeps_node_count(man):
    shrunk = geo.shrink_tangential(man, geo.build_tangential_collar(man), 0.2)
    assert shrunk.patch.nodes.shape == man.patch.nodes.shape


# ---------------------------------------------------------------------------
# collar bands
# ---------------------------------------------------------------------------


def test_band_area_comparability(unit_disk_collar):
    # delta/c <= band area <= c*delta over sampled (t, delta)
    c = 4.0 * np.pi
    for t in (0.0, 0.2):
        for delta in (0.05, 0.1):
            area = geo.band_area(unit_disk_collar, t, delta)
            assert delta / c <= area <= c * delta


def test_band_quadrature_matches_layer_loop(annuli):
    # reference: one layer curve and one integrand call per s node, layers
    # added in s-rule order; the batched band must give the same floats
    man = geo.disk_manifold((0.2, -0.1, 0.5), 1.7)
    collar = geo.build_tangential_collar(man)
    t, delta, breaks = 0.1, 0.0625, (0.12, 0.14)
    weight = lambda p: 1.0 + p[:, 0] ** 2
    bp = np.array(sorted({t, t + delta, *breaks}))
    s_rule = gauss_legendre_split(8, bp)
    ramp = magnitude = mass = 0.0
    for s, w in zip(s_rule.nodes, s_rule.weights):
        curve = collar.layer(s)
        pts, lw = curve.nodes, curve.weights
        g = collar.grad_s(pts, s) / delta
        f = annuli.trace_z_plane(pts)
        vals = np.einsum("ij,ij->i", f, g) * weight(pts)
        mags = np.linalg.norm(f, axis=1) * np.linalg.norm(g, axis=1) * np.abs(weight(pts))
        ramp += w * collar.layer_jacobian * np.sum(lw * vals)
        magnitude += w * collar.layer_jacobian * np.sum(lw * mags)
        mass += w * collar.layer_jacobian * np.sum(lw * weight(pts))
    got, got_magnitude = geo.ramp_integral(man, collar, t, delta, annuli.trace_z_plane,
                                           scalar=weight, breaks=breaks)
    assert got == ramp
    # the magnitude takes its norms in another order, so it agrees to roundoff
    assert got_magnitude == pytest.approx(magnitude, rel=1e-13)
    assert got_magnitude >= abs(got)
    assert geo.band_mass(collar, t, t + delta, weight, breaks=breaks) == mass


# ---------------------------------------------------------------------------
# transversal collars / regions
# ---------------------------------------------------------------------------


def test_ball_transversal_collar():
    ball = geo.ball_region(order=12, n_angular=32)
    col = geo.build_transversal_collar(ball)
    assert abs(col.kappa - 1.0) < 1e-12
    man = geo.closed_sphere_manifold((0, 0, 0), 1.0, order=12, n_angular=32)
    shifted = geo.shift_transversal(man, col, 0.1)
    assert abs(shifted.meta["radius"] - 0.9) < 1e-12


def test_half_ball_face_slide(half_ball):
    col = geo.build_transversal_collar(half_ball)
    face = geo.disk_manifold((0, 0, 0), 1.0)
    shifted = geo.shift_transversal(face, col, 0.1)
    assert np.abs(shifted.patch.nodes[:, 2] - 0.1).max() < 1e-12


def test_shift_identity_and_range(unit_cylinder, cylinder_collar):
    man = geo.disk_manifold((0, 0, 0), 1.0)
    same = geo.shift_transversal(man, cylinder_collar, 0.0)
    assert np.abs(same.patch.nodes - man.patch.nodes).max() < 1e-12
    with pytest.raises(geo.GeometryError):
        geo.shift_transversal(man, cylinder_collar, 0.6)


def test_box_collar_kappa():
    box = geo.box_region(order=10)
    col = geo.build_transversal_collar(box)
    assert col.kappa >= 0.5


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
    face = geo.disk_manifold((0, 0, 0), 1.0)
    assert col.slide_for(face.patch) is col.slides[0]
    with pytest.raises(geo.GeometryError):
        col.slide_for(geo.cylinder_side_patch((0, 0, 0), 1.0, 0.0, 1.0))


def test_fresh_face_patch_gets_the_slide_it_lies_on(unit_cylinder, cylinder_collar):
    # both flat faces of a cylinder are named "disk"; a disk rebuilt on the
    # top face must get the top face's slide, and a disk on no face none
    for face, slide in zip(unit_cylinder.boundary[:2], cylinder_collar.slides[:2]):
        man = geo.disk_manifold(face.meta["center"], 1.0, face.meta["normal"])
        assert cylinder_collar.slide_for(man.patch) is slide
    with pytest.raises(geo.GeometryError):
        cylinder_collar.slide_for(geo.disk_patch((0, 0, 0.5), 1.0))


def test_shift_keeps_the_disk_rule(half_ball):
    col = geo.build_transversal_collar(half_ball)
    face = geo.disk_manifold((0, 0, 0), 0.8, order=12, n_angular=48)
    shifted = geo.shift_transversal(face, col, 0.1)
    assert shifted.patch.nodes.shape == face.patch.nodes.shape == (576, 3)
    assert (shifted.meta["order"], shifted.meta["n_angular"]) == (12, 48)
    assert np.array_equal(shifted.patch.weights, face.patch.weights)
    assert np.abs(shifted.patch.nodes - face.patch.nodes - [0.0, 0.0, 0.1]).max() < 1e-15


@pytest.mark.parametrize("inner_normal", [True, False])
def test_shift_keeps_the_sphere_rule(inner_normal):
    col = geo.build_transversal_collar(geo.ball_region(order=12, n_angular=32))
    man = geo.closed_sphere_manifold((0, 0, 0), 1.0, order=12, n_angular=32,
                                     inner_normal=inner_normal)
    shifted = geo.shift_transversal(man, col, 0.1)
    assert shifted.patch.nodes.shape == man.patch.nodes.shape == (384, 3)
    assert (shifted.meta["order"], shifted.meta["n_angular"]) == (12, 32)
    assert shifted.meta["inner_normal"] is inner_normal
    slide = col.slide_for(man.patch)
    assert np.abs(shifted.patch.nodes - slide.shift_point(man.patch.nodes, 0.1)).max() < 1e-15
    assert np.abs(shifted.patch.normals - man.patch.normals).max() < 1e-15
    assert np.abs(shifted.patch.weights - 0.81 * man.patch.weights).max() < 1e-15


def test_region_volumes(half_ball, unit_cylinder):
    assert abs(half_ball.volume() - 2 * np.pi / 3) < 1e-10
    assert abs(unit_cylinder.volume() - np.pi) < 1e-10
    ball = geo.ball_region(order=16, n_angular=32)
    assert abs(ball.volume() - 4 * np.pi / 3) < 1e-10


def test_region_boundary_tiles(half_ball):
    # inner normals + boundary patches tile the boundary: divergence theorem
    # for a linear field: int div dx = -int F . nu dH^2 with inner normals
    def f(x):
        return x

    vol = 3.0 * half_ball.volume()
    bd = 0.0
    for patch in half_ball.boundary:
        pts, nu, w = patch.nodes, patch.normals, patch.weights
        bd += float(np.sum(w * np.einsum("ij,ij->i", f(pts), nu)))
    assert abs(vol + bd) < 1e-10


def _eager_spherical(center, radius, order, n_angular, u_range=(-1.0, 1.0),
                     radial_breaks=(), frame=None):
    # the volume rule as regions built it before it became lazy
    center = np.asarray(center, dtype=float)
    bp = sorted({0.0, float(radius), *(float(b) for b in radial_breaks if 0.0 < b < radius)})
    rule = tensor_product_3d(gauss_legendre_split(order, np.asarray(bp)),
                             gauss_legendre(order, u_range[0], u_range[1]),
                             periodic_trapezoid(n_angular))
    r, u, phi = rule.nodes[:, 0], rule.nodes[:, 1], rule.nodes[:, 2]
    st = np.sqrt(np.clip(1.0 - u * u, 0.0, None))
    local = np.stack([r * st * np.cos(phi), r * st * np.sin(phi), r * u], axis=1)
    pts = center + (local if frame is None else local @ np.asarray(frame, dtype=float))
    return pts, rule.weights * r * r


def _eager_cylinder(center, radius, z0, z1, order, n_angular):
    rule = tensor_product_3d(gauss_legendre(order, 0.0, radius), periodic_trapezoid(n_angular),
                             gauss_legendre(order, z0, z1))
    rho, phi, z = rule.nodes[:, 0], rule.nodes[:, 1], rule.nodes[:, 2]
    pts = np.asarray(center, dtype=float) + np.stack([rho * np.cos(phi), rho * np.sin(phi), z],
                                                     axis=1)
    return pts, rule.weights * rho


def _eager_box(center, h, order):
    rule = tensor_product_3d(*(gauss_legendre(order, -h[k], h[k]) for k in range(3)))
    return np.asarray(center, dtype=float) + rule.nodes, rule.weights


CENTER = (0.1, -0.2, 0.3)
_HALF = geo.half_ball_region(CENTER, 0.9, order=10, n_angular=12)
LAZY_VOLUMES = {
    "ball": (lambda: geo.ball_region(CENTER, 0.9, order=10, n_angular=12,
                                     radial_breaks=(0.3, 0.5)),
             lambda: _eager_spherical(CENTER, 0.9, 10, 12, radial_breaks=(0.3, 0.5))),
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
    assert np.array_equal(region.volume_nodes, pts)
    assert np.array_equal(region.volume_weights, w)
    # read-only, and built once
    for a in (region.volume_nodes, region.volume_weights):
        assert not a.flags.writeable
    assert region.volume_nodes is region.volume_nodes
    assert region.volume_weights is region.volume_weights


def test_a_region_read_for_its_collar_builds_no_volume_rule():
    region = geo.cylinder_region(order=8, n_angular=16)
    col = geo.build_transversal_collar(region)
    man = geo.disk_manifold((0, 0, 0), 1.0, order=8, n_angular=16)
    geo.shift_transversal(man, col, 0.1)
    geo.shell_integral(col, 0.1, lambda base, pts, sl, s: np.ones(len(pts)))
    geo.support_rule(region, ((0.0, 0.0, 0.5), 0.2))
    assert not {"_volume", "volume_nodes", "volume_weights"} & set(vars(region))
    assert region.volume_weights.size == 8 * 8 * 16
    assert {"_volume", "volume_weights"} <= set(vars(region))

