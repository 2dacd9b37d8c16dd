import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from curlflux import fields as flds
from curlflux import geometry as geo
from curlflux import quadrature
from curlflux import traces as trc
from curlflux.sequences import GAP_TOL, richardson_gap, richardson_limit
from curlflux.stokes import StokesRefusal
from curlflux.testfns import (
    cutoff_profile,
    gradient_field,
    radial_bump,
    random_trig_vector,
    smooth_bump,
)


def _boundary_cross_oracle(region, fld):
    out = np.zeros(3)
    for patch in region.boundary:
        pts, nu, w = patch.nodes, patch.normals, patch.weights
        out = out + np.tensordot(w, np.cross(fld.eval(pts), nu), axes=(0, 0))
    return out


# ---------------------------------------------------------------------------
# scalar pairing
# ---------------------------------------------------------------------------


def test_pairing_matches_boundary_integral(rigid_rotation, half_ball, cutoff_one):
    # testfn == 1 near the region: the pairing is the boundary cross integral
    got = trc.trace_pairing(rigid_rotation.curl, rigid_rotation.vector_field,
                            half_ball, cutoff_one)
    oracle = _boundary_cross_oracle(half_ball, rigid_rotation.vector_field)
    assert np.abs(got - oracle).max() < 1e-8


def test_pairing_locality(rigid_rotation, half_ball):
    # piecewise-polynomial bump + support-split quadrature: exact vanishing
    from curlflux.testfns import radial_bump
    bump = radial_bump((0.0, 0.0, 0.45), 0.3)
    got = trc.trace_pairing(rigid_rotation.curl, rigid_rotation.vector_field,
                            half_ball, bump)
    assert np.abs(got).max() < 1e-12


@pytest.mark.parametrize("kind", ["cylinder", "half_ball"])
def test_face_centred_pairing_matches_face_integral(rigid_rotation, kind):
    # a bump centred on a flat face pairs to the face integral of
    # phi (F x nu), nu = e3 the face's inner normal
    from curlflux.testfns import radial_bump
    center = np.array([0.1, -0.2, 0.05])
    if kind == "cylinder":
        region = geo.cylinder_region(center=center, radius=0.9, z0=0.0, z1=0.9)
    else:
        region = geo.half_ball_region(center=center, radius=0.9)
    bump = radial_bump(center + [0.25, 0.1, 0.0], 0.22)
    got = trc.trace_pairing(rigid_rotation.curl, rigid_rotation.vector_field, region, bump)
    e3 = np.array([0.0, 0.0, 1.0])
    disk = geo.disk_patch(bump.radial.center, bump.radial.radius, e3,
                          radial_breaks=(bump.radial.kink * bump.radial.radius,))
    want = geo.integrate(disk, lambda x: bump.value(x)[:, None] * np.cross(
        rigid_rotation.vector_field.eval(x), e3))
    assert np.abs(got - want).max() < 1e-12 * np.abs(want).max()


def _support(region, bump):
    r = bump.radial
    return geo.support_rule(region, (r.center, r.radius), (r.kink * r.radius,))


def _pointwise_parts(entry, node_set, bump):
    """Per-node weighted values of phi * (curl measure's Lebesgue part) and of
    F x grad(phi) from the bump's own `value` and `gradient`, and the
    pointwise integral of the sheet and line parts."""
    x, w = node_set.nodes, node_set.weights
    vol = w[:, None] * np.cross(entry.vector_field.eval(x), bump.gradient(x))
    density = entry.curl.lebesgue_density
    leb = np.zeros_like(vol)
    if density is not None:
        leb = w[:, None] * density(x) * bump.value(x)[:, None]
    singular = flds.integrate_measure(dataclasses.replace(entry.curl, lebesgue_density=None),
                                      trc._scalar_as_vec(bump.value), node_set)
    return leb, vol, singular


def _exact_sum_reference(entry, node_set, bump):
    """The pairing from pointwise `value` and `gradient` on the same rule,
    each component summed exactly (math.fsum), so a comparison measures the
    rounding of the pairing under test alone."""
    leb, vol, singular = _pointwise_parts(entry, node_set, bump)
    return np.array([math.fsum(leb[:, k]) + singular[k] - math.fsum(vol[:, k])
                     for k in range(3)])


def _mass_r(r):
    # the face integral of the bump profile, 2 pi int profile(rho/r) rho drho,
    # times r: the scale a vanishing pairing is measured against
    x, w = np.polynomial.legendre.leggauss(8)
    mass = 0.0
    for lo, hi in ((0.0, 0.5 * r), (0.5 * r, r)):
        rho = 0.5 * (hi - lo) * x + 0.5 * (hi + lo)
        mass += 0.5 * (hi - lo) * np.sum(w * cutoff_profile(rho / r, 0.5) * rho)
    return 2.0 * np.pi * mass * r


def _fitting_bump(kind, rng):
    """A region and a radial bump whose support fits it: inside a ball or a
    cylinder, centred on a z face of a half ball or a cylinder, or on a +-e1
    or +-e2 face of a box (whose half ball runs through a rotated frame)."""
    center = rng.uniform(-0.5, 0.5, 3)
    radius = rng.uniform(0.6, 1.5)
    r = radius * rng.uniform(0.1, 0.4)
    ang = rng.uniform(0.0, 2.0 * np.pi)
    off = rng.uniform(0.0, radius - r) * np.array([np.cos(ang), np.sin(ang), 0.0])
    if kind == "ball":
        d = rng.normal(size=3)
        region = geo.ball_region(center, radius)
        return region, center + rng.uniform(0.0, radius - r) * d / np.linalg.norm(d), r
    if kind == "half_ball":
        return geo.half_ball_region(center, radius), center + off, r
    if kind in ("cylinder", "cylinder_face"):
        region = geo.cylinder_region(center, radius, 0.0, radius)
        if kind == "cylinder":
            z = rng.uniform(r, radius - r)
        else:
            z = rng.choice([0.0, radius])
        return region, center + off + [0.0, 0.0, z], r
    h = rng.uniform(0.5, 1.0, 3)
    region = geo.box_region(center, h, order=8)
    axis = int(rng.integers(2))
    other = 1 - axis
    r = min(h) * rng.uniform(0.2, 0.9)
    c = center.copy()
    c[axis] += rng.choice([-1.0, 1.0]) * h[axis]
    c[other] += rng.uniform(-1.0, 1.0) * (h[other] - r)
    c[2] += rng.uniform(-1.0, 1.0) * (h[2] - r)
    return region, c, r


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from(["ball", "half_ball", "cylinder", "cylinder_face", "box"]),
       st.sampled_from(["rigid_rotation", "plane_wave_em"]), st.integers(0, 2 ** 32 - 1))
def test_a_fitting_radial_bump_pairs_through_its_own_rule(kind, name, seed):
    # the profile on the radial rule and the gradient on the unit directions
    # give the pairing of the pointwise value and gradient to rounding
    region, c, r = _fitting_bump(kind, np.random.default_rng(seed))
    entry, bump = flds.catalog(name), radial_bump(c, r)
    support = _support(region, bump)
    assert support is not region
    assert support.name == ("ball" if kind in ("ball", "cylinder") else "half_ball")
    got = trc.trace_pairing(entry.curl, entry.vector_field, region, bump)
    want = _exact_sum_reference(entry, support, bump)
    assert np.abs(got - want).max() <= 1e-13 * _mass_r(r)


def _exact_pairing(entry, region, bump):
    """The exact pairing of a smooth field: 0 for a support inside the
    region, and for one centred on a flat face the face integral of
    phi (F x n), n the face's inner normal, on a fine disk rule split at the
    kink and summed exactly (math.fsum)."""
    r = bump.radial
    faces = [n for point, n in region.faces if abs((r.center - point) @ n) < 1e-9]
    if not faces:
        return np.zeros(3)
    disk = geo.disk_patch(r.center, r.radius, faces[0], radial_breaks=(r.kink * r.radius,))
    x = disk.nodes
    terms = (disk.weights * bump.value(x))[:, None] * np.cross(entry.vector_field.eval(x),
                                                               faces[0])
    return np.array([math.fsum(terms[:, k]) for k in range(3)])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from(["ball", "half_ball", "cylinder", "cylinder_face", "box"]),
       st.sampled_from(["rigid_rotation", "plane_wave_em"]), st.integers(0, 2 ** 32 - 1))
def test_a_fitting_radial_bump_pairs_to_its_exact_value(kind, name, seed):
    region, c, r = _fitting_bump(kind, np.random.default_rng(seed))
    entry, bump = flds.catalog(name), radial_bump(c, r)
    got = trc.trace_pairing(entry.curl, entry.vector_field, region, bump)
    want = _exact_pairing(entry, region, bump)
    assert np.abs(got - want).max() <= 1e-13 * _mass_r(r)


def _counted_rules(monkeypatch):
    # every 1-D Gauss-Legendre rule built, through either module's name
    calls = []
    rule = quadrature.gauss_legendre

    def counted(*args):
        calls.append(args)
        return rule(*args)

    monkeypatch.setattr(quadrature, "gauss_legendre", counted)
    monkeypatch.setattr(geo, "gauss_legendre", counted)
    return calls


@pytest.mark.parametrize("kind", ["ball", "half_ball"])
def test_a_second_pairing_of_a_kink_fraction_builds_no_rule(kind, monkeypatch):
    # the unit rule is cached per kink fraction and ball kind: a second bump
    # of the same plateau, at another centre and radius, builds no 1-D rule,
    # and a field with no sheet or line parts builds no support region
    region = geo.half_ball_region((0.1, -0.2, 0.05), 0.9)
    z = 0.05 if kind == "half_ball" else 0.45
    first = radial_bump((0.2, -0.1, z), 0.2, plateau=0.4375)
    second = radial_bump((0.0, -0.3, z), 0.25, plateau=0.4375)
    assert geo.support_fit(region, second.radial.center, 0.25)[0] == kind
    entry = flds.catalog("rigid_rotation")
    geo.unit_support.cache_clear()
    calls, supports = _counted_rules(monkeypatch), []
    monkeypatch.setattr(trc, "support_rule", lambda *args: supports.append(args))
    trc.trace_pairing(entry.curl, entry.vector_field, region, first)
    assert calls
    calls.clear()
    got = trc.trace_pairing(entry.curl, entry.vector_field, region, second)
    assert calls == [] and supports == []
    want = _exact_pairing(entry, region, second)
    assert np.abs(got - want).max() <= 1e-13 * _mass_r(0.25)


@pytest.mark.parametrize("name", ["rigid_rotation", "plane_wave_em"])
def test_a_pairing_allocates_under_one_array_of_its_support_nodes(name):
    # nodes formed shell block by shell block: the peak stays under one
    # (16384, 3) float array of every node of the support rule
    region = geo.half_ball_region((0.1, -0.2, 0.05), 0.9)
    entry = flds.catalog(name)
    for c in ((0.2, -0.1, 0.05), (0.2, -0.1, 0.45)):
        bump = radial_bump(c, 0.2)
        trc.trace_pairing(entry.curl, entry.vector_field, region, bump)  # the cached rule
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            trc.trace_pairing(entry.curl, entry.vector_field, region, bump)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < 16384 * 3 * 8


@pytest.mark.parametrize("part", ["field", "density"])
def test_a_radial_pairing_refuses_a_non_finite_value_at_one_node(part):
    region = geo.half_ball_region((0.1, -0.2, 0.05), 0.9)
    bump = radial_bump((0.2, -0.1, 0.05), 0.2)
    # the pairing forms its own nodes, equal to the support rule's up to
    # rounding: the one within 1e-12 of node 777 is poisoned
    bad = _support(region, bump).nodes[777]
    entry = flds.catalog("rigid_rotation")
    hits = []

    def poisoned(f):
        def g(x):
            out = np.array(f(x), dtype=float)
            near = np.linalg.norm(x - bad, axis=1) < 1e-12
            hits.append(int(near.sum()))
            out[near] = np.nan
            return out
        return g

    fld, mu = entry.vector_field, entry.curl
    if part == "field":
        fld = dataclasses.replace(fld, eval=poisoned(fld.eval))
    else:
        mu = dataclasses.replace(mu, lebesgue_density=poisoned(mu.lebesgue_density))
    with pytest.raises(geo.GeometryError):
        trc.trace_pairing(mu, fld, region, bump)
    assert sum(hits) == 1


@pytest.mark.parametrize("name", ["rigid_rotation", "line_vortex"])
def test_a_support_leaving_the_region_keeps_the_pointwise_pairing(name):
    # the support crosses the half ball's dome: the region's own rule, with
    # value and gradient at every node, bit for bit
    region = geo.half_ball_region((0.0, 0.0, 0.0), 0.8, order=12, n_angular=32)
    bump = radial_bump((0.1, 0.05, 0.4), 0.5)
    assert _support(region, bump) is region
    entry = flds.catalog(name)
    got = trc.trace_pairing(entry.curl, entry.vector_field, region, bump)

    def fxg(x):
        return geo._cross_rows(entry.vector_field.eval(x), bump.gradient(x))

    want = (flds.integrate_measure(entry.curl, trc._scalar_as_vec(bump.value), region)
            - geo.integrate(region, fxg))
    assert got.tobytes() == want.tobytes()


def test_a_line_vortex_pairing_matches_its_reference(line_vortex, unit_cylinder):
    # the axis crosses the support ball: its line part pairs pointwise, F x
    # grad(phi) by the radial rule
    bump = radial_bump((0.12, -0.05, 0.5), 0.3)
    support = _support(unit_cylinder, bump)
    assert support.name == "ball"
    _, _, line = _pointwise_parts(line_vortex, support, bump)
    assert line[2] > 0.3  # the integral of phi along the axis chord
    got = trc.trace_pairing(line_vortex.curl, line_vortex.vector_field, unit_cylinder, bump)
    want = _exact_sum_reference(line_vortex, support, bump)
    assert np.abs(got - want).max() <= 1e-13 * _mass_r(0.3)


def test_pairing_newtonian_pv(newtonian, half_ball):
    # volume route against the symmetric-exclusion face quadrature
    hb = geo.half_ball_region(order=32, n_angular=96)
    phi = smooth_bump((0.25, -0.1, 0.0), 0.9, plateau=0.3)
    pairing = trc.trace_pairing(newtonian.curl, newtonian.vector_field, hb, phi)
    pv = trc.pv_face_pairing(newtonian.trace_z_plane, (0, 0, 0), 1.0, phi, 1e-3)
    assert np.linalg.norm(pairing - pv) < 1e-3


# ---------------------------------------------------------------------------
# vector pairing
# ---------------------------------------------------------------------------


def test_vector_pairing_gradient_equals_measure(line_vortex, unit_cylinder):
    # curl(grad phi) = 0: the pairing reduces to the measure integral
    phi = smooth_bump((0.0, 0.0, 0.5), 0.45)
    tv = gradient_field(phi)
    got = trc.trace_pairing_vector(line_vortex.curl, line_vortex.vector_field,
                                   unit_cylinder, tv)
    oracle = float(np.sum(flds.integrate_measure(line_vortex.curl, phi.gradient,
                                                 unit_cylinder)))
    assert abs(got - oracle) < 1e-10


def test_vector_pairing_smooth_identity(rigid_rotation, half_ball):
    # residual against the boundary form of the curl integration-by-parts rule
    tv = random_trig_vector(5, n_modes=2, kmax=1.2)
    got = trc.trace_pairing_vector(rigid_rotation.curl, rigid_rotation.vector_field,
                                   half_ball, tv)
    oracle = 0.0
    for patch in half_ball.boundary:
        pts, nu, w = patch.nodes, patch.normals, patch.weights
        vals = np.einsum("ij,ij->i",
                         np.cross(rigid_rotation.vector_field.eval(pts), nu),
                         tv.value(pts))
        oracle += float(np.sum(w * vals))
    assert abs(got - oracle) < 1e-8


def test_vector_pairing_line_vortex_face_oracle(line_vortex):
    # test field supported near the bottom face: pairing equals the surface
    # integral of the explicit integrable trace representative
    from curlflux.testfns import bump_vector
    cyl = geo.cylinder_region(order=32, n_angular=96)
    tv = bump_vector((0.3, 0.0, 0.0), 0.5, (0.2, -0.4, 0.3))
    got = trc.trace_pairing_vector(line_vortex.curl, line_vortex.vector_field,
                                   cyl, tv)
    face = geo.disk_patch((0, 0, 0), 1.0, order=24, n_angular=96,
                          radial_breaks=(0.0125, 0.025, 0.05, 0.1, 0.2, 0.4))
    oracle = geo.integrate(
        face, lambda pts: np.einsum("ij,ij->i", line_vortex.trace_z_plane(pts),
                                    tv.value(pts)))
    assert abs(got - oracle) < 1e-5


# ---------------------------------------------------------------------------
# layerwise estimation
# ---------------------------------------------------------------------------


def test_layerwise_smooth_sphere(rigid_rotation):
    ball = geo.ball_region(order=16, n_angular=48)
    tcol = geo.build_transversal_collar(ball)
    man = geo.sphere_patch((0, 0, 0), 1.0, order=16, n_angular=48)
    tt = trc.estimate_trace_layerwise(rigid_rotation.vector_field, man, tcol,
                                      [2.0 ** -k for k in range(2, 10)])
    nu = -tt.points / np.linalg.norm(tt.points, axis=1, keepdims=True)
    exact = np.cross(rigid_rotation.vector_field.eval(tt.points), nu)
    assert np.all(tt.converged)
    assert np.abs(tt.values - exact).max() < 1e-6
    assert tt.tangentiality_residual.max() < 1e-12


def test_layerwise_glued_constants(unit_cylinder, cylinder_collar):
    interface = geo.disk_patch((0, 0, 0), 1.0)
    pw, _ = flds.make_vortex_sheet(flds.constant_field((1, 0, 0)),
                                   flds.constant_field((0, 0, 0)), interface)
    def glued(x):
        # the plus field on the plus side of the interface plane, else the minus one
        x = np.atleast_2d(x)
        plus = (pw.side(x) > 0)[:, None]
        return np.where(plus, pw.plus_field.eval(x), pw.minus_field.eval(x))

    fld = flds.VectorField(glued)
    man = geo.disk_patch((0, 0, 0), 1.0)
    t_grid = [2.0 ** -k for k in range(2, 8)]
    inner = trc.estimate_trace_layerwise(fld, man, cylinder_collar, t_grid, "interior")
    assert np.abs(inner.values - np.array([0.0, -1.0, 0.0])).max() < 1e-12
    outer = trc.estimate_trace_layerwise(fld, man, cylinder_collar, t_grid, "exterior")
    assert np.abs(outer.values).max() < 1e-12


def test_layerwise_lipschitz_gradient_two_sided(unit_cylinder, cylinder_collar):
    # gradient of a Lipschitz potential: interior and exterior traces agree
    fld = flds.VectorField(lambda x: 2.0 * np.atleast_2d(x))
    man = geo.disk_patch((0, 0, 0), 1.0)
    t_grid = [2.0 ** -k for k in range(2, 10)]
    inner = trc.estimate_trace_layerwise(fld, man, cylinder_collar, t_grid, "interior")
    outer = trc.estimate_trace_layerwise(fld, man, cylinder_collar, t_grid, "exterior")
    assert np.abs(inner.values - outer.values).max() < 1e-8


def _layerwise_per_node_loop(fld, patch, collar, t_grid, side):
    """Reference: shifted-layer values extrapolated by one Richardson call
    per node and component, judged per node against sup |F x nu|."""
    slide = collar.slide_for(patch)
    base = patch.nodes
    sign = 1.0 if side == "interior" else -1.0
    seq = []
    for t in t_grid:
        pts = slide.shift_point(base, sign * t)
        seq.append(np.cross(fld.eval(pts), slide.shifted_normal(pts, sign * t)))
    stack = np.stack(seq)
    n = stack.shape[1]
    scale = max(np.linalg.norm(layer, axis=1).max() for layer in stack)
    values, converged = np.empty((n, 3)), np.empty(n, bool)
    for i in range(n):
        gap = np.empty(3)
        for c in range(3):
            values[i, c] = richardson_limit(stack[:, i, c])
            gap[c] = richardson_gap(stack[:, i, c])
        converged[i] = np.linalg.norm(gap) <= GAP_TOL * scale
    return values, converged


@pytest.mark.parametrize("shape", ["ball_sphere", "half_ball_disk", "half_ball_dome"])
@pytest.mark.parametrize("side", ["interior", "exterior"])
def test_layerwise_equals_per_node_aitken_loop(shape, side):
    center, radius = (0.1, -0.2, 0.05), 0.8
    if shape == "ball_sphere":
        region = geo.ball_region(center, radius, order=12, n_angular=32)
        man = geo.sphere_patch(center, radius, order=12, n_angular=32)
    else:
        region = geo.half_ball_region(center, radius, order=12, n_angular=32)
        man = (geo.disk_patch(center, radius, order=12) if shape == "half_ball_disk"
               else geo.sphere_patch(center, radius, order=12, n_angular=32,
                                     u_range=(0.0, 1.0)))
    tcol = geo.build_transversal_collar(region)
    t_grid = [2.0 ** -k for k in range(2, 10)]
    fld = flds.catalog("plane_wave_em").vector_field
    tt = trc.estimate_trace_layerwise(fld, man, tcol, t_grid, side)
    values, converged = _layerwise_per_node_loop(fld, man, tcol, t_grid, side)
    assert np.array_equal(tt.values, values)
    assert np.array_equal(tt.converged, converged)


@pytest.mark.parametrize("n_layers", [2, 4])
def test_layerwise_with_fewer_than_five_layers_flags_every_node(n_layers, unit_cylinder,
                                                                cylinder_collar):
    # the Richardson gap needs five shifts; with fewer no node is backed
    man = geo.disk_patch((0, 0, 0), 1.0)
    fld = flds.catalog("rigid_rotation").vector_field
    tt = trc.estimate_trace_layerwise(fld, man, cylinder_collar,
                                      [2.0 ** -k for k in range(2, 2 + n_layers)], "interior")
    assert not tt.converged.any()
    full = trc.estimate_trace_layerwise(fld, man, cylinder_collar,
                                        [2.0 ** -k for k in range(2, 7)], "interior")
    assert full.converged.all()


# ---------------------------------------------------------------------------
# layer-route pairing and tangentiality
# ---------------------------------------------------------------------------


def test_cross_route_equality(rigid_rotation, half_ball):
    tcol = geo.build_transversal_collar(half_ball)
    tv = random_trig_vector(7, n_modes=2, kmax=1.0)
    a = trc.trace_pairing_vector(rigid_rotation.curl, rigid_rotation.vector_field,
                                 half_ball, tv)
    b = trc._layer_pairing(rigid_rotation.vector_field, tcol,
                           lambda base, pts, nu: (tv.value(pts),),
                           [2.0 ** -k for k in range(3, 9)])[0].limit
    assert abs(a - b) < 1e-4


def test_layer_route_zero_testvec(rigid_rotation, half_ball):
    tcol = geo.build_transversal_collar(half_ball)
    val = trc._layer_pairing(
        rigid_rotation.vector_field, tcol, lambda base, pts, nu: (np.zeros_like(pts),),
        [0.1, 0.05, 0.025])[0].limit
    assert val == 0.0


def test_layer_route_line_vortex_face(line_vortex, cylinder_collar):
    from curlflux.testfns import bump_vector
    tv = bump_vector((0.35, 0.0, 0.0), 0.45, (0.1, -0.2, 0.25))
    got = trc._layer_pairing(
        line_vortex.vector_field, cylinder_collar, lambda base, pts, nu: (tv.value(pts),),
        [2.0 ** -k for k in range(4, 10)])[0].limit
    face = geo.disk_patch((0, 0, 0), 1.0, order=24, n_angular=96,
                          radial_breaks=(0.05, 0.1, 0.2, 0.4))
    oracle = geo.integrate(
        face, lambda pts: np.einsum("ij,ij->i", line_vortex.trace_z_plane(pts),
                                    tv.value(pts)))
    assert abs(got - oracle) < 2e-3


def _layer_route(fld, collar, boundary_data, eps_grid):
    """The backed layer pairing against boundary data alone."""
    verdict, = trc._layer_pairing(fld, collar, lambda base, pts, nu: (boundary_data(base),),
                                  eps_grid)
    return trc._backed(verdict)


def test_tangentiality_defect_normal_data(rigid_rotation):
    # boundary data = the normal field itself: T(nu) must vanish in the limit
    ball = geo.ball_region(order=20, n_angular=48)
    tcol = geo.build_transversal_collar(ball)

    def nu_data(base):
        return -base / np.linalg.norm(np.atleast_2d(base), axis=1, keepdims=True)

    t_nu = _layer_route(rigid_rotation.vector_field, tcol, nu_data,
                        [2.0 ** -k for k in range(3, 9)])
    defect = trc.tangentiality_defect(rigid_rotation.vector_field, ball, tcol,
                                      nu_data, [2.0 ** -k for k in range(3, 9)])
    assert abs(t_nu) < 1e-3
    assert abs(defect - abs(t_nu)) < 1e-12  # tangential part of nu is zero


def test_tangentiality_defect_random_fields(rigid_rotation):
    ball = geo.ball_region(order=20, n_angular=48)
    tcol = geo.build_transversal_collar(ball)
    for seed in range(5):
        tv = random_trig_vector(100 + seed, n_modes=2, kmax=1.0)
        defect = trc.tangentiality_defect(rigid_rotation.vector_field, ball, tcol,
                                          tv.value, [2.0 ** -k for k in range(3, 9)])
        assert defect < 1e-3


def test_box_tangentiality_defect_is_zero(rigid_rotation):
    # box faces slide along their inner normals, so the ramp gradient is the
    # face normal over eps and the normal part of the data pairs to 0
    box = geo.box_region((0.1, 0.0, 0.0), (0.8,) * 3, order=12)
    tcol = geo.build_transversal_collar(box)
    tv = random_trig_vector(5, n_modes=2, kmax=1.0)
    defect = trc.tangentiality_defect(rigid_rotation.vector_field, box, tcol, tv.value,
                                      [2.0 ** -k for k in range(3, 9)])
    assert defect < 1e-10


def test_tangentiality_defect_default_grid_is_reusable(rigid_rotation):
    # the default eps grid must survive a first call
    ball = geo.ball_region(order=8, n_angular=16)
    tcol = geo.build_transversal_collar(ball)
    tv = random_trig_vector(100, n_modes=2, kmax=1.0)
    first = trc.tangentiality_defect(rigid_rotation.vector_field, ball, tcol, tv.value)
    second = trc.tangentiality_defect(rigid_rotation.vector_field, ball, tcol, tv.value)
    assert np.isfinite(first) and second == first


def test_tangentiality_defect_refuses_an_unbacked_pairing(rigid_rotation):
    # four depths give no Richardson gap, so neither pairing has a verdict
    ball = geo.ball_region(order=8, n_angular=16)
    tcol = geo.build_transversal_collar(ball)
    tv = random_trig_vector(100, n_modes=2, kmax=1.0)
    with pytest.raises(StokesRefusal):
        trc.tangentiality_defect(rigid_rotation.vector_field, ball, tcol, tv.value,
                                 [2.0 ** -k for k in range(3, 7)])


def _nearest_node_normals(region, pts):
    """Inner normal of the boundary node nearest to each point, over all patches."""
    best = np.full(len(pts), np.inf)
    out = np.zeros_like(pts)
    for patch in region.boundary:
        d = np.linalg.norm(pts[:, None, :] - patch.nodes[None, :, :], axis=2)
        idx = np.argmin(d, axis=1)
        dist = d[np.arange(len(pts)), idx]
        better = dist < best
        out[better] = patch.normals[idx[better]]
        best = np.minimum(best, dist)
    return out


@pytest.mark.parametrize("shape", ["ball", "half_ball"])
def test_tangentiality_defect_equals_nearest_node_reference(rigid_rotation, shape):
    # the layer route hands each patch its own normals; a nearest-node search
    # over every patch of the region finds the same vectors
    center, radius = (0.2, 0.1, -0.1), 0.9
    make = geo.ball_region if shape == "ball" else geo.half_ball_region
    region = make(center, radius, order=12, n_angular=24)
    tcol = geo.build_transversal_collar(region)
    tv = random_trig_vector(41, n_modes=2, kmax=1.0)
    eps_grid = [2.0 ** -k for k in range(3, 9)]
    fld = rigid_rotation.vector_field

    def data_tangential(base):
        vals = np.atleast_2d(tv.value(base))
        nu = _nearest_node_normals(region, base)
        return vals - np.einsum("ij,ij->i", vals, nu)[:, None] * nu

    t_full = _layer_route(fld, tcol, tv.value, eps_grid)
    t_tan = _layer_route(fld, tcol, data_tangential, eps_grid)
    got = trc.tangentiality_defect(fld, region, tcol, tv.value, eps_grid)
    assert got == abs(t_full - t_tan)
    # h is parallel to nu on balls and half balls, so (F x h) . nu = 0 and the
    # defect is zero in exact arithmetic: only rounding is left
    assert abs(t_full) > 1
    assert got <= 1e-12 * abs(t_full)
