import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from curlflux import fields as flds
from curlflux import geometry as geo
from curlflux.testfns import smooth_bump


# ---------------------------------------------------------------------------
# catalog values
# ---------------------------------------------------------------------------


def test_line_vortex_value(line_vortex):
    v = line_vortex.vector_field.eval(np.array([[1.0, 0.0, 0.0]]))[0]
    assert np.abs(v - np.array([0.0, 1.0 / (2 * np.pi), 0.0])).max() < 1e-14
    v2 = line_vortex.vector_field.eval(np.array([[1.0, 0.0, 0.7]]))[0]
    assert abs(v2[2] - 0.7 / (2 * np.pi)) < 1e-14


def test_newtonian_value(newtonian):
    v = newtonian.vector_field.eval(np.array([[0.0, 0.0, 1.0]]))[0]
    assert np.abs(v - np.array([0.0, 0.0, -1.0 / (4 * np.pi)])).max() < 1e-15


def test_rigid_rotation_curl(rigid_rotation):
    x = np.array([[0.3, -0.2, 0.5]])
    assert np.abs(rigid_rotation.vector_field.analytic_curl(x)[0]
                  - np.array([0, 0, 2.0])).max() == 0.0


def test_unknown_catalog_name():
    with pytest.raises(flds.FieldError):
        flds.catalog("nope")


def test_alternation_profile_values():
    # +1 on (1/2, 3/4), -1 on (3/4, 7/8), zero inside r <= 1/2
    rho = np.array([0.3, 0.6, 0.8, 0.9, 0.95])
    expected = np.array([0.0, 1.0, -1.0, 1.0, -1.0])
    assert np.array_equal(flds.alternation_profile(rho), expected)


# ---------------------------------------------------------------------------
# numeric curl
# ---------------------------------------------------------------------------


def test_numeric_curl_rigid(rigid_rotation):
    c = flds.numeric_curl(rigid_rotation.vector_field, [0.2, 0.4, -0.1], h=1e-3)
    assert np.abs(c - np.array([0, 0, 2.0])).max() < 1e-6


def test_numeric_curl_newtonian(newtonian):
    c = flds.numeric_curl(newtonian.vector_field, [0.0, 0.0, 1.0], h=1e-3)
    assert np.abs(c).max() < 1e-5


def test_numeric_curl_line_vortex_off_axis(line_vortex):
    c = flds.numeric_curl(line_vortex.vector_field, [1.0, 1.0, 0.0], h=1e-3)
    assert np.abs(c).max() < 1e-5


def test_numeric_curl_order(line_vortex):
    # halving h twice shows O(h^2)
    errs = []
    for h in (4e-3, 2e-3, 1e-3):
        c = flds.numeric_curl(line_vortex.vector_field, [0.5, 0.2, 0.1], h=h)
        errs.append(np.abs(c).max())
    assert errs[1] < errs[0] / 3
    assert errs[2] < errs[1] / 3


def test_numeric_curl_stencil_guard(newtonian):
    with pytest.raises(flds.FieldError):
        flds.numeric_curl(newtonian.vector_field, [0.0, 0.0, 1e-4], h=1e-3)


# ---------------------------------------------------------------------------
# measure integration
# ---------------------------------------------------------------------------


def test_line_measure_in_cylinder(line_vortex, unit_cylinder):
    e3 = lambda x: np.broadcast_to(np.array([0.0, 0.0, 1.0]),
                                   (np.atleast_2d(x).shape[0], 3)).copy()
    val = flds.integrate_measure(line_vortex.curl, e3, unit_cylinder)
    assert abs(float(np.sum(val)) - 1.0) < 1e-12


def test_lebesgue_measure_in_ball(rigid_rotation):
    ball = geo.ball_region(order=16, n_angular=48)
    e3 = lambda x: np.broadcast_to(np.array([0.0, 0.0, 1.0]),
                                   (np.atleast_2d(x).shape[0], 3)).copy()
    val = flds.integrate_measure(rigid_rotation.curl, e3, ball)
    assert abs(float(np.sum(val)) - 2.0 * (4 * np.pi / 3)) < 1e-10


def test_zero_testfn(line_vortex, unit_cylinder):
    zero = lambda x: np.zeros_like(np.atleast_2d(x))
    val = flds.integrate_measure(line_vortex.curl, zero, unit_cylinder)
    assert np.abs(val).max() == 0.0


def test_divergence_free_annihilation(line_vortex, rigid_rotation, unit_cylinder):
    # pairing against gradients of compactly supported scalars vanishes
    for entry in (line_vortex, rigid_rotation):
        for center, r in [((0.2, 0.1, 0.5), 0.4), ((0.0, 0.0, 0.5), 0.45)]:
            phi = smooth_bump(center, r)
            val = float(np.sum(flds.integrate_measure(entry.curl, phi.gradient,
                                                      unit_cylinder)))
            assert abs(val) < 1e-8


def test_segment_clipping():
    cyl = geo.cylinder_region()
    lo, hi = cyl.clip(np.zeros(3), np.array([0, 0, 1.0]), -8.0, 8.0)
    assert abs(lo - 0.0) < 1e-12 and abs(hi - 1.0) < 1e-12
    ball = geo.ball_region()
    lo, hi = ball.clip(np.zeros(3), np.array([0, 0, 1.0]), -8.0, 8.0)
    assert abs(lo + 1.0) < 1e-12 and abs(hi - 1.0) < 1e-12
    hb = geo.half_ball_region()
    lo, hi = hb.clip(np.zeros(3), np.array([0, 0, 1.0]), -8.0, 8.0)
    assert abs(lo - 0.0) < 1e-12 and abs(hi - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# vortex sheets / gluing
# ---------------------------------------------------------------------------


def test_sheet_density_constant_jump():
    interface = geo.disk_patch((0, 0, 0), 1.0)
    pw, mu = flds.make_vortex_sheet(flds.constant_field((1, 0, 0)),
                                    flds.constant_field((0, 0, 0)), interface)
    pts = interface.nodes
    dens = mu.sheet_parts[0].density(pts)
    assert np.abs(dens - np.array([0.0, 1.0, 0.0])).max() < 1e-12


def test_sheet_density_no_jump():
    interface = geo.disk_patch((0, 0, 0), 1.0)
    pw, mu = flds.make_vortex_sheet(flds.constant_field((0.3, -0.2, 0.1)),
                                    flds.constant_field((0.3, -0.2, 0.1)), interface)
    dens = mu.sheet_parts[0].density(interface.nodes)
    assert np.abs(dens).max() < 1e-12


def test_sheet_density_opposed_jump():
    interface = geo.disk_patch((0, 0, 0), 1.0)
    pw, mu = flds.make_vortex_sheet(flds.constant_field((0, 1, 0)),
                                    flds.constant_field((0, -1, 0)), interface)
    dens = mu.sheet_parts[0].density(interface.nodes)
    assert np.abs(dens - np.array([-2.0, 0.0, 0.0])).max() < 1e-12


def test_gluing_tv_unit_jump():
    interface = geo.disk_patch((0, 0, 0), 1.0)
    pw, _ = flds.make_vortex_sheet(flds.constant_field((1, 0, 0)),
                                   flds.constant_field((0, 0, 0)), interface)
    region = geo.ball_region(order=16)
    assert abs(flds.gluing_total_variation(pw, region) - np.pi) < 1e-10


def test_gluing_tv_interior_parts(rigid_rotation):
    # rotation above, zero below: 2*vol(upper half ball) + int |(x,y,0)| over disk
    interface = geo.disk_patch((0, 0, 0), 1.0)
    pw, _ = flds.make_vortex_sheet(rigid_rotation.vector_field,
                                   flds.constant_field((0, 0, 0)), interface)
    region = geo.ball_region(order=24, n_angular=64)
    expected = 2.0 * (2 * np.pi / 3) + 2 * np.pi / 3
    assert abs(flds.gluing_total_variation(pw, region) - expected) < 1e-8


# ---------------------------------------------------------------------------
# face traces: F x nu
# ---------------------------------------------------------------------------


def _xy(pts):
    return np.stack([pts[:, 0], pts[:, 1], np.zeros(len(pts))], axis=1)


# F x e3 of each catalog field in closed form: the references of the z-plane traces
def _newtonian_z_trace(pts):
    r3 = np.linalg.norm(pts, axis=1) ** 3
    out = np.stack([pts[:, 1], -pts[:, 0], np.zeros(len(pts))], axis=1)
    return -out / (4.0 * np.pi * r3[:, None])


def _line_vortex_z_trace(pts):
    rho2 = pts[:, 0] ** 2 + pts[:, 1] ** 2
    return _xy(pts) / (2.0 * np.pi * rho2[:, None])


def _annuli_z_trace(pts):
    rho = np.hypot(pts[:, 0], pts[:, 1])
    safe = np.where(rho == 0.0, 1.0, rho)
    return -(flds.alternation_profile(rho) / safe)[:, None] * _xy(pts)


def _plane_wave_z_trace(pts):
    return np.stack([np.sin(pts[:, 0]), np.zeros(len(pts)), np.zeros(len(pts))], axis=1)


Z_TRACES = {"newtonian": (_newtonian_z_trace, 0.0), "line_vortex": (_line_vortex_z_trace, 4e-15),
            "annuli": (_annuli_z_trace, 0.0), "rigid_rotation": (_xy, 0.0),
            "plane_wave_em": (_plane_wave_z_trace, 0.0)}


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(Z_TRACES)),
       arrays(np.float64, (50, 3), elements=st.floats(-3.0, 3.0)))
def test_each_z_plane_trace_is_the_closed_form_f_cross_e3(name, pts):
    # equal, not just close, except where the line vortex's F divides before its
    # closed form does: a relative rounding of a few ulps
    pts = pts[np.hypot(pts[:, 0], pts[:, 1]) > 1e-3]
    reference, rtol = Z_TRACES[name]
    got, want = flds.catalog(name).trace_z_plane(pts), reference(pts)
    if rtol == 0.0:
        assert np.array_equal(got, want)
    else:
        np.testing.assert_allclose(got, want, rtol=rtol, atol=0.0)


@pytest.mark.parametrize("patch, exact", [
    (geo.disk_patch((0.2, -0.1, 0.4), 0.7, (0.0, 0.0, -1.0), order=6), True),
    (geo.spherical_cap_patch((0.1, 0.3, -0.2), 1.3, 2.0), True),
    (geo.disk_patch((0.2, -0.1, 0.4), 0.7, (1.0, -2.0, 0.5), order=6), False),
    (geo.rectangle_patch((0.0, 0.0, 1.0), (1.0, 0.0, 0.0), (0.0, 1.0, 1.0), 1.0, 2.0, order=6),
     False),
], ids=["axis-disk", "cap", "tilted-disk", "rectangle"])
def test_surface_trace_reads_the_patch_normals(patch, exact, rigid_rotation, line_vortex):
    # at the nodes, nu is the patch's own normal: F x nu to the last bit on a
    # sphere and on a face whose normal is an axis, and to rounding on a tilted face
    for entry in (rigid_rotation, line_vortex):
        fld = entry.vector_field
        got = flds.surface_trace(fld, patch)(patch.nodes)
        want = np.cross(fld.eval(patch.nodes), patch.normals)
        if exact:
            assert np.array_equal(got, want)
        else:
            scale = np.linalg.norm(fld.eval(patch.nodes), axis=1, keepdims=True)
            assert np.all(np.abs(got - want) <= 4e-16 * scale)


def test_surface_trace_refuses_a_patch_without_a_normal_rule(rigid_rotation):
    side = geo.cylinder_side_patch((0.0, 0.0, 0.0), 1.0, 0.0, 1.0)
    with pytest.raises(flds.FieldError):
        flds.surface_trace(rigid_rotation.vector_field, side)


def _segment(point, direction, lo, hi):
    direction = np.asarray(direction, dtype=float)
    return flds.CurlMeasure(line_parts=(flds.LinePart(
        np.asarray(point, dtype=float), direction / np.linalg.norm(direction), lo, hi,
        lambda pts: np.zeros_like(np.atleast_2d(pts))),))


def test_line_crossings_of_a_tilted_segment_a_short_one_and_a_parallel_one():
    # the disk of radius 0.5 about (0, 0, 1) in the plane x + z = 1
    disk = geo.disk_patch((0.0, 0.0, 1.0), 0.5, (1.0, 0.0, 1.0))
    # the segment (0.1, 0.2, 0) + s (0, 1, 4)/sqrt(17) meets x + z = 1 at z = 0.9
    tilted = _segment((0.1, 0.2, 0.0), (0.0, 1.0, 4.0), -2.0, 2.0)
    (x,) = flds.line_crossings(tilted, disk)
    np.testing.assert_allclose(x, (0.1, 0.425, 0.9), rtol=0.0, atol=1e-15)
    # the same line ends at s = 0.5, before the plane (s = 0.9 sqrt(17) / 4)
    assert flds.line_crossings(_segment((0.1, 0.2, 0.0), (0.0, 1.0, 4.0), -2.0, 0.5), disk) == []
    # a segment parallel to a disk crosses it nowhere, with no division by 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        parallel = _segment((0.0, 0.0, 0.5), (1.0, 1.0, 0.0), -5.0, 5.0)
        assert flds.line_crossings(parallel, geo.disk_patch((0.0, 0.0, 1.0), 0.5)) == []
    # the crossing must lie strictly inside the radius
    far = _segment((0.6, 0.0, 0.0), (0.0, 0.0, 1.0), -2.0, 2.0)
    assert flds.line_crossings(far, disk) == []


def test_line_crossings_place_the_line_vortex_atom_on_the_axis(line_vortex):
    # where the z axis crosses a z-disk, bit for bit at the disk's height
    for center in ((0.0, 0.0, 0.3), (0.2, -0.1, -1.7), (0.0, 0.0, 0.0)):
        (x,) = flds.line_crossings(line_vortex.curl, geo.disk_patch(center, 0.5))
        assert x.tolist() == [0.0, 0.0, center[2]]
    assert flds.line_crossings(line_vortex.curl, geo.disk_patch((3.0, 0.0, 0.0), 0.5)) == []
    with pytest.raises(flds.FieldError):
        flds.line_crossings(line_vortex.curl, geo.sphere_patch((0.0, 0.0, 0.0), 1.0))
