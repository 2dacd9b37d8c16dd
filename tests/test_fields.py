import numpy as np
import pytest

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
    interface = flds.unit_disk_interface()
    pw, mu = flds.make_vortex_sheet(flds.constant_field((1, 0, 0)),
                                    flds.constant_field((0, 0, 0)), interface)
    pts = interface.nodes
    dens = mu.sheet_parts[0].density(pts)
    assert np.abs(dens - np.array([0.0, 1.0, 0.0])).max() < 1e-12


def test_sheet_density_no_jump():
    interface = flds.unit_disk_interface()
    pw, mu = flds.make_vortex_sheet(flds.constant_field((0.3, -0.2, 0.1)),
                                    flds.constant_field((0.3, -0.2, 0.1)), interface)
    dens = mu.sheet_parts[0].density(interface.nodes)
    assert np.abs(dens).max() < 1e-12


def test_sheet_density_opposed_jump():
    interface = flds.unit_disk_interface()
    pw, mu = flds.make_vortex_sheet(flds.constant_field((0, 1, 0)),
                                    flds.constant_field((0, -1, 0)), interface)
    dens = mu.sheet_parts[0].density(interface.nodes)
    assert np.abs(dens - np.array([-2.0, 0.0, 0.0])).max() < 1e-12


def test_gluing_tv_unit_jump():
    interface = flds.unit_disk_interface()
    pw, _ = flds.make_vortex_sheet(flds.constant_field((1, 0, 0)),
                                   flds.constant_field((0, 0, 0)), interface)
    region = geo.ball_region(order=16)
    assert abs(flds.gluing_total_variation(pw, region) - np.pi) < 1e-10


def test_gluing_tv_interior_parts(rigid_rotation):
    # rotation above, zero below: 2*vol(upper half ball) + int |(x,y,0)| over disk
    interface = flds.unit_disk_interface()
    pw, _ = flds.make_vortex_sheet(rigid_rotation.vector_field,
                                   flds.constant_field((0, 0, 0)), interface)
    region = geo.ball_region(order=24, n_angular=64)
    expected = 2.0 * (2 * np.pi / 3) + 2 * np.pi / 3
    assert abs(flds.gluing_total_variation(pw, region) - expected) < 1e-8


def test_piecewise_eval_dispatch():
    interface = flds.unit_disk_interface()
    pw, _ = flds.make_vortex_sheet(flds.constant_field((1, 0, 0)),
                                   flds.constant_field((0, 1, 0)), interface)
    above = pw.eval(np.array([[0.1, 0.0, 0.5]]))[0]
    below = pw.eval(np.array([[0.1, 0.0, -0.5]]))[0]
    assert np.array_equal(above, [1, 0, 0]) and np.array_equal(below, [0, 1, 0])
