import numpy as np
import pytest

from curlflux import fields as flds
from curlflux import geometry as geo
from curlflux import selection as sel
from curlflux.quadrature import gauss_legendre


def test_line_vortex_transversal_maximal(line_vortex, unit_cylinder, cylinder_collar):
    # shells around shifted disks always contain an axis segment of length 2 eps
    man = geo.disk_manifold((0, 0, 0), 1.0)
    scan = sel.maximal_transversal(line_vortex.curl, man, cylinder_collar,
                                   t_grid=[0.1, 0.25, 0.4])
    assert np.abs(np.asarray(scan.values) - 2.0).max() < 1e-10


def test_one_sided_below_two_sided(line_vortex, cylinder_collar):
    man = geo.disk_manifold((0, 0, 0), 1.0)
    t_grid = [0.1, 0.25, 0.4]
    two = sel.maximal_transversal(line_vortex.curl, man, cylinder_collar, t_grid)
    plus = sel.maximal_transversal(line_vortex.curl, man, cylinder_collar, t_grid,
                                   variant="plus")
    minus = sel.maximal_transversal(line_vortex.curl, man, cylinder_collar, t_grid,
                                    variant="minus")
    for a, b, c in zip(plus.values, minus.values, two.values):
        assert a <= c + 1e-12 and b <= c + 1e-12


def test_unknown_maximal_variant_rejected(line_vortex, cylinder_collar, unit_disk_manifold,
                                          unit_disk_collar):
    with pytest.raises(ValueError, match="unknown maximal variant"):
        sel.maximal_transversal(line_vortex.curl, unit_disk_manifold, cylinder_collar,
                                [0.1], variant="plus_minus")
    with pytest.raises(ValueError, match="unknown maximal variant"):
        sel.maximal_tangential(line_vortex.vector_field.eval, unit_disk_manifold,
                               unit_disk_collar, [0.1], variant="two-sided")


def test_line_slab_mass_refused_on_a_curved_slide(line_vortex):
    # along the axis the depth below a sphere is not affine, so the exact
    # slab solve does not apply: midpoint depth 1 against the end mean -7
    ball = geo.ball_region(order=8, n_angular=16)
    col = geo.build_transversal_collar(ball)
    sphere = geo.closed_sphere_manifold((0, 0, 0), 1.0)
    with pytest.raises(geo.GeometryError, match="affine"):
        sel.maximal_transversal(line_vortex.curl, sphere, col, [0.1])


def test_concentrated_sheet_flagged(cylinder_collar):
    sheet = flds.SheetPart(
        geo.disk_patch((0, 0, 0.25), 1.0),
        lambda pts: np.broadcast_to(np.array([0.0, 1.0, 0.0]),
                                    (np.atleast_2d(pts).shape[0], 3)).copy())
    mu = flds.CurlMeasure(sheet_parts=(sheet,))
    man = geo.disk_manifold((0, 0, 0), 1.0)
    scan = sel.maximal_transversal(mu, man, cylinder_collar, t_grid=[0.1, 0.25, 0.4])
    assert np.isinf(scan.values[1])
    assert np.isfinite(scan.values[0]) and np.isfinite(scan.values[2])
    # layer vanishing: finite maximal value means zero single-layer mass
    slide = cylinder_collar.slide_for(man.patch)
    assert sel.single_layer_mass(sel.SlideMeasure(mu, slide), 0.1) == 0.0
    assert sel.single_layer_mass(sel.SlideMeasure(mu, slide), 0.25) > 3.0


def test_zero_measure_scan(cylinder_collar):
    man = geo.disk_manifold((0, 0, 0), 1.0)
    scan = sel.maximal_transversal(flds.ZERO_MEASURE, man, cylinder_collar,
                                   t_grid=[0.1, 0.3])
    assert max(scan.values) == 0.0
    rep = sel.good_set_scan(scan, 0.5)
    assert rep.complement_measure == 0.0 and rep.holds


def test_tangential_maximal_uniform_density(unit_disk_manifold, unit_disk_collar):
    ind = lambda pts: ((np.hypot(pts[:, 0], pts[:, 1]) < 1.0).astype(float)[:, None]
                       * np.array([1.0, 0.0, 0.0]))
    t_grid = [0.1, 0.2, 0.3]
    scan = sel.maximal_tangential(ind, unit_disk_manifold, unit_disk_collar, t_grid)
    for t, v in zip(scan.t_grid, scan.values):
        assert abs(v - 4 * np.pi * (1 - t)) < 2e-2 * 4 * np.pi


def test_annuli_trace_finite_maximal(annuli, unit_disk_manifold, unit_disk_collar):
    # bounded data has finite layer maximal values even where the localizer
    # limit fails: the scan is necessary, not sufficient
    scan = sel.maximal_tangential(annuli.trace_z_plane, unit_disk_manifold,
                                  unit_disk_collar, t_grid=[0.0, 0.1, 0.25],
                                  breaks=[2.0 ** -k for k in range(1, 12)])
    assert np.all(np.isfinite(scan.values))
    assert max(scan.values) <= 4.0 * np.pi + 1e-6  # |data| <= 1 on the unit disk


def test_weak11_line_vortex(line_vortex, cylinder_collar):
    man = geo.disk_manifold((0, 0, 0), 1.0)
    scan = sel.maximal_transversal(line_vortex.curl, man, cylinder_collar,
                                   t_grid=np.linspace(0.05, 0.45, 9))
    rep = sel.good_set_scan(scan, 3.0)
    assert rep.complement_measure == 0.0  # M == 2 <= 3 everywhere
    assert rep.holds


def test_weak11_all_catalog(line_vortex, rigid_rotation, newtonian, cylinder_collar):
    man = geo.disk_manifold((0, 0, 0), 1.0)
    t_grid = np.linspace(0.02, 0.48, 24)
    for entry in (line_vortex, rigid_rotation, newtonian):
        scan = sel.maximal_transversal(entry.curl, man, cylinder_collar, t_grid)
        for lam in [2.0 ** k for k in range(-4, 5)]:
            assert sel.good_set_scan(scan, lam).holds


def test_slab_masses_refused_on_a_slide_without_depth(line_vortex):
    # a box face slides along rays from the centre: no depth coordinate, so a
    # sheet or line part's slab mass cannot be placed and is refused, not 0
    box = geo.box_region(order=6)
    col = geo.build_transversal_collar(box)
    face = box.boundary[0]
    man = geo.BoundaryManifold(face, geo.empty_curve(), np.zeros((1, 3)), np.zeros((1, 3)),
                               kind="rectangle", meta={})
    assert col.slide_for(face).slab_coordinate is None
    sheet = flds.SheetPart(geo.rectangle_patch((0.5, -0.5, -0.5), (0, 1, 0), (0, 0, 1), 1.0, 1.0),
                           lambda pts: np.tile([0.0, 1.0, 0.0], (len(np.atleast_2d(pts)), 1)))
    for mu in (flds.CurlMeasure(sheet_parts=(sheet,)), line_vortex.curl):
        with pytest.raises(geo.GeometryError, match="depth coordinate"):
            sel.maximal_transversal(mu, man, col, [0.1])
    # a Lebesgue density needs only the slide's shift
    scan = sel.maximal_transversal(flds.CurlMeasure(lebesgue_density=lambda x: np.ones_like(x)),
                                   man, col, [0.1])
    assert np.isfinite(scan.values[0])


def _per_layer_slab_mass(density, slide, lo, hi):
    # the Lebesgue slab mass one Gauss layer at a time
    lo, hi = max(lo, 0.0), min(hi, slide.depth_range)
    if hi <= lo:
        return 0.0
    s_rule = gauss_legendre(8, lo, hi)
    total = 0.0
    for s, w in zip(s_rule.nodes, s_rule.weights):
        pts = slide.shift_point(slide.patch.nodes, s)
        mags = np.linalg.norm(np.atleast_2d(density(pts)), axis=1)
        total += w * slide.area_scale(s) * float(np.sum(slide.patch.weights * mags))
    return total


@pytest.mark.parametrize("region", ["cylinder", "ball"])
def test_batched_layers_equal_the_per_layer_loop(region):
    if region == "ball":
        reg = geo.ball_region((0.1, 0.0, -0.2), 0.8, order=8, n_angular=16)
    else:
        # the default rule: 2304 nodes per face, as the scans of the CLI use
        reg = geo.cylinder_region((0.1, 0.0, -0.2), 0.8, -0.2, 0.6)
    col = geo.build_transversal_collar(reg)
    # planar faces, the cylinder side and the sphere; windows inside, clipped
    # at depth 0 and clipped at the slide's depth range (the radius 0.8)
    windows = [(0.1, 0.3), (-0.05, 0.05), (0.0, 0.2), (0.7, 0.9), (0.79, 1.5), (-0.1, 0.0)]
    for slide in col.slides:
        for density in (flds.catalog("plane_wave_em").curl.lebesgue_density,
                        lambda x: np.stack([np.sin(3.0 * x[:, 0]), x[:, 1] * x[:, 2],
                                            np.exp(x[:, 2])], axis=1)):
            for lo, hi in windows:
                assert (sel._lebesgue_slab_mass(density, slide, lo, hi)
                        == _per_layer_slab_mass(density, slide, lo, hi))
    assert "_volume" not in vars(reg)


def test_a_scan_builds_no_volume_rule(line_vortex):
    region = geo.cylinder_region(order=8, n_angular=16)
    col = geo.build_transversal_collar(region)
    sel.maximal_transversal(line_vortex.curl, geo.disk_manifold((0, 0, 0), 1.0), col, [0.1])
    assert "_volume" not in vars(region)

