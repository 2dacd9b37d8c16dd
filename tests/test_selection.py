from dataclasses import replace

import numpy as np
import pytest

from curlflux import fields as flds
from curlflux import geometry as geo
from curlflux import selection as sel
from curlflux import traces as trc
from curlflux.quadrature import gauss_legendre


def test_line_vortex_transversal_maximal(line_vortex, unit_cylinder, cylinder_collar):
    # shells around shifted disks always contain an axis segment of length 2 eps
    man = geo.disk_patch((0, 0, 0), 1.0)
    scan = sel.maximal_transversal(line_vortex.curl, man, cylinder_collar,
                                   t_grid=[0.1, 0.25, 0.4])
    assert np.abs(np.asarray(scan.values) - 2.0).max() < 1e-10


def test_a_line_vortex_through_a_ball_reads_4_on_its_sphere(line_vortex):
    # the axis meets every slid sphere twice, so nu has density 2 per unit
    # depth: 4 at every t, and 2 * 0.75 in the collar's depths (0, 0.75)
    ball = geo.ball_region(order=8, n_angular=16)
    col = geo.build_transversal_collar(ball)
    sphere = geo.sphere_patch((0, 0, 0), 1.0)
    scan = sel.maximal_transversal(line_vortex.curl, sphere, col, np.linspace(0.05, 0.45, 9))
    assert np.abs(np.asarray(scan.values) - 4.0).max() <= 1e-12
    assert abs(scan.collar_mass - 1.5) <= 1e-12


def _chord_lengths(p, v, s_lo, s_hi, radius, lo, hi, axis=None):
    # the length of {s in [s_lo, s_hi] : lo < depth(p + s v) < hi}, the depth
    # radius - |x| below a sphere about 0, or radius - |x - (x . axis) axis|
    # below a cylinder side about the line through 0 along a unit axis
    if axis is not None:
        p, v = p - (p @ axis) * axis, v - (v @ axis) * axis
    a, s_star = v @ v, -(p @ v) / (v @ v)
    q_star = p @ p - a * s_star ** 2
    total = 0.0
    for sign in (-1.0, 1.0):
        far, near = (s_star + sign * np.sqrt(max((radius - d) ** 2 - q_star, 0.0) / a)
                     for d in (max(lo, 0.0), min(hi, radius)))
        left, right = sorted((far, near))
        left, right = max(left, s_lo), min(right, s_hi)
        if sign < 0:
            right = min(right, s_star)
        else:
            left = max(left, s_star)
        total += max(right - left, 0.0)
    return total


@pytest.mark.parametrize("kind", ["sphere", "cylinder_side"])
def test_a_tilted_chord_reads_its_chord_lengths_on_a_curved_slide(kind):
    # a unit-density segment off the centre, tilted against the axis: each
    # slab's mass is the length of the segment whose depth lies inside it
    if kind == "sphere":
        region = geo.ball_region(order=8, n_angular=16)
        axis = None
    else:
        region = geo.cylinder_region(order=8, n_angular=16, z0=-2.0, z1=2.0)
        axis = np.array([0.0, 0.0, 1.0])
    col = geo.build_transversal_collar(region)
    patch = region.boundary[0] if kind == "sphere" else region.boundary[2]
    slide = col.slide_for(patch)
    p = np.array([0.2, 0.35, -0.1])
    v = np.array([0.6, -0.3, 0.5]) / np.linalg.norm([0.6, -0.3, 0.5])
    chord = flds.LinePart(p, v, -3.0, 2.5, lambda x: geo._rows((0.0, 0.0, 1.0), len(x)))
    m = sel.SlideMeasure(flds.CurlMeasure(line_parts=(chord,)), slide)
    atoms, crossings = m.parts
    assert not atoms and len(crossings) == 1
    windows = [(t - eps, t + eps) for t in (0.0, 0.1, 0.3, 0.55, 0.6, 0.9, 1.0)
               for eps in sel.DEFAULT_EPS_GRID] + [(-1.0, 2.0), (0.2, 0.2)]
    got = sel.measure_slab_mass(m, *np.transpose(windows))
    want = [_chord_lengths(p, v, -3.0, 2.5, 1.0, lo, hi, axis) for lo, hi in windows]
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-14)


def test_a_segment_along_a_cylinder_axis_is_an_atom():
    region = geo.cylinder_region(order=8, n_angular=16)
    col = geo.build_transversal_collar(region)
    line = flds.LinePart(np.array([0.3, 0.0, 0.0]), np.array([0.0, 0.0, 1.0]), -2.0, 3.0,
                         lambda x: geo._rows((0.0, 2.0, 0.0), len(x)))
    m = sel.SlideMeasure(flds.CurlMeasure(line_parts=(line,)), col.slide_for(region.boundary[2]))
    assert m.parts == (((pytest.approx(0.7, abs=1e-15), 10.0),), ())


def test_a_sheet_crossing_the_layers_is_refused_with_its_reason():
    # a flat z-disk sheet under a cylinder side spans the side's depths
    region = geo.cylinder_region(order=8, n_angular=16)
    col = geo.build_transversal_collar(region)
    with pytest.raises(geo.GeometryError, match="sheet part crossing the slide's layers"):
        sel.maximal_transversal(flds.CurlMeasure(sheet_parts=(_flat_sheet(0.5),)),
                                region.boundary[2], col, [0.1])


def test_an_atom_outside_the_slide_depths_is_dropped(cylinder_collar):
    # a flat sheet 0.1 below the bottom face lies outside the region: no
    # window reads it, and no layer concentrates on it
    sheet = flds.SheetPart(geo.disk_patch((0, 0, -0.1), 1.0),
                           lambda pts: geo._rows((0.0, 1.0, 0.0), len(np.atleast_2d(pts))))
    mu = flds.CurlMeasure(sheet_parts=(sheet,))
    disk = geo.disk_patch((0, 0, 0), 1.0)
    assert sel.SlideMeasure(mu, cylinder_collar.slide_for(disk)).parts == ((), ())
    scan = sel.maximal_transversal(mu, disk, cylinder_collar, [0.0, 0.05])
    assert scan.values == (0.0, 0.0) and scan.collar_mass == 0.0


@pytest.mark.parametrize("kind", ["planar", "sphere"])
def test_a_line_depth_off_its_model_is_refused(kind):
    # a depth that is neither affine in s nor a distance to a centre
    region = geo.ball_region(order=8, n_angular=16) if kind == "sphere" else geo.box_region(order=6)
    slide = geo.build_transversal_collar(region).slides[0]
    slide = replace(slide, slab_coordinate=lambda x: np.atleast_2d(x)[:, 2] ** 3)
    line = flds.LinePart(np.zeros(3), np.array([0.0, 0.0, 1.0]), -0.5, 0.5,
                         lambda x: geo._rows((0.0, 0.0, 1.0), len(x)))
    with pytest.raises(geo.GeometryError, match="neither affine nor a distance"):
        sel.SlideMeasure(flds.CurlMeasure(line_parts=(line,)), slide).parts


def test_a_window_straddling_depth_0_counts_only_the_collar_side(line_vortex, cylinder_collar):
    # the window (-0.75, 0.75) about the face reads the axis for depths 0 to
    # 0.75 only, as it reads the Lebesgue part
    scan = sel.maximal_transversal(line_vortex.curl, geo.disk_patch((0, 0, 0), 1.0),
                                   cylinder_collar, [0.1])
    assert scan.collar_mass == 0.75
    disk = geo.disk_patch((0, 0, 0), 1.0)
    m = sel.SlideMeasure(line_vortex.curl, cylinder_collar.slide_for(disk))
    got = sel.measure_slab_mass(m, np.array([-0.75, -0.2]), np.array([0.75, 0.3]))
    np.testing.assert_allclose(got, [0.75, 0.3], rtol=1e-14, atol=0.0)


def test_concentrated_sheet_flagged(cylinder_collar):
    sheet = flds.SheetPart(
        geo.disk_patch((0, 0, 0.25), 1.0),
        lambda pts: np.broadcast_to(np.array([0.0, 1.0, 0.0]),
                                    (np.atleast_2d(pts).shape[0], 3)).copy())
    mu = flds.CurlMeasure(sheet_parts=(sheet,))
    man = geo.disk_patch((0, 0, 0), 1.0)
    scan = sel.maximal_transversal(mu, man, cylinder_collar, t_grid=[0.1, 0.25, 0.4])
    assert np.isinf(scan.values[1])
    assert np.isfinite(scan.values[0]) and np.isfinite(scan.values[2])
    # layer vanishing: finite maximal value means zero single-layer mass
    slide = cylinder_collar.slide_for(man)
    assert sel.single_layer_mass(sel.SlideMeasure(mu, slide), 0.1) == 0.0
    assert sel.single_layer_mass(sel.SlideMeasure(mu, slide), 0.25) > 3.0


def test_a_concentrated_sheet_counts_once_in_the_collar_mass(cylinder_collar):
    # a unit-density sheet of area pi at depth 0.25, inside the collar window:
    # its mass pi, not twice it, and a weak-(1,1) bound of 10 pi / lambda
    sheet = flds.SheetPart(geo.disk_patch((0, 0, 0.25), 1.0),
                           lambda pts: geo._rows((0.0, 1.0, 0.0), len(np.atleast_2d(pts))))
    man = geo.disk_patch((0, 0, 0), 1.0)
    scan = sel.maximal_transversal(flds.CurlMeasure(sheet_parts=(sheet,)), man,
                                   cylinder_collar, t_grid=[0.1, 0.25, 0.4])
    assert abs(scan.collar_mass - np.pi) <= 1e-13 * np.pi
    assert abs(sel.good_set_scan(scan, 2.0).weak_bound - 5.0 * np.pi) <= 1e-12


@pytest.mark.parametrize("offset, concentrated", [(5e-10, True), (2e-9, False)])
def test_a_sheet_lies_on_a_layer_within_the_position_tolerance(cylinder_collar, offset,
                                                               concentrated):
    # a sheet lies on the layer at t when its depth is within
    # geometry.POSITION_TOL = 1e-9 of t, the tolerance of every other
    # "lies on" test: then the value is infinite, else finite
    sheet = flds.SheetPart(
        geo.disk_patch((0, 0, 0.25 + offset), 1.0),
        lambda pts: np.broadcast_to(np.array([0.0, 1.0, 0.0]),
                                    (np.atleast_2d(pts).shape[0], 3)).copy())
    mu = flds.CurlMeasure(sheet_parts=(sheet,))
    man = geo.disk_patch((0, 0, 0), 1.0)
    scan = sel.maximal_transversal(mu, man, cylinder_collar, t_grid=[0.25])
    assert np.isinf(scan.values[0]) == concentrated


def test_zero_measure_scan(cylinder_collar):
    man = geo.disk_patch((0, 0, 0), 1.0)
    scan = sel.maximal_transversal(flds.ZERO_MEASURE, man, cylinder_collar,
                                   t_grid=[0.1, 0.3])
    assert max(scan.values) == 0.0
    rep = sel.good_set_scan(scan, 0.5)
    assert rep.complement_measure == 0.0 and rep.holds


def test_weak11_line_vortex(line_vortex, cylinder_collar):
    man = geo.disk_patch((0, 0, 0), 1.0)
    scan = sel.maximal_transversal(line_vortex.curl, man, cylinder_collar,
                                   t_grid=np.linspace(0.05, 0.45, 9))
    rep = sel.good_set_scan(scan, 3.0)
    assert rep.complement_measure == 0.0  # M == 2 <= 3 everywhere
    assert rep.holds


def test_weak11_all_catalog(line_vortex, rigid_rotation, newtonian, cylinder_collar):
    man = geo.disk_patch((0, 0, 0), 1.0)
    t_grid = np.linspace(0.02, 0.48, 24)
    for entry in (line_vortex, rigid_rotation, newtonian):
        scan = sel.maximal_transversal(entry.curl, man, cylinder_collar, t_grid)
        for lam in [2.0 ** k for k in range(-4, 5)]:
            assert sel.good_set_scan(scan, lam).holds


def test_box_face_scans_place_line_and_sheet_parts(line_vortex):
    # a box face slides along its inner normal, so its scans place line and
    # sheet parts in depth: the axis filament gives 2 at every t, and a flat
    # sheet at depth 0.25 concentrates in that layer alone
    box = geo.box_region(order=6)
    col = geo.build_transversal_collar(box)
    bottom = next(p for p in box.boundary if np.array_equal(p.frame[2], [0.0, 0.0, 1.0]))
    t_grid = [0.1, 0.25, 0.4]
    scan = sel.maximal_transversal(line_vortex.curl, bottom, col, t_grid)
    assert np.abs(np.asarray(scan.values) - 2.0).max() < 1e-10
    sheet = flds.SheetPart(geo.rectangle_patch((-1.0, -1.0, -0.75), (1, 0, 0), (0, 1, 0), 2.0, 2.0),
                           lambda pts: np.tile([0.0, 1.0, 0.0], (len(np.atleast_2d(pts)), 1)))
    scan = sel.maximal_transversal(flds.CurlMeasure(sheet_parts=(sheet,)), bottom, col, t_grid)
    assert scan.values[1] == np.inf
    assert np.all(np.isfinite([scan.values[0], scan.values[2]]))


@pytest.mark.parametrize("kind", ["cylinder", "half_ball"])
def test_a_region_face_gives_the_floats_of_the_disk_built_at_its_centre(kind, line_vortex,
                                                                          rigid_rotation):
    # a surface is its patch: the face a region holds and the disk the
    # benchmark builds at that face's centre read the same slide and rules
    center, radius = (0.1, -0.2, 0.05), 0.8
    region = (geo.cylinder_region(center, radius, 0.0, radius) if kind == "cylinder"
              else geo.half_ball_region(center, radius))
    face = region.boundary[0]
    disk = geo.disk_manifold(face.origin, radius)
    col = geo.build_transversal_collar(region)
    for mu in (line_vortex.curl, rigid_rotation.curl):
        got, want = (sel.maximal_transversal(mu, p, col, [0.1, 0.25]) for p in (face, disk))
        assert got.values == want.values and got.collar_mass == want.collar_mass
    t_grid = [2.0 ** -k for k in range(2, 8)]
    got, want = (trc.estimate_trace_layerwise(rigid_rotation.vector_field, p, col, t_grid)
                 for p in (face, disk))
    assert np.array_equal(got.values, want.values)
    assert np.array_equal(got.converged, want.converged)
    got, want = (geo.shift_transversal(p, col, 0.1) for p in (face, disk))
    assert np.array_equal(got.nodes, want.nodes) and np.array_equal(got.weights, want.weights)


def _reference_slab_mass(density, slide, lo, hi):
    # the Lebesgue slab mass on 64 Gauss layers of its own, evaluated together
    lo, hi = max(lo, 0.0), min(hi, slide.depth_range)
    if hi <= lo:
        return 0.0
    s_rule = gauss_legendre(64, lo, hi)
    pts = slide.shift_point(slide.patch.nodes, s_rule.nodes[:, None])
    mags = np.linalg.norm(np.atleast_2d(density(pts.reshape(-1, 3))), axis=1)
    lines = np.sum(slide.patch.weights * mags.reshape(len(s_rule.nodes), -1), axis=1)
    return float(np.sum(s_rule.weights * slide.area_scale(s_rule.nodes) * lines))


# (region, order, n_angular): face sizes against geo.BLOCK_POINTS
BLOCK_FACES = {
    # the default rule: 2304 nodes per face, as the scans of the CLI use; 2 layers a block
    "cylinder": ("cylinder", geo.DEFAULT_ORDER, geo.DEFAULT_ANGULAR),
    # 768 nodes per face: blocks of 6 layers and a remainder of 4
    "cylinder_remainder": ("cylinder", 16, 48),
    # 6144 nodes per face, above the budget: one layer a block
    "cylinder_above_budget": ("cylinder", 64, 96),
    # 128 nodes on the sphere: all sixteen layers in one block
    "ball": ("ball", 8, 16),
}


def _block_region(face):
    kind, order, n_angular = BLOCK_FACES[face]
    if kind == "ball":
        return geo.ball_region((0.1, 0.0, -0.2), 0.8, order=order, n_angular=n_angular)
    return geo.cylinder_region((0.1, 0.0, -0.2), 0.8, -0.2, 0.6, order=order,
                               n_angular=n_angular)


def _smooth_density(x):
    return np.stack([np.sin(3.0 * x[:, 0]), x[:, 1] * x[:, 2], np.exp(x[:, 2])], axis=1)


@pytest.mark.parametrize("face", sorted(BLOCK_FACES))
def test_batched_layers_equal_the_per_layer_loop(face):
    reg = _block_region(face)
    col = geo.build_transversal_collar(reg)
    # planar faces, the cylinder side and the sphere: the face masses of a
    # round's panels, evaluated in blocks of whole layers, are the per-layer
    # sums at each panel's sixteen Gauss depths
    panels = [(0.1, 0.3), (0.0, 0.2), (0.7, 0.8)]
    for slide in col.slides:
        for density in (flds.catalog("plane_wave_em").curl.lebesgue_density, _smooth_density):
            want = [[float(np.sum(slide.patch.weights * np.linalg.norm(
                        np.atleast_2d(density(slide.shift_point(slide.patch.nodes, s))), axis=1)))
                     for s in gauss_legendre(sel.PROFILE_ORDER, lo, hi).nodes]
                    for lo, hi in panels]
            assert np.array_equal(sel._face_masses(density, slide, panels), want)
    assert "_volume" not in vars(reg)


@pytest.mark.parametrize("face", ["cylinder", "cylinder_remainder", "ball"])
def test_a_window_evaluates_whole_layers_within_the_budget(face):
    col = geo.build_transversal_collar(_block_region(face))
    sizes = []

    def density(x):
        sizes.append(len(x))
        return np.cos(x)

    for slide in col.slides:
        n = len(slide.patch.weights)
        sizes.clear()
        panels, _ = sel._depth_profile(density, slide, 0.3)
        # every call holds whole layers under the budget, and a profile
        # evaluates sixteen layers per panel it tries: at least its own
        assert all(k % n == 0 and k <= geo.BLOCK_POINTS for k in sizes)
        assert sum(sizes) % (16 * n) == 0 and sum(sizes) >= 16 * n * len(panels)
        sizes.clear()
        sel._lebesgue_slab_mass(density, slide, 0.1, 0.3)
        assert all(k % n == 0 and k <= geo.BLOCK_POINTS for k in sizes)


def test_a_rigid_rotation_scan_evaluates_sixteen_layers_whatever_its_windows():
    rigid = flds.catalog("rigid_rotation").curl.lebesgue_density
    col = geo.build_transversal_collar(_block_region("cylinder"))
    sizes = []

    def density(x):
        sizes.append(len(x))
        return rigid(x)

    mu = flds.CurlMeasure(lebesgue_density=density)
    face = col.slides[0].patch
    n = len(face.weights)
    for t_grid in ([0.1], np.linspace(0.05, 0.45, 9), np.linspace(0.01, 0.7, 40)):
        sizes.clear()
        scan = sel.maximal_transversal(mu, face, col, t_grid)
        # |curl| = 2: one panel, two layers a block
        assert sizes == [2 * n] * 8
        assert np.allclose(scan.values, 4.0 * np.sum(face.weights), rtol=1e-14, atol=0.0)


def test_a_kink_at_a_dyadic_depth_resolves_to_tolerance():
    # |density| = 1 + |depth - D/2| below the bottom face: the profile splits
    # at D/2 and each half is exact, so every window matches its closed form
    col = geo.build_transversal_collar(_block_region("cylinder"))
    slide = col.slides[0]
    area = float(np.sum(slide.patch.weights))
    depth = 0.75

    def density(x):
        d = slide.slab_coordinate(x)
        return np.stack([1.0 + np.abs(d - 0.5 * depth), np.zeros(len(x)), np.zeros(len(x))],
                        axis=1)

    def exact(lo, hi):
        def prim(s):
            return s + 0.5 * (s - 0.5 * depth) * abs(s - 0.5 * depth)
        return area * (prim(hi) - prim(lo))

    panels, _ = sel._depth_profile(density, slide, depth)
    assert panels.tolist() == [[0.0, 0.375], [0.375, 0.75]]
    windows = [(0.375 - 2.0 ** -k, 0.375 + 2.0 ** -k) for k in range(2, 13)] + [(0.0, 0.75)]
    got = sel._lebesgue_slab_mass(density, slide, *np.transpose(windows))
    for g, (lo, hi) in zip(got, windows):
        assert abs(g - exact(lo, hi)) <= 1e-13 * exact(lo, hi)


def test_a_jump_at_an_undeclared_depth_is_refused_with_its_reason():
    # a jump at a depth no dyadic panel edge meets is bisected down to the
    # floor and refused, whether a node sees it or it hides between a
    # panel's outermost depth and its edge
    col = geo.build_transversal_collar(_block_region("cylinder"))
    slide = col.slides[0]
    for jump in (0.2373, 0.3 + 1.0 / 3.0):
        def density(x, jump=jump):
            step = (slide.slab_coordinate(x) > jump).astype(float)
            return np.stack([1.0 + step, np.zeros(len(x)), np.zeros(len(x))], axis=1)

        with pytest.raises(geo.GeometryError, match="does not resolve on depths .*jumps or kinks"):
            sel._lebesgue_slab_mass(density, slide, 0.0, 0.75)
        with pytest.raises(geo.GeometryError, match="jumps or kinks"):
            sel.maximal_transversal(flds.CurlMeasure(lebesgue_density=density),
                                    slide.patch, col, [0.1])


def test_a_scan_builds_no_volume_rule(line_vortex):
    region = geo.cylinder_region(order=8, n_angular=16)
    col = geo.build_transversal_collar(region)
    sel.maximal_transversal(line_vortex.curl, geo.disk_patch((0, 0, 0), 1.0), col, [0.1])
    assert "_volume" not in vars(region)


def test_a_non_finite_density_is_refused_in_a_scan():
    # NaN above z = 0.3: the depth profile, and a sheet's magnitudes, refuse
    # it, since max() in the window sup would drop it without a trace
    col = geo.build_transversal_collar(geo.cylinder_region(order=8, n_angular=16))
    disk = geo.disk_patch((0, 0, 0), 1.0)

    def nan_above(x):
        return np.where((x[:, 2] > 0.3)[:, None], np.nan, 1.0) * np.ones((len(x), 3))

    with pytest.raises(geo.GeometryError, match="non-finite"):
        sel.maximal_transversal(flds.CurlMeasure(lebesgue_density=nan_above), disk, col,
                                (0.1, 0.2, 0.4))
    sheet = flds.SheetPart(geo.disk_patch((0, 0, 0.25), 1.0, order=8, n_angular=16),
                           lambda x: np.where((x[:, 0] > 0.5)[:, None], np.nan, 1.0)
                           * np.ones((len(x), 3)))
    with pytest.raises(geo.GeometryError, match="non-finite"):
        sel.maximal_transversal(flds.CurlMeasure(sheet_parts=(sheet,)), disk, col, (0.1,))


def _side_axis():
    # the z axis, with a density that varies along it so the order of a
    # window's sum shows in its last bit: it runs along the side of the
    # cylinder below at depth 0.7, parallel to its layers, and its depth below
    # a sphere is curved
    return flds.LinePart(np.zeros(3), np.array([0.0, 0.0, 1.0]), -8.0, 8.0, lambda x: np.stack(
        [np.cos(x[:, 2]), 1.0 + x[:, 2] ** 2, np.zeros(len(x))], axis=1))


def test_a_line_part_in_one_layer_is_its_whole_mass_and_concentrates():
    region = geo.cylinder_region((0.1, 0.0, -0.2), 0.8, -0.2, 0.6, order=8, n_angular=16)
    col = geo.build_transversal_collar(region)
    side = region.boundary[2]
    axis = _side_axis()
    mu = flds.CurlMeasure(line_parts=(axis,))
    m = sel.SlideMeasure(mu, col.slide_for(side))
    whole = geo.integrate(axis.segment(gauss_legendre(64, axis.lo, axis.hi)),
                          lambda x: np.linalg.norm(axis.density(x), axis=1))
    assert abs(whole - 358.087) < 1e-3
    assert sel.measure_slab_mass(m, np.array([0.6, 0.71]), np.array([0.8, 0.8])).tolist() == [
        whole, 0.0]
    assert sel.single_layer_mass(m, 0.7) == whole and sel.single_layer_mass(m, 0.6) == 0.0
    scan = sel.maximal_transversal(mu, side, col, [0.5, 0.7, 0.7 + 5e-10, 0.7 + 2e-9])
    assert scan.values[1:3] == (np.inf, np.inf)
    assert scan.values[0] == whole / 0.25 and np.isfinite(scan.values[3])
    assert scan.collar_mass == whole


def _per_window_line_mass(lp, slide, lo, hi):
    # a line part's slab mass solved for one window on its own 64-node rule,
    # on a slide whose depth is affine along it; a segment parallel to the
    # layers puts its whole mass in the slab that contains its depth
    def depth(s):
        return slide.slab_coordinate(lp.positions(np.array([s])))[0]

    a, b = depth(lp.lo), depth(lp.hi)
    if abs(b - a) < 1e-14:
        s0, s1 = (lp.lo, lp.hi) if lo < a < hi else (0.0, 0.0)
    else:
        s0, s1 = sorted(lp.lo + (d - a) * (lp.hi - lp.lo) / (b - a) for d in (lo, hi))
        s0, s1 = max(s0, lp.lo), min(s1, lp.hi)
    if s1 <= s0:
        return 0.0
    return geo.integrate(lp.segment(gauss_legendre(64, s0, s1)),
                         lambda x: np.linalg.norm(lp.density(x), axis=1))


def _per_window_mass(mu, slide, lo, hi, lebesgue):
    # one window's mass clipped to the slide's depths [0, depth_range], its
    # parts added in the order the scan adds them: the Lebesgue part given,
    # then each sheet on its nodes and each line part on its own rule
    lo, hi = max(lo, 0.0), min(hi, slide.depth_range)
    total = 0.0 + lebesgue
    for sp in mu.sheet_parts:
        depth = slide.slab_coordinate(sp.patch.nodes)
        mags = np.linalg.norm(sp.density(sp.patch.nodes), axis=1)
        total += float(np.sum(sp.patch.weights * ((depth > lo) & (depth < hi)) * mags))
    for lp in mu.line_parts:
        total += _per_window_line_mass(lp, slide, lo, hi)
    return total


def _per_window_scan(mu, patch, collar, t_grid):
    # maximal_transversal with every window's sheet and line parts evaluated
    # on their own; the Lebesgue part of every window is read off one depth
    # profile, built on the same deepest window end as the scan's
    slide = collar.slide_for(patch)
    m = sel.SlideMeasure(mu, slide)
    windows = [(t - eps, t + eps) for t in t_grid for eps in sel.DEFAULT_EPS_GRID] + [(0.0, 0.75)]
    lebesgue = dict.fromkeys(windows, 0.0)
    if mu.lebesgue_density is not None:
        lo, hi = np.transpose(windows)
        lebesgue = dict(zip(windows, sel._lebesgue_slab_mass(
            mu.lebesgue_density, slide, np.maximum(lo, 0.0), np.minimum(hi, slide.depth_range))))
    mass = {w: _per_window_mass(mu, slide, *w, lebesgue[w]) for w in windows}
    values = tuple(np.inf if sel.single_layer_mass(m, t) > 0.0 else sel._window_sup(t, mass)
                   for t in t_grid)
    return values, mass[0.0, 0.75]


def _flat_sheet(z):
    return flds.SheetPart(geo.disk_patch((0.1, 0.0, z), 0.8, order=8, n_angular=16),
                          lambda pts: np.tile([0.0, 1.0, 0.5], (len(np.atleast_2d(pts)), 1)))


# t at depth 0, 0.01 and 0.78 clip windows at depth 0 and at the radius 0.8,
# the depth range of the cylinder side and the sphere; eight or nine sups of
# eleven windows give the line parts more 64-node rules than one block holds
SCAN_T = [0.0, 0.01, 0.1, 0.2, 0.25, 0.4, 0.5, 0.6, 0.78]


def _scan_face(face):
    if face == "sphere":
        region = geo.ball_region((0.1, 0.0, -0.2), 0.8, order=8, n_angular=16)
    else:
        region = geo.cylinder_region((0.1, 0.0, -0.2), 0.8, -0.2, 0.6, order=8, n_angular=16)
    return region, region.boundary[{"planar": 0, "cylinder_side": 2, "sphere": 0}[face]]


@pytest.mark.parametrize("face", ["planar", "cylinder_side", "sphere"])
def test_every_window_is_within_1e_13_of_a_64_layer_reference(face):
    region, patch = _scan_face(face)
    col = geo.build_transversal_collar(region)
    slide = col.slide_for(patch)
    collar = (0.0, 0.75)
    for density in (flds.catalog("rigid_rotation").curl.lebesgue_density, _smooth_density):
        reference = {}
        # the scan's two-sided windows, and one-sided ones that end at t
        for window in (lambda t, eps: (t - eps, t + eps), lambda t, eps: (t, t + eps),
                       lambda t, eps: (t - eps, t)):
            windows = [window(t, eps) for t in SCAN_T for eps in sel.DEFAULT_EPS_GRID]
            windows.append(collar)
            got = sel.measure_slab_mass(sel.SlideMeasure(flds.CurlMeasure(density), slide),
                                        *np.transpose(windows))
            for g, (lo, hi) in zip(got, windows):
                if (lo, hi) not in reference:
                    reference[lo, hi] = _reference_slab_mass(density, slide, lo, hi)
                want = reference[lo, hi]
                assert abs(g - want) <= 1e-13 * want
        # and the scan's values and collar mass, over the same windows
        scan = sel.maximal_transversal(flds.CurlMeasure(lebesgue_density=density), patch,
                                       col, SCAN_T)
        values = [sel._window_sup(t, reference) for t in SCAN_T]
        assert np.allclose(scan.values, values, rtol=1e-13, atol=0.0)
        assert abs(scan.collar_mass - reference[collar]) <= 1e-13 * reference[collar]
    assert "_volume" not in vars(region)


@pytest.mark.parametrize("face", ["planar", "cylinder_side", "sphere"])
def test_a_batched_scan_equals_the_per_window_loop(face):
    # the Lebesgue, sheet and line parts, bit for bit, clipped to depths 0 and up
    region, patch = _scan_face(face)
    col = geo.build_transversal_collar(region)
    # the bottom face (z = -0.2) has the sheets at depths 0.05 and 0.25, and
    # the layer at 0.25 reads inf; the z axis crosses it
    sheets = flds.CurlMeasure(sheet_parts=(_flat_sheet(-0.15), _flat_sheet(0.05)))
    for mu in (sheets, flds.CurlMeasure(None, sheets.sheet_parts, (_side_axis(),)),
               flds.CurlMeasure(_smooth_density, sheets.sheet_parts, (_side_axis(),))):
        if face != "planar":
            # the flat z-disk sheets cross the layers of the cylinder side and the sphere
            with pytest.raises(geo.GeometryError, match="sheet part crossing the slide's layers"):
                sel.maximal_transversal(mu, patch, col, SCAN_T)
            continue
        scan = sel.maximal_transversal(mu, patch, col, SCAN_T)
        values, collar_mass = _per_window_scan(mu, patch, col, SCAN_T)
        assert scan.values == values and scan.collar_mass == collar_mass
        assert all(type(v) is float for v in (*scan.values, scan.collar_mass))
        assert [np.isinf(v) for v in scan.values] == [t == 0.25 for t in SCAN_T]
    assert "_volume" not in vars(region)


def test_a_scan_evaluates_its_windows_in_one_call(line_vortex, rigid_rotation, monkeypatch):
    col = geo.build_transversal_collar(geo.cylinder_region(order=8, n_angular=16))
    calls = []
    batch = sel.measure_slab_mass

    def counted(m, lo, hi):
        calls.append(len(lo))
        return batch(m, lo, hi)

    monkeypatch.setattr(sel, "measure_slab_mass", counted)
    mu = flds.CurlMeasure(rigid_rotation.curl.lebesgue_density, (),
                          line_vortex.curl.line_parts)
    sel.maximal_transversal(mu, geo.disk_patch((0, 0, 0), 1.0), col, [0.1, 0.2, 0.3])
    # three sups over the eps grid and the collar window
    assert calls == [3 * len(sel.DEFAULT_EPS_GRID) + 1]
