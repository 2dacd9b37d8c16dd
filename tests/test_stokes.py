import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from curlflux import fields as flds
from curlflux import geometry as geo
from curlflux import selection as sel
from curlflux import stokes as stk
from curlflux.testfns import (
    ScalarTestFunction,
    radial_bump,
    random_trig_vector,
    smooth_bump,
)

from conftest import rim


def closed_form_ramp_value(j: int) -> float:
    return np.pi * (-1.0) ** (j + 1) * (2.0 / 3.0 - 0.6 * 2.0 ** (-j))


# ---------------------------------------------------------------------------
# tangential localizer route
# ---------------------------------------------------------------------------


def test_tangential_route_evaluates_its_widths_in_blocks_of_whole_layers(
        rigid_rotation, unit_disk, unit_disk_collar):
    # the 11 widths' segments of 10 layers share one batch: after an empty
    # family that gives the layer node count, blocks of as many whole
    # 96-node layers as fit in BLOCK_POINTS points, 52 of 4992 points each
    calls = []

    def layer(s, rule):
        calls.append(np.shape(s))
        return unit_disk_collar.layer(s, rule)

    collar = dataclasses.replace(unit_disk_collar, layer=layer)
    res = stk.stokes_tangential(rigid_rotation.trace_z_plane, unit_disk, collar, 0.0)
    assert res.converged
    per_block = geo.BLOCK_POINTS // geo.DEFAULT_ANGULAR
    n_layers = 10 * len(stk.DELTA_J_RANGE)
    assert calls[0] == (0,)
    assert len(calls) - 1 == -(-n_layers // per_block) == 3
    assert calls[1:] == [(per_block,)] * 2 + [(n_layers - 2 * per_block,)] == [(52,)] * 2 + [(6,)]


@pytest.mark.parametrize("t", [0.0, 0.1])
def test_every_ramp_integrand_call_gets_whole_layers_within_the_budget(
        annuli, unit_disk, unit_disk_collar, t):
    # the annuli's breaks split the bands into many segments of 10 layers of
    # 96 nodes; every field call takes whole layers, at most BLOCK_POINTS points
    sizes = []

    def trace(p):
        sizes.append(len(p))
        return annuli.trace_z_plane(p)

    stk.stokes_tangential(trace, unit_disk, unit_disk_collar, t,
                          breaks_radii=annuli.trace_breaks_radii)
    layer = geo.DEFAULT_ANGULAR
    assert all(k % layer == 0 and k <= geo.BLOCK_POINTS for k in sizes)
    n_layers, per_block = sum(sizes) // layer, geo.BLOCK_POINTS // layer
    assert n_layers % 10 == 0 and n_layers > per_block
    assert len(sizes) == -(-n_layers // per_block)


def test_density_windows_evaluate_each_radius_in_one_block(rigid_rotation,
                                                           unit_disk,
                                                           unit_disk_collar):
    # nine widths of 8 layers on 48-node arcs: 3456 points, one field call;
    # the finest radius, 0.1, gives an estimate, so 0.2 is not evaluated
    sizes = []

    def trace(p):
        sizes.append(len(p))
        return rigid_rotation.trace_z_plane(p)

    stk.stokes_density(trace, unit_disk, unit_disk_collar, 0.0,
                       np.array([1.0, 0.0, 0.0]), [0.2, 0.1])
    assert sizes == [9 * 8 * 48]


def test_density_reports_the_finest_radius_that_gives_an_estimate(rigid_rotation):
    # the first point of `reproduce density`: radii 2^-8 and 2^-7 give no
    # estimate and 2^-6 does, so 3 of the 6 radii are evaluated, and the
    # estimate is 2^-6's alone, to the last bit
    center = np.array([0.3, 0.2, 0.7])
    disk = geo.disk_patch(center, 1.0, n_angular=512)
    col = geo.build_tangential_collar(disk)
    e1, e2, _ = disk.frame
    x0 = center + np.cos(0.1) * e1 + np.sin(0.1) * e2
    face = flds.surface_trace(rigid_rotation.vector_field, disk)
    r_grid = [2.0 ** -k for k in range(3, 9)]
    sizes = []

    def trace(p):
        sizes.append(len(p))
        return face(p)

    dens = stk.stokes_density(trace, disk, col, 0.0, x0, r_grid)
    each = [stk.stokes_density(face, disk, col, 0.0, x0, [r]) for r in r_grid]
    assert each[4:] == [None, None] and each[3] is not None
    assert dens == each[3] and len(sizes) == 3


@pytest.mark.parametrize("route", ["tangential", "mass"])
def test_boundary_routes_build_no_disk_patch(rigid_rotation, route):
    # the tangential and mass routes read the origin, scale and frame of
    # their disk, never its 2-D node set
    man = geo.disk_patch((0.1, -0.2, 0.3), 0.7)
    col = geo.build_tangential_collar(man)
    if route == "tangential":
        assert stk.stokes_tangential(rigid_rotation.trace_z_plane, man, col, 0.1).converged
    else:
        stk.boundary_pairing_mass(rigid_rotation.trace_z_plane, man, col, 0.1)
    assert not {"nodes", "normals", "weights"} & set(vars(man))


def test_tangential_route_evaluates_each_band_segment_once(annuli, unit_disk,
                                                          unit_disk_collar):
    # at t = 0 every width 2^-j is an alternation break, so each band is a
    # prefix of the widest one: one segment of 10 layers of 96 nodes between
    # each two break radii, and no table per width
    points = []

    def trace(p):
        points.append(len(p))
        return annuli.trace_z_plane(p)

    stk.stokes_tangential(trace, unit_disk, unit_disk_collar, 0.0,
                          breaks_radii=annuli.trace_breaks_radii)
    assert sum(points) <= (len(annuli.trace_breaks_radii) - 1) * 10 * 96


def test_a_route_call_evaluates_its_bands_once_and_its_reads_evaluate_nothing(
        rigid_rotation, unit_disk, unit_disk_collar, monkeypatch):
    # the 11 widths' bands come from one `_band_lines` call; reading a width
    # off the table forms no rule, evaluates no band and calls no field
    calls = {"_band_lines": 0, "gauss_legendre_segments": 0, "trace": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("_band_lines", "gauss_legendre_segments"):
        monkeypatch.setattr(geo, name, counted(name, getattr(geo, name)))
    reads = []

    def read(bands, delta):
        before = dict(calls)
        out = geo.ramp_integral(bands, delta)
        reads.append(calls == before)
        return out

    monkeypatch.setattr(stk, "ramp_integral", read)
    trace = counted("trace", rigid_rotation.trace_z_plane)
    res = stk.stokes_tangential(trace, unit_disk, unit_disk_collar, 0.1)
    assert res.converged and calls["_band_lines"] == 1 and calls["trace"] > 0
    assert reads == [True] * len(stk.DELTA_J_RANGE) == [True] * 11


def test_rigid_rotation_flux(rigid_rotation, unit_disk, unit_disk_collar):
    res = stk.stokes_tangential(rigid_rotation.trace_z_plane, unit_disk,
                                unit_disk_collar, 0.0)
    assert res.converged
    assert abs(res.extrapolated - 2.0 * np.pi) < 1e-10
    # classical circulation identity under the fixed orientation
    boundary, _, tangents = rim(unit_disk)
    circ = float(np.sum(
        boundary.weights
        * np.einsum("ij,ij->i", rigid_rotation.vector_field.eval(boundary.nodes), tangents)))
    assert abs(res.extrapolated + circ) < 1e-10


def test_annuli_closed_form(annuli, unit_disk, unit_disk_collar):
    res = stk.stokes_tangential(annuli.trace_z_plane, unit_disk,
                                unit_disk_collar, 0.0, j_range=range(1, 11),
                                breaks_radii=annuli.trace_breaks_radii)
    for j, v in enumerate(res.delta_values, start=1):
        assert abs(v - closed_form_ramp_value(j)) < 1e-6
    assert not res.converged and res.extrapolated is None
    assert res.t_osc >= 4.0 * np.pi / 3.0 - 0.1


def test_annuli_oscillation_detector(annuli, unit_disk, unit_disk_collar):
    # consecutive ramp values differ by pi (4/3 - 0.9 2^-j)
    res = stk.stokes_tangential(annuli.trace_z_plane, unit_disk,
                                unit_disk_collar, 0.0, j_range=range(1, 13),
                                breaks_radii=annuli.trace_breaks_radii)
    vals = res.delta_values
    for j in range(5, 12):
        gap = abs(vals[j] - vals[j - 1])  # |I(j+1) - I(j)| with 1-based j
        assert gap >= 4.0 * np.pi / 3.0 - 0.1


def test_annuli_converges_off_resonance(annuli, unit_disk, unit_disk_collar):
    res = stk.stokes_tangential(annuli.trace_z_plane, unit_disk,
                                unit_disk_collar, 0.3,
                                breaks_radii=annuli.trace_breaks_radii)
    assert res.converged
    assert abs(res.extrapolated + 2.0 * np.pi * 0.7) < 1e-8


@pytest.mark.parametrize("patch", [geo.spherical_cap_patch((0, 0, 0), 1.0, 1.0),
                                   geo.sphere_patch((0, 0, 0), 1.0)], ids=["cap", "sphere"])
@pytest.mark.parametrize("route", ["tangential", "mass"])
def test_break_radii_on_a_collar_that_cannot_place_them_are_refused(annuli, patch, route):
    # only a disk's collar maps a radius to s; a cap's bands would run unsplit
    # across the jumps, with the same values as without breaks
    collar = geo.build_tangential_collar(patch)
    solve = stk.stokes_tangential if route == "tangential" else stk.boundary_pairing_mass
    with pytest.raises(geo.GeometryError, match="break radii"):
        solve(annuli.trace_z_plane, patch, collar, 0.1, breaks_radii=(0.5, 0.7))


def test_support_property(rigid_rotation, unit_disk, unit_disk_collar):
    # test function supported away from the shrunk boundary circle: exact zero
    # once the ramp width drops below the separation, on the bump-weighted
    # ramp segments that stokes_density reads
    bump = radial_bump((0.0, 0.0, 0.0), 0.3)
    deltas = [2.0 ** (-j) for j in range(4, 10)]
    bands = geo.ramp_bands(unit_disk_collar, rigid_rotation.trace_z_plane, bump.value,
                           unit_disk.v, 10, (), 0.0, deltas)
    assert max(abs(geo.ramp_integral(bands, d)[0]) for d in deltas) == 0.0


def test_line_vortex_tangential_flux(line_vortex):
    man = geo.disk_patch((0, 0, 0.5), 0.5)
    col = geo.build_tangential_collar(man)
    res = stk.stokes_tangential(line_vortex.trace_z_plane, man, col, 0.0)
    assert res.converged
    assert abs(res.extrapolated - 1.0) < 1e-10


def test_constant_field_zero_flux(unit_disk, unit_disk_collar):
    cst = flds.constant_field((0.3, -0.2, 0.7))
    trace = lambda pts: np.cross(cst.eval(pts), np.array([0.0, 0.0, 1.0]))
    res = stk.stokes_tangential(trace, unit_disk, unit_disk_collar, 0.0)
    assert res.converged and abs(res.extrapolated) < 1e-10


def test_newtonian_zero_flux_away_from_singularity(newtonian):
    man = geo.disk_patch((0, 0, 0.5), 0.4)
    col = geo.build_tangential_collar(man)
    res = stk.stokes_tangential(newtonian.trace_z_plane, man, col, 0.0)
    assert res.converged and abs(res.extrapolated) < 1e-10


def _unit_case(name):
    """(trace, breaks_radii, t) of a unit-disk flux case."""
    rr, lv, an = (flds.catalog(n) for n in ("rigid_rotation", "line_vortex", "annuli"))
    if name == "rigid_rotation":
        return rr.trace_z_plane, (), 0.1
    if name == "zero_flux":
        # rigid rotation minus 2 pi 0.81 line vortices: no flux through radius 0.9
        w = 2.0 * np.pi * 0.81
        return lambda x: rr.trace_z_plane(x) - w * lv.trace_z_plane(x), (), 0.1
    return an.trace_z_plane, an.trace_breaks_radii, float(name.split("@")[1])


UNIT_CASES = ("rigid_rotation", "annuli@0.3", "annuli@0", "zero_flux")


@pytest.fixture(scope="module")
def unit_references(unit_disk, unit_disk_collar):
    out = {}
    for name in UNIT_CASES:
        trace, breaks, t = _unit_case(name)
        out[name] = stk.stokes_tangential(trace, unit_disk, unit_disk_collar, t,
                                          breaks_radii=breaks)
    return out


def test_unit_references_read_the_closed_forms(unit_references):
    refs = unit_references
    assert refs["rigid_rotation"].converged
    assert abs(refs["rigid_rotation"].extrapolated - 2.0 * np.pi * 0.81) < 1e-10
    assert refs["annuli@0.3"].converged
    assert abs(refs["annuli@0.3"].extrapolated + 2.0 * np.pi * 0.7) < 1e-8
    assert not refs["annuli@0"].converged
    assert refs["zero_flux"].converged and abs(refs["zero_flux"].extrapolated) < 1e-12


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.sampled_from(UNIT_CASES), st.integers(-9, 9))
def test_verdict_and_flux_do_not_depend_on_units(unit_references, unit_disk,
                                                 unit_disk_collar, name, k):
    # the judge's scale is an integral of |trace| on the ramp bands, so it
    # scales with the field; the verdict must not see the factor 10^k
    trace, breaks, t = _unit_case(name)
    ref = unit_references[name]
    res = stk.stokes_tangential(lambda x: 10.0 ** k * trace(x), unit_disk,
                                unit_disk_collar, t, breaks_radii=breaks)
    assert res.converged == ref.converged
    assert abs(res.gap) / res.scale == pytest.approx(abs(ref.gap) / ref.scale,
                                                     rel=1e-3, abs=1e-13)
    if ref.converged:
        assert abs(res.extrapolated / 10.0 ** k - ref.extrapolated) <= 1e-12 * ref.scale
        pairing, mass, _ = stk.boundary_pairing_mass(
            lambda x: 10.0 ** k * trace(x), unit_disk, unit_disk_collar, t,
            breaks_radii=breaks)
        assert mass == res.extrapolated and pairing == -mass
    else:
        assert res.extrapolated is None
        with pytest.raises(stk.StokesRefusal):
            stk.boundary_pairing_mass(lambda x: 10.0 ** k * trace(x), unit_disk,
                                      unit_disk_collar, t, breaks_radii=breaks)


# ---------------------------------------------------------------------------
# density estimates
# ---------------------------------------------------------------------------


def test_density_rigid_rotation_centered(rigid_rotation, unit_disk,
                                         unit_disk_collar):
    x0 = np.array([1.0, 0.0, 0.0])
    dens = stk.stokes_density(rigid_rotation.trace_z_plane, unit_disk,
                              unit_disk_collar, 0.0, x0,
                              [2.0 ** -k for k in range(3, 9)])
    assert dens is not None
    assert abs(dens - 1.0) < 1e-2


def test_density_constant_field_cases(unit_disk, unit_disk_collar):
    # node 24 of the 96-node boundary rule sits at angle pi / 2
    boundary, _, tangents = rim(unit_disk)
    x0, tau = boundary.nodes[24], tangents[24]
    r_grid = [2.0 ** -k for k in range(3, 8)]
    # constant field parallel to the tangent: density = -|F|
    cst = flds.constant_field(tau)
    trace = lambda pts: np.cross(cst.eval(pts), np.array([0.0, 0.0, 1.0]))
    dens = stk.stokes_density(trace, unit_disk, unit_disk_collar, 0.0,
                              x0, r_grid)
    assert abs(dens + 1.0) < 1e-2
    # constant field orthogonal to the tangent: density = 0
    nrm = np.cross(np.array([0.0, 0.0, 1.0]), tau)
    cst2 = flds.constant_field(nrm)
    trace2 = lambda pts: np.cross(cst2.eval(pts), np.array([0.0, 0.0, 1.0]))
    dens2 = stk.stokes_density(trace2, unit_disk, unit_disk_collar, 0.0,
                               x0, r_grid)
    assert abs(dens2) < 1e-2


# ---------------------------------------------------------------------------
# surface divergence fluxes and the transversal route
# ---------------------------------------------------------------------------


def test_manifold_div_radial_dirac(unit_disk):
    def radial(pts):
        pts = np.atleast_2d(pts)
        rho2 = pts[:, 0] ** 2 + pts[:, 1] ** 2
        out = np.stack([pts[:, 0], pts[:, 1], np.zeros(len(pts))], axis=1)
        return out / (2.0 * np.pi * np.where(rho2 == 0, 1.0, rho2)[:, None])

    # divergence-free off the origin, with a unit atom there; the central
    # differences near the excluded disk add about 6e-5 of mass, not of flux
    flux, div_mass = stk.manifold_div_flux(radial, unit_disk, [(0.0, 0.0, 0.0)])
    assert abs(flux - 1.0) < 1e-10
    assert abs(div_mass - 1.0) < 1e-4


def test_manifold_div_rotation_free(unit_disk):
    def rot(pts):
        pts = np.atleast_2d(pts)
        return np.stack([-pts[:, 1], pts[:, 0], np.zeros(len(pts))], axis=1)

    flux, div_mass = stk.manifold_div_flux(rot, unit_disk)
    assert abs(flux) < 1e-8 and div_mass < 1e-8


def test_manifold_div_rejects_non_tangential(unit_disk):
    tilt = lambda pts: np.broadcast_to(np.array([0.0, 0.2, 1.0]),
                                       (np.atleast_2d(pts).shape[0], 3)).copy()
    with pytest.raises(stk.StokesRefusal):
        stk.manifold_div_flux(tilt, unit_disk)


def test_gauss_green_manifold_smooth(unit_disk, cylinder_collar):
    # smooth tangential field: the transversal route's <div v, 1> on the
    # shifted disk equals the outward conormal flux through its rim
    def v(pts):
        pts = np.atleast_2d(pts)
        return np.stack([pts[:, 0] ** 2, pts[:, 1], np.zeros(len(pts))], axis=1)

    out = stk.stokes_transversal(v, unit_disk, cylinder_collar, 0.25)
    boundary, conormals, _ = rim(geo.shift_transversal(unit_disk, cylinder_collar, 0.25))
    # the conormals point inward
    oracle = -float(np.sum(boundary.weights
                           * np.einsum("ij,ij->i", v(boundary.nodes), conormals)))
    assert abs(out["flux"] - oracle) < 1e-5


def test_transversal_route_line_vortex(line_vortex, cylinder_collar):
    man = geo.disk_patch((0, 0, 0), 1.0)
    for t in (0.15, 0.35):
        out = stk.stokes_transversal(line_vortex.trace_z_plane, man,
                                     cylinder_collar, t,
                                     singular_points=[(0, 0, t)])
        assert abs(out["flux"] - 1.0) < 1e-3


def test_transversal_route_rigid_rotation(rigid_rotation, cylinder_collar):
    man = geo.disk_patch((0, 0, 0), 1.0)
    out = stk.stokes_transversal(rigid_rotation.trace_z_plane, man,
                                 cylinder_collar, 0.25)
    assert abs(out["flux"] - 2.0 * np.pi) < 1e-6


def test_transversal_refuses_concentration(cylinder_collar):
    sheet = flds.SheetPart(
        geo.disk_patch((0, 0, 0.25), 1.0),
        lambda pts: np.broadcast_to(np.array([0.0, 1.0, 0.0]),
                                    (np.atleast_2d(pts).shape[0], 3)).copy())
    mu = flds.CurlMeasure(sheet_parts=(sheet,))
    man = geo.disk_patch((0, 0, 0), 1.0)
    scan = sel.maximal_transversal(mu, man, cylinder_collar, t_grid=[0.25])
    with pytest.raises(stk.StokesRefusal):
        stk.stokes_transversal(lambda pts: np.zeros_like(np.atleast_2d(pts)),
                               man, cylinder_collar, 0.25,
                               maximal_value=scan.values[0])


def test_div_mass_bounded_by_maximal(line_vortex, rigid_rotation, cylinder_collar):
    # one fitted constant bounds the surface divergence mass by the two-sided
    # transversal maximal value across the catalog
    man = geo.disk_patch((0, 0, 0), 1.0)
    ratios = []
    for entry, sing in ((line_vortex, True), (rigid_rotation, False)):
        for t in (0.2, 0.3):
            scan = sel.maximal_transversal(entry.curl, man, cylinder_collar, [t])
            out = stk.stokes_transversal(entry.trace_z_plane, man, cylinder_collar,
                                         t, singular_points=[(0, 0, t)] if sing else [])
            if scan.values[0] > 0:
                ratios.append(out["div_mass"] / scan.values[0])
    assert max(ratios) < 2.0


# ---------------------------------------------------------------------------
# boundary pairing / mass route
# ---------------------------------------------------------------------------


def test_boundary_pairing_radial_mass(line_vortex, unit_disk,
                                      unit_disk_collar):
    for t in (0.25, 0.5):
        pairing, mass, diag = stk.boundary_pairing_mass(
            line_vortex.trace_z_plane, unit_disk, unit_disk_collar, t)
        assert abs(mass - 1.0) < 1e-10


def test_boundary_pairing_smooth_matches_line_quadrature(unit_disk,
                                                         unit_disk_collar):
    def G(pts):
        pts = np.atleast_2d(pts)
        return np.stack([pts[:, 0] + 0.2 * pts[:, 1] ** 2, pts[:, 1],
                         np.zeros(len(pts))], axis=1)

    t = 0.2
    pairing, mass, _ = stk.boundary_pairing_mass(G, unit_disk, unit_disk_collar, t)
    layer = unit_disk_collar.layer(t, unit_disk.v)
    pts = layer.nodes
    con = pts / np.linalg.norm(pts, axis=1, keepdims=True)  # outward conormal
    oracle = float(np.sum(layer.weights * np.einsum("ij,ij->i", G(pts), con)))
    assert abs(mass - oracle) < 1e-4
    assert pairing == -mass


def test_boundary_pairing_zero(unit_disk, unit_disk_collar):
    zero = lambda pts: np.zeros_like(np.atleast_2d(pts))
    pairing, mass, _ = stk.boundary_pairing_mass(zero, unit_disk,
                                                 unit_disk_collar, 0.2)
    assert pairing == 0.0 and mass == 0.0


def test_mass_representative_independence(line_vortex, unit_disk,
                                          unit_disk_collar):
    # representatives that differ by a divergence-free field have one mass
    G1 = line_vortex.trace_z_plane

    def azimuthal(pts):
        pts = np.atleast_2d(pts)
        rho = np.hypot(pts[:, 0], pts[:, 1])
        f = np.sin(2.0 * rho)
        safe = np.where(rho == 0, 1.0, rho)
        return (f / safe)[:, None] * np.stack([-pts[:, 1], pts[:, 0],
                                               np.zeros(len(pts))], axis=1)

    def harmonic_rotated(pts):
        # Q grad(x^2 - y^2): divergence-free by construction
        pts = np.atleast_2d(pts)
        return np.stack([-2.0 * pts[:, 1], -2.0 * pts[:, 0],
                         np.zeros(len(pts))], axis=1)

    for extra in (azimuthal, harmonic_rotated):
        G2 = lambda pts, e=extra: G1(pts) + e(pts)
        for t in (0.1, 0.2, 0.3, 0.4, 0.45):
            _, m1, _ = stk.boundary_pairing_mass(G1, unit_disk, unit_disk_collar, t)
            _, m2, _ = stk.boundary_pairing_mass(G2, unit_disk, unit_disk_collar, t)
            assert abs(m1 - m2) < 1e-6


# ---------------------------------------------------------------------------
# normal trace of the curl measure: -int grad(phi) . dmu
# ---------------------------------------------------------------------------


def _normal_trace(mu, region, phi):
    return -float(np.sum(flds.integrate_measure(mu, phi.gradient, region)))


def test_normal_trace_constant_testfn(rigid_rotation, half_ball):
    one = ScalarTestFunction(lambda p: np.ones(np.atleast_2d(p).shape[0]),
                             lambda p: np.zeros_like(np.atleast_2d(p)))
    assert _normal_trace(rigid_rotation.curl, half_ball, one) == 0.0


def test_normal_trace_line_ramp(line_vortex, unit_cylinder):
    # phi = ramp in z: -int d3(phi) along the unit axis segment = -slope
    slope = 0.7
    phi = ScalarTestFunction(
        lambda p: slope * np.atleast_2d(p)[:, 2],
        lambda p: np.broadcast_to(np.array([0.0, 0.0, slope]),
                                  (np.atleast_2d(p).shape[0], 3)).copy())
    got = _normal_trace(line_vortex.curl, unit_cylinder, phi)
    assert abs(got + slope * 1.0) < 1e-12


def test_normal_trace_zero_measure(half_ball):
    phi = ScalarTestFunction(lambda p: np.atleast_2d(p)[:, 0],
                             lambda p: np.broadcast_to(np.array([1.0, 0.0, 0.0]),
                                                       (np.atleast_2d(p).shape[0], 3)).copy())
    assert _normal_trace(flds.ZERO_MEASURE, half_ball, phi) == 0.0


# ---------------------------------------------------------------------------
# route equality
# ---------------------------------------------------------------------------


def test_three_route_equality_line_vortex(line_vortex, cylinder_collar,
                                          unit_disk, unit_disk_collar):
    t = 0.25
    man_t = geo.disk_patch((0, 0, 0.5), 0.5)
    col_t = geo.build_tangential_collar(man_t)
    res = stk.stokes_tangential(line_vortex.trace_z_plane, man_t, col_t, t)
    tangential = res.extrapolated
    transversal = stk.stokes_transversal(line_vortex.trace_z_plane,
                                         unit_disk, cylinder_collar, t,
                                         singular_points=[(0, 0, t)])["flux"]
    _, mass, _ = stk.boundary_pairing_mass(line_vortex.trace_z_plane,
                                           unit_disk, unit_disk_collar, t)
    assert abs(tangential - 1.0) < 1e-3
    assert abs(transversal - 1.0) < 1e-3
    assert abs(mass - 1.0) < 1e-3
    assert abs(tangential - transversal) < 2e-3
    assert abs(tangential - mass) < 2e-3
    assert abs(transversal - mass) < 2e-3


# ---------------------------------------------------------------------------
# the face trace F x nu on tilted disks and caps: closed-form fluxes
# ---------------------------------------------------------------------------


def _j1(a: float) -> float:
    # Bessel J1 from its power series sum_k (-1)^k (a/2)^(2k+1) / (k! (k+1)!)
    k = np.arange(30)
    terms = np.cumprod(np.concatenate(([a / 2.0], -(a / 2.0) ** 2 / (k[1:] * (k[1:] + 1.0)))))
    return float(np.sum(terms))


def test_j1_series_reads_its_tabulated_values():
    assert _j1(1.0) == pytest.approx(0.44005058574493355, abs=1e-15)
    assert _j1(3.8317059702075125) == pytest.approx(0.0, abs=1e-14)  # its first zero


def _tangential_and_mass(entry, patch, t):
    # the tangential flux, and the mass route's flux from the same ramp sequence
    trace = flds.surface_trace(entry.vector_field, patch)
    col = geo.build_tangential_collar(patch)
    res = stk.stokes_tangential(trace, patch, col, t)
    pairing, mass, _ = stk.boundary_pairing_mass(trace, patch, col, t)
    assert res.converged and pairing == -mass
    return res.extrapolated, mass


UNIT_NORMALS = st.tuples(st.floats(0.0, np.pi), st.floats(0.0, 2.0 * np.pi)).map(
    lambda a: np.array([np.sin(a[0]) * np.cos(a[1]), np.sin(a[0]) * np.sin(a[1]), np.cos(a[0])]))
CENTRES = st.tuples(*[st.floats(-2.0, 2.0)] * 3).map(np.array)
RADII = st.floats(0.2, 3.0)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(UNIT_NORMALS, CENTRES, RADII, st.floats(0.0, 0.45))
def test_rigid_rotation_through_a_tilted_disk_is_2_pi_r2_nz(rigid_rotation, normal, center,
                                                            radius, t):
    patch = geo.disk_patch(center, radius, normal)
    exact = 2.0 * np.pi * (radius * (1.0 - t)) ** 2 * patch.frame[2][2]
    for flux in _tangential_and_mass(rigid_rotation, patch, t):
        assert flux == pytest.approx(exact, abs=1e-10 * radius ** 2)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(UNIT_NORMALS.filter(lambda n: abs(n[2]) >= 0.3), st.floats(-1.0, 1.0), RADII,
       st.floats(0.0, 0.3), st.floats(0.0, 2.0 * np.pi), st.booleans(), st.floats(0.0, 1.0))
def test_line_vortex_through_a_tilted_disk_is_the_sign_of_nz_where_its_axis_crosses(
        line_vortex, normal, height, radius, t, angle, crosses, f):
    # the axis meets the disk's plane at (0, 0, height), inside the shrunk disk
    # well clear of the ramp bands (0.25 R off centre at most) or well outside
    # the disk (1.5 R to 2 R off centre): the 96-node rings resolve its 1 / rho
    # to about 1e-9 at the steepest tilts
    e1, e2, n = geo.frame_from_normal(normal)
    off = radius * (0.25 * f if crosses else 1.5 + 0.5 * f)
    center = np.array([0.0, 0.0, height]) + off * (np.cos(angle) * e1 + np.sin(angle) * e2)
    exact = np.sign(n[2]) if crosses else 0.0
    for flux in _tangential_and_mass(line_vortex, geo.disk_patch(center, radius, normal), t):
        assert flux == pytest.approx(exact, abs=1e-8)


@pytest.mark.parametrize("n_angular, bound", [(192, 1e-10), (384, 1e-15)])
def test_the_collar_rings_take_the_patch_angular_rule(line_vortex, n_angular, bound):
    # the axis meets the tilted unit disk's plane 1.25 R from its centre, so
    # the flux is 0; on 96-node rings, whatever the patch's rule, both routes
    # read -3.76e-6 CONVERGED at every n_angular
    patch = geo.disk_patch((1.25 * np.cos(1.0), 0.0, 0.0), 1.0,
                           normal=(np.sin(1.0), 0.0, np.cos(1.0)), n_angular=n_angular)
    col, rules = geo.build_tangential_collar(patch), []

    def layer(s, rule):
        rules.append(rule)
        return col.layer(s, rule)

    stk.stokes_tangential(flds.surface_trace(line_vortex.vector_field, patch), patch,
                          dataclasses.replace(col, layer=layer), 0.0)
    assert rules and all(rule is patch.v for rule in rules)
    assert patch.v.weights.shape == (n_angular,)
    for flux in _tangential_and_mass(line_vortex, patch, 0.0):
        assert abs(flux) < bound


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.floats(-2.0, 2.0), RADII, st.floats(0.2, 2.8), st.floats(0.0, 0.45),
       st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
def test_caps_carry_minus_2_pi_r2_sin2_and_minus_1(rigid_rotation, line_vortex, height,
                                                  radius, colatitude, t, cx, cy):
    # the normals point to the centre: -e3 at the pole. Rigid rotation's flux is
    # its curl 2 e3 through the disk the shrunk cap projects to, at any centre;
    # the line vortex crosses a cap about the z axis once, at its pole
    cap = geo.spherical_cap_patch((cx, cy, height), radius, colatitude)
    exact = -2.0 * np.pi * (radius * np.sin(colatitude * (1.0 - t))) ** 2
    for flux in _tangential_and_mass(rigid_rotation, cap, t):
        assert flux == pytest.approx(exact, abs=1e-10 * radius ** 2)
    cap = geo.spherical_cap_patch((0.0, 0.0, height), radius, colatitude)
    for flux in _tangential_and_mass(line_vortex, cap, t):
        assert flux == pytest.approx(-1.0, abs=1e-9)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(CENTRES, RADII, st.floats(0.0, 0.45))
def test_plane_wave_through_a_z_disk_is_cos_cx_2_pi_a_j1(center, radius, t):
    # curl = cos(x) e3, and the shrunk disk has radius a = R (1 - t)
    a = radius * (1.0 - t)
    exact = np.cos(center[0]) * 2.0 * np.pi * a * _j1(a)
    entry = flds.catalog("plane_wave_em")
    for flux in _tangential_and_mass(entry, geo.disk_patch(center, radius), t):
        assert flux == pytest.approx(exact, abs=1e-10 * radius ** 2)


# ---------------------------------------------------------------------------
# smooth validators and jump conditions
# ---------------------------------------------------------------------------


def test_smooth_validators_rigid(rigid_rotation, half_ball):
    phi = smooth_bump((0.1, 0.0, 0.2), 2.5)
    other = random_trig_vector(11, n_modes=2, kmax=1.0)
    res = stk.smooth_validators(rigid_rotation.vector_field, half_ball, phi, other)
    assert max(res.values()) < 1e-8


def test_smooth_validators_constant(half_ball):
    cst = flds.constant_field((0.4, -0.1, 0.9))
    phi = smooth_bump((0.0, 0.0, 0.3), 2.5)
    other = random_trig_vector(13, n_modes=2, kmax=1.0)
    res = stk.smooth_validators(cst, half_ball, phi, other)
    assert max(res.values()) < 1e-8


def test_smooth_validators_gradient_field(half_ball):
    # F = grad(x y z): curl-free polynomial field
    fld = flds.VectorField(
        lambda x: np.stack([np.atleast_2d(x)[:, 1] * np.atleast_2d(x)[:, 2],
                            np.atleast_2d(x)[:, 0] * np.atleast_2d(x)[:, 2],
                            np.atleast_2d(x)[:, 0] * np.atleast_2d(x)[:, 1]], axis=1),
        analytic_curl=lambda x: np.zeros_like(np.atleast_2d(x)))
    phi = smooth_bump((0.0, 0.1, 0.3), 2.5)
    other = random_trig_vector(17, n_modes=2, kmax=1.0)
    res = stk.smooth_validators(fld, half_ball, phi, other)
    assert max(res.values()) < 1e-8


def test_integrals_of_normals_on_faces_above_block_points(rigid_rotation):
    # 6144-node faces: each block of the node set reads its own normals, and
    # the integrals equal one evaluation on all nodes
    fld = rigid_rotation.vector_field
    region = geo.cylinder_region(order=64)
    assert min(len(p.weights) for p in region.boundary) > geo.BLOCK_POINTS
    phi = smooth_bump((0.1, 0.0, 0.2), 2.5)
    other = random_trig_vector(11, n_modes=2, kmax=1.0)
    res = stk.smooth_validators(fld, region, phi, other)
    bd = sum(geo._node_sum(p.weights, np.cross(fld.eval(p.nodes), p.normals))
             for p in region.boundary)
    assert res["D1"] == np.linalg.norm(geo.integrate(region, fld.analytic_curl) - bd)


def test_rankine_hugoniot_constructed():
    interface = geo.disk_patch((0, 0, 0), 1.0)
    pw, mu = flds.make_vortex_sheet(flds.constant_field((1.0, 0.0, 0.0)),
                                    flds.constant_field((-1.0, 0.0, 0.0)), interface)
    res_n, res_t = stk.rankine_hugoniot_check(pw, mu.sheet_parts[0].density)
    assert res_n == 0.0 and res_t <= 1e-10


def test_rankine_hugoniot_continuous():
    interface = geo.disk_patch((0, 0, 0), 1.0)
    pw, mu = flds.make_vortex_sheet(flds.constant_field((0.3, 0.1, 0.0)),
                                    flds.constant_field((0.3, 0.1, 0.0)), interface)
    res_n, res_t = stk.rankine_hugoniot_check(pw)
    assert res_n == 0.0 and res_t == 0.0


def test_rankine_hugoniot_detects_normal_jump():
    eps = 1e-3
    interface = geo.disk_patch((0, 0, 0), 1.0)
    pw, _ = flds.make_vortex_sheet(flds.constant_field((1.0, 0.0, eps)),
                                   flds.constant_field((0.0, 0.0, 0.0)), interface)
    res_n, _ = stk.rankine_hugoniot_check(pw)
    assert abs(res_n - eps) < 1e-12
