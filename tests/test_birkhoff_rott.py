import numpy as np
import pytest

from curlflux import birkhoff_rott as br


def _bumped_sheet(n1, n2, gamma=(0.8, -0.5, 0.0), amplitude=0.04):
    sheet = br.flat_periodic_sheet(n1, n2, gamma=gamma, bump_amplitude=amplitude)
    return br.step(sheet, 0.01)


def _image_loop(sheet, targets):
    # one target at a time: fold each displacement into the target's cell and
    # add the four hat-weighted images of the 2x2 block
    src, g, w = sheet.flat()
    lx, ly = sheet.periods
    out = np.zeros((len(targets), 3))
    for i, x in enumerate(targets):
        for j in range(len(src)):
            d = x - src[j]
            d[0] -= lx * np.floor(d[0] / lx + 0.5)
            d[1] -= ly * np.floor(d[1] / ly + 0.5)
            ux, uy = abs(d[0]) / lx, abs(d[1]) / ly
            px = d[0] - lx if d[0] > 0.0 else d[0] + lx
            py = d[1] - ly if d[1] > 0.0 else d[1] + ly
            for cx, hx in ((d[0], 1.0 - ux), (px, ux)):
                for cy, hy in ((d[1], 1.0 - uy), (py, uy)):
                    out[i] += hx * hy * br.two_body_velocity(
                        g[j], (x[0] - cx, x[1] - cy, src[j][2]), w[j], x, sheet.desing)
    return out


@pytest.mark.parametrize("n_targets", [1, 37])
def test_periodic_kernel_matches_image_loop(n_targets):
    # 37 targets span a full chunk and a partial one
    sheet = _bumped_sheet(7, 6)
    rng = np.random.default_rng(5)
    targets = np.column_stack([rng.uniform(-0.3, 1.3, n_targets), rng.uniform(-0.3, 1.3, n_targets),
                               rng.uniform(-0.2, 0.2, n_targets)])
    got = br.br_velocity(sheet, targets)
    ref = _image_loop(sheet, targets)
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_free_space_kernel_matches_two_body_sum():
    base = _bumped_sheet(5, 4)
    sheet = br.SheetState(base.markers, base.strength, base.weights, 0.1)
    src, g, w = sheet.flat()
    targets = np.vstack([src[:9], [[0.5, 0.5, 0.3], [2.0, -1.0, 0.0]]])
    got = br.br_velocity(sheet, targets)
    ref = np.array([sum(br.two_body_velocity(g[j], src[j], w[j], x, sheet.desing)
                        for j in range(len(src))) for x in targets])
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("shape", [(7, 6), (5, 13)])
def test_periodic_self_interaction_matches_image_loop(shape):
    # the sheet's own markers take the pairwise path: 42 markers are a full
    # strip of 32 rows and a partial one, 65 leave the last strip one row
    sheet = _bumped_sheet(*shape)
    markers = sheet.flat()[0]
    got = br.br_velocity(sheet, markers)
    ref = _image_loop(sheet, markers)
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_free_space_self_interaction_matches_two_body_sum():
    base = _bumped_sheet(5, 13)
    sheet = br.SheetState(base.markers, base.strength, base.weights, 0.1)
    src, g, w = sheet.flat()
    got = br.br_velocity(sheet, src)
    ref = np.array([sum(br.two_body_velocity(g[j], src[j], w[j], x, sheet.desing)
                        for j in range(len(src))) for x in src])
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_flat_uniform_periodic_sheet_cancels():
    sheet = br.flat_periodic_sheet(12, 10, gamma=(1.0, 0.3, 0.0))
    u = br.br_velocity(sheet, sheet.flat()[0])
    assert np.max(np.abs(u)) <= 1e-14


@pytest.mark.parametrize("shape", [(4, 1), (1, 4)])
def test_one_row_sheets_step(shape):
    out = br.step(br.flat_periodic_sheet(*shape), 0.01)
    assert out.markers.shape == shape + (3,)
    assert np.all(np.isfinite(out.markers))


@pytest.mark.parametrize("axis", [0, 1])
def test_collision_flagged_along_either_axis(axis):
    sheet = br.flat_periodic_sheet(4, 4)
    markers = sheet.markers.copy()
    idx = (1, 0) if axis == 0 else (0, 1)
    markers[idx] = markers[0, 0] + 1e-6
    with pytest.raises(br.SheetError, match="collision"):
        br._flag_collisions(br.SheetState(markers, sheet.strength, sheet.weights,
                                          sheet.desing, periods=sheet.periods), 0.1)
