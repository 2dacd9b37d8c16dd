"""The column kernels give numpy's own floats, every callable written by
columns gives the floats of the row broadcasts it replaced, and per-node
numpy reductions, crosses, stacks and tiles stay out of the modules that
evaluate at quadrature nodes."""

import ast
import dataclasses
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from curlflux import fields as flds
from curlflux import geometry as geo
from curlflux import testfns
from curlflux.quadrature import periodic_trapezoid
from curlflux.traces import _scalar_as_vec

SRC = Path(__file__).resolve().parents[1] / "src" / "curlflux"

# finite values whose squares and products neither overflow nor lose the
# subnormals and signed zeros
COORDS = st.one_of(st.floats(-1e150, 1e150),
                   st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e-160, -3e-200]))
SHAPES = st.one_of(st.tuples(st.integers(0, 40), st.just(3)),
                   st.tuples(st.integers(1, 5), st.integers(0, 8), st.just(3)))
ROWS = st.tuples(st.integers(0, 40), st.just(3))


@st.composite
def vectors(draw, shape=SHAPES):
    # arrays (n, 3) or (k, m, 3), of a shape given or drawn, some rows zero
    shape = shape if isinstance(shape, tuple) else draw(shape)
    v = draw(arrays(np.float64, shape, elements=COORDS))
    v[draw(arrays(np.bool_, shape[:-1]))] = 0.0
    return v


def _np_unit(v):
    # the unit vectors as np.linalg.norm gives them
    n = np.linalg.norm(v, axis=-1, keepdims=True)
    return v / np.where(n == 0.0, 1.0, n)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(vectors())
def test_norm_and_unit_give_the_floats_of_np_linalg_norm(v):
    assert geo._norm(v).tobytes() == np.linalg.norm(v, axis=-1).tobytes()
    assert geo._unit(v).tobytes() == _np_unit(v).tobytes()
    # columns read through a transposed view, as the bumps read theirs
    vt = np.ascontiguousarray(np.moveaxis(v, -1, 0))
    assert geo._norm(np.moveaxis(vt, 0, -1)).tobytes() == np.linalg.norm(v, axis=-1).tobytes()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_cross_rows_gives_the_floats_of_np_cross(data):
    a = data.draw(vectors())
    b = data.draw(vectors(a.shape))
    assert geo._cross_rows(a, b).tobytes() == np.cross(a, b).tobytes()
    # one side a single vector, as a plane normal or a fixed direction is
    w = data.draw(arrays(np.float64, 3, elements=COORDS))
    assert geo._cross_rows(a, w).tobytes() == np.cross(a, w).tobytes()
    assert geo._cross_rows(w, a).tobytes() == np.cross(w, a).tobytes()


@settings(max_examples=100, deadline=None, derandomize=True)
@given(vectors((25, 3)), arrays(np.float64, 3, elements=st.floats(-2.0, 2.0)),
       st.floats(0.05, 3.0), st.sampled_from([0.3, 0.5]), st.booleans())
def test_a_radial_bump_gives_the_floats_of_the_add_reduce_radius(x, center, radius, plateau,
                                                                  smooth):
    make, profile, prime = ((testfns.smooth_bump, testfns._exp_profile,
                             testfns._exp_profile_prime) if smooth else
                            (testfns.radial_bump, testfns.cutoff_profile,
                             testfns.cutoff_profile_prime))
    x = center + np.clip(x, -4.0, 4.0)
    x[0] = center  # the centre, where the gradient is 0
    rel = x - center
    r = np.sqrt(np.add.reduce(rel * rel, axis=1))
    mag = prime(r / radius, plateau) / radius
    safe = np.where(r == 0.0, 1.0, r)
    bump = make(center, radius, plateau)
    assert bump.value(x).tobytes() == profile(r / radius, plateau).tobytes()
    assert bump.gradient(x).tobytes() == (mag[:, None] * rel / safe[:, None]).tobytes()


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.data())
def test_the_column_helpers_give_the_floats_of_row_and_column_broadcasts(data):
    a = data.draw(vectors())
    w = data.draw(arrays(np.float64, 3, elements=COORDS))
    t = data.draw(COORDS)
    s = data.draw(arrays(np.float64, a.shape[:-1], elements=COORDS))
    with np.errstate(all="ignore"):
        assert (geo._by_columns(lambda p, v: p + t * v, a, w).tobytes()
                == (a + t * w).tobytes())
        assert geo._by_columns(lambda c: c * s, a).tobytes() == (a * s[..., None]).tobytes()
        assert (geo._by_columns(np.multiply, a, s[..., None]).tobytes()
                == (a * s[..., None]).tobytes())
        assert geo._by_columns(np.subtract, a, w).tobytes() == (a - w).tobytes()
    assert geo._columns(s, -s, 0.0).tobytes() == np.stack(
        [s, -s, np.zeros_like(s)], axis=-1).tobytes()
    assert geo._rows(w, len(a)).tobytes() == np.tile(w, (len(a), 1)).tobytes()


# the row broadcasts the column forms replaced, as the modules wrote them

def _old_arc(center, radius, e1, e2, rule):
    center = np.asarray(center, dtype=float)[..., None, :]
    radius = np.asarray(radius, dtype=float)
    ring = np.cos(rule.nodes)[:, None] * e1 + np.sin(rule.nodes)[:, None] * e2
    return center + radius[..., None, None] * ring, rule.weights * radius[..., None]


def _old_slide(kind, patch):
    # shift_point, shifted_normal, outward_field and slab_coordinate
    if kind == "planar":
        inward = patch.frame[2]

        def rows(p, v):
            return np.broadcast_to(v, (np.atleast_2d(p).shape[0], 3)).copy()

        return (lambda p, t: np.atleast_2d(p) + t * inward,
                lambda p, t: rows(p, patch.normals[0]), lambda p: rows(p, -inward),
                lambda p: (np.atleast_2d(p) - patch.origin) @ inward)
    c, r = patch.origin, patch.scale
    if kind == "spherical":
        return (lambda p, t: c + (1.0 - t / r) * (np.atleast_2d(p) - c),
                lambda p, t: -_np_unit(np.atleast_2d(p) - c),
                lambda p: _np_unit(np.atleast_2d(p) - c),
                lambda p: r - np.linalg.norm(np.atleast_2d(p) - c, axis=-1))

    def radial(p):
        rel = np.atleast_2d(p) - c
        rel[..., 2] = 0.0
        return _np_unit(rel)

    def slab(p):
        rel = np.atleast_2d(p) - c
        return r - np.hypot(rel[..., 0], rel[..., 1])

    return lambda p, t: np.atleast_2d(p) - t * radial(p), lambda p, t: -radial(p), radial, slab


SMALL = st.one_of(st.floats(-3.0, 3.0), st.sampled_from([0.0, -0.0]))
ORIGINS = arrays(np.float64, 3, elements=SMALL)
NORMALS = arrays(np.float64, 3, elements=st.floats(-1.0, 1.0)).filter(
    lambda n: np.linalg.norm(n) > 1e-3)
RADII = st.floats(0.1, 3.0)
SLIDE_PATCHES = {
    "planar": lambda o, n, r: geo.disk_patch(o, r, normal=n, order=4, n_angular=8),
    "spherical": lambda o, n, r: geo.sphere_patch(o, r, order=4, n_angular=8),
    "cylinder": lambda o, n, r: geo.cylinder_side_patch(o, r, -0.5, 0.5, order=4, n_angular=8),
}


@pytest.mark.parametrize("kind", sorted(SLIDE_PATCHES))
@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data(), origin=ORIGINS, normal=NORMALS, radius=RADII,
       t=st.floats(-1e3, 1e3), layers=arrays(np.float64, st.integers(0, 4),
                                             elements=st.floats(-2.0, 2.0)))
def test_the_slides_give_the_floats_of_the_row_broadcasts(kind, data, origin, normal, radius,
                                                         t, layers):
    patch = SLIDE_PATCHES[kind](origin, normal, radius)
    make = {"planar": geo.planar_slide, "spherical": geo.spherical_slide,
            "cylinder": geo.cylinder_slide}[kind]
    slide, old = make(patch), _old_slide(kind, patch)
    pts = data.draw(vectors())
    with np.errstate(all="ignore"):
        assert slide.shift_point(pts, t).tobytes() == old[0](pts, t).tobytes()
        assert slide.shifted_normal(pts, t).tobytes() == old[1](pts, t).tobytes()
        assert slide.outward_field(pts).tobytes() == old[2](pts).tobytes()
        assert slide.slab_coordinate(pts).tobytes() == old[3](pts).tobytes()
        # slab_integral's layers: an array t against a column slides (n, 3)
        # points to (k, n, 3), as a (k, 1, 1) t against the rows did
        flat = pts.reshape(-1, 3)
        assert (slide.shift_point(flat, layers[:, None]).tobytes()
                == old[0](flat, layers[:, None, None]).tobytes())
        assert slide.shift_point(origin, t).tobytes() == old[0](origin, t).tobytes()


@settings(max_examples=40, deadline=None, derandomize=True)
@given(origin=ORIGINS, normal=NORMALS, radius=RADII, colatitude=st.floats(0.1, 3.0),
       s=st.floats(0.0, 1.0),
       family=arrays(np.float64, st.integers(0, 4), elements=st.floats(0.0, 1.0)))
def test_the_collars_give_the_floats_of_the_row_broadcasts(origin, normal, radius, colatitude,
                                                          s, family):
    # each collar rings its layers on the angular rule it is given, here its
    # patch's own, and forms its gradient on the same (s, theta)
    rule = periodic_trapezoid(8)
    disk = geo.disk_patch(origin, radius, normal=normal, order=4, n_angular=8)
    col = geo.build_tangential_collar(disk)
    e1, e2, _ = disk.frame
    ring = np.cos(rule.nodes)[:, None] * e1 + np.sin(rule.nodes)[:, None] * e2
    for at in (s, family):
        assert col.grad_s(at, disk.v).tobytes() == (-ring / radius).tobytes()
        got = col.layer(at, disk.v)
        want = _old_arc(origin, radius * (1.0 - at), e1, e2, rule)
        assert (got.nodes.tobytes(), got.weights.tobytes()) == tuple(w.tobytes() for w in want)

    cap = geo.spherical_cap_patch(origin, radius, colatitude)  # on the default rules
    rule = periodic_trapezoid(geo.DEFAULT_ANGULAR)
    col = geo.build_tangential_collar(cap)
    height = float(np.sum(cap.u.weights))
    th0 = float(np.arctan2(np.sqrt(height * (2.0 - height)), 1.0 - height))
    phi = rule.nodes
    for at in (s, family):
        th = th0 * (1.0 - np.asarray(at))
        c = origin + np.multiply.outer(radius * np.cos(th), [0.0, 0.0, 1.0])
        got = col.layer(at, cap.v)
        want = _old_arc(c, radius * np.sin(th), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), rule)
        assert (got.nodes.tobytes(), got.weights.tobytes()) == tuple(w.tobytes() for w in want)
        th = th[..., None]
        e_theta = np.stack(np.broadcast_arrays(np.cos(th) * np.cos(phi), np.cos(th) * np.sin(phi),
                                               -np.sin(th)), axis=-1)
        assert col.grad_s(at, cap.v).tobytes() == (-e_theta / (radius * th0)).tobytes()


def _old_nodes_and_normals(p):
    u, v = p.u.nodes, p.v.nodes
    if p.coordinates == "polar":
        e1, e2, _ = p.frame
        ring = np.cos(v)[..., None] * e1 + np.sin(v)[..., None] * e2
        pts = p.origin + u[..., None] * ring
    elif p.coordinates == "spherical":
        st_ = np.sqrt(np.clip(1.0 - u * u, 0.0, None))
        local = np.stack(np.broadcast_arrays(st_ * np.cos(v), st_ * np.sin(v), u), axis=-1)
        pts = p.origin + p.scale * local
    elif p.coordinates == "cylinder_side":
        r = p.scale
        pts = p.origin + np.stack(np.broadcast_arrays(r * np.cos(v), r * np.sin(v), u), axis=-1)
    else:
        e1, e2, _ = p.frame
        pts = p.origin + u[..., None] * e1 + v[..., None] * e2
    pts = pts.reshape(-1, 3)
    if p.coordinates == "spherical":
        return pts, -_np_unit(pts - p.origin)
    if p.coordinates == "cylinder_side":
        ring = -np.stack([np.cos(v), np.sin(v), np.zeros_like(v)], axis=1)
        return pts, np.tile(ring, (u.size, 1))
    return pts, np.tile(p.frame[2], (np.broadcast(u, v).size, 1))


def _old_volume(region):
    ra, rb, rc = region.volume_rules
    a, b, c = ra.nodes[:, None, None], rb.nodes[:, None], rc.nodes
    if region.coordinates == "spherical":
        st_ = np.sqrt(np.clip(1.0 - b * b, 0.0, None))
        a, b, c = a * st_ * np.cos(c), a * st_ * np.sin(c), a * b
    elif region.coordinates == "cylindrical":
        a, b, c = a * np.cos(b), a * np.sin(b), c
    pts = np.stack(np.broadcast_arrays(a, b, c), axis=-1).reshape(-1, 3)
    pts = pts if region.frame is None else pts @ region.frame
    pts += region.center
    return pts


@settings(max_examples=40, deadline=None, derandomize=True)
@given(origin=ORIGINS, normal=NORMALS, radius=RADII, colatitude=st.floats(0.1, 3.0),
       inner=st.booleans(), e1=NORMALS, e2=NORMALS)
def test_patch_nodes_normals_and_volume_rules_give_the_floats_of_the_row_broadcasts(
        origin, normal, radius, colatitude, inner, e1, e2):
    assume(np.linalg.norm(np.cross(e1, e2)) > 1e-3)
    patches = [geo.disk_patch(origin, radius, normal=normal, order=4, n_angular=8),
               geo.sphere_patch(origin, radius, order=4, n_angular=8),
               geo.spherical_cap_patch(origin, radius, colatitude),
               geo.cylinder_side_patch(origin, radius, -0.5, 0.5, 4, 8),
               geo.rectangle_patch(origin, e1, e2, radius, 0.5, -1.0 if inner else 1.0, 4)]
    for p in patches:
        nodes, normals = _old_nodes_and_normals(p)
        assert p.nodes.tobytes() == nodes.tobytes()
        assert p.normals.tobytes() == normals.tobytes()
    ball = geo.ball_region(origin, radius, order=4, n_angular=6)
    regions = [ball, geo.half_ball_region(origin, radius, order=4, n_angular=6),
               geo.cylinder_region(origin, radius, -0.5, 0.5, order=4, n_angular=6),
               geo.box_region(origin, (radius, 0.5, 1.0), order=4),
               dataclasses.replace(ball, frame=np.stack(geo.frame_from_normal(normal)))]
    for region in regions:
        assert region._volume[0].tobytes() == _old_volume(region).tobytes()


def _old_catalog(name, x):
    # (eval, analytic curl or None, Lebesgue density or None) on the rows
    x = np.atleast_2d(x)
    zeros = np.zeros(len(x))
    if name == "newtonian":
        r3 = np.linalg.norm(x, axis=-1) ** 3
        return -x / (4.0 * np.pi * r3[:, None]), None, None
    if name == "line_vortex":
        rho2 = x[:, 0] ** 2 + x[:, 1] ** 2
        return np.stack([-x[:, 1] / rho2, x[:, 0] / rho2, x[:, 2]], axis=1) / (2.0 * np.pi), \
            None, None
    if name == "annuli":
        rho = np.hypot(x[:, 0], x[:, 1])
        eta = flds.alternation_profile(rho)
        safe = np.where(rho == 0.0, 1.0, rho)
        return (eta / safe)[:, None] * np.stack([x[:, 1], -x[:, 0], zeros], axis=1), None, None
    if name == "rigid_rotation":
        const = np.tile(np.array([0.0, 0.0, 2.0]), (len(x), 1))
        return np.stack([-x[:, 1], x[:, 0], zeros], axis=1), const, const
    crl = np.stack([zeros, zeros, np.cos(x[:, 0])], axis=1)
    return np.stack([zeros, np.sin(x[:, 0]), zeros], axis=1), crl, crl


@pytest.mark.parametrize("name", flds.CATALOG_NAMES)
@settings(max_examples=40, deadline=None, derandomize=True)
@given(x=vectors(ROWS), s=vectors((5, 3)),
       origin=ORIGINS)
def test_the_catalog_gives_the_floats_of_the_row_broadcasts(name, x, s, origin):
    entry = flds.catalog(name)
    fld = entry.vector_field
    with np.errstate(all="ignore"):
        want = _old_catalog(name, x)
        assert fld.eval(x).tobytes() == want[0].tobytes()
        if want[1] is not None:
            assert fld.analytic_curl(x).tobytes() == want[1].tobytes()
            assert entry.curl.lebesgue_density(x).tobytes() == want[2].tobytes()
        for lp in entry.curl.line_parts if entry.curl else ():
            assert lp.density(x).tobytes() == np.broadcast_to(
                lp.direction, (len(x), 3)).copy().tobytes()
            assert lp.positions(s).tobytes() == (
                lp.point + np.ravel(s)[:, None] * lp.direction).tobytes()
        sphere = geo.sphere_patch(origin, 1.5, order=4, n_angular=8)
        assert flds.surface_trace(fld, sphere)(x).tobytes() == geo._cross_rows(
            fld.eval(x), -_np_unit(x - origin)).tobytes()


@settings(max_examples=50, deadline=None, derandomize=True)
@given(x=vectors(ROWS),
       k=arrays(np.float64, 3, elements=st.floats(-50.0, 50.0)),
       a=arrays(np.float64, 3, elements=SMALL), d=arrays(np.float64, 3, elements=SMALL),
       phase=st.floats(-3.0, 3.0), v=arrays(np.float64, st.integers(0, 40), elements=COORDS))
def test_the_test_fields_give_the_floats_of_the_row_broadcasts(x, k, a, d, phase, v):
    x = np.clip(x, -50.0, 50.0)
    assert testfns.trig_scalar(k).gradient(x).tobytes() == (np.cos(x @ k)[:, None] * k).tobytes()
    modes = [(a, k, phase), (d, -k, 0.5)]
    value, curl = np.zeros_like(x), np.zeros_like(x)
    for am, km, pm in modes:
        value += np.sin(x @ km + pm)[:, None] * am
        curl += np.cos(x @ km + pm)[:, None] * np.cross(km, am)
    field = testfns.trig_vector(modes)
    assert field.value(x).tobytes() == value.tobytes()
    assert field.curl(x).tobytes() == curl.tobytes()
    bump = testfns.radial_bump(d, 2.0)
    assert testfns.bump_vector(d, 2.0, a).value(x).tobytes() == (
        bump.value(x)[:, None] * a).tobytes()
    assert _scalar_as_vec(lambda y: v)(None).tobytes() == np.repeat(v[:, None], 3,
                                                                     axis=1).tobytes()


# ---------------------------------------------------------------------------
# source guard
# ---------------------------------------------------------------------------

GUARDED = ("geometry", "testfns", "traces", "selection", "fields", "stokes")
# single-vector uses, by module and enclosing function, with their reason
SINGLE_VECTOR = {
    ("testfns", "trig_vector.curl"): "np.cross(k, a) of one mode's two 3-vectors",
}


def _dotted(node):
    # "np.linalg.norm" for the attribute chain of a call's function
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return ".".join(reversed(parts))


def _axis(call):
    # the axis a call is given, by keyword or (np.add.reduce, np.repeat) as
    # its last positional argument, as source text; None without one
    for k in call.keywords:
        if k.arg == "axis":
            return ast.unparse(k.value)
    limit = {"np.add.reduce": 1, "np.repeat": 2}.get(_dotted(call.func))
    if limit is not None and len(call.args) > limit:
        return ast.unparse(call.args[limit])
    return None


def _per_node_calls(tree):
    # (enclosing function path, call) for every np.cross, np.outer, np.tile or
    # np.multiply.outer call, every np.linalg.norm, np.add.reduce or
    # np.repeat call given an axis, and every np.stack along the last axis
    found = []

    def visit(node, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, path + (child.name,))
                continue
            if isinstance(child, ast.Call):
                name, axis = _dotted(child.func), _axis(child)
                if (name in ("np.cross", "np.outer", "np.tile", "np.multiply.outer")
                        or (name in ("np.linalg.norm", "np.add.reduce", "np.repeat")
                            and axis is not None)
                        or (name == "np.stack" and axis in ("1", "-1"))):
                    found.append((".".join(path), name))
            visit(child, path)

    visit(tree, ())
    return found


@pytest.mark.parametrize("module", GUARDED)
def test_per_node_vector_arithmetic_goes_through_the_column_kernels(module):
    tree = ast.parse((SRC / f"{module}.py").read_text())
    calls = _per_node_calls(tree)
    assert [c for c in calls if (module, c[0]) not in SINGLE_VECTOR] == []


def test_the_single_vector_allowlist_names_live_calls():
    live = {(m, path) for m in GUARDED
            for path, _ in _per_node_calls(ast.parse((SRC / f"{m}.py").read_text()))}
    assert set(SINGLE_VECTOR) <= live


def test_the_guard_sees_each_per_node_form():
    source = ("def f(v, w):\n"
              "    def g(x):\n"
              "        return np.cross(x, w) + np.outer(x, w)\n"
              "    return (np.linalg.norm(v, axis=1), np.add.reduce(v * v, axis=1),\n"
              "            np.add.reduce(v, 1), np.linalg.norm(v))\n"
              "def h(v, w, s):\n"
              "    return (np.tile(w, (len(v), 1)), np.repeat(s[:, None], 3, axis=1),\n"
              "            np.repeat(s[:, None], 3, 1), np.repeat(s, 3),\n"
              "            np.stack([s, s, s], axis=1), np.stack([s, s, s], axis=-1),\n"
              "            np.stack([s, s]), np.stack([s, s], axis=0),\n"
              "            np.multiply.outer(s, w))\n")
    assert _per_node_calls(ast.parse(source)) == [
        ("f.g", "np.cross"), ("f.g", "np.outer"), ("f", "np.linalg.norm"),
        ("f", "np.add.reduce"), ("f", "np.add.reduce"), ("h", "np.tile"),
        ("h", "np.repeat"), ("h", "np.repeat"), ("h", "np.stack"), ("h", "np.stack"),
        ("h", "np.multiply.outer")]
