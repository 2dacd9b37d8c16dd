"""The column kernels give numpy's own floats, and per-node numpy reductions
and crosses stay out of the modules that evaluate at quadrature nodes."""

import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from curlflux import geometry as geo
from curlflux import testfns

SRC = Path(__file__).resolve().parents[1] / "src" / "curlflux"

# finite values whose squares and products neither overflow nor lose the
# subnormals and signed zeros
COORDS = st.one_of(st.floats(-1e150, 1e150),
                   st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e-160, -3e-200]))
SHAPES = st.one_of(st.tuples(st.integers(0, 40), st.just(3)),
                   st.tuples(st.integers(1, 5), st.integers(0, 8), st.just(3)))


@st.composite
def vectors(draw, shape=None):
    # arrays (n, 3) or (k, m, 3) with some rows set to zero
    shape = draw(SHAPES) if shape is None else shape
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


def _per_node_calls(tree):
    # (enclosing function path, call) for every np.cross or np.outer call and
    # every np.linalg.norm or np.add.reduce call given an axis
    found = []

    def visit(node, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, path + (child.name,))
                continue
            if isinstance(child, ast.Call):
                name = _dotted(child.func)
                axis = (any(k.arg == "axis" for k in child.keywords)
                        or (name == "np.add.reduce" and len(child.args) > 1))
                if name in ("np.cross", "np.outer") or (
                        name in ("np.linalg.norm", "np.add.reduce") and axis):
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
              "            np.add.reduce(v, 1), np.linalg.norm(v))\n")
    assert _per_node_calls(ast.parse(source)) == [
        ("f.g", "np.cross"), ("f.g", "np.outer"), ("f", "np.linalg.norm"),
        ("f", "np.add.reduce"), ("f", "np.add.reduce")]
