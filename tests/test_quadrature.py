import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from curlflux import quadrature as quad


def test_gauss_legendre_rules_do_not_alias_the_cache():
    first = quad.gauss_legendre(7, -1.0, 1.0)
    expect_nodes, expect_weights = first.nodes.copy(), first.weights.copy()
    first.nodes[:] = 5.0
    first.weights[:] = 1.0
    again = quad.gauss_legendre(7, -1.0, 1.0)
    assert np.array_equal(again.nodes, expect_nodes)
    assert np.array_equal(again.weights, expect_weights)


def test_cached_reference_rule_refuses_writes():
    x, w = quad._leggauss(7)
    with pytest.raises(ValueError):
        x[0] = 0.0
    with pytest.raises(ValueError):
        w[0] = 0.0
    ref_x, ref_w = np.polynomial.legendre.leggauss(7)
    assert np.array_equal(x, ref_x) and np.array_equal(w, ref_w)


# sorted breakpoints, repeats allowed: a repeat is an empty piece the split drops
BREAKPOINTS = st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=12).map(sorted)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(n=st.integers(1, 24), bp=BREAKPOINTS)
def test_one_segment_mapping_gives_the_floats_of_the_separate_rules(n, bp):
    # every segment on its own gauss_legendre, concatenated in order; the
    # one broadcast and the split rule built on it give the same bytes
    segments = [(a, b) for a, b in zip(bp[:-1], bp[1:]) if b > a]
    rules = [quad.gauss_legendre(n, a, b) for a, b in segments]
    got = quad.gauss_legendre_segments(n, segments)
    assert isinstance(got, quad.QuadratureRule)
    want = (np.concatenate([r.nodes for r in rules] + [np.empty(0)]),
            np.concatenate([r.weights for r in rules] + [np.empty(0)]))
    assert (got.nodes.tobytes(), got.weights.tobytes()) == tuple(a.tobytes() for a in want)
    if segments:
        split = quad.gauss_legendre_split(n, np.array(bp))
        assert (split.nodes.tobytes(), split.weights.tobytes()) == tuple(a.tobytes() for a in want)
    else:
        with pytest.raises(ValueError, match="empty breakpoint partition"):
            quad.gauss_legendre_split(n, np.array(bp))


@pytest.mark.parametrize("bp", [[], [0.5], [0.5, 0.5], [1.0, 0.0]])
def test_an_empty_partition_is_refused(bp):
    with pytest.raises(ValueError, match="empty breakpoint partition"):
        quad.gauss_legendre_split(4, np.array(bp))


def test_a_segment_mapping_keeps_the_positive_weight_check():
    # a reversed segment has negative weights
    with pytest.raises(ValueError, match="positive"):
        quad.gauss_legendre_segments(4, [(0.0, 1.0), (1.0, 0.5)])
