import numpy as np
import pytest

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
