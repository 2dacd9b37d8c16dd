import numpy as np

from curlflux.sequences import aitken


def test_aitken_on_a_stack_equals_per_column_calls():
    # one call on an (m, n, 3) stack accelerates each (node, component) column
    rng = np.random.default_rng(3)
    m, n = 8, 40
    h = 2.0 ** -np.arange(m)
    stack = (rng.normal(size=(n, 3)) + np.multiply.outer(h, rng.normal(size=(n, 3)))
             + np.multiply.outer(h ** 2, rng.normal(size=(n, 3))))
    stack[:, 0, :] = 1.5                      # constant: zero curvature everywhere
    stack[:, 1, 2] = 0.25 + 0.5 * np.arange(m)  # linear: zero curvature everywhere
    stack[3:5, 2, 1] = stack[2, 2, 1]         # one zero-curvature window mid-sequence
    got = aitken(stack)
    assert got.shape == (m - 2, n, 3)
    for i in range(n):
        for c in range(3):
            assert np.array_equal(got[:, i, c], aitken(stack[:, i, c]))
    assert np.array_equal(got[:, 0, :], np.full((m - 2, 3), 1.5))
    assert np.array_equal(got[:, 1, 2], stack[2:, 1, 2])


def test_aitken_short_sequences_pass_through():
    for values in ([], [1.0], [1.0, 2.0], np.ones((2, 4, 3))):
        got = aitken(values)
        assert np.array_equal(got, np.asarray(values, dtype=float))
