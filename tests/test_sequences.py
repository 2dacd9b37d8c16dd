import numpy as np
import pytest

from curlflux.sequences import GAP_TOL, judge_sequence, richardson_gap, richardson_limit


def _stack(m, n, seed):
    # polynomial columns in h = 2^-j, plus constant and linear columns
    rng = np.random.default_rng(seed)
    h = 2.0 ** -np.arange(m)
    stack = (rng.normal(size=(n, 3)) + np.multiply.outer(h, rng.normal(size=(n, 3)))
             + np.multiply.outer(h ** 2, rng.normal(size=(n, 3))))
    stack[:, 0, :] = 1.5
    stack[:, 1, 2] = 0.25 + 0.5 * np.arange(m)
    return stack


def test_richardson_on_a_stack_equals_per_column_calls():
    # one call on an (m, n, 3) stack extrapolates each (node, component) column
    m, n = 8, 40
    stack = _stack(m, n, 3)
    limit, gap = richardson_limit(stack), richardson_gap(stack)
    assert limit.shape == gap.shape == (n, 3)
    for i in range(n):
        for c in range(3):
            assert limit[i, c] == richardson_limit(stack[:, i, c])
            assert gap[i, c] == richardson_gap(stack[:, i, c])
            # the list arithmetic of the triangle, one column at a time
            level = list(stack[:, i, c])
            k = 1
            while len(level) > 1:
                level = [(2.0 ** k * level[q + 1] - level[q]) / (2.0 ** k - 1.0)
                         for q in range(len(level) - 1)]
                k += 1
            assert limit[i, c] == level[0]
    assert np.array_equal(limit[0], np.full(3, 1.5))


@pytest.mark.parametrize("m", [0, 1, 2, 4])
def test_richardson_gap_is_infinite_below_five_samples(m):
    for shape in ((m,), (m, 4, 3)):
        gap = richardson_gap(np.ones(shape))
        assert np.shape(gap) == shape[1:] and np.all(np.isinf(gap))
    if m:
        verdict = judge_sequence(np.ones(m), 1.0)
        assert verdict.converged is False and verdict.limit == 1.0


def test_gap_is_exact_on_cubics_and_judged_against_the_scale():
    # order-3 Richardson is exact on cubics in h, so the gap sees only h^4
    h = 2.0 ** -np.arange(2, 10)
    cubic = 1.0 - 2.0 * h + 3.0 * h ** 2 - h ** 3
    assert abs(richardson_gap(cubic)) < 1e-14
    quartic = cubic + h ** 4
    gap = richardson_gap(quartic)
    assert gap != 0.0
    assert judge_sequence(quartic, 1.01 * abs(gap) / GAP_TOL).converged
    assert not judge_sequence(quartic, 0.99 * abs(gap) / GAP_TOL).converged
    # units drop out: values and scale scaled together keep the verdict
    for k in (-9, 0, 9):
        v = judge_sequence(quartic * 10.0 ** k, 1.01 * abs(gap) / GAP_TOL * 10.0 ** k)
        assert v.converged and abs(v.limit / 10.0 ** k - 1.0) < 1e-12


def test_oscillating_sequence_is_refused():
    vals = [(-1.0) ** j for j in range(10)]
    verdict = judge_sequence(vals, 1.0)
    assert not verdict.converged
    assert verdict.tail_oscillation == 2.0
