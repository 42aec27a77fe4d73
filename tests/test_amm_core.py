import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from splitmev import DomainError, PoolState, apply_swap, marginal_out, spot_price, swap_out
from splitmev.amm_core import _MAX_SIZE_RATIO

from conftest import pools

# Float64 cannot keep strict order at ulp spacing: adjacent inputs often give
# the same double, and swap_out can even come out an ulp or two lower. Each
# result lies within 4 ulps of the exact value, so an exact output gap of
# more than ROUNDING_ULPS ulps must still show as a strict order.
ROUNDING_ULPS = 8
ULP_TIE = (PoolState(100, 100, 0), 0.001, 0.0010000000000000002)


def test_half_pool_swap_zero_fee():
    assert swap_out(PoolState(1000, 2000, 0), 1000) == pytest.approx(1000.0, rel=1e-15)


def test_swap_out_at_zero_is_zero():
    assert swap_out(PoolState(1000, 2000, 0), 0.0) == 0.0
    assert swap_out(PoolState(1000, 2000, 0), 1e-12) == pytest.approx(0.0, abs=1e-9)


def test_swap_out_with_fee():
    # 2000 * 0.997 * 10 / (1000 + 9.97)
    assert swap_out(PoolState(1000, 2000, 0.003), 10) == pytest.approx(
        19.743160687941227, rel=1e-14
    )


def test_marginal_out_closed_forms():
    assert marginal_out(PoolState(1000, 2000, 0), 0) == pytest.approx(2.0, rel=1e-15)
    assert marginal_out(PoolState(1000, 2000, 0.003), 0) == pytest.approx(1.994, rel=1e-15)


def test_apply_swap_examples():
    new = apply_swap(PoolState(1000, 2000, 0), 1000)
    assert (new.reserve_x, new.reserve_y) == (2000.0, 1000.0)
    new = apply_swap(PoolState(1000, 2000, 0.003), 10)
    assert new.reserve_x == pytest.approx(1009.97, rel=1e-15)
    assert new.reserve_y == pytest.approx(1980.2568393120588, rel=1e-14)


def test_spot_price():
    assert spot_price(PoolState(1000, 2000, 0.003)) == 2.0
    assert spot_price(PoolState(1, 1, 0)) == 1.0
    assert spot_price(PoolState(2000, 1000, 0)) == 0.5


def test_domain_errors():
    with pytest.raises(DomainError):
        PoolState(0, 1, 0)
    with pytest.raises(DomainError):
        PoolState(1, 1, 1.0)
    with pytest.raises(DomainError):
        swap_out(PoolState(1, 1, 0), -1)
    with pytest.raises(DomainError):
        marginal_out(PoolState(1, 1, 0), -1e-9)
    with pytest.raises(DomainError):
        apply_swap(PoolState(1, 1, 0), 0)


def test_precision_guard():
    with pytest.raises(DomainError):
        swap_out(PoolState(1e2, 1e2, 0), 1e15)


@given(pools, st.floats(1e-3, 1e6), st.floats(1e-3, 1e6))
@settings(max_examples=300)
def test_concavity(pool, q1, q2):
    if q1 == q2:
        return
    lo, hi = min(q1, q2), max(q1, q2)
    mid = swap_out(pool, (lo + hi) / 2)
    chord = (swap_out(pool, lo) + swap_out(pool, hi)) / 2
    assert mid > chord - 1e-12 * abs(chord)


@given(pools, st.floats(1e-3, 1e6), st.floats(1e-3, 1e6))
@example(*ULP_TIE)
@example(PoolState(109907.41205349899, 6391929.401725562, 0.01), 402337.06102237874, 402337.0610223789)
@settings(max_examples=300)
def test_strictly_increasing(pool, q1, q2):
    lo, hi = min(q1, q2), max(q1, q2)
    out_lo, out_hi = swap_out(pool, lo), swap_out(pool, hi)
    assert out_lo <= out_hi + ROUNDING_ULPS * math.ulp(out_hi)
    # by concavity the exact gap is at least marginal_out(hi) * (hi - lo)
    if marginal_out(pool, hi) * (hi - lo) > ROUNDING_ULPS * math.ulp(out_hi):
        assert out_lo < out_hi


@given(pools, st.floats(1e-3, 1e6), st.floats(1e-3, 1e6))
@example(*ULP_TIE)
@settings(max_examples=300)
def test_marginal_strictly_decreasing(pool, q1, q2):
    lo, hi = min(q1, q2), max(q1, q2)
    m_lo, m_hi = marginal_out(pool, lo), marginal_out(pool, hi)
    assert m_hi <= m_lo
    # by convexity the exact gap is at least -marginal_out'(hi) * (hi - lo)
    net = 1.0 - pool.fee
    if 2 * net * m_hi * (hi - lo) / (pool.reserve_x + net * hi) > ROUNDING_ULPS * math.ulp(m_lo):
        assert m_hi < m_lo


def test_marginal_matches_finite_differences():
    rng = np.random.default_rng(3)
    for _ in range(50):
        pool = PoolState(10 ** rng.uniform(2, 6), 10 ** rng.uniform(2, 6), rng.choice([0, 0.003]))
        qs = np.geomspace(1e-6 * pool.reserve_x, 10 * pool.reserve_x, 40)
        h = qs * 1e-6
        fd = (swap_out(pool, qs + h) - swap_out(pool, qs - h)) / (2 * h)
        np.testing.assert_allclose(marginal_out(pool, qs), fd, rtol=1e-6)


@given(pools, st.floats(1e-3, 1e6))
@example(PoolState(100.0, 794318.0703125, 0), 794321.0703125)
@settings(max_examples=300)
def test_zero_fee_product_conservation(pool, q):
    if pool.fee != 0:
        return
    new = apply_swap(pool, q)
    x, y = pool.reserve_x, pool.reserve_y
    # dy = yq/(x+q) carries 3 roundings, and y - dy = yx/(x+q) cancels, which
    # magnifies dy's relative error by dy/(y - dy) = q/x. With the roundings
    # of x + q, of the subtraction and of both products, the relative error
    # of the product is at most (1.5q/x + 2) eps <= 2 eps (x+q)/x to first order.
    tol = 4 * sys.float_info.epsilon * (x + q) / x
    assert new.reserve_x * new.reserve_y == pytest.approx(x * y, rel=tol)


def test_swap_out_bounded_by_reserve():
    pool = PoolState(1000, 2000, 0)
    assert 0 < swap_out(pool, 1e9) < pool.reserve_y


def test_vectorized_over_q():
    pool = PoolState(1000, 2000, 0.003)
    qs = np.array([1.0, 10.0, 100.0])
    out = swap_out(pool, qs)
    assert out.shape == (3,)
    assert out[0] == swap_out(pool, 1.0)


def _result_or_error(fn, pool, q):
    try:
        return fn(pool, q)
    except DomainError as exc:
        return f"DomainError: {exc}"


# sizes that hit every check: NaN, +-inf, +-0, negatives, the precision
# guard on either side of its edge (pools have reserve_x in [1e2, 1e7])
odd_sizes = st.sampled_from(
    [math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0, -1e-300, 5e-324, 1e20, _MAX_SIZE_RATIO * 1e2]
)


@given(pools, st.one_of(st.floats(), odd_sizes))
@example(PoolState(1e2, 1e2, 0), _MAX_SIZE_RATIO * 1e2)
@example(PoolState(1e2, 1e2, 0), math.nextafter(_MAX_SIZE_RATIO * 1e2, math.inf))
@example(PoolState(1e3, 2e3, 0.003), 0.0)
@settings(max_examples=500)
def test_float_fast_path_matches_array_path(pool, q):
    """A float size, an np.float64 and a 0-d array give equal results and
    equal DomainError messages, and a scalar size gives a Python float."""
    for fn in (swap_out, marginal_out, apply_swap):
        results = [_result_or_error(fn, pool, v) for v in (q, np.float64(q), np.asarray(q))]
        assert results[0] == results[1] == results[2]
        if fn is not apply_swap:
            assert {type(r) for r in results} <= {str, float}
    if q == 0:  # allowed by swap_out and marginal_out, not by apply_swap
        assert _result_or_error(swap_out, pool, q) == 0.0
        assert _result_or_error(apply_swap, pool, q) == "DomainError: trade size must be positive and finite"
