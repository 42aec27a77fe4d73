import math
import re
import sys
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from splitmev import (
    DEFAULT_FLOOR,
    ArbParams,
    ConstantSuccess,
    DomainError,
    FailureModel,
    LinearClamped,
    PoolState,
    PowerConcave,
    QuadraticConcave,
    TableInterpolated,
    plan,
)
from splitmev.config import ConfigError
from splitmev.failure_models import from_config

from conftest import pointwise, ref_table_refusal

ALL_MODELS = [
    LinearClamped(slope=0.001),
    PowerConcave(q_max=1000, alpha=2),
    PowerConcave(q_max=500, alpha=1.5),
    QuadraticConcave(a=1e-4, b=1e-7),
    TableInterpolated(qs=(0, 100, 500, 1000), ps=(1.0, 0.95, 0.6, 0.05)),
]


def test_prob_at_zero_is_one():
    for model in ALL_MODELS + [ConstantSuccess()]:
        assert model.prob(0.0) == 1.0


def test_linear_clamped_values():
    m = LinearClamped(slope=0.001)
    assert m.prob(500) == pytest.approx(0.5, rel=1e-15)
    assert m.prob_derivative(500) == -0.001
    # beyond the clamp the floor binds and the slope is zero
    assert m.prob(1e7) == DEFAULT_FLOOR
    assert m.prob_derivative(1e7) == 0.0
    # a Python caller's int slope still gives a float for a float q
    d = LinearClamped(slope=1).prob_derivative(0.5)
    assert type(d) is float and d == -1.0


def test_power_concave_values():
    m = PowerConcave(q_max=1000, alpha=2)
    assert m.prob(500) == pytest.approx(0.75, rel=1e-15)  # 1 - (500/1000)^2
    assert m.prob_derivative(500) == pytest.approx(-0.001, rel=1e-12)  # -2*500/1e6


@pytest.mark.parametrize("q_max, alpha, q", [
    (1000.0, 2.3, 224.0),  # numpy's AVX-512 power rounds q**(alpha - 1) one ulp away from a float's **
    (500.0, 2.41, 44.4),
    (1000.0, 2.0, 500.0),
    (2.0, 1.5, 1.0),
    (1000.0, 1.0, 0.0),  # 0.0**0.0 is 1
])
def test_power_concave_slope_is_the_float_formula(q_max, alpha, q):
    # the same bits on every CPU: plan.json's threshold_value holds them
    slope = PowerConcave(q_max=q_max, alpha=alpha).prob_derivative(q)
    assert slope.hex() == (-alpha * q ** (alpha - 1.0) / q_max**alpha).hex()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "q_max, alpha, q, p, slope",
    [
        (1.0, 400.0, 10.0, DEFAULT_FLOOR, 0.0),  # (q / q_max)**alpha and q**(alpha - 1) overflow
        (1.0, 400.0, 1.5, DEFAULT_FLOOR, 0.0),  # above q_max, no overflow
        (1e-150, 2.0, 0.0, 1.0, 0.0),  # q = 0 has zero slope
    ],
)
def test_power_concave_float_path_is_silent(q_max, alpha, q, p, slope):
    # no power is taken above q_max, where the floor binds
    m = PowerConcave(q_max=q_max, alpha=alpha)
    assert (m.prob(q), m.prob_derivative(q)) == (p, slope)
    assert (m.prob(np.array(q)), m.prob_derivative(np.array(q))) == (p, slope)


@pytest.mark.parametrize("q_max, alpha", [(1e-200, 2.0), (1e-12, 50.0), (0.5, 1050.0)])
def test_power_concave_rejects_underflowing_scale(q_max, alpha):
    # the slope divides by q_max**alpha: 0 (the first two) would make it
    # -inf, and a subnormal divisor (2**-1050) has lost bits
    with pytest.raises(ConfigError, match=r"^q_max: q_max\*\*alpha underflows$"):
        PowerConcave(q_max=q_max, alpha=alpha)
    smallest = PowerConcave(q_max=sys.float_info.min, alpha=1.0)  # the normal minimum itself is accepted
    assert smallest.prob_derivative(smallest.q_max / 2) == -1.0 / sys.float_info.min


def test_table_interpolation_and_domain():
    m = TableInterpolated(qs=(0, 100, 200), ps=(1.0, 0.8, 0.5))
    assert m.prob(50) == pytest.approx(0.9)
    assert m.prob_derivative(50) == pytest.approx(-0.002)
    assert m.prob_derivative(150) == pytest.approx(-0.003)
    with pytest.raises(DomainError):
        m.prob(201)


def test_floor_keeps_prob_positive():
    for model in ALL_MODELS:
        hi = model.domain_max() or 1e6
        p = pointwise(model.prob, np.linspace(0, hi, 500))
        assert np.all(p >= DEFAULT_FLOOR)
        assert np.all(p <= 1.0)


def test_invalid_constructions():
    with pytest.raises(DomainError):
        LinearClamped(slope=0)
    with pytest.raises(DomainError):
        PowerConcave(q_max=100, alpha=0.5)
    with pytest.raises(TypeError):  # the floor is the constant DEFAULT_FLOOR, not a field
        LinearClamped(slope=0.1, floor=0.5)
    with pytest.raises(DomainError):
        TableInterpolated(qs=(0, 10), ps=(0.9, 0.5))  # must start at p=1
    with pytest.raises(DomainError):
        TableInterpolated(qs=(0, 10, 5), ps=(1.0, 0.8, 0.5))
    with pytest.raises(DomainError):  # not a list of numbers: its first point is not 0
        TableInterpolated(qs=((0, 1), (2, 3)), ps=((1.0, 0.5), (0.4, 0.3)))
    with pytest.raises(DomainError):
        QuadraticConcave(a=0, b=0)


def test_negative_q_rejected():
    with pytest.raises(DomainError):
        LinearClamped(slope=0.001).prob(-1)


def test_derivative_matches_finite_differences():
    for model in ALL_MODELS:
        hi = model.domain_max() or 2000.0
        # stay away from clamp/floor kinks
        qs = np.linspace(hi * 0.01, hi * 0.6, 100)
        h = hi * 1e-7
        fd = (pointwise(model.prob, qs + h) - pointwise(model.prob, qs - h)) / (2 * h)
        np.testing.assert_allclose(pointwise(model.prob_derivative, qs), fd, rtol=1e-6, atol=1e-12)


def test_linear_table_is_concave():
    # an exactly linear table's slopes differ by float noise alone, which the check allows
    qs = tuple(np.linspace(0.0, 1000.0, 101))
    ps = tuple(np.linspace(1.0, 0.01, 101))
    slopes = np.diff(ps) / np.diff(qs)
    assert slopes.max() != slopes.min()  # the noise is there
    assert TableInterpolated(qs=qs, ps=ps).prob(500.0) == pytest.approx(0.505)


def test_convex_table_is_rejected():
    # exponential decay sampled into a table is convex: each segment less steep than the one before
    qs = [float(q) for q in np.linspace(0, 500, 21)]
    ps = [math.exp(-0.01 * q) for q in qs]
    with pytest.raises(ConfigError, match=r"^ps: must be concave"):
        TableInterpolated(qs=tuple(qs), ps=tuple(ps))
    with pytest.raises(ConfigError, match=r"^config\.model\.parameters\.ps: must be concave"):
        from_config("table_interpolated", {"qs": qs, "ps": ps})
    # one knot bent up by more than the float-noise slack is enough
    with pytest.raises(ConfigError, match=r"^ps: must be concave"):
        TableInterpolated(qs=(0.0, 100.0, 200.0), ps=(1.0, 0.5, 0.5 - 0.5 * (1.0 - 1e-6)))
    # slopes past the float range (-inf) compare without a warning: -inf then -0.5 is convex,
    # -inf then -inf is not
    with pytest.raises(ConfigError, match=r"^ps: must be concave"):
        TableInterpolated(qs=(0.0, 1e-320, 1.0), ps=(1.0, 0.5, 0.0))
    TableInterpolated(qs=(0.0, 1e-310, 2e-310), ps=(1.0, 0.9, 0.5))


@st.composite
def knot_tables(draw):
    """(qs, ps) that reach every check of a table: sorted knots after a first one that may be
    wrong, now and then a subnormal, huge, infinite or NaN one, and ps either sorted or built
    along slopes, which do not increase (concave up to rounding; a repeated slope is a straight
    segment whose slopes differ by float noise) unless they are left unsorted."""
    n = draw(st.integers(0, 5))
    knots = st.floats(1e-3, 1e3) if draw(st.booleans()) else st.floats(0.0, 1e3) | st.sampled_from(
        [5e-324, 1e-310, 1e300, math.inf, math.nan])
    unique = draw(st.sampled_from([True, True, False]))
    qs = [draw(st.sampled_from([0.0, 0.0, -0.0, 0.5]))]
    qs += sorted(draw(st.lists(knots, min_size=n, max_size=n, unique=unique)))
    if draw(st.booleans()):
        slopes = draw(st.lists(st.floats(-10.0, -1e-3) | st.sampled_from([-0.5, -1e300]), min_size=n, max_size=n))
        ps = [1.0]
        for slope, a, b in zip(sorted(slopes, reverse=True) if draw(st.booleans()) else slopes, qs, qs[1:]):
            ps.append(ps[-1] + slope * (b - a))
    else:
        m = draw(st.sampled_from([n, n, n, n + 1]))
        values = st.floats(-2.0, 1.0) | st.sampled_from([-1e300, -math.inf, math.nan])
        ps = [draw(st.sampled_from([1.0, 1.0, 0.9]))] + sorted(draw(st.lists(values, min_size=m, max_size=m)), reverse=True)
    return qs, ps


@given(knot_tables())
@example(([0.0, 1e-320, 1.0], [1.0, 0.5, 0.0]))  # slopes -inf then -0.5
@example(([0.0, 1e-310, 2e-310], [1.0, 0.9, 0.5]))  # slopes -inf then -inf
@example(([0.0, 100.0, 200.0], [1.0, 0.5, 0.5 - 0.5 * (1.0 - 5e-9)]))  # bent up by 5 times the slack
@example(([0.0, 100.0, 200.0], [1.0, 0.5, 0.5 - 0.5 * (1.0 - 5e-10)]))  # and by half of it
@settings(max_examples=400)
def test_table_checks_match_the_numpy_reference(table):
    qs, ps = table
    expected = ref_table_refusal(qs, ps)
    if expected is None:
        TableInterpolated(qs=tuple(qs), ps=tuple(ps))
    else:
        with pytest.raises(ConfigError) as info:
            TableInterpolated(qs=tuple(qs), ps=tuple(ps))
        assert str(info.value) == expected


def test_table_with_slopes_past_the_float_range_matches_np_interp():
    # at a knot the table is its p, as np.interp has it, not the -inf slope times 0 (NaN);
    # between knots np.interp gives -inf, so the floor binds
    m = TableInterpolated(qs=(0.0, 1e-310, 2e-310), ps=(1.0, 0.9, 0.5))
    for q in (*m.qs, 1.5e-310):
        assert m.prob(q) == max(float(np.interp(q, m.qs, m.ps)), DEFAULT_FLOOR), q
    assert [m.prob(q) for q in m.qs] == [1.0, 0.9, 0.5]


def test_from_config():
    m = from_config("power_concave", {"q_max": 100, "alpha": 2})
    assert m == PowerConcave(q_max=100.0, alpha=2.0)
    assert m.prob(1e3) == DEFAULT_FLOOR
    m = from_config("table_interpolated", {"qs": [0, 10], "ps": [1.0, 0.5]})
    assert isinstance(m, TableInterpolated)
    with pytest.raises(DomainError):
        from_config("exponential", {})
    with pytest.raises(DomainError):
        from_config("linear_clamped", {"nope": 1})


@pytest.mark.parametrize("parameters, message", [
    ({"slope": "x"}, "slope: expected a number"),
    ({}, "slope: required"),
    # the floor is the constant DEFAULT_FLOOR; an unknown key is named before a bad value
    ({"slope": "x", "floor": 0.001}, "floor: unknown field"),
    ({"slope": 0.0}, "slope: must be positive and finite"),
])
def test_from_config_names_the_first_bad_field(parameters, message):
    with pytest.raises(ConfigError) as info:
        from_config("linear_clamped", parameters)
    assert str(info.value) == f"config.model.parameters.{message}"


@dataclass(frozen=True)
class KernelOnlyLinear(FailureModel):
    """A custom family that defines nothing but the kernel: LinearClamped's form.
    The check of q and the floor come from the base class."""

    slope: float

    def _raw_and_slope(self, q):
        return 1.0 - self.slope * q, -self.slope


def test_custom_family_needs_only_the_kernel():
    custom, linear = KernelOnlyLinear(slope=0.001), LinearClamped(slope=0.001)

    def bits(x):  # the type too: a float
        return type(x), float(x).hex()

    # the floor binds beyond q = 1000; an int, a numpy scalar or a 0-d array is one real number
    for q in (0.0, 250.0, 1000.0, 1500.0, 2000, np.float64(250.0), np.asarray(1750.0), *np.linspace(0.0, 2000.0, 41)):
        for method in ("prob", "prob_derivative"):
            assert bits(getattr(custom, method)(q)) == bits(getattr(linear, method)(q)), (method, q)
    pool, params = PoolState(1000.0, 2000.0, 0.0), ArbParams(100.0, 1.9, 1.0)
    assert repr(plan(pool, params, custom)) == repr(plan(pool, params, linear))
    with pytest.raises(DomainError, match="q must be nonnegative and finite"):
        custom.prob(-1.0)


def test_constant_success_boundary_model():
    m = ConstantSuccess()
    assert m.prob(1e9) == 1.0
    assert m.prob_derivative(123.0) == 0.0
