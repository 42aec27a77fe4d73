import math
import re
import sys
from dataclasses import dataclass

import numpy as np
import pytest

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
    validate_assumptions,
)
from splitmev.config import ConfigError
from splitmev.failure_models import from_config

ALL_MODELS = [
    LinearClamped(slope=0.001),
    PowerConcave(q_max=1000, alpha=2),
    PowerConcave(q_max=500, alpha=1.5),
    QuadraticConcave(a=1e-4, b=1e-7),
    TableInterpolated(qs=(0, 100, 500, 1000), ps=(1.0, 0.9, 0.5, 0.05)),
]


def test_prob_at_zero_is_one():
    for model in ALL_MODELS + [ConstantSuccess()]:
        assert model.prob(0.0) == 1.0


def test_linear_clamped_values():
    m = LinearClamped(slope=0.001)
    assert m.prob(500) == pytest.approx(0.5, rel=1e-15)
    assert m.prob_derivative(500) == -0.001
    # beyond the clamp the floor binds and the slope is zero
    assert m.prob(1e7) == m.floor
    assert m.prob_derivative(1e7) == 0.0
    # a Python caller's int slope still gives a float for a float q
    d = LinearClamped(slope=1).prob_derivative(0.5)
    assert type(d) is float and d == -1.0


def test_power_concave_values():
    m = PowerConcave(q_max=1000, alpha=2)
    assert m.prob(500) == pytest.approx(0.75, rel=1e-15)  # 1 - (500/1000)^2
    assert m.prob_derivative(500) == pytest.approx(-0.001, rel=1e-12)  # -2*500/1e6


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
    # the float path enters np.errstate only above q_max
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
        qs = np.linspace(0, hi, 500)
        assert np.all(np.asarray(model.prob(qs)) >= model.floor)
        assert np.all(np.asarray(model.prob(qs)) <= 1.0)


def test_invalid_constructions():
    with pytest.raises(DomainError):
        LinearClamped(slope=0)
    with pytest.raises(DomainError):
        PowerConcave(q_max=100, alpha=0.5)
    with pytest.raises(DomainError):
        LinearClamped(slope=0.1, floor=0.5)
    with pytest.raises(DomainError):
        TableInterpolated(qs=(0, 10), ps=(0.9, 0.5))  # must start at p=1
    with pytest.raises(DomainError):
        TableInterpolated(qs=(0, 10, 5), ps=(1.0, 0.8, 0.5))
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
        fd = (np.asarray(model.prob(qs + h)) - np.asarray(model.prob(qs - h))) / (2 * h)
        np.testing.assert_allclose(np.asarray(model.prob_derivative(qs)), fd, rtol=1e-6, atol=1e-12)


def test_validate_assumptions_pass_cases():
    passed = {"p(0)=1": None, "p'<0": None, "p''<=0": None}
    assert validate_assumptions(LinearClamped(slope=0.001), 0, 900, 101) == passed
    assert validate_assumptions(PowerConcave(q_max=1000, alpha=2), 0, 990, 101) == passed


def test_validate_assumptions_convex_table_fails():
    # exponential decay sampled into a table: convex, so p'' <= 0 must fail
    lam = 0.01
    qs = tuple(np.linspace(0, 500, 21))
    ps = tuple(math.exp(-lam * q) for q in qs)
    report = validate_assumptions(TableInterpolated(qs=qs, ps=ps), 0, 500, 21)
    assert report["p''<=0"] == 25.0  # the first interior knot
    assert report["p(0)=1"] is None
    assert report["p'<0"] is None


def test_validate_assumptions_reports_floor_region():
    # on a range where the floor binds, p stops decreasing
    report = validate_assumptions(LinearClamped(slope=0.001), 0, 5000, 51)
    assert report["p'<0"] == 1000.0  # p reaches the floor at q = 1 / slope


def test_from_config():
    m = from_config("power_concave", {"q_max": 100, "alpha": 2, "floor": 0.001})
    assert isinstance(m, PowerConcave)
    assert m.floor == 0.001
    m = from_config("table_interpolated", {"qs": [0, 10], "ps": [1.0, 0.5]})
    assert isinstance(m, TableInterpolated)
    with pytest.raises(DomainError):
        from_config("exponential", {})
    with pytest.raises(DomainError):
        from_config("linear_clamped", {"nope": 1})


@pytest.mark.parametrize("parameters, message", [
    # the family's own fields are named before the floor the base class declares
    ({"slope": "x", "floor": "y"}, "slope: expected a number"),
    ({"floor": "y"}, "slope: required"),
    ({"slope": 0.001, "floor": 0.5}, "floor: must lie in (0, 0.01], got 0.5"),
    ({"floor": 0.001}, "slope: required"),
])
def test_from_config_names_the_first_bad_field(parameters, message):
    with pytest.raises(ConfigError) as info:
        from_config("linear_clamped", parameters)
    assert str(info.value) == f"config.model.parameters.{message}"


@dataclass(frozen=True)
class KernelOnlyLinear(FailureModel):
    """A custom family that defines nothing but the kernel: LinearClamped's form.
    The floor, its default and its check come from the base class."""

    slope: float

    def _raw_and_slope(self, q):
        return 1.0 - self.slope * q, -self.slope


def test_custom_family_needs_only_the_kernel():
    custom, linear = KernelOnlyLinear(slope=0.001), LinearClamped(slope=0.001)

    def bits(x):  # the type too: a float for a float q, an array for an array
        return type(x), np.asarray(x).tobytes()

    # the floor binds beyond q = 1000; a numpy scalar or 0-d array takes the array path
    for q in (0.0, 250.0, 1000.0, 1500.0, np.float64(250.0), np.linspace(0.0, 2000.0, 41)):
        for method in ("prob", "prob_derivative"):
            assert bits(getattr(custom, method)(q)) == bits(getattr(linear, method)(q)), (method, q)
    pool, params = PoolState(1000.0, 2000.0, 0.0), ArbParams(100.0, 1.9, 1.0)
    assert repr(plan(pool, params, custom)) == repr(plan(pool, params, linear))
    assert custom.floor == DEFAULT_FLOOR and KernelOnlyLinear(slope=0.001, floor=0.01).prob(5000.0) == 0.01
    with pytest.raises(ConfigError, match=re.escape("floor: must lie in (0, 0.01], got 0.5")):
        KernelOnlyLinear(slope=0.001, floor=0.5)


def test_constant_success_boundary_model():
    m = ConstantSuccess()
    assert m.prob(1e9) == 1.0
    assert m.prob_derivative(123.0) == 0.0
