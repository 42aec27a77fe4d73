import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from splitmev import (
    DEFAULT_FLOOR,
    ArbParams,
    ConstantSuccess,
    DomainError,
    LinearClamped,
    NoRootError,
    PoolState,
    PowerConcave,
    QuadraticConcave,
    TableInterpolated,
    brute_force_plan,
    marginal_benefit,
    marginal_out,
    per_swap_profit,
    plan,
    solve_chunk,
    swap_out,
    threshold,
    total_profit,
)
from splitmev.amm_core import marginal_out_unchecked, swap_out_unchecked
from splitmev.config import ConfigError
from splitmev.failure_models import from_config
from splitmev.split_optimizer import _residual_unchecked, profit_curve

from conftest import compliant_instances, pointwise, pools, ref_marginal_out, ref_prob_and_slope, ref_swap_out, residual

POOL = PoolState(1000, 2000, 0)
P_ONE = ConstantSuccess()

# one model of each family on which POOL with D = 100 has a positive threshold
FAMILIES = {
    "linear": LinearClamped(slope=0.001),
    "power": PowerConcave(q_max=500.0, alpha=2.0),
    "quadratic": QuadraticConcave(a=0.0005, b=1e-6),
    "table": TableInterpolated(qs=(0.0, 100.0, 200.0), ps=(1.0, 0.9, 0.5)),
    "constant": P_ONE,
}


def test_per_swap_profit_success_branch_only():
    params = ArbParams(total_size=200, cex_price=1.9)
    for q in (1.0, 50.0, 200.0):
        assert per_swap_profit(POOL, params, P_ONE, q) == pytest.approx(
            swap_out(POOL, q) - 1.9 * q, rel=1e-14
        )


def test_per_swap_profit_failure_branch_dominates():
    # prob pinned at the floor: profit collapses to -P_c q - phi - c_g
    model = LinearClamped(slope=1.0)  # floor binds for q >= 1
    params = ArbParams(total_size=100, cex_price=1.9, gas_overhead=0.5, liquidation_penalty=3.0)
    q = 50.0
    dy = swap_out(POOL, q)
    expected = -1.9 * q - 3.0 - 0.5
    assert per_swap_profit(POOL, params, model, q) == pytest.approx(
        expected, abs=DEFAULT_FLOOR * (dy + 3.0) * 1.01
    )


def test_per_swap_profit_worked_example():
    model = LinearClamped(slope=0.001)
    params = ArbParams(total_size=100, cex_price=1.9, gas_overhead=0.01)
    # p = 0.9, dy = 2000*100/1100, pi = 0.9*181.8181... - 190 - 0.01
    assert per_swap_profit(POOL, params, model, 100) == pytest.approx(
        -26.373636363636365, rel=1e-12
    )


def test_profit_matches_expectation_over_outcomes():
    # expected profit written as p * win + (1 - p) * loss must agree with
    # the implementation's rearranged form
    rng = np.random.default_rng(5)
    model = LinearClamped(slope=0.002)
    params = ArbParams(total_size=300, cex_price=1.9, gas_overhead=0.3, liquidation_penalty=2.0)
    for q in rng.uniform(1, 300, 50):
        p = model.prob(q)
        dy = swap_out(POOL, q)
        expected = p * (dy - 1.9 * q) - (1 - p) * (1.9 * q + 2.0) - 0.3
        assert per_swap_profit(POOL, params, model, q) == pytest.approx(expected, rel=1e-12)


def test_marginal_benefit_degenerate_model():
    params = ArbParams(total_size=100, cex_price=1.9)
    assert marginal_benefit(POOL, params, P_ONE, 50) == pytest.approx(
        marginal_out(POOL, 50) - 1.9, rel=1e-14
    )
    assert marginal_benefit(POOL, params, P_ONE, 1e-9) == pytest.approx(0.1, abs=1e-9)


def test_marginal_benefit_strictly_decreasing():
    for pool, params, model in compliant_instances(21, 20):
        qs = np.geomspace(params.total_size * 1e-4, params.total_size, 200)
        m = pointwise(lambda q: marginal_benefit(pool, params, model, q), qs)
        assert np.all(np.diff(m) < 1e-9)


def test_marginal_benefit_is_profit_derivative():
    for pool, params, model in compliant_instances(22, 20):
        d = params.total_size
        qs = np.geomspace(d * 1e-3, d * 0.5, 50)
        h = qs * 1e-6
        profit = lambda q: per_swap_profit(pool, params, model, q)  # noqa: E731
        fd = (pointwise(profit, qs + h) - pointwise(profit, qs - h)) / (2 * h)
        np.testing.assert_allclose(
            pointwise(lambda q: marginal_benefit(pool, params, model, q), qs), fd, rtol=1e-4, atol=1e-9
        )


def test_threshold_degenerate_closed_form():
    params = ArbParams(total_size=100, cex_price=1.9)
    d = 100.0
    expected = swap_out(POOL, d) - d * marginal_out(POOL, d)
    assert threshold(POOL, params, P_ONE) == pytest.approx(expected, rel=1e-14)
    assert threshold(POOL, params, P_ONE) == pytest.approx(16.528925619834695, rel=1e-12)
    # P_c cancels in the degenerate case
    assert threshold(POOL, ArbParams(100, 5.0), P_ONE) == pytest.approx(
        threshold(POOL, params, P_ONE), rel=1e-12
    )


def test_threshold_continuity_in_total_size():
    params = ArbParams(total_size=100, cex_price=1.9)
    bumped = ArbParams(total_size=100 + 1e-9, cex_price=1.9)
    assert abs(threshold(POOL, bumped, P_ONE) - threshold(POOL, params, P_ONE)) < 1e-6


def test_solve_chunk_worked_example():
    # p == 1, f=0: the root equation reduces to dy(q) - q*dy'(q) = c_g,
    # i.e. y q^2 / (x+q)^2 = c_g, whose positive root is closed-form
    params = ArbParams(total_size=100, cex_price=1.9, gas_overhead=1.0)
    analytic = 1000.0 / (math.sqrt(2000.0) - 1.0)
    q_star = solve_chunk(POOL, params, P_ONE)
    assert q_star == pytest.approx(analytic, rel=1e-9)


def test_solve_chunk_grid_scan_oracle():
    # independent bracket: dense scan of the numpy reference residual, root located by sign change
    for pool, params, model in compliant_instances(23, 10):
        theta = threshold(pool, params, model)
        if params.gas_overhead >= theta:
            continue
        qs = np.geomspace(params.total_size * 1e-9, params.total_size, 200_001)
        res, _ = residual(pool, params, model, qs)
        sign_change = np.nonzero(res <= 0)[0]
        assert sign_change.size > 0
        lo = qs[sign_change[0] - 1]
        hi = qs[sign_change[0]]
        q_star = solve_chunk(pool, params, model)
        assert lo <= q_star <= hi
        # plan passes the threshold it has computed: the same root
        assert solve_chunk(pool, params, model, theta=theta) == q_star


def test_solve_chunk_approaches_total_size_near_threshold():
    params0 = ArbParams(total_size=100, cex_price=1.9)
    theta = threshold(POOL, params0, P_ONE)
    q_star = solve_chunk(POOL, ArbParams(100, 1.9, theta * (1 - 1e-9)), P_ONE)
    assert q_star == pytest.approx(100.0, rel=1e-3)


def test_solve_chunk_signals_single_swap():
    params0 = ArbParams(total_size=100, cex_price=1.9)
    theta = threshold(POOL, params0, P_ONE)
    with pytest.raises(DomainError, match="single swap is optimal"):
        solve_chunk(POOL, ArbParams(100, 1.9, theta * 1.01), P_ONE)
    with pytest.raises(DomainError, match="single swap is optimal"):
        solve_chunk(POOL, ArbParams(100, 1.9, theta * 1.01), P_ONE, theta=theta)


def test_solve_chunk_no_root_at_zero_overhead():
    for model in FAMILIES.values():
        assert threshold(POOL, ArbParams(100, 1.9, 0.0), model) > 0
        with pytest.raises(NoRootError):
            solve_chunk(POOL, ArbParams(100, 1.9, 0.0), model)


def test_solve_chunk_checks_the_domain_at_total_size():
    # the bracket is validated once, at q = D; a table ending below D is
    # outside its declared domain there
    short = TableInterpolated(qs=(0.0, 50.0), ps=(1.0, 0.5))
    with pytest.raises(DomainError):
        solve_chunk(POOL, ArbParams(100, 1.9, 1.0), short)


@st.composite
def concave_tables(draw, q_end):
    """A concave table over [0, q_end] of 2 to 6 knots: each segment is 1 to 10
    times as steep as the one before. Its last p is at or below the floor in
    about two thirds of the draws, above it in the rest."""
    n = draw(st.integers(2, 6))
    steps = np.array(draw(st.lists(st.floats(1e-2, 1.0), min_size=n - 1, max_size=n - 1)))
    drops = np.cumprod(draw(st.lists(st.floats(1.0, 10.0), min_size=n - 1, max_size=n - 1))) * steps
    end = draw(st.one_of(st.sampled_from([0.0, DEFAULT_FLOOR]), st.floats(-1.0, 0.0), st.floats(1e-3, 0.999)))
    qs = (0.0, *(float(q) for q in np.cumsum(steps)[:-1] * (q_end / steps.sum())), q_end)
    ps = (1.0, *(float(p) for p in 1.0 - (1.0 - end) * np.cumsum(drops)[:-1] / drops.sum()), end)
    try:
        return TableInterpolated(qs=qs, ps=ps)
    except ConfigError:  # rounding tipped two segments of one slope apart, or merged two knots
        assume(False)


@st.composite
def models_and_points(draw):
    """A failure model of any family and a q in its domain. For linear,
    power and quadratic models about half of the q lie where the floor
    binds; a table is concave, its q is often a knot, and its last p often
    at or below the floor."""
    family = draw(st.sampled_from(["linear", "power", "quadratic", "table", "constant"]))
    if family == "linear":
        model = LinearClamped(slope=draw(st.floats(1e-3, 10.0)))
        span = 2.0 / model.slope
    elif family == "power":
        alpha = draw(st.one_of(st.just(1.0), st.floats(1.0, 4.0)))
        model = PowerConcave(q_max=draw(st.floats(1e-2, 1e4)), alpha=alpha)
        span = 2.0 * model.q_max
    elif family == "quadratic":
        model = QuadraticConcave(a=draw(st.floats(0.0, 1.0)), b=draw(st.floats(1e-3, 1.0)))
        span = 2.0 * (math.sqrt(model.a**2 + 4.0 * model.b) - model.a) / (2.0 * model.b)
    elif family == "table":
        model = draw(concave_tables(draw(st.floats(1e-2, 5e3))))
        return model, draw(st.one_of(st.sampled_from(model.qs), st.floats(0.0, model.qs[-1])))
    else:
        model = from_config("constant", {})
        span = 1e6
    return model, draw(st.floats(0.0, span))


@given(
    pools,
    models_and_points(),
    st.floats(0.1, 10.0),
    st.floats(0.0, 10.0),
    st.floats(0.0, 10.0),
)
@example(POOL, (LinearClamped(slope=0.01), 150.0), 1.9, 1.0, 0.0)  # floor binds
@example(POOL, (FAMILIES["table"], 100.0), 1.9, 1.0, 2.0)  # interior knot
@example(POOL, (TableInterpolated(qs=(0.0, 10.0), ps=(1.0, DEFAULT_FLOOR)), 10.0), 1.9, 1.0, 0.0)  # p == floor
@example(POOL, (PowerConcave(q_max=3.0, alpha=1.7), 0.1), 1.9, 0.0, 1.0)  # ** and np.power differ
@example(POOL, (PowerConcave(q_max=7.5e-7, alpha=50.0), 7.5e-8), 1.9, 1.0, 0.0)  # q_max**alpha just above the normal minimum
@example(PoolState(1e-200, 1.0), (LinearClamped(slope=1.0), 1e-190), 1.9, 1.0, 0.0)  # (x + q)**2 underflows
@settings(max_examples=500)
def test_scalar_kernels_equal_public_functions(pool, model_and_q, cex_price, gas, phi):
    # the unchecked kernels return bit for bit what the checked public
    # functions return, and so do conftest's numpy references, which the grid
    # scans rely on, but for PowerConcave's p and p', where numpy's vectorized
    # pow may differ in the last bit; bits, not ==, so that -0.0 for 0.0 shows too
    model, q = model_and_q
    expected = _bits(model.prob(q), model.prob_derivative(q))
    assert _bits(*model.prob_and_slope_unchecked(q)) == expected
    with np.errstate(divide="ignore"):  # (x + (1-f)q)**2 can underflow to 0
        ref = [float(f(pool, np.array([q]))[0]) for f in (ref_swap_out, ref_marginal_out)]
    assert _bits(swap_out_unchecked(pool, q), marginal_out_unchecked(pool, q)) == _bits(*ref)
    assert _bits(swap_out(pool, q), marginal_out(pool, q)) == _bits(*ref)
    p, dp = (float(x[0]) for x in ref_prob_and_slope(model, [q]))
    if not isinstance(model, PowerConcave):
        assert _bits(p, dp) == expected
    elif min(p, model.prob(q)) > DEFAULT_FLOOR:  # 1 - (q/q_max)**alpha: an error of a few ulps of 1
        assert model.prob(q) == pytest.approx(p, rel=0, abs=4.5e-16)
        assert model.prob_derivative(q) == pytest.approx(dp, rel=1e-14, abs=1e-300)
    if q > 0:
        params = ArbParams(q, cex_price, gas, phi)
        assert _bits(*_residual_unchecked(pool, params, model, q)) == _bits(*checked_residual(pool, params, model, q))
        for n in (1, 2, 3, 10):
            if q / n > 0.0:  # a chunk of 0 is a DomainError
                assert _bits(total_profit(pool, params, model, n)) == _bits(n * per_swap_profit(pool, params, model, q / n))


def checked_residual(pool, params, model, q):
    """The residual of the chunk-size root equation and its right side at one q,
    through the checked public functions."""
    phi = params.liquidation_penalty
    lhs = q * (marginal_benefit(pool, params, model, q) + params.cex_price)
    rhs = model.prob(q) * (swap_out(pool, q) + phi) - (params.gas_overhead + phi)
    return lhs - rhs, rhs


def _bits(*xs) -> tuple[str, ...]:
    return tuple(float(x).hex() for x in xs)


PARAMS = ArbParams(100.0, 1.9, 1.0, 2.0)
BAD_INPUTS = (
    [pytest.param(getattr(model, method), q, id=f"{name}.{method}({q})")
     for name, model in FAMILIES.items()
     for method in ("prob", "prob_derivative")
     for q in (math.nan, math.inf, -math.inf, -1.0)]
    + [pytest.param(getattr(FAMILIES["table"], method), 200.5, id=f"table.{method}(200.5)")
       for method in ("prob", "prob_derivative")]
    + [pytest.param(lambda q, f=f: f(POOL, PARAMS, FAMILIES["linear"], q), q, id=f"{f.__name__}({q})")
       for f in (per_swap_profit, marginal_benefit)
       for q in (0.0, -1.0, 100.5, math.inf, math.nan)]
    + [pytest.param(lambda n: total_profit(POOL, PARAMS, FAMILIES["linear"], n), n, id=f"total_profit({n})")
       for n in (0, -1, False, True)]
)


@pytest.mark.parametrize("f, x", BAD_INPUTS)
def test_scalar_and_array_paths_raise_alike(f, x):
    # a bad q (or n) is one real number whether it comes as a Python number,
    # a 0-d array or a numpy scalar: each raises the same exception with the
    # same message
    def raised(arg):
        with pytest.raises(Exception) as info:
            f(arg)
        return type(info.value), str(info.value)

    scalar = raised(x)
    assert scalar[0] is DomainError
    assert raised(np.asarray(x)) == scalar  # a 0-d array
    assert raised(np.asarray(x)[()]) == scalar  # a numpy scalar


CHECKED = {
    "prob": lambda q: FAMILIES["table"].prob(q),
    "prob_derivative": lambda q: FAMILIES["linear"].prob_derivative(q),
    "per_swap_profit": lambda q: per_swap_profit(POOL, PARAMS, FAMILIES["power"], q),
    "marginal_benefit": lambda q: marginal_benefit(POOL, PARAMS, FAMILIES["quadratic"], q),
    "total_profit": lambda n: total_profit(POOL, PARAMS, FAMILIES["constant"], n),
}


@pytest.mark.parametrize("name", CHECKED)
def test_checks_take_zero_d_arrays_and_refuse_others(name):
    # a 0-d array or a numpy scalar is one real number: the float's result, as a float; an array
    # of any other shape, empty or not, is refused (a count as no positive integer)
    f = CHECKED[name]
    x = 2 if name == "total_profit" else 5.0
    for same in (np.asarray(x), np.asarray(x)[()]):  # a 0-d array and a numpy scalar
        assert _bits(f(same)) == _bits(f(x)) and type(f(same)) is float
    for arr in (np.array([]), np.empty((2, 0)), np.array([x, x]), np.array([[x], [x]])):
        with pytest.raises(DomainError if name == "total_profit" else TypeError):
            f(arr)


def test_negative_zero_q():
    # -0.0 is a nonnegative q for the failure models, and not a chunk size
    linear = FAMILIES["linear"]
    assert (linear.prob(-0.0), linear.prob(np.array(-0.0))) == (1.0, 1.0)
    for q in (-0.0, np.array(-0.0), np.float64(-0.0)):
        with pytest.raises(DomainError, match=re.escape("chunk size must lie in (0, 100.0]")):
            per_swap_profit(POOL, PARAMS, linear, q)


def test_chunk_count_grows_as_overhead_falls():
    n_prev = 1
    for cg in (10.0, 1.0, 0.1, 0.01):
        result = plan(POOL, ArbParams(100, 1.9, cg), P_ONE)
        assert result.num_chunks >= n_prev
        n_prev = result.num_chunks
    assert n_prev > 1


def test_total_profit_definition():
    params = ArbParams(total_size=100, cex_price=1.9, gas_overhead=0.5)
    assert total_profit(POOL, params, P_ONE, 1) == per_swap_profit(POOL, params, P_ONE, 100)
    assert total_profit(POOL, params, P_ONE, 4) == pytest.approx(
        4 * per_swap_profit(POOL, params, P_ONE, 25), rel=1e-14
    )
    with pytest.raises(DomainError):
        total_profit(POOL, params, P_ONE, 0)


def test_total_profit_nondecreasing_without_costs():
    params = ArbParams(total_size=100, cex_price=1.9)
    pi = pointwise(lambda n: total_profit(POOL, params, P_ONE, n), range(1, 101))
    assert np.all(np.diff(pi) >= -1e-12)


def test_unprofitable_instance_stays_negative():
    params = ArbParams(total_size=100, cex_price=100.0, gas_overhead=1.0)
    pi = pointwise(lambda n: total_profit(POOL, params, P_ONE, n), range(1, 50))
    assert np.all(pi < 0)


def test_plan_single_swap_branch():
    params0 = ArbParams(total_size=100, cex_price=1.9)
    theta = threshold(POOL, params0, P_ONE)
    result = plan(POOL, ArbParams(100, 1.9, theta + 1), P_ONE)
    assert result.branch == "single_swap"
    assert result.num_chunks == 1
    assert result.chunk_size == 100
    assert result.threshold_value == pytest.approx(theta, rel=1e-12)


def test_plan_interior_branch_with_steep_failure():
    model = LinearClamped(slope=0.009)
    result = plan(POOL, ArbParams(100, 1.9, 0.05), model)
    assert result.branch == "interior_root"
    assert result.num_chunks > 1
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        bf = brute_force_plan(POOL, ArbParams(100, 1.9, 0.05), model, 1000)
    assert bf.num_chunks in (result.num_chunks - 1, result.num_chunks, result.num_chunks + 1)


def test_plan_matches_brute_force_on_random_instances():
    for pool, params, model in compliant_instances(24, 100):
        result = plan(pool, params, model)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            bf = brute_force_plan(pool, params, model, 1000)
        assert bf.num_chunks in (result.num_chunks - 1, result.num_chunks, result.num_chunks + 1)
        assert result.expected_total_profit >= bf.expected_total_profit - 1e-6 * (
            1 + abs(bf.expected_total_profit)
        )


@given(pools, st.floats(0.001, 0.5), st.floats(1.0, 3.0), st.floats(0.8, 1.2), st.floats(0.0, 2.0),
       st.floats(0.0, 2.0), st.data())
@settings(max_examples=300, deadline=None)
def test_plan_matches_brute_force_on_concave_tables(pool, size, stretch, price, phi_share, gas_share, data):
    # random_instance's draws, with a concave table over [0, stretch * D]: plan
    # within one chunk of the oracle and no less profitable, or refused where
    # the floor binds at D
    d = pool.reserve_x * size
    table = data.draw(concave_tables(d * stretch))
    cex_price = pool.reserve_y / pool.reserve_x * price
    theta0 = threshold(pool, ArbParams(d, cex_price), table)
    assume(theta0 > 0)
    theta = threshold(pool, ArbParams(d, cex_price, 0.0, phi_share * theta0), table)
    assume(theta > 0)
    params = ArbParams(d, cex_price, gas_share * theta, phi_share * theta0)
    if table.prob(d) <= DEFAULT_FLOOR:
        with pytest.raises(DomainError, match="total_size"):
            plan(pool, params, table)
        return
    try:
        result = plan(pool, params, table)
    except NoRootError:  # an overhead too small for the residual at D * 1e-9
        assume(False)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        bf = brute_force_plan(pool, params, table, 1000)
    assume(not bf.truncated)
    assert bf.num_chunks in (result.num_chunks - 1, result.num_chunks, result.num_chunks + 1)
    assert result.expected_total_profit >= bf.expected_total_profit - 1e-6 * (1 + abs(bf.expected_total_profit))


WORKED = PoolState(1000.0, 2000.0, 0.003)
FLOORED_AT_D = {  # (model, D): p(D) is the floor
    "linear-at-reach": (LinearClamped(slope=0.01), 100.0),
    "linear-beyond": (LinearClamped(slope=0.01), 150.0),
    "power": (PowerConcave(q_max=100.0), 100.0),
    "quadratic": (QuadraticConcave(a=0.0, b=1e-4), 100.0),
    "table-ends-at-0": (TableInterpolated(qs=(0.0, 100.0), ps=(1.0, 0.0)), 100.0),
}


@pytest.mark.parametrize("model, d", FLOORED_AT_D.values(), ids=FLOORED_AT_D)
def test_plan_refuses_a_floored_total_size(model, d):
    # p is flat at the floor just below D, so the threshold test and ceil(D/q*) do not hold:
    # on LinearClamped(0.01) at D = 100 they would give one swap at -190.05 where 66 give +2.78
    params = ArbParams(d, 1.9, 0.05)
    message = re.escape(f"total_size {d}: the success probability is at its floor there")
    for solve in (plan, solve_chunk):
        with pytest.raises(DomainError, match=message):
            solve(WORKED, params, model)
    # the kernels and the oracle still evaluate there
    assert math.isfinite(threshold(WORKED, params, model))
    assert per_swap_profit(WORKED, params, model, d) < 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert brute_force_plan(WORKED, params, model, 1000).expected_total_profit > 0


def test_plan_accepts_p_just_above_the_floor():
    # a table that ends at p = 0.01: the oracle's 66 chunks
    table, params = TableInterpolated(qs=(0.0, 100.0), ps=(1.0, 0.01)), ArbParams(100.0, 1.9, 0.05)
    result = plan(WORKED, params, table)
    bf = brute_force_plan(WORKED, params, table, 1000)
    assert (result.branch, result.num_chunks) == ("interior_root", 66)
    assert result.expected_total_profit == pytest.approx(bf.expected_total_profit, rel=1e-12)
    assert bf.num_chunks == 66


def test_solve_chunk_checks_as_plan_does():
    # without theta, solve_chunk runs plan's entry checks in plan's order: threshold's own
    # (the domain at D), a finite threshold, then p(D) above the floor
    cases = [
        (POOL, ArbParams(100.0, 1.9, 1.0), SHORT_TABLE, DomainError, "outside declared domain"),
        (PoolState(1e-200, 1e-200, 0.003), ArbParams(1e-300, 1.0), LinearClamped(slope=1.0), NoRootError,
         "threshold is nan"),  # solve_chunk returned a root of 1e-309 here
        (PoolState(1e-200, 1.0, 0.003), ArbParams(1e-300, 1.0), LinearClamped(slope=1.0), NoRootError,
         "threshold is -inf"),
        (POOL, ArbParams(200.0, 1.9, 1.0), LinearClamped(slope=0.01), DomainError, "at its floor"),
    ]
    for pool, params, model, error, message in cases:
        for solve in (plan, solve_chunk):
            with pytest.raises(error, match=message):
                solve(pool, params, model)


def test_splitting_dominates_single_swap_below_threshold():
    for pool, params, model in compliant_instances(25, 50):
        theta = threshold(pool, params, model)
        if params.gas_overhead >= theta:
            continue
        result = plan(pool, params, model)
        pi1 = total_profit(pool, params, model, 1)
        assert result.expected_total_profit >= pi1 - 1e-9 * (1 + abs(pi1))


def test_brute_force_singleton_and_truncation():
    params = ArbParams(total_size=100, cex_price=1.9)
    assert brute_force_plan(POOL, params, P_ONE, 1).num_chunks == 1
    with pytest.raises(DomainError, match="n_max must be >= 1"):
        brute_force_plan(POOL, params, P_ONE, 0)
    # zero overhead: profit strictly rises with n, scan must flag truncation
    with pytest.warns(RuntimeWarning):
        bf = brute_force_plan(POOL, params, P_ONE, 50)
    assert bf.num_chunks == 50
    assert bf.truncated


def test_monotone_separation_of_root_equation():
    # the difference (lhs - rhs) of the root equation is strictly
    # decreasing, which is what makes the interior root unique
    for pool, params, model in compliant_instances(26, 20):
        qs = np.geomspace(params.total_size * 1e-4, params.total_size, 500)
        res, _ = residual(pool, params, model, qs)
        assert np.all(np.diff(res) < 1e-9)


def test_dichotomy_flips_exactly_at_threshold():
    for pool, params, model in compliant_instances(27, 20):
        theta = threshold(pool, ArbParams(params.total_size, params.cex_price, 0.0, params.liquidation_penalty), model)
        for eps, expected in ((-1e-6, "interior_root"), (1e-6, "single_swap")):
            p = ArbParams(
                params.total_size, params.cex_price, theta * (1 + eps), params.liquidation_penalty
            )
            assert plan(pool, p, model).branch == expected


def test_profit_curve_shape():
    curve = profit_curve(POOL, ArbParams(100, 1.9, 1.0), P_ONE, 20)
    assert len(curve) == 20
    assert curve[0][0] == 1
    assert curve[3][1] == pytest.approx(total_profit(POOL, ArbParams(100, 1.9, 1.0), P_ONE, 4))


def checked_profit_curve(pool, params, model, n_max):
    """``profit_curve`` through ``total_profit``, which checks every q = D/n."""
    rows = [(n, total_profit(pool, params, model, n)) for n in range(1, n_max + 1)]
    if not all(math.isfinite(p) for _, p in rows):
        raise NoRootError("an expected profit is not finite: the pool's arithmetic has left the float range")
    return rows


def _curve_outcome(f, *args):
    """The rows of f(*args), each profit as its bits, or the type and message
    of what it raises."""
    try:
        rows = f(*args)
    except Exception as exc:  # noqa: BLE001 - what is raised is the outcome compared
        return type(exc), str(exc)
    assert all(type(n) is int and type(p) is float for n, p in rows)
    return [(n, p.hex()) for n, p in rows]


@given(
    pools,
    models_and_points(),
    st.sampled_from([1.0, 1.5]),  # 1.5 takes a table's D past its last knot
    st.floats(0.1, 10.0),
    st.floats(0.0, 10.0),
    st.floats(0.0, 10.0),
    st.integers(1, 1000),
)
@example(POOL, (FAMILIES["table"], 200.0), 1.5, 1.9, 1.0, 0.0, 40)  # D outside the table's domain
@example(POOL, (LinearClamped(slope=0.01), 5e-324), 1.0, 1.9, 1.0, 0.0, 2)  # D/2 underflows to 0
@example(POOL, (FAMILIES["linear"], 100.0), 1.0, 1.9, 1.0, 2.0, 40)  # one example of each family
@example(POOL, (FAMILIES["power"], 100.0), 1.0, 1.9, 1.0, 2.0, 40)
@example(POOL, (FAMILIES["quadratic"], 100.0), 1.0, 1.9, 1.0, 2.0, 40)
@example(POOL, (FAMILIES["table"], 100.0), 1.0, 1.9, 1.0, 2.0, 40)
@example(POOL, (FAMILIES["constant"], 100.0), 1.0, 1.9, 1.0, 2.0, 40)
# the optimize_sweep seed-0 config opt0625, whose row n = 15 once came from numpy's vectorized pow
@example(
    PoolState(86780.69166358773, 1289.7957754138001, 0.0),
    (PowerConcave(q_max=3779.677200378201, alpha=1.0551426132008144), 3548.0395953934017),
    1.0, 0.015867347962177515, 9.902125244421976, 3.7902346406204845, 20,
)
@settings(max_examples=300)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_profit_curve_equals_checked_path(pool, model_and_q, stretch, cex_price, gas, phi, n_max):
    # profit_curve checks its inputs at the smallest and the largest q and
    # computes the rows unchecked: every row is total_profit(n), bit for bit,
    # and every exception, type and message, is the one total_profit raises
    model, q = model_and_q
    assume(q > 0)
    params = ArbParams(q * stretch, cex_price, gas, phi)
    assert _curve_outcome(profit_curve, pool, params, model, n_max) == _curve_outcome(
        checked_profit_curve, pool, params, model, n_max
    )


SHORT_TABLE = TableInterpolated(qs=(0.0, 50.0), ps=(1.0, 0.5))
PROFIT_CURVE_ERRORS = {  # (pool, params, model, n_max, exception raised)
    "table-domain": (POOL, ArbParams(100.0, 1.9, 1.0), SHORT_TABLE, 40, DomainError),
    "precision-guard": (PoolState(1e-3, 1.0), ArbParams(1e10, 1.9, 1.0), P_ONE, 40, DomainError),
    "underflowed-chunk": (POOL, ArbParams(5e-324, 1.9, 1.0), P_ONE, 2, DomainError),
    # cex_price * D overflows: every profit is -inf
    "non-finite": (
        PoolState(6.2e200, 8.8e-229), ArbParams(2.4e169, 1.2e150, 1.0), LinearClamped(slope=1e-171), 10, NoRootError
    ),
}


@pytest.mark.parametrize("pool, params, model, n_max, error", PROFIT_CURVE_ERRORS.values(), ids=PROFIT_CURVE_ERRORS)
@pytest.mark.filterwarnings("error::RuntimeWarning")  # no numpy warning on the way either
def test_profit_curve_raises_as_checked_path(pool, params, model, n_max, error):
    outcome = _curve_outcome(profit_curve, pool, params, model, n_max)
    assert outcome[0] is error
    assert outcome == _curve_outcome(checked_profit_curve, pool, params, model, n_max)


def test_profit_curve_of_no_rows():
    # no q is computed, so nothing is checked: D past the table's last knot
    assert profit_curve(POOL, ArbParams(100.0, 1.9, 1.0), SHORT_TABLE, 0) == []
