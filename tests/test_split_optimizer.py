import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from splitmev import (
    ArbParams,
    DomainError,
    LinearClamped,
    NoRootError,
    PoolState,
    PowerConcave,
    QuadraticConcave,
    SingleSwapOptimal,
    TableInterpolated,
    brute_force_plan,
    constant_success,
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
from splitmev.failure_models import from_config
from splitmev.split_optimizer import _residual, _residual_unchecked, profit_curve

from conftest import compliant_instances, pools

POOL = PoolState(1000, 2000, 0)
P_ONE = constant_success()

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
        expected, abs=model.floor * (dy + 3.0) * 1.01
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
        m = np.asarray(marginal_benefit(pool, params, model, qs))
        assert np.all(np.diff(m) < 1e-9)


def test_marginal_benefit_is_profit_derivative():
    for pool, params, model in compliant_instances(22, 20):
        d = params.total_size
        qs = np.geomspace(d * 1e-3, d * 0.5, 50)
        h = qs * 1e-6
        fd = (
            np.asarray(per_swap_profit(pool, params, model, qs + h))
            - np.asarray(per_swap_profit(pool, params, model, qs - h))
        ) / (2 * h)
        np.testing.assert_allclose(
            np.asarray(marginal_benefit(pool, params, model, qs)), fd, rtol=1e-4, atol=1e-9
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
    q_star = solve_chunk(POOL, params, P_ONE, rel_tol=1e-12)
    assert q_star == pytest.approx(analytic, rel=1e-9)


def test_solve_chunk_grid_scan_oracle():
    # independent bracket: dense residual scan, root located by sign change
    for pool, params, model in compliant_instances(23, 10):
        theta = threshold(pool, params, model)
        if params.gas_overhead >= theta:
            continue
        qs = np.geomspace(params.total_size * 1e-9, params.total_size, 200_001)
        res, _ = _residual(pool, params, model, qs)
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
    with pytest.raises(SingleSwapOptimal):
        solve_chunk(POOL, ArbParams(100, 1.9, theta * 1.01), P_ONE)
    with pytest.raises(SingleSwapOptimal):
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
def models_and_points(draw):
    """A failure model of any family and a q in its domain. For linear,
    power and quadratic models about half of the q lie where the floor
    binds; a table's q is often a knot."""
    floor = draw(st.sampled_from([1e-6, 0.01]))
    family = draw(st.sampled_from(["linear", "power", "quadratic", "table", "constant"]))
    if family == "linear":
        model = LinearClamped(slope=draw(st.floats(1e-3, 10.0)), floor=floor)
        span = 2.0 / model.slope
    elif family == "power":
        alpha = draw(st.one_of(st.just(1.0), st.floats(1.0, 4.0)))
        model = PowerConcave(q_max=draw(st.floats(1e-2, 1e4)), alpha=alpha, floor=floor)
        span = 2.0 * model.q_max
    elif family == "quadratic":
        model = QuadraticConcave(a=draw(st.floats(0.0, 1.0)), b=draw(st.floats(1e-3, 1.0)), floor=floor)
        span = 2.0 * (math.sqrt(model.a**2 + 4.0 * model.b) - model.a) / (2.0 * model.b)
    elif family == "table":
        n = draw(st.integers(2, 6))
        steps = draw(st.lists(st.floats(1e-2, 1e3), min_size=n - 1, max_size=n - 1))
        drops = draw(st.lists(st.floats(0.0, 0.999), min_size=n - 1, max_size=n - 1, unique=True))
        qs = tuple(float(q) for q in np.cumsum([0.0, *steps]))
        model = TableInterpolated(qs=qs, ps=(1.0, *sorted(drops, reverse=True)), floor=floor)
        return model, draw(st.one_of(st.sampled_from(qs), st.floats(0.0, qs[-1])))
    else:
        model = from_config("constant", {}, draw(st.sampled_from([None, floor])))
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
@example(POOL, (TableInterpolated(qs=(0.0, 10.0), ps=(1.0, 0.01), floor=0.01), 10.0), 1.9, 1.0, 0.0)  # p == floor
@example(POOL, (PowerConcave(q_max=3.0, alpha=1.7), 0.1), 1.9, 0.0, 1.0)  # ** and np.power differ
@settings(max_examples=500)
def test_scalar_kernels_equal_public_functions(pool, model_and_q, cex_price, gas, phi):
    # solve_chunk's plain-float kernels must return exactly (==) what the
    # checked public functions return, so that the bisection sees the same
    # residual as every other caller
    model, q = model_and_q
    assert swap_out_unchecked(pool, q) == swap_out(pool, q)
    assert marginal_out_unchecked(pool, q) == marginal_out(pool, q)
    assert model.prob_and_slope_unchecked(q) == (model.prob(q), model.prob_derivative(q))
    if q > 0:
        params = ArbParams(q, cex_price, gas, phi)
        r, rhs = _residual(pool, params, model, q)
        assert _residual_unchecked(pool, params, model, q) == (float(r), float(rhs))


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
    pi = np.asarray(total_profit(POOL, params, P_ONE, np.arange(1, 101)))
    assert np.all(np.diff(pi) >= -1e-12)


def test_unprofitable_instance_stays_negative():
    params = ArbParams(total_size=100, cex_price=100.0, gas_overhead=1.0)
    pi = np.asarray(total_profit(POOL, params, P_ONE, np.arange(1, 50)))
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
        res, _ = _residual(pool, params, model, qs)
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
