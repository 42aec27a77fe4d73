import math

import numpy as np
import pytest
from hypothesis import strategies as st

from splitmev import (
    DEFAULT_FLOOR,
    ArbParams,
    ConstantSuccess,
    LinearClamped,
    PoolState,
    PowerConcave,
    QuadraticConcave,
    TableInterpolated,
    threshold,
)


pools = st.builds(
    PoolState,
    reserve_x=st.floats(1e2, 1e7),
    reserve_y=st.floats(1e2, 1e7),
    fee=st.sampled_from([0.0, 0.0005, 0.003, 0.01]),
)


def random_instance(rng, fee_choices=(0.0, 0.0005, 0.003, 0.01)):
    """One randomized compliant arbitrage instance (pool, params, model).

    Pools span x, y in [1e2, 1e7]; the CEX price sits within +/-20% of
    spot; overhead and penalty are drawn in [0, 2*threshold]. Returns None
    when the drawn instance has a nonpositive threshold (no split regime
    to probe).
    """
    x = 10.0 ** rng.uniform(2, 7)
    y = 10.0 ** rng.uniform(2, 7)
    pool = PoolState(x, y, float(rng.choice(fee_choices)))
    cex_price = (y / x) * rng.uniform(0.8, 1.2)
    total = x * rng.uniform(0.001, 0.5)

    kind = rng.integers(3)
    if kind == 0:
        model = LinearClamped(slope=float(rng.uniform(0.05, 0.9)) / total)
    elif kind == 1:
        model = PowerConcave(q_max=total * float(rng.uniform(1.0, 5.0)), alpha=float(rng.uniform(1.0, 3.0)))
    else:
        model = QuadraticConcave(a=float(rng.uniform(0, 0.3)) / total, b=float(rng.uniform(0.05, 0.5)) / total**2)

    theta0 = threshold(pool, ArbParams(total, cex_price), model)
    if theta0 <= 0:
        return None
    phi = float(rng.uniform(0, 2 * theta0))
    theta = threshold(pool, ArbParams(total, cex_price, 0.0, phi), model)
    if theta <= 0:
        return None
    gas = float(rng.uniform(0, 2 * theta))
    return pool, ArbParams(total, cex_price, gas, phi), model


def ref_swap_out(pool, q):
    """A numpy reference of ``swap_out`` over an array q, independent of ``src``."""
    g = (1.0 - pool.fee) * q
    return pool.reserve_y * g / (pool.reserve_x + g)


def ref_marginal_out(pool, q):
    """A numpy reference of ``marginal_out`` over an array q."""
    g = pool.reserve_x + (1.0 - pool.fee) * q
    return pool.reserve_y * (1.0 - pool.fee) * pool.reserve_x / (g * g)


def ref_prob_and_slope(model, q):
    """A numpy reference of ``model.prob`` and ``model.prob_derivative`` over an
    array q: each family's closed form, then the floor, under which the slope is 0."""
    q = np.asarray(q, dtype=float)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # the floor binds where they overflow
        if isinstance(model, LinearClamped):
            raw, slope = 1.0 - model.slope * q, np.full_like(q, -model.slope)
        elif isinstance(model, PowerConcave):
            scale = model.q_max**model.alpha
            raw, slope = 1.0 - (q / model.q_max) ** model.alpha, -model.alpha * q ** (model.alpha - 1.0) / scale
        elif isinstance(model, QuadraticConcave):
            raw, slope = 1.0 - model.a * q - model.b * q * q, -(model.a + 2.0 * model.b * q)
        elif isinstance(model, TableInterpolated):
            qs, ps = np.asarray(model.qs, dtype=float), np.asarray(model.ps, dtype=float)
            i = np.clip(np.searchsorted(qs, q, side="right") - 1, 0, qs.size - 2)
            raw, slope = np.interp(q, qs, ps), (ps[i + 1] - ps[i]) / (qs[i + 1] - qs[i])
        elif isinstance(model, ConstantSuccess):
            raw, slope = np.ones_like(q), np.zeros_like(q)
        else:
            raise TypeError(f"no reference for {type(model).__name__}")
    above = raw > DEFAULT_FLOOR
    return np.where(above, raw, DEFAULT_FLOOR), np.where(above, slope, 0.0)


def ref_table_refusal(qs, ps):
    """The message with which a numpy copy of ``TableInterpolated``'s checks of its knots
    refuses (qs, ps), checking in the same order, or None where it accepts them."""
    qs, ps = np.asarray(qs, float), np.asarray(ps, float)
    if not (qs.ndim == 1 and qs.size >= 2):
        return "qs: must be a list of at least two points"
    if not ps.shape == qs.shape:
        return "ps: must have as many points as qs"
    if not qs[0] == 0.0:
        return "qs: must start at 0"
    if not ps[0] == 1.0:
        return "ps: must start at 1"
    with np.errstate(all="ignore"):  # inf - inf, and a slope past the float range
        dq, dp = np.diff(qs), np.diff(ps)
        slopes = dp / dq
    if not (np.all(dq > 0) and qs[-1] < math.inf):
        return "qs: must be strictly increasing and finite"
    if not (np.all(dp < 0) and ps[-1] > -math.inf):
        return "ps: must be strictly decreasing and finite"
    if not (slopes[1:] <= slopes[:-1] * (1.0 - 1e-9)).all():
        return "ps: must be concave: its slopes must not increase"
    return None


def residual(pool, params, model, q):
    """Left minus right side of the chunk-size root equation, and the right
    side, over an array q, from the numpy references above: an oracle for
    ``solve_chunk`` and for grid scans over q that shares no code with ``src``.

    Strictly decreasing in q (its derivative is q * M'(q) < 0), so a sign
    change brackets the unique interior root.
    """
    q = np.asarray(q, dtype=float)
    phi = params.liquidation_penalty
    p, dp = ref_prob_and_slope(model, q)
    dy = ref_swap_out(pool, q)
    m = dp * (dy + phi) + p * ref_marginal_out(pool, q) - params.cex_price
    rhs = p * (dy + phi) - (params.gas_overhead + phi)
    return q * (m + params.cex_price) - rhs, rhs


def pointwise(f, qs):
    """``f`` at each element of ``qs``, one real number at a time, as an array."""
    return np.array([f(q) for q in qs])


def fee_rank_correlation(report):
    """Pearson correlation between priority fee and global execution rank
    (0 = first executed) in a simulator report. NaN when either side is constant."""
    fees = np.array([o.priority_fee for o in report.outcomes])
    ranks = np.arange(len(fees), dtype=float)
    if len(fees) < 2 or np.all(fees == fees[0]):
        return float("nan")
    return float(np.corrcoef(fees, ranks)[0, 1])


def compliant_instances(seed, count, **kwargs):
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        inst = random_instance(rng, **kwargs)
        if inst is not None:
            out.append(inst)
    return out


@pytest.fixture(scope="session")
def fixtures_dir():
    from pathlib import Path

    return Path(__file__).parent / "fixtures"


@pytest.fixture(scope="session")
def scenarios_dir():
    from pathlib import Path

    return Path(__file__).parent.parent / "scenarios"


@pytest.fixture(scope="session")
def configs_dir():
    from pathlib import Path

    return Path(__file__).parent.parent / "configs"
