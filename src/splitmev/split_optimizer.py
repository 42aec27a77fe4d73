"""Optimal splitting of a CEX-DEX arbitrage into equal-sized AMM swaps.

A total of D units bought on the CEX is sold into the pool in n equal
chunks q = D/n. Each attempt costs a flat overhead, succeeds with
probability p(q), and on failure strands the inventory at a liquidation
penalty. The optimal chunk size is either the full size D (when overhead
is at or above a computable threshold) or the unique root of a monotone
residual on (0, D); the chunk count is the ceiling of D over that root.
Both need p(0) = 1, p' < 0 and p'' <= 0 on [0, D], so a floored p(D) is refused.

Each function takes one real q (or one count n), checks it and computes in
plain floats. The root solve and the profit curve check their inputs once
and then run the unchecked kernels. ``brute_force_plan``, the argmax of the
profit curve over every n, is the independent oracle for ``plan``.
"""

from __future__ import annotations

import math
import operator
import warnings
from dataclasses import dataclass, field

from .amm_core import PoolState, marginal_out, swap_out
from .amm_core import marginal_out_unchecked, swap_out_unchecked
from .config import DomainError, NoRootError, build, require
from .failure_models import DEFAULT_FLOOR, FailureModel, from_config

__all__ = [
    "ArbParams",
    "SplitPlan",
    "NoRootError",
    "per_swap_profit",
    "marginal_benefit",
    "threshold",
    "solve_chunk",
    "total_profit",
    "plan",
    "brute_force_plan",
    "profit_curve",
]

REL_TOL = 1e-10  # of the root residual and of the bracket around q*


@dataclass(frozen=True)
class ArbParams:
    """One arbitrage instance: total size, CEX price, per-swap costs."""

    total_size: float
    cex_price: float
    gas_overhead: float = 0.0
    liquidation_penalty: float = 0.0

    def __post_init__(self):
        require(0 < self.total_size < math.inf, "total_size", "must be positive and finite")
        require(0 < self.cex_price < math.inf, "cex_price", "must be positive and finite")
        require(0 <= self.gas_overhead < math.inf, "gas_overhead", "must be nonnegative and finite")
        require(0 <= self.liquidation_penalty < math.inf, "liquidation_penalty", "must be nonnegative and finite")


@dataclass(frozen=True)
class ModelConfig:
    """The ``model`` section of an ``optimize`` config."""

    family: str
    parameters: dict = field(default_factory=dict)


@dataclass(frozen=True)
class OptimizeConfig:
    """An ``optimize`` config file."""

    pool: PoolState
    params: ArbParams
    model: ModelConfig


def _optimize_config(doc):  # the config and its failure model
    cfg = build(OptimizeConfig, doc)
    return cfg, from_config(cfg.model.family, cfg.model.parameters)


@dataclass(frozen=True)
class SplitPlan:
    chunk_size: float
    num_chunks: int
    expected_total_profit: float
    branch: str  # "single_swap" | "interior_root"
    threshold_value: float
    truncated: bool = False


def _check_chunk(params: ArbParams, q) -> float:
    """``float(q)``, checked to lie in (0, D]."""
    q = float(q)
    if not (0.0 < q <= params.total_size):
        raise DomainError(f"chunk size must lie in (0, {params.total_size}]")
    return q


def per_swap_profit(pool: PoolState, params: ArbParams, model: FailureModel, q) -> float:
    """Expected profit of one attempted swap of size q (pool held fixed).

    Success pays the AMM output net of the CEX cost; failure still pays the
    CEX leg (it always settles) plus the liquidation penalty; the flat
    overhead is sunk either way.
    """
    q = _check_chunk(params, q)
    return _expected_profit(params, model.prob(q), swap_out(pool, q), q)


def _expected_profit(params: ArbParams, p, dy, q):
    """``per_swap_profit`` from the success probability p and AMM output dy at q."""
    return p * dy - params.cex_price * q - (1.0 - p) * params.liquidation_penalty - params.gas_overhead


def marginal_benefit(pool: PoolState, params: ArbParams, model: FailureModel, q) -> float:
    """Derivative of per_swap_profit in q; strictly decreasing for
    admissible failure models."""
    q = _check_chunk(params, q)
    p, dp = model.prob(q), model.prob_derivative(q)
    return dp * (swap_out(pool, q) + params.liquidation_penalty) + p * marginal_out(pool, q) - params.cex_price


def threshold(pool: PoolState, params: ArbParams, model: FailureModel) -> float:
    """Overhead level above which a single full-size swap is optimal."""
    d, phi = params.total_size, params.liquidation_penalty
    m_d = marginal_benefit(pool, params, model, d)
    return model.prob(d) * (swap_out(pool, d) + phi) - phi - d * (m_d + params.cex_price)


def _plan_threshold(pool: PoolState, params: ArbParams, model: FailureModel) -> float:
    """``threshold``, checked as ``plan`` needs it: finite, and with p(D) above the floor."""
    theta = threshold(pool, params, model)
    if not math.isfinite(theta):
        raise NoRootError(f"threshold is {theta}: the pool's arithmetic has left the float range")
    if model.prob(params.total_size) <= DEFAULT_FLOOR:
        raise DomainError(f"total_size {params.total_size}: the success probability is at its floor there")
    return theta


def _residual_unchecked(pool: PoolState, params: ArbParams, model: FailureModel, q: float):
    """Left minus right side of the chunk-size root equation, and the right
    side, at one float q in (0, D], unchecked. Strictly decreasing in q (its
    derivative is q * M'(q) < 0): a sign change brackets the unique root."""
    phi = params.liquidation_penalty
    p, dp = model.prob_and_slope_unchecked(q)
    dy = swap_out_unchecked(pool, q)
    m = dp * (dy + phi) + p * marginal_out_unchecked(pool, q) - params.cex_price
    rhs = p * (dy + phi) - (params.gas_overhead + phi)
    return q * (m + params.cex_price) - rhs, rhs


def solve_chunk(
    pool: PoolState,
    params: ArbParams,
    model: FailureModel,
    *,
    theta: float | None = None,
) -> float:
    """Unique root of the chunk-size equation on (0, D).

    The residual decreases strictly from the overhead at q -> 0 to the
    overhead minus the threshold at D, so [D * 1e-9, D] brackets the root
    once the single swap is ruled out and the residual at D * 1e-9 is
    positive. Bisection takes geometric midpoints while the bracket spans
    more than a factor of 4, then arithmetic ones (about 36 steps), on the
    unchecked plain-float kernels: ``threshold`` has checked the inputs at
    q = D, which covers every q in (0, D]. Without ``theta`` the threshold
    is checked as ``plan`` checks it; ``plan`` passes its own as ``theta``.
    """
    d = params.total_size
    if theta is None:
        theta = _plan_threshold(pool, params, model)
    if params.gas_overhead >= theta:
        raise DomainError(f"overhead {params.gas_overhead} >= threshold {theta}: single swap is optimal")

    lo, hi = d * 1e-9, d
    if _residual_unchecked(pool, params, model, lo)[0] <= 0.0:
        raise NoRootError(f"residual is nonpositive at q = D * 1e-9 = {lo}: overhead is effectively zero")

    for _ in range(200):
        mid = math.sqrt(lo) * math.sqrt(hi) if hi > 4.0 * lo else 0.5 * (lo + hi)
        r, rhs = _residual_unchecked(pool, params, model, mid)
        if abs(r) <= REL_TOL * (1.0 + abs(rhs)):
            return mid
        if r > 0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= REL_TOL * mid:
            break
    return 0.5 * (lo + hi)


def total_profit(pool: PoolState, params: ArbParams, model: FailureModel, n) -> float:
    """Expected profit of n equal chunks, pool drift ignored between them."""
    try:
        count = operator.index(n)  # an int or a numpy integer, not a float or a numpy bool
    except TypeError:
        count = 0
    if count < 1 or type(n) is bool:  # a bool is never a count
        raise DomainError("n must be a positive integer")
    return count * per_swap_profit(pool, params, model, params.total_size / count)


def plan(pool: PoolState, params: ArbParams, model: FailureModel) -> SplitPlan:
    """Optimal split: single full swap at/above the threshold, otherwise
    the integer chunk count nearest the interior root (the better of
    ceil(D/q*) and ceil(D/q*)-1).

    The branch field reports the overhead-vs-threshold dichotomy; near the
    threshold the interior branch can still land on a single chunk. A p(D) at
    the floor, where p stops decreasing, raises ``DomainError``."""
    theta = _plan_threshold(pool, params, model)
    if params.gas_overhead >= theta:
        n_star, profit, branch = 1, per_swap_profit(pool, params, model, params.total_size), "single_swap"
    else:
        q_star = solve_chunk(pool, params, model, theta=theta)
        n_ceil = max(1, math.ceil(params.total_size / q_star))
        # the continuous optimum D/q* lies between n_ceil-1 and n_ceil and the
        # total-profit curve is unimodal in n, so the integer optimum is one of
        # the two; take the better, smaller n on ties
        candidates = [n_ceil - 1, n_ceil] if n_ceil > 1 else [n_ceil]
        profits = [total_profit(pool, params, model, n) for n in candidates]
        best = max(range(len(candidates)), key=lambda i: (profits[i], -candidates[i]))
        n_star, profit, branch = candidates[best], profits[best], "interior_root"
    if not math.isfinite(profit):
        raise NoRootError(f"expected profit is {profit}: the pool's arithmetic has left the float range")
    return SplitPlan(
        chunk_size=params.total_size / n_star,
        num_chunks=n_star,
        expected_total_profit=profit,
        branch=branch,
        threshold_value=theta,
    )


def brute_force_plan(
    pool: PoolState, params: ArbParams, model: FailureModel, n_max: int
) -> SplitPlan:
    """Exact argmax over n in [1, n_max]; ties go to the smaller n.

    Independent oracle for ``plan``: the argmax of ``profit_curve``, no root
    finding involved.
    """
    if n_max < 1:
        raise DomainError("n_max must be >= 1")
    n_best, profit = max(profit_curve(pool, params, model, n_max), key=lambda row: row[1])  # the first max
    truncated = n_max > 1 and n_best == n_max
    if truncated:
        warnings.warn(
            f"profit still rising at n_max={n_max}; optimum may lie beyond the scan",
            RuntimeWarning,
            stacklevel=2,
        )
    return SplitPlan(
        chunk_size=params.total_size / n_best,
        num_chunks=n_best,
        expected_total_profit=profit,
        branch="single_swap" if n_best == 1 else "interior_root",
        threshold_value=threshold(pool, params, model),
        truncated=truncated,
    )


def profit_curve(
    pool: PoolState, params: ArbParams, model: FailureModel, n_max: int
) -> list[tuple[int, float]]:
    """(n, expected total profit) for n in [1, n_max], all finite. Each input check
    is monotone in q, so checking the smallest and largest q = D/n checks them all."""
    d = params.total_size
    if n_max >= 1:
        _check_chunk(params, d / n_max)  # the smallest q, D/n_max: 0 where it underflows
        per_swap_profit(pool, params, model, d)  # the largest
    rows = []
    for n in range(1, n_max + 1):
        q = d / n
        profit = n * _expected_profit(params, model.prob_and_slope_unchecked(q)[0], swap_out_unchecked(pool, q), q)
        if not math.isfinite(profit):
            raise NoRootError("an expected profit is not finite: the pool's arithmetic has left the float range")
        rows.append((n, profit))
    return rows
