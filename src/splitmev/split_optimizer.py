"""Optimal splitting of a CEX-DEX arbitrage into equal-sized AMM swaps.

A total of D units bought on the CEX is sold into the pool in n equal
chunks q = D/n. Each attempt costs a flat overhead, succeeds with
probability p(q), and on failure strands the inventory at a liquidation
penalty. The optimal chunk size is either the full size D (when overhead
is at or above a computable threshold) or the unique root of a monotone
residual on (0, D); the chunk count is the ceiling of D over that root.

Array q and n broadcast; a Python ``float`` q or ``int`` n is checked and
computed in plain floats, with the same checks, messages and a numpy scalar's results.

A brute-force integer scan over n is provided as an independent oracle;
the ceiling rule can be off by one against the true integer optimum, and
the oracle makes that checkable.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .amm_core import DomainError, PoolState, _as_output, marginal_out, swap_out
from .amm_core import marginal_out_unchecked, swap_out_unchecked
from .config import require
from .failure_models import FailureModel

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


class NoRootError(RuntimeError):
    """The residual is nonpositive at q = D * 1e-9, so the root degenerates
    to 0, or a threshold, expected profit or simulated block number is not finite."""


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
class SplitPlan:
    chunk_size: float
    num_chunks: int
    expected_total_profit: float
    branch: str  # "single_swap" | "interior_root"
    threshold_value: float
    truncated: bool = False


def _check_chunk(params: ArbParams, q):
    """Check q and return it: a ``float`` as is, anything else as an array, checked at its ends."""
    lo = hi = q
    if type(q) is not float:
        q = np.asarray(q, dtype=float)
        lo, hi = q.min(initial=math.inf), q.max(initial=-math.inf)
    if not (0.0 < lo and hi <= params.total_size):
        raise DomainError(f"chunk size must lie in (0, {params.total_size}]")
    return q


def per_swap_profit(pool: PoolState, params: ArbParams, model: FailureModel, q):
    """Expected profit of one attempted swap of size q (pool held fixed).

    Success pays the AMM output net of the CEX cost; failure still pays the
    CEX leg (it always settles) plus the liquidation penalty; the flat
    overhead is sunk either way.
    """
    q = _check_chunk(params, q)
    return _as_output(_expected_profit(params, model.prob(q), swap_out(pool, q), q))


def _expected_profit(params: ArbParams, p, dy, q):
    """``per_swap_profit`` from the success probability p and AMM output dy at q."""
    return p * dy - params.cex_price * q - (1.0 - p) * params.liquidation_penalty - params.gas_overhead


def marginal_benefit(pool: PoolState, params: ArbParams, model: FailureModel, q):
    """Derivative of per_swap_profit in q; strictly decreasing for
    admissible failure models."""
    q = _check_chunk(params, q)
    p, dp = model.prob(q), model.prob_derivative(q)
    out = dp * (swap_out(pool, q) + params.liquidation_penalty) + p * marginal_out(pool, q) - params.cex_price
    return _as_output(out)


def threshold(pool: PoolState, params: ArbParams, model: FailureModel) -> float:
    """Overhead level above which a single full-size swap is optimal."""
    d = params.total_size
    phi = params.liquidation_penalty
    m_d = marginal_benefit(pool, params, model, d)
    return float(
        model.prob(d) * (swap_out(pool, d) + phi) - phi - d * (m_d + params.cex_price)
    )


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
    q = D, which covers every q in (0, D]. A caller that has already
    computed ``threshold(pool, params, model)``, as ``plan`` has, passes it
    as ``theta``.
    """
    d = params.total_size
    if theta is None:
        theta = threshold(pool, params, model)
    if params.gas_overhead >= theta:
        raise DomainError(
            f"overhead {params.gas_overhead} >= threshold {theta}: single swap is optimal"
        )

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


def total_profit(pool: PoolState, params: ArbParams, model: FailureModel, n):
    """Expected profit of n equal chunks, pool drift ignored between them."""
    if type(n) is int:
        ok = n >= 1
    else:
        n = np.asarray(n)
        ok = n.dtype != bool and np.all((n >= 1) & (n == np.floor(n)))  # a bool is never a count
    if not ok:
        raise DomainError("n must be a positive integer")
    return _as_output(n * per_swap_profit(pool, params, model, params.total_size / n))


def plan(pool: PoolState, params: ArbParams, model: FailureModel) -> SplitPlan:
    """Optimal split: single full swap at/above the threshold, otherwise
    the integer chunk count nearest the interior root (the better of
    ceil(D/q*) and ceil(D/q*)-1).

    The branch field reports the overhead-vs-threshold dichotomy; near the
    threshold the interior branch can still land on a single chunk."""
    theta = threshold(pool, params, model)
    if not math.isfinite(theta):
        raise NoRootError(f"threshold is {theta}: the pool's arithmetic has left the float range")
    if params.gas_overhead >= theta:
        n_star, profit, branch = 1, float(per_swap_profit(pool, params, model, params.total_size)), "single_swap"
    else:
        q_star = solve_chunk(pool, params, model, theta=theta)
        n_ceil = max(1, math.ceil(params.total_size / q_star))
        # the continuous optimum D/q* lies between n_ceil-1 and n_ceil and the
        # total-profit curve is unimodal in n, so the integer optimum is one of
        # the two; take the better, smaller n on ties
        candidates = [n_ceil - 1, n_ceil] if n_ceil > 1 else [n_ceil]
        profits = [float(total_profit(pool, params, model, n)) for n in candidates]
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

    Independent oracle for ``plan``: evaluates the total-profit curve
    directly, no root finding involved.
    """
    if n_max < 1:
        raise DomainError("n_max must be >= 1")
    ns = np.arange(1, n_max + 1)
    profits = np.asarray(total_profit(pool, params, model, ns))
    best = int(np.argmax(profits))  # first max = smallest n on ties
    truncated = n_max > 1 and best == n_max - 1
    if truncated:
        warnings.warn(
            f"profit still rising at n_max={n_max}; optimum may lie beyond the scan",
            RuntimeWarning,
            stacklevel=2,
        )
    n_best = int(ns[best])
    return SplitPlan(
        chunk_size=params.total_size / n_best,
        num_chunks=n_best,
        expected_total_profit=float(profits[best]),
        branch="single_swap" if n_best == 1 else "interior_root",
        threshold_value=threshold(pool, params, model),
        truncated=truncated,
    )


def profit_curve(
    pool: PoolState, params: ArbParams, model: FailureModel, n_max: int
) -> list[tuple[int, float]]:
    """(n, expected total profit) samples for plotting/export, all finite. Each input
    check is monotone in q, so checking the smallest and largest q = D/n checks them all."""
    d = params.total_size
    ns = np.arange(1, n_max + 1)
    if ns.size:
        _check_chunk(params, d / ns.size)  # the smallest q, D/n_max: 0 where it underflows
        per_swap_profit(pool, params, model, d)  # the largest
    q = d / ns
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite profit raises below
        profits = ns * _expected_profit(params, model.prob_and_slope_unchecked(q)[0], swap_out_unchecked(pool, q), q)
    if not np.isfinite(profits).all():
        raise NoRootError("an expected profit is not finite: the pool's arithmetic has left the float range")
    return list(zip(ns.tolist(), profits.tolist()))
