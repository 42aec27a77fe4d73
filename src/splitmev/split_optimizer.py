"""Optimal splitting of a CEX-DEX arbitrage into equal-sized AMM swaps.

A total of D units bought on the CEX is sold into the pool in n equal
chunks q = D/n. Each attempt costs a flat overhead, succeeds with
probability p(q), and on failure strands the inventory at a liquidation
penalty. The optimal chunk size is either the full size D (when overhead
is at or above a computable threshold) or the unique root of a monotone
residual on (0, D); the chunk count is the ceiling of D over that root.

A brute-force integer scan over n is provided as an independent oracle;
the ceiling rule can be off by one against the true integer optimum, and
the oracle makes that checkable.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass

import numpy as np

from .amm_core import DomainError, PoolState, marginal_out, swap_out
from .amm_core import marginal_out_unchecked, swap_out_unchecked
from .config import require
from .failure_models import FailureModel

__all__ = [
    "ArbParams",
    "SplitPlan",
    "NoRootError",
    "SingleSwapOptimal",
    "per_swap_profit",
    "marginal_benefit",
    "threshold",
    "solve_chunk",
    "total_profit",
    "plan",
    "brute_force_plan",
    "profit_curve",
]

DEFAULT_REL_TOL = 1e-10


class NoRootError(RuntimeError):
    """The residual is nonpositive at q = D * 1e-9: the root degenerates to 0."""


class SingleSwapOptimal(Exception):
    """Signal that the overhead is at/above the threshold: no interior root
    exists and the full-size single swap is the optimum."""


@dataclass(frozen=True)
class ArbParams:
    """One arbitrage instance: total size, CEX price, per-swap costs."""

    total_size: float
    cex_price: float
    gas_overhead: float = 0.0
    liquidation_penalty: float = 0.0

    def __post_init__(self):
        require(self.total_size > 0, "total_size", "must be positive")
        require(self.cex_price > 0, "cex_price", "must be positive")
        require(self.gas_overhead >= 0, "gas_overhead", "must be nonnegative")
        require(self.liquidation_penalty >= 0, "liquidation_penalty", "must be nonnegative")


@dataclass(frozen=True)
class SplitPlan:
    chunk_size: float
    num_chunks: int
    expected_total_profit: float
    branch: str  # "single_swap" | "interior_root"
    threshold_value: float
    truncated: bool = False

    def to_dict(self) -> dict:
        return asdict(self)


def _check_chunk(params: ArbParams, q) -> np.ndarray:
    q = np.asarray(q, dtype=float)
    if not np.all((q > 0) & (q <= params.total_size)):
        raise DomainError(f"chunk size must lie in (0, {params.total_size}]")
    return q


def per_swap_profit(pool: PoolState, params: ArbParams, model: FailureModel, q):
    """Expected profit of one attempted swap of size q (pool held fixed).

    Success pays the AMM output net of the CEX cost; failure still pays the
    CEX leg (it always settles) plus the liquidation penalty; the flat
    overhead is sunk either way.
    """
    q = _check_chunk(params, q)
    p = model.prob(q)
    dy = swap_out(pool, q)
    out = (
        p * dy
        - params.cex_price * q
        - (1.0 - np.asarray(p)) * params.liquidation_penalty
        - params.gas_overhead
    )
    out = np.asarray(out)
    return out if out.ndim else float(out)


def marginal_benefit(pool: PoolState, params: ArbParams, model: FailureModel, q):
    """Derivative of per_swap_profit in q; strictly decreasing for
    admissible failure models."""
    q = _check_chunk(params, q)
    p = np.asarray(model.prob(q))
    dp = np.asarray(model.prob_derivative(q))
    dy = np.asarray(swap_out(pool, q))
    dy1 = np.asarray(marginal_out(pool, q))
    out = dp * (dy + params.liquidation_penalty) + p * dy1 - params.cex_price
    return out if out.ndim else float(out)


def threshold(pool: PoolState, params: ArbParams, model: FailureModel) -> float:
    """Overhead level above which a single full-size swap is optimal."""
    d = params.total_size
    phi = params.liquidation_penalty
    m_d = marginal_benefit(pool, params, model, d)
    return float(
        model.prob(d) * (swap_out(pool, d) + phi) - phi - d * (m_d + params.cex_price)
    )


def _residual(pool: PoolState, params: ArbParams, model: FailureModel, q):
    """Left minus right side of the chunk-size root equation.

    Strictly decreasing in q (its derivative is q * M'(q) < 0), so a sign
    change brackets the unique interior root.
    """
    phi = params.liquidation_penalty
    lhs = np.asarray(q) * (
        np.asarray(marginal_benefit(pool, params, model, q)) + params.cex_price
    )
    rhs = np.asarray(model.prob(q)) * (np.asarray(swap_out(pool, q)) + phi) - (
        params.gas_overhead + phi
    )
    return lhs - rhs, rhs


def _residual_unchecked(pool: PoolState, params: ArbParams, model: FailureModel, q: float):
    """``_residual`` (==) at one float q in (0, D], unchecked and in plain floats."""
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
    rel_tol: float = DEFAULT_REL_TOL,
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
    if rel_tol <= 0:
        raise DomainError("rel_tol must be positive")
    d = params.total_size
    if theta is None:
        theta = threshold(pool, params, model)
    if params.gas_overhead >= theta:
        raise SingleSwapOptimal(
            f"overhead {params.gas_overhead} >= threshold {theta}: single swap is optimal"
        )

    lo, hi = d * 1e-9, d
    if _residual_unchecked(pool, params, model, lo)[0] <= 0.0:
        raise NoRootError(f"residual is nonpositive at q = D * 1e-9 = {lo}: overhead is effectively zero")

    for _ in range(200):
        mid = math.sqrt(lo) * math.sqrt(hi) if hi > 4.0 * lo else 0.5 * (lo + hi)
        r, rhs = _residual_unchecked(pool, params, model, mid)
        if abs(r) <= rel_tol * (1.0 + abs(rhs)):
            return mid
        if r > 0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= rel_tol * mid:
            break
    return 0.5 * (lo + hi)


def total_profit(pool: PoolState, params: ArbParams, model: FailureModel, n):
    """Expected profit of n equal chunks, pool drift ignored between them."""
    n = np.asarray(n)
    if not np.all((n >= 1) & (n == np.floor(n))):
        raise DomainError("n must be a positive integer")
    out = n * np.asarray(per_swap_profit(pool, params, model, params.total_size / n))
    return out if out.ndim else float(out)


def plan(
    pool: PoolState,
    params: ArbParams,
    model: FailureModel,
    rel_tol: float = DEFAULT_REL_TOL,
) -> SplitPlan:
    """Optimal split: single full swap at/above the threshold, otherwise
    the integer chunk count nearest the interior root (the better of
    ceil(D/q*) and ceil(D/q*)-1).

    The branch field reports the overhead-vs-threshold dichotomy; near the
    threshold the interior branch can still land on a single chunk."""
    theta = threshold(pool, params, model)
    if params.gas_overhead >= theta:
        return SplitPlan(
            chunk_size=params.total_size,
            num_chunks=1,
            expected_total_profit=float(per_swap_profit(pool, params, model, params.total_size)),
            branch="single_swap",
            threshold_value=theta,
        )
    q_star = solve_chunk(pool, params, model, rel_tol, theta=theta)
    n_ceil = max(1, math.ceil(params.total_size / q_star))
    # the continuous optimum D/q* lies between n_ceil-1 and n_ceil and the
    # total-profit curve is unimodal in n, so the integer optimum is one of
    # the two; take the better, smaller n on ties
    candidates = [n_ceil - 1, n_ceil] if n_ceil > 1 else [n_ceil]
    profits = [float(total_profit(pool, params, model, n)) for n in candidates]
    best = max(range(len(candidates)), key=lambda i: (profits[i], -candidates[i]))
    n_star = candidates[best]
    return SplitPlan(
        chunk_size=params.total_size / n_star,
        num_chunks=n_star,
        expected_total_profit=profits[best],
        branch="interior_root",
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
    """(n, expected total profit) samples for plotting/export."""
    ns = np.arange(1, n_max + 1)
    profits = np.asarray(total_profit(pool, params, model, ns))
    return [(int(n), float(p)) for n, p in zip(ns, profits)]
