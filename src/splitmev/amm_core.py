"""Constant-product AMM swap mechanics.

All quantities are real-valued (doubles); the model is continuous, so no
token-decimal fixed point anywhere. Each function takes one real trade size,
converts it with ``float``, checks it and computes in plain floats. The
``_unchecked`` kernels take a float that the caller has checked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .config import DomainError

__all__ = ["DomainError", "PoolState", "swap_out", "marginal_out", "apply_swap"]

# Beyond this ratio x + (1-f)q loses too much relative precision for the
# concavity/derivative guarantees to mean anything.
_MAX_SIZE_RATIO = 1e12


@dataclass(frozen=True)
class PoolState:
    """Reserves (x, y) and input fee f of a constant-product pool."""

    reserve_x: float
    reserve_y: float
    fee: float = 0.0

    def __post_init__(self):
        if not (self.reserve_x > 0 and math.isfinite(self.reserve_x)):
            raise DomainError(f"reserve_x must be positive, got {self.reserve_x}")
        if not (self.reserve_y > 0 and math.isfinite(self.reserve_y)):
            raise DomainError(f"reserve_y must be positive, got {self.reserve_y}")
        if not (0.0 <= self.fee < 1.0):
            raise DomainError(f"fee must be in [0, 1), got {self.fee}")


def _check_size(pool: PoolState, q, allow_zero: bool) -> float:
    """``float(q)``, checked: positive (nonnegative with ``allow_zero``), finite,
    and within the precision guard."""
    q = float(q)
    if not ((q >= 0.0 if allow_zero else q > 0.0) and q < math.inf):
        raise DomainError(f"trade size must be {'nonnegative' if allow_zero else 'positive'} and finite")
    if q / pool.reserve_x > _MAX_SIZE_RATIO:
        raise DomainError("trade size too large relative to reserves (precision guard)")
    return q


def swap_out(pool: PoolState, q) -> float:
    """Amount of Y received for swapping in q units of X.

    Defined as 0 at q=0 by continuity so optimizers can probe the boundary.
    """
    return swap_out_unchecked(pool, _check_size(pool, q, allow_zero=True))


def marginal_out(pool: PoolState, q) -> float:
    """d/dq of swap_out: y(1-f)x / (x + (1-f)q)^2. Strictly decreasing in q."""
    return marginal_out_unchecked(pool, _check_size(pool, q, allow_zero=True))


def swap_out_unchecked(pool: PoolState, q: float) -> float:
    """``swap_out`` of a float q that the caller has checked."""
    g = (1.0 - pool.fee) * q
    return pool.reserve_y * g / (pool.reserve_x + g)


def marginal_out_unchecked(pool: PoolState, q: float) -> float:
    """``marginal_out`` of a float q that the caller has checked."""
    g = pool.reserve_x + (1.0 - pool.fee) * q
    try:
        return pool.reserve_y * (1.0 - pool.fee) * pool.reserve_x / (g * g)
    except ZeroDivisionError:  # g * g underflowed: inf, or nan for 0 / 0, as IEEE division gives
        return math.inf if pool.reserve_y * (1.0 - pool.fee) * pool.reserve_x else math.nan


def apply_swap(pool: PoolState, q) -> PoolState:
    """Pool state after a successful swap of q units of X.

    Only the new reserves, both floats, can break a rule of ``PoolState``,
    and they are checked as ``__post_init__`` checks a float; the fee is
    carried over. A valid result is built as ``PoolState.__init__`` builds
    it, at about a third of the cost of a call to it, and an invalid one
    through it, for its ``DomainError``.
    """
    q = _check_size(pool, q, allow_zero=False)
    x = pool.reserve_x + (1.0 - pool.fee) * q
    y = pool.reserve_y - swap_out_unchecked(pool, q)
    if not (0.0 < x < math.inf and 0.0 < y < math.inf):
        return PoolState(x, y, pool.fee)  # raises
    new = object.__new__(PoolState)
    object.__setattr__(new, "__dict__", {"reserve_x": x, "reserve_y": y, "fee": pool.fee})
    return new
