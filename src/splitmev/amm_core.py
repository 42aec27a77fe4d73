"""Constant-product AMM swap mechanics.

All quantities are real-valued (doubles); the model is continuous, so no
token-decimal fixed point anywhere. Functions accept numpy arrays for the
trade size and broadcast; a Python ``float`` size is checked and computed in
plain floats, with the same checks, messages and results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["DomainError", "PoolState", "swap_out", "marginal_out", "apply_swap", "spot_price"]

# Beyond this ratio x + (1-f)q loses too much relative precision for the
# concavity/derivative guarantees to mean anything.
_MAX_SIZE_RATIO = 1e12


class DomainError(ValueError):
    """Input outside the mathematical domain of an operation."""


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


def _size_error(allow_zero: bool) -> DomainError:
    return DomainError(f"trade size must be {'nonnegative' if allow_zero else 'positive'} and finite")


_PRECISION_GUARD = "trade size too large relative to reserves (precision guard)"


def _check_size(pool: PoolState, q, allow_zero: bool):
    """Check q and return it: a ``float`` is checked in plain floats and
    returned as is, anything else is checked and returned as an array."""
    if type(q) is float:
        if not ((q >= 0.0 if allow_zero else q > 0.0) and math.isfinite(q)):
            raise _size_error(allow_zero)
        if q / pool.reserve_x > _MAX_SIZE_RATIO:
            raise DomainError(_PRECISION_GUARD)
        return q
    q = np.asarray(q, dtype=float)
    lo_ok = (q >= 0) if allow_zero else (q > 0)
    if not np.all(lo_ok & np.isfinite(q)):
        raise _size_error(allow_zero)
    if np.any(q / pool.reserve_x > _MAX_SIZE_RATIO):
        raise DomainError(_PRECISION_GUARD)
    return q


def _as_output(out):
    """A float for a scalar size, the array itself for an array size."""
    return out if type(out) is float or out.ndim else float(out)


def swap_out(pool: PoolState, q):
    """Amount of Y received for swapping in q units of X.

    Defined as 0 at q=0 by continuity so optimizers can probe the boundary.
    """
    return _as_output(swap_out_unchecked(pool, _check_size(pool, q, allow_zero=True)))


def marginal_out(pool: PoolState, q):
    """d/dq of swap_out: y(1-f)x / (x + (1-f)q)^2. Strictly decreasing in q."""
    return _as_output(marginal_out_unchecked(pool, _check_size(pool, q, allow_zero=True)))


def swap_out_unchecked(pool: PoolState, q):
    """``swap_out`` of a float or array q that the caller has checked."""
    g = (1.0 - pool.fee) * q
    return pool.reserve_y * g / (pool.reserve_x + g)


def marginal_out_unchecked(pool: PoolState, q):
    """``marginal_out`` of a float or array q that the caller has checked."""
    g = pool.reserve_x + (1.0 - pool.fee) * q
    return pool.reserve_y * (1.0 - pool.fee) * pool.reserve_x / (g * g)


def apply_swap(pool: PoolState, q: float) -> PoolState:
    """Pool state after a successful swap of q units of X."""
    q = float(_check_size(pool, q, allow_zero=False))
    dy = swap_out_unchecked(pool, q)
    return PoolState(
        reserve_x=pool.reserve_x + (1.0 - pool.fee) * q,
        reserve_y=pool.reserve_y - dy,
        fee=pool.fee,
    )


def spot_price(pool: PoolState) -> float:
    """Instantaneous pool price y/x (Y per X)."""
    return pool.reserve_y / pool.reserve_x
