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

__all__ = ["DomainError", "PoolState", "swap_out", "marginal_out", "apply_swap"]

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


def _check_size(pool: PoolState, q, allow_zero: bool):
    """Check q and return it: a ``float`` as is, anything else as an array. Each rule is an interval, so
    an array meets it exactly when its smallest and largest elements do (NaN reaches both; empty passes)."""
    lo = hi = q
    if type(q) is not float:
        q = np.asarray(q, dtype=float)
        lo, hi = q.min(initial=math.inf), q.max(initial=-math.inf)
    if not ((lo >= 0.0 if allow_zero else lo > 0.0) and hi < math.inf):
        raise DomainError(f"trade size must be {'nonnegative' if allow_zero else 'positive'} and finite")
    if hi / pool.reserve_x > _MAX_SIZE_RATIO:
        raise DomainError("trade size too large relative to reserves (precision guard)")
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
    try:
        return pool.reserve_y * (1.0 - pool.fee) * pool.reserve_x / (g * g)
    except ZeroDivisionError:  # a float g * g underflowed: inf (or nan), as numpy divides
        with np.errstate(divide="ignore", invalid="ignore"):
            return float(pool.reserve_y * (1.0 - pool.fee) * pool.reserve_x / np.float64(0.0))


def apply_swap(pool: PoolState, q: float) -> PoolState:
    """Pool state after a successful swap of q units of X.

    Only the new reserves, both floats, can break a rule of ``PoolState``,
    and they are checked as ``__post_init__`` checks a float; the fee is
    carried over. A valid result is built as ``PoolState.__init__`` builds
    it, at about a third of the cost of a call to it, and an invalid one
    through it, for its ``DomainError``.
    """
    q = float(_check_size(pool, q, allow_zero=False))
    x = pool.reserve_x + (1.0 - pool.fee) * q
    y = pool.reserve_y - swap_out_unchecked(pool, q)
    if not (0.0 < x < math.inf and 0.0 < y < math.inf):
        return PoolState(x, y, pool.fee)  # raises
    new = object.__new__(PoolState)
    object.__setattr__(new, "__dict__", {"reserve_x": x, "reserve_y": y, "fee": pool.fee})
    return new
