"""Parametric swap-failure probability families.

Every family satisfies p(0) = 1 and is weakly concave and decreasing on its
declared domain (before the probability floor binds), as the trade-splitting
optimality argument needs; a table's slopes are checked for it. A model is
evaluated at one real q at a time, and everything here is plain Python floats
with no numpy, whose SIMD kernels can round a power differently by CPU.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_right
from dataclasses import dataclass

from .config import ConfigError, DomainError, build, require

__all__ = [
    "FailureModel",
    "LinearClamped",
    "PowerConcave",
    "QuadraticConcave",
    "TableInterpolated",
    "ConstantSuccess",
    "DEFAULT_FLOOR",
]

DEFAULT_FLOOR = 1e-6


def _check_q(q, q_max=None) -> float:
    """``float(q)``, checked: nonnegative, finite, and at most ``q_max`` if given."""
    q = float(q)
    if not (q >= 0.0 and q < math.inf):
        raise DomainError("q must be nonnegative and finite")
    if q_max is not None and q > q_max:
        raise DomainError(f"q outside declared domain [0, {q_max}]")
    return q


@dataclass(frozen=True)
class FailureModel:
    """Base: success probability p(q) with closed-form derivative.

    A family is a frozen dataclass subclass that defines ``_raw_and_slope``
    and checks its own fields, if any, in ``__post_init__``. ``prob`` and
    ``prob_derivative`` take one real q, convert it with ``float`` and check
    it against the declared domain. ``DEFAULT_FLOOR`` is applied after the
    parametric form; the derivative is 0 wherever it binds.
    """

    def _raw_and_slope(self, q: float) -> tuple[float, float]:
        """The one kernel a family defines: the unfloored p(q) and p'(q) at a
        checked float q, as floats. Where the floor binds, any p at or below
        it will do, and the slope is not used."""
        raise NotImplementedError

    def domain_max(self) -> float | None:
        """Upper end of the declared domain, or None if unbounded."""
        return None

    def prob(self, q) -> float:
        return self.prob_and_slope_unchecked(_check_q(q, self.domain_max()))[0]

    def prob_derivative(self, q) -> float:
        return self.prob_and_slope_unchecked(_check_q(q, self.domain_max()))[1]

    def prob_and_slope_unchecked(self, q: float) -> tuple[float, float]:
        """``prob(q)`` and ``prob_derivative(q)`` at a float q that the caller has
        checked against the domain: the one place the floor is applied."""
        raw, slope = self._raw_and_slope(q)
        return (raw, slope) if raw > DEFAULT_FLOOR else (DEFAULT_FLOOR, 0.0)


@dataclass(frozen=True)
class LinearClamped(FailureModel):
    """p(q) = 1 - slope * q, clamped at the floor."""

    slope: float

    def __post_init__(self):
        require(0 < self.slope < math.inf, "slope", "must be positive and finite")

    def _raw_and_slope(self, q):
        return 1.0 - self.slope * q, -float(self.slope)  # a float slope even from an int


@dataclass(frozen=True)
class PowerConcave(FailureModel):
    """p(q) = 1 - (q / q_max)^alpha with alpha >= 1, floored.

    alpha >= 1 keeps p'' <= 0 on (0, q_max).
    """

    q_max: float
    alpha: float = 2.0

    def __post_init__(self):
        require(0 < self.q_max < math.inf, "q_max", "must be positive and finite")
        require(1.0 <= self.alpha < math.inf, "alpha", "must be finite and >= 1 for concavity")
        try:
            scale = float(self.q_max) ** self.alpha
        except OverflowError:
            scale = math.inf
        require(scale < math.inf, "q_max", "q_max**alpha overflows")
        require(scale >= sys.float_info.min, "q_max", "q_max**alpha underflows")  # the slope divides by it

    def _raw_and_slope(self, q):
        # Above q_max, p <= 0 and the floor binds, and a power can overflow. At or below it
        # none does: __post_init__ checks that q_max**alpha is a finite normal float.
        if q > self.q_max:
            return -math.inf, 0.0
        slope = -self.alpha * q ** (self.alpha - 1.0) / self.q_max**self.alpha
        return 1.0 - (q / self.q_max) ** self.alpha, slope


@dataclass(frozen=True)
class QuadraticConcave(FailureModel):
    """p(q) = 1 - a*q - b*q^2 (a, b >= 0, not both zero), floored."""

    a: float
    b: float

    def __post_init__(self):
        require(0 <= self.a < math.inf, "a", "must be nonnegative and finite")
        require(0 <= self.b < math.inf and self.a + self.b > 0, "b", "must be nonnegative and finite, with a + b > 0")

    def _raw_and_slope(self, q):
        return 1.0 - self.a * q - self.b * q * q, -(self.a + 2.0 * self.b * q)


@dataclass(frozen=True)
class TableInterpolated(FailureModel):
    """Concave piecewise-linear interpolation of (q, p) samples from (0, 1),
    strictly decreasing in p, with slopes that do not increase beyond float
    noise (a relative 1e-9); the declared domain is [0, q[-1]].
    """

    qs: tuple[float, ...]
    ps: tuple[float, ...]

    def __post_init__(self):
        qs, ps = self.qs, self.ps
        require(len(qs) >= 2, "qs", "must be a list of at least two points")
        require(len(ps) == len(qs), "ps", "must have as many points as qs")
        require(qs[0] == 0.0, "qs", "must start at 0")  # a nested list fails here, before any arithmetic
        require(ps[0] == 1.0, "ps", "must start at 1")
        dq, dp = [b - a for a, b in zip(qs, qs[1:])], [b - a for a, b in zip(ps, ps[1:])]
        require(all(d > 0 for d in dq) and qs[-1] < math.inf, "qs", "must be strictly increasing and finite")
        require(all(d < 0 for d in dp) and ps[-1] > -math.inf, "ps", "must be strictly decreasing and finite")
        slopes = [p / q for p, q in zip(dp, dq)]  # a slope past the float range is -inf, which still compares right
        require(all(b <= a * (1.0 - 1e-9) for a, b in zip(slopes, slopes[1:])), "ps", "must be concave: its slopes must not increase")

    def domain_max(self):
        return self.qs[-1]

    def _raw_and_slope(self, q):
        # np.interp's slope * (q - qs[i]) + ps[i], qs[i] <= q the knot at or below q, and ps[i] at a
        # knot itself, where an infinite slope times 0 would be NaN; the last knot takes the last slope
        qs, ps = self.qs, self.ps
        i = bisect_right(qs, q) - 1
        j = min(i, len(qs) - 2)
        slope = (ps[j + 1] - ps[j]) / (qs[j + 1] - qs[j])
        return ps[i] if q == qs[i] else slope * (q - qs[i]) + ps[i], slope


@dataclass(frozen=True)
class ConstantSuccess(FailureModel):
    """p(q) = 1 everywhere; lies on the boundary of the admissible class."""

    def _raw_and_slope(self, q):
        return 1.0, 0.0


_FAMILIES = {
    "linear_clamped": LinearClamped,
    "power_concave": PowerConcave,
    "quadratic_concave": QuadraticConcave,
    "table_interpolated": TableInterpolated,
    "constant": ConstantSuccess,
}


def from_config(family: str, parameters: dict) -> FailureModel:
    """Build a model from the ``model`` section of a config; errors are
    ``ConfigError`` naming the field under ``config.model``."""
    if family not in _FAMILIES:  # the message only then: sorting the names costs more than the check
        raise ConfigError(f"config.model.family: unknown {family!r}; known: {sorted(_FAMILIES)}")
    return build(_FAMILIES[family], parameters, "config.model.parameters")

