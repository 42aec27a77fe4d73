"""Parametric swap-failure probability families.

Every family satisfies p(0) = 1 and is weakly concave and strictly
decreasing on its declared domain (before the probability floor binds),
which is exactly what the trade-splitting optimality argument needs. An
exponential-like decay (convex, p'' > 0) is deliberately not shipped as a
parametric family, but can be built through ``TableInterpolated`` so that
``validate_assumptions`` has a real failure case to detect.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_right
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from .amm_core import DomainError, _as_output
from .config import build, require

__all__ = [
    "FailureModel",
    "LinearClamped",
    "PowerConcave",
    "QuadraticConcave",
    "TableInterpolated",
    "ConstantSuccess",
    "validate_assumptions",
    "DEFAULT_FLOOR",
]

DEFAULT_FLOOR = 1e-6


def _check_q(q, q_max=None):
    """Check q and return it: a ``float`` as is, anything else as an array, checked at its ends."""
    lo = hi = q
    if type(q) is not float:
        q = np.asarray(q, dtype=float)
        lo, hi = q.min(initial=math.inf), q.max(initial=-math.inf)
    if not (lo >= 0.0 and hi < math.inf):
        raise DomainError("q must be nonnegative and finite")
    if q_max is not None and hi > q_max:
        raise DomainError(f"q outside declared domain [0, {q_max}]")
    return q


@dataclass(frozen=True)
class FailureModel:
    """Base: success probability p(q) with closed-form derivative.

    A family is a frozen dataclass subclass that defines ``_raw_and_slope``;
    its own ``__post_init__``, if any, ends with ``super().__post_init__()``,
    which checks the keyword-only ``floor``. ``prob`` and ``prob_derivative`` are
    vectorized over q; a Python ``float`` q is checked and computed in plain
    floats, with the same messages and a numpy scalar's results. The floor is
    applied after the parametric form; the derivative is 0 wherever it binds.
    """

    floor: float = field(default=DEFAULT_FLOOR, kw_only=True)

    def __post_init__(self):
        require(0.0 < self.floor <= 0.01, "floor", f"must lie in (0, 0.01], got {self.floor}")

    def _raw_and_slope(self, q):
        """The one kernel a family defines: the unfloored p(q) and p'(q), as plain
        floats for a ``float`` q, as arrays (or a scalar slope) for an array q."""
        raise NotImplementedError

    def domain_max(self) -> float | None:
        """Upper end of the declared domain, or None if unbounded."""
        return None

    def prob(self, q):
        return _as_output(self.prob_and_slope_unchecked(_check_q(q, self.domain_max()))[0])

    def prob_derivative(self, q):
        return _as_output(self.prob_and_slope_unchecked(_check_q(q, self.domain_max()))[1])

    def prob_and_slope_unchecked(self, q):
        """``prob(q)`` and ``prob_derivative(q)`` at a float or an array q that the
        caller has checked against the domain: the one place the floor is applied."""
        raw, slope = self._raw_and_slope(q)
        if type(q) is float:
            return (raw, slope) if raw > self.floor else (self.floor, 0.0)
        return np.maximum(raw, self.floor), np.where(raw > self.floor, slope, 0.0)


@dataclass(frozen=True)
class LinearClamped(FailureModel):
    """p(q) = 1 - slope * q, clamped at the floor."""

    slope: float

    def __post_init__(self):
        require(0 < self.slope < math.inf, "slope", "must be positive and finite")
        super().__post_init__()

    def _raw_and_slope(self, q):
        # a float slope even from an int, as _as_output takes; np.where broadcasts it over an array q
        return 1.0 - self.slope * q, -float(self.slope)


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
        with np.errstate(over="ignore"):  # the kernels divide by q_max**alpha; a float's ** would raise
            scale = np.float64(self.q_max) ** self.alpha
        require(np.isfinite(scale), "q_max", "q_max**alpha overflows")
        require(scale >= sys.float_info.min, "q_max", "q_max**alpha underflows")  # the slope divides by it
        super().__post_init__()

    def _raw_and_slope(self, q):
        # a float q: raw by a numpy scalar's ** (a float's ** raises OverflowError),
        # the slope by np.power, as the array path's vectorized pow can differ from **.
        # Where (q / q_max)**alpha overflows, raw is -inf and the floor binds. A float q <= q_max
        # skips np.errstate, dearer than the kernel: no power overflows there, as __post_init__
        # checks that q_max**alpha is a finite normal float
        scale = self.q_max**self.alpha
        quiet = type(q) is not float or q > self.q_max
        with np.errstate(over="ignore", divide="ignore", invalid="ignore") if quiet else nullcontext():
            if type(q) is float:
                raw = float(1.0 - np.float64(q / self.q_max) ** self.alpha)
                if q > 0.0:
                    return raw, -self.alpha * float(np.power(q, self.alpha - 1.0)) / scale
            else:
                raw = 1.0 - (q / self.q_max) ** self.alpha
            # an array q, or q = 0
            d = -self.alpha * np.where(q > 0, q, 1.0) ** (self.alpha - 1.0) / scale
        # q=0 with alpha>1 has zero slope; alpha==1 has constant slope
        if self.alpha > 1.0:
            d = np.where(q > 0, d, 0.0)
        return raw, (float(d) if type(q) is float else d)


@dataclass(frozen=True)
class QuadraticConcave(FailureModel):
    """p(q) = 1 - a*q - b*q^2 (a, b >= 0, not both zero), floored."""

    a: float
    b: float

    def __post_init__(self):
        require(0 <= self.a < math.inf, "a", "must be nonnegative and finite")
        require(0 <= self.b < math.inf and self.a + self.b > 0, "b", "must be nonnegative and finite, with a + b > 0")
        super().__post_init__()

    def _raw_and_slope(self, q):
        return 1.0 - self.a * q - self.b * q * q, -(self.a + 2.0 * self.b * q)


@dataclass(frozen=True)
class TableInterpolated(FailureModel):
    """Monotone piecewise-linear interpolation of (q, p) samples.

    The table must start at (0, 1) and be strictly decreasing in p; the
    declared domain is [0, q[-1]]. Convex tables (e.g. sampled exponential
    decay) are constructible on purpose: they violate p'' <= 0 and
    ``validate_assumptions`` reports it.
    """

    qs: tuple[float, ...]
    ps: tuple[float, ...]

    def __post_init__(self):
        qs, ps = np.asarray(self.qs, float), np.asarray(self.ps, float)
        if qs.shape != ps.shape or qs.size < 2:
            raise DomainError("need matching q/p samples, at least two points")
        if qs[0] != 0.0 or ps[0] != 1.0:
            raise DomainError("table must start at (0, 1)")
        require(np.all(np.diff(qs) > 0) and qs[-1] < math.inf, "qs", "must be strictly increasing and finite")
        require(np.all(np.diff(ps) < 0) and ps[-1] > -math.inf, "ps", "must be strictly decreasing and finite")
        super().__post_init__()

    def domain_max(self):
        return self.qs[-1]

    def _raw_and_slope(self, q):
        if type(q) is not float:
            qs, ps = np.asarray(self.qs), np.asarray(self.ps)
            idx = np.clip(np.searchsorted(qs, q, side="right") - 1, 0, qs.size - 2)
            return np.interp(q, self.qs, self.ps), (ps[idx + 1] - ps[idx]) / (qs[idx + 1] - qs[idx])
        # np.interp's formula slope * (q - qs[i]) + ps[i], with qs[i] <= q the
        # knot at or below q; at the last knot the slope is the last segment's
        qs, ps = self.qs, self.ps
        i = bisect_right(qs, q) - 1
        j = min(i, len(qs) - 2)
        slope = (ps[j + 1] - ps[j]) / (qs[j + 1] - qs[j])
        return slope * (q - qs[i]) + ps[i], slope


@dataclass(frozen=True)
class ConstantSuccess(FailureModel):
    """p(q) = 1 everywhere; lies on the boundary of the admissible class."""

    def _raw_and_slope(self, q):
        return 1.0 - 0.0 * q, 0.0 * q  # floats for a float q, arrays for an array


_FAMILIES = {
    "linear_clamped": LinearClamped,
    "power_concave": PowerConcave,
    "quadratic_concave": QuadraticConcave,
    "table_interpolated": TableInterpolated,
    "constant": ConstantSuccess,
}


def from_config(family: str, parameters: dict) -> FailureModel:
    """Build a model from the ``model`` section of a config, the floor among
    its ``parameters``; errors are ``ConfigError`` naming the field under
    ``config.model``."""
    require(family in _FAMILIES, "config.model.family", f"unknown {family!r}; known: {sorted(_FAMILIES)}")
    return build(_FAMILIES[family], parameters, "config.model.parameters")


# Second differences of an exactly-linear table are float noise, not
# genuine convexity; this absolute slack separates the two.
_CURVATURE_TOL = 1e-9


def validate_assumptions(model: FailureModel, q_lo: float, q_hi: float, grid: int) -> dict[str, float | None]:
    """Grid check of the hypotheses the split optimizer relies on.

    Checks p(0) = 1, p strictly decreasing, and p'' <= 0 via first/second
    differences of ``prob`` on a uniform grid over [q_lo, q_hi]. Returns
    ``{check name: first violating q, or None}``; violations are entries,
    never exceptions.
    """
    if not (0 <= q_lo < q_hi):
        raise DomainError("need 0 <= q_lo < q_hi")
    if grid < 3:
        raise DomainError("grid must be >= 3")
    qs = np.linspace(q_lo, q_hi, grid)
    ps = np.asarray(model.prob(qs))
    bad1 = np.nonzero(np.diff(ps) >= 0)[0]
    bad2 = np.nonzero(ps[2:] - 2.0 * ps[1:-1] + ps[:-2] > _CURVATURE_TOL)[0]
    return {
        "p(0)=1": None if model.prob(0.0) == 1.0 else 0.0,
        "p'<0": float(qs[bad1[0]]) if bad1.size else None,
        "p''<=0": float(qs[bad2[0] + 1]) if bad2.size else None,
    }
