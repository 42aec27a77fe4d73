"""Parametric swap-failure probability families.

Every family satisfies p(0) = 1 and is weakly concave and strictly
decreasing on its declared domain (before the probability floor binds),
which is exactly what the trade-splitting optimality argument needs. An
exponential-like decay (convex, p'' > 0) is deliberately not shipped as a
parametric family, but can be built through ``TableInterpolated`` so that
``validate_assumptions`` has a real failure case to detect.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from .amm_core import DomainError
from .config import build, require

__all__ = [
    "FailureModel",
    "LinearClamped",
    "PowerConcave",
    "QuadraticConcave",
    "TableInterpolated",
    "constant_success",
    "from_config",
    "validate_assumptions",
    "AssumptionCheck",
    "ValidityReport",
    "DEFAULT_FLOOR",
]

DEFAULT_FLOOR = 1e-6


def _check_q(q, q_max=None) -> np.ndarray:
    q = np.asarray(q, dtype=float)
    if not np.all((q >= 0) & np.isfinite(q)):
        raise DomainError("q must be nonnegative and finite")
    if q_max is not None and np.any(q > q_max):
        raise DomainError(f"q outside declared domain [0, {q_max}]")
    return q


def _check_floor(floor: float, allow_one: bool = False, path: str = "floor"):
    if allow_one and floor == 1.0:
        return
    require(0.0 < floor <= 0.01, path, f"must lie in (0, 0.01], got {floor}")


class FailureModel:
    """Base: success probability p(q) with closed-form derivative.

    ``prob`` and ``prob_derivative`` are vectorized over q. The floor is
    applied after the parametric form; the derivative is 0 wherever the
    floor binds.
    """

    floor: float

    def _raw(self, q: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _raw_derivative(self, q: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _raw_and_slope(self, q: float) -> tuple[float, float]:
        """``_raw`` and ``_raw_derivative`` at one float q, as plain floats;
        a family whose array forms are not plain arithmetic overrides it."""
        return self._raw(q), self._raw_derivative(q)

    def domain_max(self) -> float | None:
        """Upper end of the declared domain, or None if unbounded."""
        return None

    def prob(self, q):
        q = _check_q(q, self.domain_max())
        p = np.maximum(self._raw(q), self.floor)
        return p if p.ndim else float(p)

    def prob_derivative(self, q):
        q = _check_q(q, self.domain_max())
        raw = self._raw(q)
        d = np.where(raw > self.floor, self._raw_derivative(q), 0.0)
        return d if d.ndim else float(d)

    def prob_and_slope_unchecked(self, q: float) -> tuple[float, float]:
        """``prob(q)`` and ``prob_derivative(q)`` (==) at one float q that the
        caller has checked against the domain."""
        raw, slope = self._raw_and_slope(q)
        return (raw, slope) if raw > self.floor else (self.floor, 0.0)


@dataclass(frozen=True)
class LinearClamped(FailureModel):
    """p(q) = 1 - slope * q, clamped at the floor."""

    slope: float
    floor: float = DEFAULT_FLOOR

    def __post_init__(self):
        require(self.slope > 0, "slope", "must be positive")
        _check_floor(self.floor)

    def _raw(self, q):
        return 1.0 - self.slope * q

    def _raw_derivative(self, q):
        return -self.slope  # prob_derivative broadcasts it over q


@dataclass(frozen=True)
class PowerConcave(FailureModel):
    """p(q) = 1 - (q / q_max)^alpha with alpha >= 1, floored.

    alpha >= 1 keeps p'' <= 0 on (0, q_max).
    """

    q_max: float
    alpha: float = 2.0
    floor: float = DEFAULT_FLOOR

    def __post_init__(self):
        require(self.q_max > 0, "q_max", "must be positive")
        require(self.alpha >= 1.0, "alpha", "must be >= 1 for concavity")
        _check_floor(self.floor)

    def _raw(self, q):
        return 1.0 - (q / self.q_max) ** self.alpha

    def _raw_derivative(self, q):
        with np.errstate(divide="ignore", invalid="ignore"):
            d = -self.alpha * np.where(q > 0, q, 1.0) ** (self.alpha - 1.0) / self.q_max**self.alpha
        # q=0 with alpha>1 has zero slope; alpha==1 has constant slope
        if self.alpha > 1.0:
            d = np.where(q > 0, d, 0.0)
        return d

    def _raw_and_slope(self, q):
        # np.power, not **: numpy's vectorized pow, which _raw_derivative runs,
        # can differ from the C library's (behind **) in the last bit
        return self._raw(q), -self.alpha * float(np.power(q, self.alpha - 1.0)) / self.q_max**self.alpha


@dataclass(frozen=True)
class QuadraticConcave(FailureModel):
    """p(q) = 1 - a*q - b*q^2 (a, b >= 0, not both zero), floored."""

    a: float
    b: float
    floor: float = DEFAULT_FLOOR

    def __post_init__(self):
        if self.a < 0 or self.b < 0 or (self.a == 0 and self.b == 0):
            raise DomainError("need a, b >= 0 with a + b > 0")
        _check_floor(self.floor)

    def _raw(self, q):
        return 1.0 - self.a * q - self.b * q * q

    def _raw_derivative(self, q):
        return -(self.a + 2.0 * self.b * q)


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
    floor: float = DEFAULT_FLOOR

    def __post_init__(self):
        qs, ps = np.asarray(self.qs, float), np.asarray(self.ps, float)
        if qs.shape != ps.shape or qs.size < 2:
            raise DomainError("need matching q/p samples, at least two points")
        if qs[0] != 0.0 or ps[0] != 1.0:
            raise DomainError("table must start at (0, 1)")
        require(np.all(np.diff(qs) > 0), "qs", "must be strictly increasing")
        require(np.all(np.diff(ps) < 0), "ps", "must be strictly decreasing")
        _check_floor(self.floor)

    def domain_max(self):
        return self.qs[-1]

    def _raw(self, q):
        return np.interp(q, self.qs, self.ps)

    def _raw_derivative(self, q):
        qs, ps = np.asarray(self.qs), np.asarray(self.ps)
        idx = np.clip(np.searchsorted(qs, q, side="right") - 1, 0, qs.size - 2)
        return (ps[idx + 1] - ps[idx]) / (qs[idx + 1] - qs[idx])

    def _raw_and_slope(self, q):
        # np.interp's formula slope * (q - qs[i]) + ps[i], with qs[i] <= q the
        # knot at or below q; at the last knot the slope is the last segment's
        qs, ps = self.qs, self.ps
        i = bisect_right(qs, q) - 1
        j = min(i, len(qs) - 2)
        slope = (ps[j + 1] - ps[j]) / (qs[j + 1] - qs[j])
        return slope * (q - qs[i]) + ps[i], slope


@dataclass(frozen=True)
class _ConstantSuccess(FailureModel):
    """Degenerate p == 1 boundary model (closed-form test instrument)."""

    floor: float = 1.0

    def __post_init__(self):
        _check_floor(self.floor, allow_one=True)

    def _raw(self, q):
        return np.ones_like(q)

    def _raw_derivative(self, q):
        return np.zeros_like(q)

    def _raw_and_slope(self, q):
        return 1.0, 0.0


def constant_success() -> FailureModel:
    """p(q) = 1 everywhere; lies on the boundary of the admissible class."""
    return _ConstantSuccess()


_FAMILIES = {
    "linear_clamped": LinearClamped,
    "power_concave": PowerConcave,
    "quadratic_concave": QuadraticConcave,
    "table_interpolated": TableInterpolated,
    "constant": _ConstantSuccess,
}


def from_config(family: str, parameters: dict, floor: float | None = None) -> FailureModel:
    """Build a model from the ``model`` section of a config; errors are
    ``ConfigError`` naming the field under ``config.model``."""
    require(family in _FAMILIES, "config.model.family", f"unknown {family!r}; known: {sorted(_FAMILIES)}")
    if floor is not None:
        _check_floor(floor, path="config.model.floor")
        parameters = {**parameters, "floor": floor}
    return build(_FAMILIES[family], parameters, "config.model.parameters")


@dataclass(frozen=True)
class AssumptionCheck:
    name: str
    passed: bool
    first_violation_q: float | None = None


@dataclass(frozen=True)
class ValidityReport:
    checks: tuple[AssumptionCheck, ...] = field(default_factory=tuple)

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.checks)

    def __getitem__(self, name: str) -> AssumptionCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


# Second differences of an exactly-linear table are float noise, not
# genuine convexity; this absolute slack separates the two.
_CURVATURE_TOL = 1e-9


def validate_assumptions(model: FailureModel, q_lo: float, q_hi: float, grid: int) -> ValidityReport:
    """Grid check of the hypotheses the split optimizer relies on.

    Checks p(0) = 1, p strictly decreasing, and p'' <= 0 via first/second
    differences of ``prob`` on a uniform grid over [q_lo, q_hi]. Violations
    are report entries, never exceptions.
    """
    if not (0 <= q_lo < q_hi):
        raise DomainError("need 0 <= q_lo < q_hi")
    if grid < 3:
        raise DomainError("grid must be >= 3")
    qs = np.linspace(q_lo, q_hi, grid)
    ps = np.asarray(model.prob(qs))

    checks = [AssumptionCheck("p(0)=1", float(model.prob(0.0)) == 1.0)]

    d1 = np.diff(ps)
    bad1 = np.nonzero(d1 >= 0)[0]
    checks.append(
        AssumptionCheck("p'<0", bad1.size == 0, float(qs[bad1[0]]) if bad1.size else None)
    )

    d2 = ps[2:] - 2.0 * ps[1:-1] + ps[:-2]
    bad2 = np.nonzero(d2 > _CURVATURE_TOL)[0]
    checks.append(
        AssumptionCheck("p''<=0", bad2.size == 0, float(qs[bad2[0] + 1]) if bad2.size else None)
    )
    return ValidityReport(tuple(checks))
