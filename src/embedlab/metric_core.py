"""Two-regime Lebesgue sequence metrics and monotone calculus.

The distance on an l_p space changes nature at p = 1:

* ``0 < p <= 1``  -- the metric is the sum of p-th powers of coordinate
  differences (no p-th root; the space is metric but not normed),
* ``p >= 1``      -- the metric is the usual p-norm of the difference.

Both regimes agree at p = 1.  :class:`ExponentRegime` carries the split:
each distance computation in the package (cube distances, probe audits,
glued block masses) asks its ``is_power_sum`` flag whether to take the
p-th root.

The module also provides monotone functions with tagged closed forms and
the inverse of ``s -> s**a * log(s)**b`` used by gap envelopes.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "Regime",
    "ExponentRegime",
    "MonotoneFunction",
    "h_ab",
]


class Regime(enum.Enum):
    """How the exponent p turns coordinate differences into a distance."""

    SUM_OF_POWERS = "sum_of_powers"  # d(x, y) = sum |x_i - y_i|^p, 0 < p <= 1
    NORM = "norm"                    # d(x, y) = (sum |x_i - y_i|^p)^(1/p), p >= 1


@dataclass(frozen=True)
class ExponentRegime:
    """An exponent p > 0 together with its distance regime.

    The two regimes overlap only at p = 1, where they produce the same
    number.  Constructing a mismatched pair (e.g. NORM with p < 1) raises.
    """

    p: float
    regime: Regime

    def __post_init__(self) -> None:
        if not math.isfinite(self.p) or self.p <= 0:
            raise ValueError(f"exponent must be a finite positive real, got {self.p!r}")
        if self.regime is Regime.SUM_OF_POWERS and self.p > 1:
            raise ValueError(f"sum-of-powers regime requires p <= 1, got p={self.p}")
        if self.regime is Regime.NORM and self.p < 1:
            raise ValueError(f"norm regime requires p >= 1, got p={self.p}")

    @classmethod
    def from_p(cls, p: float) -> "ExponentRegime":
        """Pick the canonical regime for p (sum of powers iff p <= 1)."""
        return cls(p, Regime.SUM_OF_POWERS if p <= 1 else Regime.NORM)

    @property
    def is_power_sum(self) -> bool:
        return self.regime is Regime.SUM_OF_POWERS


@dataclass(frozen=True)
class MonotoneFunction:
    """A nondecreasing real function on [lo, hi) with a tagged closed form.

    ``kind`` is a short label ("power", "power_log_inverse", ...) and
    ``params`` records the defining constants so reports can echo them.
    Monotonicity is spot-checked on a grid at construction time.
    """

    fn: Callable[[float], float]
    lo: float
    hi: float
    kind: str = "generic"
    params: dict | None = None
    _check_points: int = 64

    def __post_init__(self) -> None:
        if not (self.lo < self.hi):
            raise ValueError(f"empty domain [{self.lo}, {self.hi})")
        grid = _domain_grid(self.lo, self.hi, self._check_points)
        vals = np.array([self.fn(t) for t in grid])
        if not np.all(np.isfinite(vals)):
            raise ValueError("function is non-finite on its domain")
        # Tolerate float jitter at the scale of the values themselves.
        tol = 1e-9 * (1.0 + np.max(np.abs(vals)))
        if np.any(np.diff(vals) < -tol):
            raise ValueError("function is not nondecreasing on the spot-check grid")

    def __call__(self, t: float) -> float:
        return float(self.fn(t))

    @classmethod
    def power(cls, coef: float, exponent: float, lo: float = 0.0, hi: float = math.inf) -> "MonotoneFunction":
        if coef < 0 or exponent < 0:
            raise ValueError("power form requires coef >= 0 and exponent >= 0")
        return cls(lambda t: coef * t ** exponent, lo, hi, kind="power",
                   params={"coef": coef, "exponent": exponent})


def _domain_grid(lo: float, hi: float, n: int) -> np.ndarray:
    hi_eff = min(hi, max(10.0 * abs(lo) + 10.0, 1e6)) if math.isinf(hi) else hi
    # Stay strictly inside the half-open interval.
    return np.linspace(lo, hi_eff - (hi_eff - lo) * 1e-9, n)


# Increasing-branch inverse of s -> s^a * log(s)^b  (natural log).


def _power_log(s: float, a: float, b: float) -> float:
    if s <= 0:
        return 0.0 if b == 0 else math.nan
    ls = math.log(s)
    if ls == 0.0:
        return 0.0 if b > 0 else (1.0 if b == 0 else math.inf)
    return s ** a * ls ** b


def h_ab(a: float, b: float, t: float) -> float:
    """Inverse of ``s -> s**a * log(s)**b`` on its increasing branch.

    For b >= 0 the branch starts at s = 1 (s = 0 when b = 0); for b < 0
    the map first decreases, reaching its minimum at s = exp(-b/a), and
    the inverse is taken on the increasing part beyond that point.
    Values of t below the branch minimum raise ValueError.
    """
    if not (a > 0) or not math.isfinite(b):
        raise ValueError(f"need a > 0 and finite b, got a={a}, b={b}")
    if not math.isfinite(t):
        raise ValueError(f"t must be finite, got {t}")
    if b == 0:
        if t < 0:
            raise ValueError("t below branch minimum 0")
        return t ** (1.0 / a)
    if b > 0:
        s0, t_min = 1.0, 0.0
    else:
        s0 = math.exp(-b / a)
        if s0 == 1.0:
            # -b/a underflowed in exp(); the true branch start sits strictly
            # above 1, so step to the next float before evaluating the
            # minimum (at s = 1 exactly the log-power factor blows up).
            s0 = math.nextafter(1.0, math.inf)
        t_min = _power_log(s0, a, b)
    if t < t_min - 1e-12 * max(1.0, abs(t_min)):
        raise ValueError(f"t={t} below the branch minimum {t_min}")
    if t <= t_min:
        return s0

    fn = lambda s: _power_log(s, a, b)
    # Grow a bracket from the branch start.
    right = max(2.0 * s0, s0 + 1.0)
    while fn(right) < t:
        right *= 2.0
        if right > 1e300:
            raise ValueError("bracket expansion failed (t too large)")
    left = s0
    if fn(left) > t:  # can only happen from float jitter right at the minimum
        return s0
    from scipy.optimize import brentq  # deferred: a ~0.2 s import no CLI path needs
    return float(brentq(lambda s: fn(s) - t, left, right, rtol=1e-13, maxiter=200))
