"""Two-regime Lebesgue sequence metrics and monotone calculus.

The distance on an l_p space changes nature at p = 1:

* ``0 < p <= 1``  -- the metric is the sum of p-th powers of coordinate
  differences (no p-th root; the space is metric but not normed),
* ``p >= 1``      -- the metric is the usual p-norm of the difference.

Both regimes agree at p = 1.  Every distance computation in this package
goes through :func:`lp_distance` / :func:`lp_sum_distance` so the regime
split lives in exactly one place.

The module also provides the generalized (right-continuous) inverse of a
nondecreasing function, the inverse of ``s -> s**a * log(s)**b`` used by
gap envelopes, and metric snowflaking.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "Regime",
    "ExponentRegime",
    "TruncatedVector",
    "MonotoneFunction",
    "lp_distance",
    "lp_sum_distance",
    "generalized_inverse",
    "h_ab",
    "snowflake_distance",
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
class TruncatedVector:
    """A finite block vector: concatenated coordinates plus block offsets.

    ``offsets`` has one more entry than the number of blocks;
    block n occupies ``coords[offsets[n]:offsets[n + 1]]``.
    """

    coords: np.ndarray
    offsets: np.ndarray

    def __post_init__(self) -> None:
        coords = np.asarray(self.coords, dtype=float)
        offsets = np.asarray(self.offsets, dtype=np.int64)
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "offsets", offsets)
        if offsets.ndim != 1 or len(offsets) < 1:
            raise ValueError("offsets must be a 1-d array with at least one entry")
        if offsets[0] != 0 or offsets[-1] != len(coords):
            raise ValueError("offsets must start at 0 and end at len(coords)")
        if np.any(np.diff(offsets) < 0):
            raise ValueError("offsets must be nondecreasing")

    @property
    def n_blocks(self) -> int:
        return len(self.offsets) - 1

    def block(self, n: int) -> np.ndarray:
        return self.coords[self.offsets[n]:self.offsets[n + 1]]


def _as_float_array(x: Sequence[float] | np.ndarray, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def lp_distance(x, y, p: float | ExponentRegime) -> float:
    """Distance between x and y in the two-regime l_p metric.

    Accepts a raw exponent (canonical regime inferred) or an explicit
    :class:`ExponentRegime`.  Inputs must have equal length and be finite.
    """
    reg = p if isinstance(p, ExponentRegime) else ExponentRegime.from_p(p)
    xa = _as_float_array(x, "x")
    ya = _as_float_array(y, "y")
    if xa.shape != ya.shape:
        raise ValueError(f"shape mismatch: {xa.shape} vs {ya.shape}")
    s = float(np.sum(np.abs(xa - ya) ** reg.p))
    if reg.is_power_sum:
        return s
    return s ** (1.0 / reg.p)


def lp_sum_distance(
    x_blocks: Sequence[np.ndarray],
    y_blocks: Sequence[np.ndarray],
    q: float | ExponentRegime,
    block_metric: Callable[[int, np.ndarray, np.ndarray], float],
) -> float:
    """Distance in the l_q-sum of pointed metric spaces.

    ``block_metric(n, xb, yb)`` returns the distance inside block n.  In the
    norm regime the combined distance is ``(sum delta_n^q)^(1/q)``; in the
    power-sum regime block distances are already masses, so they add with
    exponent 1.  Either way, gluing l_q blocks reproduces the l_q distance
    of the concatenated coordinates.
    """
    reg = q if isinstance(q, ExponentRegime) else ExponentRegime.from_p(q)
    if len(x_blocks) != len(y_blocks):
        raise ValueError("block count mismatch")
    total = 0.0
    for n, (xb, yb) in enumerate(zip(x_blocks, y_blocks)):
        d = float(block_metric(n, xb, yb))
        if not math.isfinite(d) or d < 0:
            raise ValueError(f"block metric returned invalid distance {d!r} at block {n}")
        total += d if reg.is_power_sum else d ** reg.p
    if reg.is_power_sum:
        return total
    return total ** (1.0 / reg.p)


@dataclass(frozen=True)
class MonotoneFunction:
    """A nondecreasing real function on [lo, hi) with a tagged closed form.

    ``kind`` is a short label ("power", "power_log", "tabulated", ...) and
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

    @classmethod
    def tabulated(cls, xs: np.ndarray, ys: np.ndarray) -> "MonotoneFunction":
        """Piecewise-linear interpolation through (xs, ys); clamps outside."""
        xs = _as_float_array(xs, "xs")
        ys = _as_float_array(ys, "ys")
        if len(xs) < 2 or len(xs) != len(ys):
            raise ValueError("need at least two matching breakpoints")
        if np.any(np.diff(xs) <= 0):
            raise ValueError("breakpoints must be strictly increasing")
        if np.any(np.diff(ys) < 0):
            raise ValueError("values must be nondecreasing")
        fn = lambda t: float(np.interp(t, xs, ys))
        obj = cls(fn, float(xs[0]), float(xs[-1]) * (1 + 1e-12) + 1e-300, kind="tabulated",
                  params={"n_breakpoints": len(xs)})
        object.__setattr__(obj, "_xs", xs)
        object.__setattr__(obj, "_ys", ys)
        return obj


def _domain_grid(lo: float, hi: float, n: int) -> np.ndarray:
    hi_eff = min(hi, max(10.0 * abs(lo) + 10.0, 1e6)) if math.isinf(hi) else hi
    # Stay strictly inside the half-open interval.
    return np.linspace(lo, hi_eff - (hi_eff - lo) * 1e-9, n)


def generalized_inverse(T: MonotoneFunction | Callable[[float], float], y: float,
                        lo: float | None = None, hi: float | None = None) -> float:
    """inf { x : T(x) >= y }, with inf of the empty set = +inf.

    For a :class:`MonotoneFunction` the domain is taken from the object;
    plain callables need explicit ``lo``/``hi``.  Tabulated functions are
    inverted exactly on their breakpoint mesh; closed forms by bracketed
    root finding.
    """
    if isinstance(T, MonotoneFunction):
        lo = T.lo if lo is None else lo
        hi = T.hi if hi is None else hi
        fn = T.fn
        xs = getattr(T, "_xs", None)
        ys = getattr(T, "_ys", None)
        if xs is not None:
            if y > ys[-1]:
                return math.inf
            if y <= ys[0]:
                return float(xs[0])
            j = int(np.searchsorted(ys, y, side="left"))
            x0, x1, y0, y1 = xs[j - 1], xs[j], ys[j - 1], ys[j]
            if y1 == y0:
                return float(x1)  # flat segment: first x reaching y is its right end's left edge
            return float(x0 + (y - y0) * (x1 - x0) / (y1 - y0))
    else:
        if lo is None or hi is None:
            raise ValueError("plain callables need explicit lo/hi bounds")
        fn = T

    if fn(lo) >= y:
        return float(lo)
    # Expand a finite bracket inside [lo, hi).
    right = lo + 1.0 if lo != 0 else 1.0
    limit = hi if math.isfinite(hi) else 1e308
    while right < limit and fn(min(right, limit)) < y:
        right *= 2.0
    right = min(right, limit)
    if fn(right) < y:
        return math.inf
    from scipy.optimize import brentq  # deferred: a ~0.2 s import no CLI path needs
    return float(brentq(lambda x: fn(x) - y, lo, right, rtol=1e-13, maxiter=200))


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
    from scipy.optimize import brentq  # deferred, as in generalized_inverse
    return float(brentq(lambda s: fn(s) - t, left, right, rtol=1e-13, maxiter=200))


def snowflake_distance(d: float, s: float) -> float:
    """Snowflake transform d -> d**s for 0 < s <= 1 (keeps metric axioms)."""
    if not (0 < s <= 1):
        raise ValueError(f"snowflake exponent must lie in (0, 1], got {s}")
    if d < 0 or not math.isfinite(d):
        raise ValueError(f"distance must be a finite nonnegative real, got {d}")
    return d ** s
