"""Two-regime Lebesgue sequence metrics.

The distance on an l_p space changes nature at p = 1:

* ``0 < p <= 1``  -- the metric is the sum of p-th powers of coordinate
  differences (no p-th root; the space is metric but not normed),
* ``p >= 1``      -- the metric is the usual p-norm of the difference.

Both regimes agree at p = 1.  :class:`ExponentRegime` carries the split:
each distance computation in the package (cube distances, probe audits,
glued block masses) asks its ``is_power_sum`` flag whether to take the
p-th root.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

__all__ = [
    "Regime",
    "ExponentRegime",
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
