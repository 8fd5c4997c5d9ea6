"""The root that turns an l_p power sum into a distance.

Every distance in the package (cube distances, probe audits, glued
block masses) starts from the power sum S = sum_i |x_i - y_i|^p and
takes d = S^(1/m) with m = max(p, 1):

* ``0 < p <= 1``  -- m = 1: the metric is the power sum itself (no p-th
  root; the space is metric but not normed),
* ``p >= 1``      -- m = p: the metric is the usual p-norm.

The two cases agree at p = 1, and ``S ** 1.0 == S`` exactly, so one
formula covers both with the bytes of either.
"""

from __future__ import annotations

import math

__all__ = ["distance_root"]


def distance_root(p: float) -> float:
    """m = max(p, 1): the l_p distance is the m-th root of the power sum."""
    if not 0 < p < math.inf:
        raise ValueError(f"exponent must be a finite positive real, got {p!r}")
    return max(float(p), 1.0)
