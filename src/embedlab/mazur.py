"""Signed-power (Mazur) maps between unit spheres of l_p spaces.

``mazur_map(x, p, q)`` sends x to ``sgn(x_i) |x_i|^(p/q)`` coordinatewise.
It maps the unit sphere of l_p onto the unit sphere of l_q and is an
involution under swapping (p, q).

For the scalar signed power ``s_a(t) = sgn(t) |t|^a`` with a >= 1 the
two-sided estimates

    c_a |u - v|^a  <=  |s_a(u) - s_a(v)|  <=  a |u - v| max(|u|, |v|)^(a - 1)

hold for all real u, v, with the sharp left constant c_a = 2^(1 - a)
(proved in :func:`signed_power_constant`).  Summing the scalar
estimates over coordinates of a unit-sphere pair and applying Holder gives,
for 0 < q < p and x, y on the unit sphere of l_p,

    c_{p/q}^q * S_p  <=  S_q(Mx, My)  <=  (p/q)^q 2^(1 - q/p) * S_p^(q/p)

where S_p = sum |x_i - y_i|^p and S_q(Mx, My) = sum |Mx_i - My_i|^q.
For p < q the inequalities reverse; the constants are derived from the
(q, p) direction through the involution and flagged as such in reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "mazur_map",
    "signed_power_constant",
    "MazurConstants",
    "mazur_constants",
    "sample_sphere_pairs",
    "audit_sphere_pairs",
]

# Relative float guard on the closed-form constant: 2.0 ** (1 - a) is
# rounded to within one ulp (1.1e-16 relative) of the exact infimum, so
# scaling it by 1 - 1e-12 keeps the certified value strictly below it.
_FLOAT_GUARD = 1.0 - 1e-12


def mazur_map(x, p: float, q: float) -> np.ndarray:
    """Coordinatewise signed power with exponent p/q.

    Sends the unit sphere of l_p to the unit sphere of l_q exactly:
    sum |Mx_i|^q = sum |x_i|^p.
    """
    if p <= 0 or q <= 0:
        raise ValueError(f"exponents must be positive, got p={p}, q={q}")
    xa = np.array(x, dtype=float)  # a copy: the signed power consumes it
    if not np.all(np.isfinite(xa)):
        raise ValueError("input contains non-finite entries")
    return _signed_power(xa, p / q)[()]


def _signed_power(t: np.ndarray, a: float, out: np.ndarray | None = None) -> np.ndarray:
    """Coordinatewise copysign(|t|^a, t), in the dtype of ``t`` (float16,
    float32 or float64); ``out``, if given, receives the result.

    ``t`` is scratch: on return it holds only its sign bits, so ``out``
    must not be ``t``.  The sign bits are OR-ed into the nonnegative
    |t|^a, which is exact and, unlike numpy's scalar copysign loop,
    vectorised; -0.0 maps to -0.0.
    """
    if out is None:
        out = np.empty_like(t)  # np.abs would return a scalar for 0-d t
    elif out is t:
        raise ValueError("out must not be the input array")
    s = np.abs(t, out=out)
    s **= a
    sign = t.view(f"u{t.itemsize}")
    sign &= sign.dtype.type(1 << (8 * t.itemsize - 1))
    magnitude = s.view(sign.dtype)
    magnitude |= sign
    return s


def signed_power_constant(alpha: float) -> float:
    """Certified lower constant c_alpha for the signed power map, alpha >= 1.

    The exact infimum of |s_a(u) - s_a(v)| / |u - v|^a over u != v is
    2^(1 - a), attained at v = -u.  The ratio is invariant under
    (u, v) -> (lam u, lam v) and under (u, v) -> (-u, -v), so take u > v:

    * same sign, 0 <= v < u: t^a is superadditive on t >= 0 (convex with
      value 0 at 0), so u^a >= (u - v)^a + v^a and the ratio is >= 1;
      likewise for v < u <= 0;
    * opposite signs, v < 0 < u, w = -v: the ratio is
      (u^a + w^a) / (u + w)^a, and the power-mean inequality
      ((u^a + w^a) / 2)^(1/a) >= (u + w) / 2 bounds it below by
      2^(1 - a), with equality at u = w.

    Since 2^(1 - a) <= 1, the minimum is 2^(1 - a).  It is returned times
    a 1 - 1e-12 float guard; alpha = 1 returns exactly 1 (the ratio is
    identically 1 there).
    """
    if alpha < 1:
        raise ValueError(f"alpha must be >= 1, got {alpha}")
    if alpha == 1.0:
        return 1.0
    return 2.0 ** (1.0 - alpha) * _FLOAT_GUARD


@dataclass(frozen=True)
class MazurConstants:
    """Two-sided power-sum constants for the (p, q) Mazur map on spheres.

    With S_p = sum |x_i - y_i|^p and S_Mq = sum |Mx_i - My_i|^q:

    * forward orientation (q < p):
        ``c_lower * S_p <= S_Mq <= c_upper * S_p^(q/p)``
    * reversed orientation (p < q, derived via the involution):
        ``c_lower * S_p^(q/p) <= S_Mq <= c_upper * S_p``
    """

    p: float
    q: float
    c_lower: float
    c_upper: float
    lower_exponent: float  # S_p exponent in the lower bound
    upper_exponent: float  # S_p exponent in the upper bound
    derived_by_involution: bool
    derivation: dict = field(default_factory=dict)


def mazur_constants(p: float, q: float) -> MazurConstants:
    """Certified sphere-to-sphere constants for the (p, q) Mazur map."""
    if p <= 0 or q <= 0 or p == q:
        raise ValueError(f"need distinct positive exponents, got p={p}, q={q}")
    if q < p:
        alpha = p / q
        c_low = signed_power_constant(alpha) ** q
        c_up = alpha ** q * 2.0 ** (1.0 - q / p)
        return MazurConstants(
            p=p, q=q, c_lower=c_low, c_upper=c_up,
            lower_exponent=1.0, upper_exponent=q / p,
            derived_by_involution=False,
            derivation={"alpha": alpha, "scalar_constant": signed_power_constant(alpha)},
        )
    # p < q: apply the forward estimates to the inverse map M_{q,p} and invert.
    alpha = q / p
    c_low_fwd = signed_power_constant(alpha) ** p          # S_p >= c_low_fwd * S_Mq
    c_up_fwd = alpha ** p * 2.0 ** (1.0 - p / q)           # S_p <= c_up_fwd * S_Mq^(p/q)
    return MazurConstants(
        p=p, q=q,
        c_lower=c_up_fwd ** (-q / p),   # S_Mq >= (S_p / c_up_fwd)^(q/p)
        c_upper=1.0 / c_low_fwd,        # S_Mq <= S_p / c_low_fwd
        lower_exponent=q / p, upper_exponent=1.0,
        derived_by_involution=True,
        derivation={"alpha": alpha, "scalar_constant": signed_power_constant(alpha)},
    )


def sample_sphere_pairs(p: float, samples: int, dim: int,
                        seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Random pairs on the unit sphere of l_p^dim, deterministic in seed.

    Points are Gaussian vectors normalized in l_2 and transported to the
    l_p sphere by the (2, p) Mazur map.  A quarter of the pairs are made
    close (y = x + small perturbation, re-projected) so both ends of the
    distance range get exercised.
    """
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    g = rng.standard_normal((2, samples, dim))
    x2 = g[0] / np.linalg.norm(g[0], axis=1, keepdims=True)
    y2 = g[1] / np.linalg.norm(g[1], axis=1, keepdims=True)
    n_near = samples // 4
    if n_near:
        scale = np.exp(rng.uniform(math.log(1e-6), math.log(1e-1), size=(n_near, 1)))
        yn = x2[:n_near] + scale * rng.standard_normal((n_near, dim))
        y2[:n_near] = yn / np.linalg.norm(yn, axis=1, keepdims=True)
    return _signed_power(x2, 2.0 / p), _signed_power(y2, 2.0 / p)


def audit_sphere_pairs(x: np.ndarray, y: np.ndarray, consts: MazurConstants,
                       upper_scale: float = 1.0) -> dict:
    """Audit the certified two-sided Mazur bounds on l_p unit-sphere pairs.

    ``x`` and ``y`` hold paired rows on the unit sphere of l_p, p =
    ``consts.p`` (see :func:`sample_sphere_pairs`), so one draw can serve
    several target exponents.  Both power-sum inequalities of ``consts``
    are checked pair by pair.  Margins are relative slack; a negative
    margin is a violation.  ``upper_scale`` rescales the upper constant:
    tightening it below 1 is the negative control that proves the
    detector is live.
    """
    p, q = consts.p, consts.q
    s_p = np.sum(np.abs(x - y) ** p, axis=1)
    mx = _signed_power(x.copy(), p / q)
    my = _signed_power(y.copy(), p / q)
    s_mq = np.sum(np.abs(mx - my) ** q, axis=1)

    c_up = consts.c_upper * upper_scale
    lower_bound = consts.c_lower * s_p ** consts.lower_exponent
    upper_bound = c_up * s_p ** consts.upper_exponent

    nz = s_p > 0
    scale = np.maximum(s_mq, 1e-300)
    lower_margin = np.where(nz, (s_mq - lower_bound) / scale, 0.0)
    upper_margin = np.where(nz, (upper_bound - s_mq) / scale, 0.0)
    violations = int(np.sum(lower_margin < 0) + np.sum(upper_margin < 0))

    return {
        "violations": violations,
        "worst_margin": float(min(lower_margin.min(), upper_margin.min())),
        "constants_used": {
            "c_lower": consts.c_lower,
            "c_upper": c_up,
            "lower_exponent": consts.lower_exponent,
            "upper_exponent": consts.upper_exponent,
            "derived_by_involution": consts.derived_by_involution,
        },
    }
