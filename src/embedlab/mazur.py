"""Signed-power (Mazur) maps between unit spheres of l_p spaces.

``mazur_map(x, p, q)`` sends x to ``sgn(x_i) |x_i|^(p/q)`` coordinatewise.
It maps the unit sphere of l_p onto the unit sphere of l_q and is an
involution under swapping (p, q).

For the scalar signed power ``s_a(t) = sgn(t) |t|^a`` with a >= 1 the
two-sided estimates

    c_a |u - v|^a  <=  |s_a(u) - s_a(v)|  <=  a |u - v| max(|u|, |v|)^(a - 1)

hold on [-1, 1]^2; the left constant c_a is certified numerically here
(dense grid + local refinement + 1% safety shrink).  By homogeneity of
the ratio the restriction to [-1, 1]^2 loses nothing.  Summing the scalar
estimates over coordinates of a unit-sphere pair and applying Holder gives,
for 0 < q < p and x, y on the unit sphere of l_p,

    c_{p/q}^q * S_p  <=  S_q(Mx, My)  <=  (p/q)^q 2^(1 - q/p) * S_p^(q/p)

where S_p = sum |x_i - y_i|^p and S_q(Mx, My) = sum |Mx_i - My_i|^q.
For p < q the inequalities reverse; the constants are derived from the
(q, p) direction through the involution and flagged as such in reports.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "mazur_map",
    "signed_power_constant",
    "MazurConstants",
    "mazur_constants",
    "mazur_bounds_check",
    "sample_sphere_pairs",
]

_SAFETY_SHRINK = 0.99
_GRID_POINTS = 2001
_REFINE_ROUNDS = 3
_REFINE_POINTS = 201


def mazur_map(x, p: float, q: float) -> np.ndarray:
    """Coordinatewise signed power with exponent p/q.

    Sends the unit sphere of l_p to the unit sphere of l_q exactly:
    sum |Mx_i|^q = sum |x_i|^p.
    """
    if p <= 0 or q <= 0:
        raise ValueError(f"exponents must be positive, got p={p}, q={q}")
    xa = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(xa)):
        raise ValueError("input contains non-finite entries")
    return np.sign(xa) * np.abs(xa) ** (p / q)


def _signed_power(t: np.ndarray, a: float) -> np.ndarray:
    return np.sign(t) * np.abs(t) ** a


def _grid_min_ratio(a_vals: np.ndarray, b_vals: np.ndarray, alpha: float) -> tuple[float, float, float]:
    """Minimum of |s(u)-s(v)| / |u-v|^alpha over the grid, off the diagonal."""
    best = math.inf
    arg = (0.0, 0.0)
    sb = _signed_power(b_vals, alpha)
    # Row-chunked to keep the (len a x len b) temporaries modest.
    chunk = max(1, int(4e6 / max(1, len(b_vals))))
    for i0 in range(0, len(a_vals), chunk):
        av = a_vals[i0:i0 + chunk, None]
        num = np.abs(_signed_power(av, alpha) - sb[None, :])
        den = np.abs(av - b_vals[None, :]) ** alpha
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = num / den
        ratio[den == 0] = math.inf
        j = int(np.argmin(ratio))
        val = float(ratio.flat[j])
        if val < best:
            best = val
            r, c = divmod(j, len(b_vals))
            arg = (float(av[r, 0]), float(b_vals[c]))
    return best, arg[0], arg[1]


@functools.lru_cache(maxsize=None)
def signed_power_constant(alpha: float) -> float:
    """Certified lower constant c_alpha for the signed power map, alpha >= 1.

    Minimizes |s_a(u) - s_a(v)| / |u - v|^alpha over [-1, 1]^2 on a dense
    grid, refines locally around the argmin, then shrinks by 1% as a
    safety margin against grid resolution.  alpha = 1 returns exactly 1
    (the ratio is identically 1 there).
    """
    if alpha < 1:
        raise ValueError(f"alpha must be >= 1, got {alpha}")
    if alpha == 1.0:
        return 1.0
    grid = np.linspace(-1.0, 1.0, _GRID_POINTS)
    best, ua, ub = _grid_min_ratio(grid, grid, alpha)
    h = 2.0 / (_GRID_POINTS - 1)
    for _ in range(_REFINE_ROUNDS):
        ga = np.linspace(max(-1.0, ua - 2 * h), min(1.0, ua + 2 * h), _REFINE_POINTS)
        gb = np.linspace(max(-1.0, ub - 2 * h), min(1.0, ub + 2 * h), _REFINE_POINTS)
        val, ua, ub = _grid_min_ratio(ga, gb, alpha)
        best = min(best, val)
        h = (ga[-1] - ga[0]) / (_REFINE_POINTS - 1)
    return _SAFETY_SHRINK * best


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


def sample_sphere_pairs(p: float, samples: int, dim: int, seed: int,
                        near_fraction: float = 0.25) -> tuple[np.ndarray, np.ndarray]:
    """Random pairs on the unit sphere of l_p^dim, deterministic in seed.

    Points are Gaussian vectors normalized in l_2 and transported to the
    l_p sphere by the (2, p) Mazur map.  A fraction of the pairs are made
    close (y = x + small perturbation, re-projected) so both ends of the
    distance range get exercised.
    """
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    g = rng.standard_normal((2, samples, dim))
    x2 = g[0] / np.linalg.norm(g[0], axis=1, keepdims=True)
    y2 = g[1] / np.linalg.norm(g[1], axis=1, keepdims=True)
    n_near = int(near_fraction * samples)
    if n_near:
        scale = np.exp(rng.uniform(math.log(1e-6), math.log(1e-1), size=(n_near, 1)))
        yn = x2[:n_near] + scale * rng.standard_normal((n_near, dim))
        y2[:n_near] = yn / np.linalg.norm(yn, axis=1, keepdims=True)
    x = np.sign(x2) * np.abs(x2) ** (2.0 / p)
    y = np.sign(y2) * np.abs(y2) ** (2.0 / p)
    return x, y


def mazur_bounds_check(p: float, q: float, samples: int = 10_000, seed: int = 0,
                       dim: int = 16, upper_scale: float = 1.0,
                       lower_scale: float = 1.0) -> dict:
    """Monte-Carlo audit of the certified two-sided Mazur bounds.

    Draws ``samples`` pairs on the l_p unit sphere and verifies both
    power-sum inequalities with the certified constants.  Margins are
    relative slack; a negative margin is a violation.  ``upper_scale`` /
    ``lower_scale`` rescale the constants (tightening them is used by
    negative-control tests to prove the detector works).
    """
    consts = mazur_constants(p, q)
    x, y = sample_sphere_pairs(p, samples, dim, seed)
    return {"p": p, "q": q, "samples": samples, "seed": seed, "dim": dim,
            **_audit_pairs(x, y, consts, upper_scale, lower_scale)}


def _audit_pairs(x: np.ndarray, y: np.ndarray, consts: MazurConstants,
                 upper_scale: float = 1.0, lower_scale: float = 1.0) -> dict:
    """The two-sided audit of :func:`mazur_bounds_check` on given l_p
    sphere pairs, so one draw can serve several target exponents."""
    p, q = consts.p, consts.q
    s_p = np.sum(np.abs(x - y) ** p, axis=1)
    mx = np.sign(x) * np.abs(x) ** (p / q)
    my = np.sign(y) * np.abs(y) ** (p / q)
    s_mq = np.sum(np.abs(mx - my) ** q, axis=1)

    c_low = consts.c_lower * lower_scale
    c_up = consts.c_upper * upper_scale
    lower_bound = c_low * s_p ** consts.lower_exponent
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
            "c_lower": c_low,
            "c_upper": c_up,
            "lower_exponent": consts.lower_exponent,
            "upper_exponent": consts.upper_exponent,
            "derived_by_involution": consts.derived_by_involution,
        },
    }
