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

:func:`sample_sphere_pairs` draws pairs on the unit sphere of l_2 once;
the (2, p) map carries them to every l_p sphere.
:func:`audit_sphere_pairs` audits a whole grid of exponent pairs on them:
the sphere and involution deviations of each map and both certified
inequalities, one row tile at a time, each map computed once per cell.
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
    if not (0 < p < math.inf and 0 < q < math.inf):
        raise ValueError(f"exponents must be finite and positive, got p={p}, q={q}")
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
    if not (0 < p < math.inf and 0 < q < math.inf) or p == q:
        raise ValueError(f"need distinct finite positive exponents, got p={p}, q={q}")
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


def sample_sphere_pairs(samples: int, dim: int,
                        seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Random pairs on the unit sphere of l_2^dim, deterministic in seed.

    Points are Gaussian vectors normalized in l_2, in place; the (2, p)
    Mazur map carries them to the unit sphere of l_p for any p, so one
    draw serves every exponent.  A quarter of the pairs are made close
    (y = x + small perturbation, re-projected) so both ends of the
    distance range get exercised.  The near pairs are built in place and
    every normalization runs over row slices, so no temporary the size
    of the draw is held.
    """
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    g = rng.standard_normal((2, samples, dim))
    x2, y2 = g
    for h in g:
        _normalize_rows(h)
    n_near = samples // 4
    if n_near:
        scale = np.exp(rng.uniform(math.log(1e-6), math.log(1e-1), size=(n_near, 1)))
        yn = rng.standard_normal((n_near, dim))
        yn *= scale
        yn += x2[:n_near]
        _normalize_rows(yn)
        y2[:n_near] = yn
    return x2, y2


# Bytes of the squared-entry temporary that np.linalg.norm takes per row
# slice in _normalize_rows.
_NORM_SLICE_BYTES = 1 << 19


def _normalize_rows(a: np.ndarray) -> None:
    """Divide each row of ``a`` by its l_2 norm, in place, one row slice at
    a time; the norms are per row, so the result equals the whole array's."""
    rows = max(1, _NORM_SLICE_BYTES // (a.itemsize * max(a.shape[1], 1)))
    for start in range(0, len(a), rows):
        block = a[start:start + rows]
        block /= np.linalg.norm(block, axis=1, keepdims=True)


def audit_sphere_pairs(x2: np.ndarray, y2: np.ndarray, grid, *, tile_bytes: int,
                       upper_scale: float = 1.0) -> dict:
    """Audit the Mazur maps on every (p, q) cell of an exponent grid.

    ``x2`` and ``y2`` hold paired rows on the unit sphere of l_2 (see
    :func:`sample_sphere_pairs`); the (2, p) map carries them to the l_p
    sphere.  Each cell (p, q) measures how far the (p, q) map leaves the
    l_q sphere (``sphere_deviation``) and how far the (q, p) map misses
    the way back (``involution_deviation``), both max-norm.  For p != q
    it also checks both certified power-sum inequalities of
    :func:`mazur_constants` pair by pair: margins are relative slack, a
    negative margin is a violation, and ``worst_margin`` is the least.
    ``upper_scale`` rescales the upper constant: tightening it below 1
    is the negative control that proves the detector is live.

    Every quantity is per row and every reduction a max, a min or a
    count, so the pairs run one row tile at a time and each cell's
    figures are folded across the tiles; the result does not depend on
    the tile.  A tile holds five arrays of its rows (x and y on the l_p
    sphere, Mx, My or the map back, and one scratch array) in about
    ``tile_bytes``, at least one row.  Per tile each p maps the pairs
    once and sums S_p once for all q, and each cell takes five power
    passes: Mx, |Mx|^q, the map back, My and |Mx - My|^q.
    """
    n = len(grid)
    tile_rows = max(1, tile_bytes // (5 * x2.itemsize * max(x2.shape[1], 1)))
    consts = {(p, q): mazur_constants(p, q) for p in grid for q in grid if p != q}
    sphere = np.zeros((n, n))
    invol = np.zeros((n, n))
    worst = np.full((n, n), math.inf)
    bad = np.zeros((n, n), dtype=np.int64)
    for start in range(0, len(x2), tile_rows):
        rows = slice(start, start + tile_rows)
        scratch, mx, my = np.empty((3, *x2[rows].shape), dtype=x2.dtype)
        for i, p in enumerate(grid):
            x = mazur_map(x2[rows], 2.0, p)
            y = mazur_map(y2[rows], 2.0, p)
            s_p = np.sum(np.abs(x - y) ** p, axis=1)
            nz = s_p > 0
            for j, q in enumerate(grid):
                np.copyto(scratch, x)
                _signed_power(scratch, p / q, out=mx)
                h = np.abs(mx, out=scratch)
                h **= q
                dev = np.abs(np.sum(h, axis=1) ** (1.0 / q) - 1.0)
                sphere[i, j] = max(sphere[i, j], float(np.max(dev)))
                np.copyto(scratch, mx)
                back = _signed_power(scratch, q / p, out=my)
                back -= x
                dev = np.abs(back, out=back)
                invol[i, j] = max(invol[i, j], float(np.max(dev)))
                if p == q:  # the two-sided distance bounds need distinct exponents
                    continue
                mc = consts[p, q]
                np.copyto(scratch, y)
                _signed_power(scratch, p / q, out=my)
                h = np.subtract(mx, my, out=scratch)
                np.abs(h, out=h)
                h **= q
                s_mq = np.sum(h, axis=1)
                lower_bound = mc.c_lower * s_p ** mc.lower_exponent
                upper_bound = mc.c_upper * upper_scale * s_p ** mc.upper_exponent
                scale = np.maximum(s_mq, 1e-300)
                lower_margin = np.where(nz, (s_mq - lower_bound) / scale, 0.0)
                upper_margin = np.where(nz, (upper_bound - s_mq) / scale, 0.0)
                bad[i, j] += int(np.sum(lower_margin < 0) + np.sum(upper_margin < 0))
                worst[i, j] = min(worst[i, j], lower_margin.min(), upper_margin.min())
    cells = []
    for i, p in enumerate(grid):
        for j, q in enumerate(grid):
            cell = {"p": p, "q": q, "sphere_deviation": float(sphere[i, j]),
                    "involution_deviation": float(invol[i, j])}
            if p != q:
                cell["worst_margin"] = float(worst[i, j])
            cell["violations"] = (int(bad[i, j]) + int(sphere[i, j] > 1e-12)
                                  + int(invol[i, j] > 1e-12))
            cells.append(cell)
    margins = [c["worst_margin"] for c in cells if "worst_margin" in c]
    return {"violations": sum(c["violations"] for c in cells),
            "worst_margin": min(margins, default=math.inf),
            "max_sphere_deviation": float(sphere.max(initial=0.0)),
            "max_involution_deviation": float(invol.max(initial=0.0)),
            "cells": cells}

