"""Signed-power (Mazur) maps between unit spheres of l_p spaces.

The (p, q) Mazur map sends x to ``sgn(x_i) |x_i|^(p/q)`` coordinatewise
(:func:`_signed_power` with exponent p/q).  It maps the unit sphere of
l_p onto the unit sphere of l_q and is an involution under swapping
(p, q).

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
(q, p) direction through the involution (``derived_by_involution``).

Powers go through chains of sqrt, cbrt and square passes where the
exponent allows one (``_ROOT_STEPS``, ``_ROOT_PRODUCTS``), else numpy's
pow, and every q-th power sum through one kernel, :func:`_row_power_sums`,
which the block kernel of :mod:`.gaussian` shares.

:func:`sphere_pair_tiles` streams pairs on the unit sphere of l_2 as row
tiles, drawn from four keyed Philox streams; the (2, p) map carries them
to every l_p sphere.
:func:`audit_sphere_pairs` audits a whole grid of exponent pairs on any
iterable of such tiles: the sphere and involution deviations of each map
and both certified inequalities.  Each p's l_p magnitudes are taken once
per tile and each map once per cell, the sums by the shared kernel, and
the deviations and margins are reduced once per p over its stacked
cells, in arrays allocated once, so the audit holds a few tiles of rows
whatever the number of pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "signed_power_constant",
    "MazurConstants",
    "mazur_constants",
    "sphere_pair_tiles",
    "audit_sphere_pairs",
]

# Relative float guard on the closed-form constant: 2.0 ** (1 - a) is
# rounded to within one ulp (1.1e-16 relative) of the exact infimum, so
# scaling it by 1 - 1e-12 keeps the certified value strictly below it.
_FLOAT_GUARD = 1.0 - 1e-12


# Powers s^e (s >= 0) as chains of root and square passes, each correctly
# rounded or nearly so and several times faster than numpy's pow loop.
# The two tables hold the exponents 2/q and q/2 of every preset q (4, 2,
# 1.5, 1, 0.5) and every ratio p/q of the Mazur audit's default grid
# (0.5, 1, 1.5, 2, 3, 4) whose chain stays within 3 ulp of the power in
# float32 and 2 ulp in float64: 1/8, 1/6 (cbrt, then sqrt: 1 ulp in
# float32, against 2 for sqrt first), 1/3 and 3.  The other ratios take
# numpy's pow: 2/3 as cbrt squared is 5 ulp off in float32, s^8 as three
# squares 5 ulp and s^6 as (s s^2)^2 3 ulp in float64, and 3/8, 3/4 and
# 8/3 have no chain of this form.
_ROOT_STEPS = {
    0.125: (np.sqrt, np.sqrt, np.sqrt),
    1.0 / 6.0: (np.cbrt, np.sqrt),
    0.25: (np.sqrt, np.sqrt),
    1.0 / 3.0: (np.cbrt,),
    0.5: (np.sqrt,),
    1.0: (),
    2.0: (np.square,),
    4.0: (np.square, np.square),
}
# Powers s^e = s * s^(e-1), by the chain of s^(e-1): 4/3 as s cbrt(s) is
# 2.0e-7 relative in float32, against 3.6e-7 for numpy's pow and 7.1e-7
# for cbrt(s) squared twice; 3 is s s^2.  The q-th power sum takes them
# as sum |h| |h|^(q-1) (:func:`_row_power_sums`).
_ROOT_PRODUCTS = {
    4.0 / 3.0: (np.cbrt,),
    1.5: (np.sqrt,),
    2.0: (),
    3.0: (np.square,),
}


def _root_chain(s: np.ndarray, steps, out: np.ndarray) -> np.ndarray:
    """The passes ``steps`` applied to ``s``, the first writing ``out``."""
    src = s
    for step in steps:
        src = step(src, out=out)
    if src is not out:  # no pass: s^1
        np.copyto(out, src)
    return out


def _power(s: np.ndarray, e: float, out: np.ndarray | None = None) -> np.ndarray:
    """Elementwise s^e of a nonnegative array into ``out`` (default: ``s``
    itself): the chain of ``_ROOT_STEPS``, else the product of
    ``_ROOT_PRODUCTS`` (in place, through a temporary for s^(e-1)), else
    numpy's ``**``."""
    out = s if out is None else out
    if e in _ROOT_STEPS:
        return _root_chain(s, _ROOT_STEPS[e], out)
    if e in _ROOT_PRODUCTS:
        f = _root_chain(s, _ROOT_PRODUCTS[e], np.empty_like(s) if out is s else out)
        return np.multiply(f, s, out=out)
    return np.power(s, e, out=out)


def _signed_power(t: np.ndarray, a: float, out: np.ndarray | None = None) -> np.ndarray:
    """Coordinatewise copysign(|t|^a, t), in the dtype of ``t`` (float16,
    float32 or float64); ``out``, if given, receives the result.

    For an exponent of ``_ROOT_PRODUCTS`` (a = 4/3, 1.5, 2, 3) the result is
    t |t|^(a-1), which carries the sign of t through the product.  For any
    other, ``t`` is scratch: |t|^a is taken by :func:`_power`, and on
    return ``t`` holds only its sign bits, which are OR-ed into |t|^a;
    that is exact and, unlike numpy's scalar copysign loop, vectorised.
    Either way the magnitudes are :func:`_power`'s bit for bit, -0.0 maps
    to -0.0, and ``out`` must not be ``t``.
    """
    if out is None:
        out = np.empty_like(t)  # np.abs would return a scalar for 0-d t
    elif out is t:
        raise ValueError("out must not be the input array")
    s = np.abs(t, out=out)
    if a in _ROOT_PRODUCTS:
        return np.multiply(_root_chain(s, _ROOT_PRODUCTS[a], out), t, out=out)
    _power(s, a)
    sign = t.view(f"u{t.itemsize}")
    sign &= sign.dtype.type(1 << (8 * t.itemsize - 1))
    return _with_sign(s, sign)


def _with_sign(magnitude: np.ndarray, sign: np.ndarray,
               out: np.ndarray | None = None) -> np.ndarray:
    """OR the ``sign`` bits into the nonnegative ``magnitude``, in place or
    into ``out``; returns the signed array."""
    out = magnitude if out is None else out
    np.bitwise_or(magnitude.view(sign.dtype), sign, out=out.view(sign.dtype))
    return out


def _row_power_sums(h: np.ndarray, q: float, spare: np.ndarray) -> np.ndarray:
    """sum_i |h_i|^q per row of ``h``, by einsum in its dtype; ``h`` and
    ``spare`` (of the same shape) are scratch.

    The sum is einsum(|h|, |h|^(q-1)) for the exponents of
    ``_ROOT_PRODUCTS`` (|h| sqrt|h| at q = 1.5, |h| h^2 at q = 3), else
    einsum(g, g) with g = |h|^(q/2) by :func:`_power`; at q = 2 and 4, g
    is h or h^2 and needs no abs.  The one q-th power sum of the package:
    the block kernel's mass and every sum of the Mazur audit.
    """
    half = q / 2.0
    if half in (1.0, 2.0):
        g = _power(h, half)
    elif q in _ROOT_PRODUCTS:
        np.abs(h, out=h)
        return np.einsum("ij,ij->i", h, _root_chain(h, _ROOT_PRODUCTS[q], spare))
    else:
        g = _power(np.abs(h, out=h), half, out=spare)
    return np.einsum("ij,ij->i", g, g)


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


def mazur_constants(p: float, q: float) -> MazurConstants:
    """Certified sphere-to-sphere constants for the (p, q) Mazur map;
    ValueError where one overflows or a lower one underflows to 0 and is inverted."""
    if not (0 < p < math.inf and 0 < q < math.inf) or p == q:
        raise ValueError(f"need distinct finite positive exponents, got p={p}, q={q}")
    try:
        if q < p:
            alpha = p / q
            return MazurConstants(
                p=p, q=q, c_lower=signed_power_constant(alpha) ** q,
                c_upper=alpha ** q * 2.0 ** (1.0 - q / p),
                lower_exponent=1.0, upper_exponent=q / p,
                derived_by_involution=False,
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
        )
    except (OverflowError, ZeroDivisionError):
        raise ValueError(f"Mazur constants at p={p:g}, q={q:g} leave the float range") from None


# Byte budget of the rows of one tile, sized for one core's L2.  The audit
# holds eight float64 arrays of a tile's rows: the tile's x and y, the
# bits where their signs differ, their l_p magnitudes, a map, a scratch
# and the power sums' spare.
_TILE_BYTES = 3 * 512 * 1024


def sphere_pair_tiles(samples: int, dim: int, seed: int, tile_rows: int | None = None):
    """Random pairs on the unit sphere of l_2^dim, deterministic in seed,
    yielded in row order as ``(x2, y2)`` tiles of at most ``tile_rows`` rows,
    by default the rows whose audit fits ``_TILE_BYTES``.

    The first quarter of the pairs are close (y = x + scale * step, the
    scale log-uniform in [1e-6, 1e-1]); the rest are independent.  Four
    Philox streams, keyed ``SeedSequence((seed, 105, k))``, hold the
    Gaussian x rows (k = 0), the far y rows (1), the near pairs' scales (2)
    and their Gaussian steps (3).  Each stream is read tile by tile and
    draws only what the tile yields, and draws in chunks read the values
    of one call, so the tiles do not depend on ``tile_rows``.  Each row is
    normalized in l_2; the (2, p) Mazur map carries the pairs to every l_p
    sphere.
    """
    if tile_rows is None:
        tile_rows = max(1, _TILE_BYTES // (8 * 8 * dim))
    xs, far, scales, steps = (np.random.Generator(np.random.Philox(
        np.random.SeedSequence((seed, 105, k)))) for k in range(4))
    n_near = samples // 4
    for start in range(0, samples, tile_rows):
        rows = min(tile_rows, samples - start)
        x2 = xs.standard_normal((rows, dim))
        x2 /= np.linalg.norm(x2, axis=1, keepdims=True)
        k = min(rows, max(0, n_near - start))  # near pairs in this tile
        y2 = np.empty_like(x2)
        steps.standard_normal(out=y2[:k])
        y2[:k] *= np.exp(scales.uniform(math.log(1e-6), math.log(1e-1), size=(k, 1)))
        y2[:k] += x2[:k]
        far.standard_normal(out=y2[k:])
        y2 /= np.linalg.norm(y2, axis=1, keepdims=True)
        yield x2, y2


def audit_sphere_pairs(tiles, grid, *, upper_scale: float = 1.0) -> dict:
    """Audit the Mazur maps on every (p, q) cell of an exponent grid.

    ``tiles`` is any iterable of ``(x2, y2)`` tiles of paired rows on the
    unit sphere of l_2 (see :func:`sphere_pair_tiles`); the (2, p) map
    carries them to the l_p sphere.  Each cell (p, q) measures how far the
    (p, q) map leaves the l_q sphere (``sphere_deviation``) and how far the
    (q, p) map misses the way back (``involution_deviation``), both
    max-norm.  For p != q it also checks both certified power-sum
    inequalities of :func:`mazur_constants` pair by pair: margins are
    relative slack, a negative margin is a violation, and ``worst_margin``
    is the least.  ``upper_scale`` rescales the upper constant: tightening
    it below 1 is the negative control that proves the detector is live.

    Every quantity is per row and every reduction a max, a min or a count,
    so the cells are folded across tiles and do not depend on the tiling.
    Every map keeps the signs of its input, so each p's l_p magnitudes
    are taken once per tile, by :func:`_power` on |x2| and |y2|, and each
    cell raises them by :func:`_power`, as :func:`_signed_power` does.  A
    difference of signed values only enters a power sum, so it is taken
    as |Mx| - |My| with the sign bits where x and y differ ORed into |My|
    (the flips, taken once per tile): its magnitude is that of Mx - My bit
    for bit.  Every sum, S_p, the sphere sums and S_Mq, is
    :func:`_row_power_sums`, the block kernel's.  A margin past the float
    range (a loose constant over an S_Mq at the 1e-300 floor of its
    scale) is +inf, taken without a warning.  The deviations and both
    margins of a p are reduced once, over its cells stacked as (cells,
    rows) arrays; only the powers of S_p and the roots of the sphere sums
    are taken per cell, with a scalar exponent, because numpy takes its
    sqrt and square routes for a scalar exponent alone.

    Besides its input the audit holds six arrays of a tile's rows,
    allocated once (at the largest tile) and reused: the flips, the two
    magnitudes, a map, a scratch and the spare of the power sums.
    """
    n = len(grid)
    sphere = np.zeros((n, n))
    invol = np.zeros((n, n))
    worst = np.full((n, n), math.inf)
    bad = np.zeros((n, n), dtype=np.int64)
    # Per p, its cells with q != p and their constants as (cells, 1) columns.
    bounded = []
    for p in grid:
        cells = [j for j, q in enumerate(grid) if q != p]
        mcs = [mazur_constants(p, grid[j]) for j in cells]
        bounded.append((cells,
                        np.array([[mc.lower_exponent == 1.0] for mc in mcs], dtype=bool),
                        np.array([[mc.c_lower] for mc in mcs]),
                        np.array([[mc.c_upper * upper_scale] for mc in mcs])))
    work = np.empty((6, 0))
    for x2, y2 in tiles:
        if not (np.all(np.isfinite(x2)) and np.all(np.isfinite(y2))):
            raise ValueError("input contains non-finite entries")
        if work.dtype != x2.dtype or work.shape[1] < x2.size:
            work = np.empty((6, x2.size), dtype=x2.dtype)
        flip, ax, ay, mx, scratch, spare = (w[:x2.size].reshape(x2.shape) for w in work)
        # The sign bits where x and y differ in sign: |Mx - My| is the
        # difference of |Mx| and |My| with those bits ORed into |My|.
        bits = np.dtype(f"u{x2.itemsize}")
        flip = np.bitwise_xor(x2.view(bits), y2.view(bits), out=flip.view(bits))
        flip &= bits.type(1 << (8 * x2.itemsize - 1))
        rows = len(x2)
        for i, p in enumerate(grid):
            cells, forward, c_lower, c_upper = bounded[i]
            for t, a in ((x2, ax), (y2, ay)):  # the l_p points' magnitudes
                _power(np.abs(t, out=mx), 2.0 / p, out=a)
            h = np.subtract(ax, _with_sign(ay, flip, out=scratch), out=scratch)
            s_p = _row_power_sums(h, p, spare)
            roots = np.empty((n, rows))  # the sphere sums' 1/q-th roots
            s_mq = np.empty((len(cells), rows))
            s_p_pow = np.empty((len(cells), rows))  # S_p^(q/p)
            k = 0
            for j, q in enumerate(grid):
                _power(ax, p / q, out=mx)
                # At q = p both maps copy (deviation 0), and the two-sided
                # bounds need distinct exponents.
                if p != q:
                    # The map back keeps the signs of x, so |back - x| is
                    # the difference of the magnitudes.
                    back = _power(mx, q / p, out=scratch)
                    back -= ax
                    invol[i, j] = max(invol[i, j], float(np.abs(back, out=back).max()))
                    h = np.subtract(mx, _with_sign(_power(ay, p / q, out=scratch), flip),
                                    out=scratch)
                    s_mq[k] = _row_power_sums(h, q, spare)
                    np.power(s_p, q / p, out=s_p_pow[k])
                    k += 1
                np.power(_row_power_sums(mx, q, spare), 1.0 / q, out=roots[j])
            roots -= 1.0
            np.maximum(sphere[i], np.abs(roots, out=roots).max(axis=1), out=sphere[i])
            if not cells:
                continue
            # Relative margins, 0 where S_p = 0; the unit exponent of each
            # cell's pair takes S_p itself.
            scale = np.maximum(s_mq, 1e-300)
            lower = np.where(forward, s_p, s_p_pow)
            lower *= c_lower
            np.subtract(s_mq, lower, out=lower)
            upper = np.where(forward, s_p_pow, s_p)
            upper *= c_upper
            upper -= s_mq
            zero = s_p == 0
            for margin in (lower, upper):
                with np.errstate(over="ignore"):  # 2^999 S_p / 1e-300 is +inf
                    margin /= scale
                margin[:, zero] = 0.0
                bad[i, cells] += np.count_nonzero(margin < 0, axis=1)
                worst[i, cells] = np.minimum(worst[i, cells], margin.min(axis=1))
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

