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

:func:`sphere_pair_tiles` streams pairs on the unit sphere of l_2 as row
tiles of one draw; the (2, p) map carries them to every l_p sphere.
:func:`audit_sphere_pairs` audits a whole grid of exponent pairs on any
iterable of such tiles: the sphere and involution deviations of each map
and both certified inequalities, each map computed once per cell, so the
audit holds a few tiles of rows whatever the number of pairs.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "mazur_map",
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


# Powers s^e (s >= 0) as chains of root and square passes, each correctly
# rounded or nearly so and several times faster than numpy's pow loop.
_ROOT_STEPS = {
    0.25: (np.sqrt, np.sqrt),
    0.5: (np.sqrt,),
    1.0: (),
    2.0: (np.square,),
    4.0: (np.square, np.square),
}
# Powers s^e = s * s^(e-1), by the chain of s^(e-1): 4/3 as s cbrt(s) is
# 2.0e-7 relative in float32, against 3.6e-7 for numpy's pow and 7.1e-7
# for cbrt(s) squared twice.  The two tables hold the exponents 2/q and
# q/2 of every preset q (4, 2, 1.5, 1, 0.5), and the q-th power sum at
# q = 1.5 as sum s sqrt(s).
_ROOT_PRODUCTS = {
    4.0 / 3.0: (np.cbrt,),
    1.5: (np.sqrt,),
    2.0: (),
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

    For an exponent of ``_ROOT_PRODUCTS`` (a = 4/3, 1.5, 2) the result is
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
    magnitude = s.view(sign.dtype)
    magnitude |= sign
    return s


def _sign_bits(t: np.ndarray) -> np.ndarray:
    """The sign bits of ``t``, as unsigned integers of its width."""
    bits = t.view(f"u{t.itemsize}")
    return bits & bits.dtype.type(1 << (8 * t.itemsize - 1))


def _with_sign(magnitude: np.ndarray, sign: np.ndarray) -> np.ndarray:
    """OR the ``sign`` bits into the nonnegative ``magnitude``, in place;
    returns ``magnitude``."""
    bits = magnitude.view(sign.dtype)
    bits |= sign
    return magnitude


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


# Byte budget of the rows of one tile, sized for one core's L2.  The audit
# holds about eight float64 arrays of a tile's rows: the tile's x and y,
# their sign bits, their l_p points, a map and a scratch.
_TILE_BYTES = 3 * 512 * 1024


def sphere_pair_tiles(samples: int, dim: int, seed: int, tile_rows: int | None = None):
    """Random pairs on the unit sphere of l_2^dim, deterministic in seed,
    yielded in row order as ``(x2, y2)`` tiles of at most ``tile_rows`` rows,
    by default the rows whose audit fits ``_TILE_BYTES``.

    One Philox stream holds ``samples`` Gaussian x rows, then as many y
    rows, then scales and perturbations that make the first quarter of the
    pairs close (y = x + small perturbation); each row is normalized in
    l_2.  The (2, p) Mazur map carries the pairs to every l_p sphere.  Three
    cursors read the stream, the later two placed by discarding tile-sized
    chunks (chunked draws read the values of one call), so only a tile of
    rows and one scale per near pair are held.
    """
    if tile_rows is None:
        tile_rows = max(1, _TILE_BYTES // (8 * 8 * dim))
    xs = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    near = copy.deepcopy(xs)
    _discard_normals(near, samples * dim, tile_rows * dim)
    ys = copy.deepcopy(near)
    _discard_normals(near, samples * dim, tile_rows * dim)
    n_near = samples // 4
    scale = np.exp(near.uniform(math.log(1e-6), math.log(1e-1), size=(n_near, 1)))
    for start in range(0, samples, tile_rows):
        rows = min(tile_rows, samples - start)
        x2 = xs.standard_normal((rows, dim))
        y2 = ys.standard_normal((rows, dim))
        x2 /= np.linalg.norm(x2, axis=1, keepdims=True)
        k = min(rows, max(0, n_near - start))  # near pairs in this tile
        if k:
            yn = near.standard_normal((k, dim))
            yn *= scale[start:start + k]
            yn += x2[:k]
            y2[:k] = yn
        y2 /= np.linalg.norm(y2, axis=1, keepdims=True)
        yield x2, y2


def _discard_normals(rng: np.random.Generator, count: int, chunk: int) -> None:
    """Advance ``rng`` past ``count`` standard normals, drawn at most
    ``chunk`` at a time into one reused buffer."""
    buf = np.empty(max(1, min(count, chunk)))
    for start in range(0, count, buf.size):
        rng.standard_normal(out=buf[:count - start])


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
    Every map keeps the signs of its input, so a tile's sign bits are taken
    once and its l_p points and their magnitudes once per p.  Each cell
    raises the magnitudes by :func:`_power`, as :func:`_signed_power`
    does, and ORs the signs back only for differences of signed values.
    Besides its input a tile holds six arrays of its rows (two of signs,
    the two l_p points, a map and a scratch), and briefly the next
    exponent's points.
    """
    n = len(grid)
    consts = {(p, q): mazur_constants(p, q) for p in grid for q in grid if p != q}
    sphere = np.zeros((n, n))
    invol = np.zeros((n, n))
    worst = np.full((n, n), math.inf)
    bad = np.zeros((n, n), dtype=np.int64)
    for x2, y2 in tiles:
        sx, sy = _sign_bits(x2), _sign_bits(y2)
        mx, scratch = np.empty((2, *x2.shape), dtype=x2.dtype)
        for i, p in enumerate(grid):
            ax, ay = mazur_map(x2, 2.0, p), mazur_map(y2, 2.0, p)  # on the l_p sphere
            s_p = np.sum(np.abs(ax - ay) ** p, axis=1)
            nz = s_p > 0
            np.abs(ax, out=ax)  # the magnitudes from here on
            np.abs(ay, out=ay)
            for j, q in enumerate(grid):
                _power(ax, p / q, out=mx)
                np.copyto(scratch, mx)
                scratch **= q
                dev = np.abs(np.sum(scratch, axis=1) ** (1.0 / q) - 1.0)
                sphere[i, j] = max(sphere[i, j], float(np.max(dev)))
                # The map back keeps the signs of x, so |back - x| is the
                # difference of the magnitudes.
                _power(mx, q / p, out=scratch)
                scratch -= ax
                dev = np.abs(scratch, out=scratch)
                invol[i, j] = max(invol[i, j], float(np.max(dev)))
                if p == q:  # the two-sided distance bounds need distinct exponents
                    continue
                mc = consts[p, q]
                _power(ay, p / q, out=scratch)
                h = np.subtract(_with_sign(mx, sx), _with_sign(scratch, sy), out=scratch)
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

