"""Gaussian sphere maps and their certified distance envelopes.

For a bandwidth r > 0 the map psi_r sends a Hilbert-space point x to a
unit vector whose inner products realize the Gaussian kernel:

    <psi_r(x), psi_r(y)> = exp(-r ||x - y||^2),
    ||psi_r(x) - psi_r(y)|| = sqrt(2 (1 - exp(-r ||x - y||^2))).

Pair distances depend on ||x - y|| only, so :func:`psi_distance_exact`
evaluates them in closed form without coordinates; that is the kernel
mode of a glued embedding (``distance_interval``).  Two coordinate
realizations are provided:

* :class:`TruncatedExp`     -- explicit coordinates of the exponential
  tensor series, truncated at a fixed degree, stored in the symmetric
  (multinomial) basis so the dimension is C(degree + d, d) rather than
  sum d^j; :meth:`TruncatedExp.residual` bounds what the truncation loses,
* :class:`RandomFeatures`   -- random Fourier features; Monte-Carlo
  approximation of the same kernel with O(D^{-1/2}) error.

Composing psi_r with the (2, q) signed-power map yields the fundamental
block maps phi of the glued embeddings.  One batch kernel serves both
coordinate backends: :func:`block_mass` returns
sum_n sum_i |phi_n(x)_i - phi_n(y)_i|^q per pair of rows over a list of
blocks.  It never normalises a coordinate: it takes the signed power 2/q
of each block's raw coordinates (cosines for random features, the unit
rows of the series) and folds both row norms into one per-row scale and
one per-row quotient.  Powers whose exponent is an exact root go through
sqrt, cbrt and square passes (``mazur._power``).  Each block's row sums
are einsums in the dtype of its coordinates, by the q-th power sum that
the Mazur audit shares (``mazur._row_power_sums``); the blocks are
accumulated in float64.  Random-feature coordinates are computed in the floating
dtype of the input points (float64 for other input), so float32 rows
give float32 arithmetic with the same feature tables.  Their feature product
multiplies the rows [x, 1] by the table [w; b], so it also adds the
phases, and runs in row slabs that OpenBLAS keeps on the calling thread.  The kernel runs groups
of blocks outside and row tiles inside, both sized from one byte budget,
so a call draws each feature table once and holds one group's tables at
a time.  A tile stacks its pairs' x rows over their y rows, so a block
takes one feature product, one cos, one norm einsum and one signed power
per tile, in two scratch arrays: the coordinates and the images.  The
series coordinates are written into the kernel's coordinate array,
gathered and normed a run of rows at a time.  Block
distances are sandwiched by transporting the exact psi distance D of
:func:`psi_distance_exact` through the certified signed-power constants
c D^e of :func:`_transport_constants`; kernel-mode intervals size their
slices of separations from the same byte budget.

This module needs no scipy: the series residual is a Poisson tail,
summed in closed form by :func:`_poisson_tail`.  Only the certifier
(``verify --suite kernel``) asks for it; the coordinates, and so
:func:`block_mass`, never compute it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .mazur import _row_power_sums, _signed_power, mazur_constants
from .metric_core import distance_root

__all__ = [
    "TruncatedExp",
    "RandomFeatures",
    "psi_distance_exact",
    "exp_coordinates_batch",
    "block_mass",
    "moduli_exponents",
    "delta_q",
    "SATURATION_LEVEL",
]

# 1 - e^{-u} >= u/e holds for 0 <= u <= 1; at the schedule thresholds
# (bandwidth * distance^2 = 1) the squared psi distance equals this level.
SATURATION_LEVEL = 2.0 * (1.0 - math.exp(-1.0))  # = 2 (e-1)/e

_TINY = np.finfo(float).tiny
_SQRT_TINY = math.sqrt(_TINY)

# Cap on the materialized dimension C(degree + dim, dim) of a truncated
# exp backend; construction fails beyond it rather than exhausting memory.
MAX_EXP_COORDS = 2_000_000

# Entries of the run of rows that :func:`exp_coordinates_batch` gathers
# and norms at a time, at least one row.
_GATHER_ENTRIES = 16384


def psi_distance_exact(d, r):
    """Exact image distance sqrt(2 (1 - exp(-r d^2))); lives in [0, sqrt(2))."""
    d = np.asarray(d, dtype=float)
    r = np.asarray(r, dtype=float)
    if np.any(d < 0):
        raise ValueError("distances must be nonnegative")
    if np.any(r < 0):
        raise ValueError("bandwidth must be nonnegative")
    out = np.asarray(-r * d ** 2)  # the one array of the broadcast shape
    np.sqrt(np.multiply(np.expm1(out, out=out), -2.0, out=out), out=out)
    return out if out.shape else float(out)


@dataclass(frozen=True)
class TruncatedExp:
    """Exponential tensor coordinates up to a fixed degree, at most
    ``MAX_EXP_COORDS`` of them."""

    r: float
    degree: int
    ambient_dim: int

    def __post_init__(self) -> None:
        if not 0 < self.r < math.inf:
            raise ValueError(f"bandwidth must be finite and positive, got {self.r!r}")
        if self.degree < 0 or self.ambient_dim < 1:
            raise ValueError("need degree >= 0 and ambient_dim >= 1")
        if self.n_coords > MAX_EXP_COORDS:
            raise ValueError(
                f"coordinate count {self.n_coords} at degree {self.degree} and dim "
                f"{self.ambient_dim} exceeds cap {MAX_EXP_COORDS}"
            )

    @property
    def n_coords(self) -> int:
        return math.comb(self.degree + self.ambient_dim, self.ambient_dim)

    def residual(self, X) -> np.ndarray:
        """Per row of ``X``, the squared norm the truncation loses before
        renormalization: Pr[Poisson(2 r ||x||^2) > degree]."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return _poisson_tail(self.degree + 1, 2.0 * self.r * np.sum(X ** 2, axis=1))


@dataclass(frozen=True)
class RandomFeatures:
    """Random Fourier features sqrt(2/D) cos(w_i . x + b_i).

    Frequencies are Gaussian with variance 2r per coordinate (matching the
    kernel exp(-r d^2)), phases uniform on [0, 2 pi).  The whole feature
    table is a pure function of the tuple seed + (dim,), drawn through a
    counter-based generator, so results never depend on evaluation order.
    """

    r: float
    n_features: int
    seed: tuple[int, ...]

    def __post_init__(self) -> None:
        if not 0 < self.r < math.inf:
            raise ValueError(f"bandwidth must be finite and positive, got {self.r!r}")
        if self.n_features < 1:
            raise ValueError("need at least one feature")


@functools.lru_cache(maxsize=64)
def _multi_indices(dim: int, degree: int) -> np.ndarray:
    """All multi-indices m with |m| <= degree, one column each: row i
    holds the exponents of dimension i."""
    rows: list[tuple[int, ...]] = []

    def rec(prefix: list[int], remaining: int, slots: int) -> None:
        if slots == 1:
            for v in range(remaining + 1):
                rows.append(tuple(prefix + [v]))
            return
        for v in range(remaining + 1):
            rec(prefix + [v], remaining - v, slots - 1)

    rec([], degree, dim)
    return np.array(rows, dtype=np.int64).T.copy()


def _rff_table(r: float, n_features: int, seed: tuple, dim: int, dtype: np.dtype) -> np.ndarray:
    """The (dim + 1) x n_features table [w; b]: frequencies w with the
    phases b as one more row, so that rows [x, 1] times the table are
    w.x + b.  Drawn in float64 a row at a time, in the stream order of
    one (dim, n_features) draw, and stored in ``dtype``."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed + (dim,))))
    wb = np.empty((dim + 1, n_features), dtype=dtype)
    for row in wb[:dim]:  # no float64 copy of the table, one of a row
        row[:] = rng.normal(0.0, math.sqrt(2.0 * r), size=n_features)
    wb[dim] = rng.uniform(0.0, 2.0 * math.pi, size=n_features)
    return wb


def _poisson_tail(n: int, lam: np.ndarray) -> np.ndarray:
    """Pr[Poisson(lam) >= n] for an integer n >= 1, elementwise over ``lam``.

    This is the regularized lower incomplete gamma function P(n, lam).
    The Poisson probabilities p_j = e^-lam lam^j / j! follow from p_0 =
    e^-lam by p_j = p_{j-1} lam / j, each step one rounding in a value
    that never exceeds 1.  For lam < n the tail sum over j >= n is taken
    term by term: past j = n the ratio lam / (j + 1) is below 1 and
    falls, and the sum stops once a term is below half an ulp of it.
    For lam >= n the result is 1 minus the head sum over j < n, which is
    then at most about 1/2, so the subtraction loses nothing.  At lam = 0
    the tail is exactly 0.  Past lam = 708, e^-lam leaves the normal float
    range and the recurrence starts from nothing.  Its answer there, 1, is
    still right to double precision while n p_{n-1}, which bounds the
    head, is below half an ulp of 1; for any other such lam it raises.
    """
    lam = np.asarray(lam, dtype=float)
    p0 = np.exp(-lam)
    off = lam[p0 < _TINY]
    if off.size:
        head_bound = n * np.exp(-off + (n - 1) * np.log(off) - math.lgamma(n))
        if np.any((off < n) | (head_bound > 2.0 ** -54)):
            raise ValueError(
                f"Pr[Poisson(lam) >= {n}] at lam = {off.max():.6g} needs e^-lam, "
                f"which is below the smallest normal float")
    out = np.empty_like(lam)
    above = lam >= n
    h = lam[above]
    p = p0[above]
    head = p.copy()
    for j in range(1, n):
        p *= h / j
        head += p
    out[above] = 1.0 - head
    t = lam[~above]
    p = p0[~above]
    for j in range(1, n + 1):
        p *= t / j
    tail = p.copy()
    j = n
    while np.any(p > 2.0 ** -53 * tail):
        j += 1
        p *= t / j
        tail += p
    out[~above] = tail
    return out


def exp_coordinates_batch(X: np.ndarray, backend: TruncatedExp,
                          out: np.ndarray | None = None) -> np.ndarray:
    """Unit-sphere coordinates of a batch of points: shape (batch,
    n_coords), unit l_2 rows, the truncated series renormalized, written
    into ``out`` if given.  What the truncation loses is
    :meth:`TruncatedExp.residual`, not taken here.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[1] != backend.ambient_dim:
        raise ValueError(f"points have dim {X.shape[1]}, backend expects {backend.ambient_dim}")
    if not np.all(np.isfinite(X)):
        raise ValueError("input contains non-finite entries")
    exps = _multi_indices(backend.ambient_dim, backend.degree)
    n, width = len(X), exps.shape[1]
    xs = math.sqrt(2.0 * backend.r) * X
    # A coordinate is the product over dimensions i of
    # T_i[m_i] = e^(-r x_i^2) (sqrt(2r) x_i)^m_i / sqrt(m_i!), the signed
    # root of a Poisson(2 r x_i^2) probability.  Each table is built by the
    # recurrence T_i[j] = T_i[j-1] sqrt(2r) x_i / sqrt(j) from T_i[0] =
    # e^(-r x_i^2), so no value leaves [-1, 1].
    root_j = np.sqrt(np.arange(1.0, backend.degree + 1))
    tables = []
    for i in range(backend.ambient_dim):
        steps = np.empty((n, backend.degree + 1))
        steps[:, 0] = np.exp(-backend.r * X[:, i] ** 2)
        np.divide(xs[:, i, None], root_j, out=steps[:, 1:])
        tables.append(np.cumprod(steps, axis=1))
    # Runs of rows are gathered per dimension and normed together, so no
    # temporary outgrows a run; np.linalg.norm still reduces each row's
    # squares in one add.reduce.
    coords = np.empty((n, width)) if out is None else out
    norms = np.empty((n, 1))
    step = max(1, _GATHER_ENTRIES // width)
    for k in range(0, n, step):
        rows = coords[k:k + step]
        rows.fill(1.0)
        for table, m in zip(tables, exps):
            rows *= np.take(table[k:k + step], m, axis=1)
        norms[k:k + step] = np.linalg.norm(rows, axis=1, keepdims=True)
    # The squared norm is Pr[Poisson(2 r ||x||^2) <= degree]; once it
    # leaves the normal float range the rows lose their precision, and
    # then their norm, before the division below.
    lost = ~(norms[:, 0] >= _SQRT_TINY)
    if np.any(lost):
        raise ValueError(
            f"truncated exp series of degree {backend.degree} underflows at "
            f"||x|| = {np.linalg.norm(X[lost], axis=1).min():.6g} (bandwidth "
            f"{backend.r:.6g}): its squared norm is below the smallest normal float")
    coords /= norms
    return coords


# OpenBLAS runs a GEMM on the calling thread while m * n * k is at most
# SMP_THRESHOLD_MIN (65536) times GEMM_MULTITHREAD_THRESHOLD (4), per
# interface/gemm.c.  Above it the product is split across its thread
# pool, whose workers then spin through the elementwise work between
# products.
_GEMM_SINGLE_THREAD_MNK = 2 ** 18


def _feature_product(X: np.ndarray, w: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``X @ w`` into the C-contiguous ``out``, in row slabs that each stay
    on the calling thread, so ``--threads N`` bounds the compute threads.

    The bulk is one batched matmul over a (slabs, rows, dim) view.  A
    slab has at least two rows and the tail is never a single row below
    a slab: a one-row product is a GEMV, which rounds differently from
    GEMM in float64, so the tail recomputes the row before it instead.
    """
    n, dim = X.shape
    n_features = w.shape[1]
    rows = max(2, _GEMM_SINGLE_THREAD_MNK // (n_features * dim))
    bulk = n - n % rows
    if bulk:
        np.matmul(X[:bulk].reshape(-1, rows, dim), w,
                  out=out[:bulk].reshape(-1, rows, n_features))
    if bulk < n:
        start = max(0, min(bulk, n - 2))
        np.matmul(X[start:], w, out=out[start:])
    return out


def _rff_cosines(X1: np.ndarray, wb: np.ndarray,
                 out: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Raw features cos(w.x + b) of the rows [x, 1] of ``X1`` under the
    table ``wb`` = [w; b], in their dtype, and their squared row norms;
    ``out`` receives the features and must be C-contiguous.  The sqrt(2/D)
    feature scale cancels in the normalisation, so it is never applied."""
    if not out.flags.c_contiguous:
        raise ValueError("out must be C-contiguous")
    z = np.cos(_feature_product(X1, wb, out), out=out)
    # einsum takes the squared norms without a squared copy of z
    return z, np.einsum("ij,ij->i", z, z)


@functools.lru_cache(maxsize=None)
def _transport_constants(q: float) -> tuple[float, float, float, float]:
    """(c_lo, e_lo, c_hi, e_hi): block distance bounds c * D^e from psi distance D.

    The bounds are on the l_q distance of the image difference, the power
    sum S_q taken to the root m = max(q, 1) (the q-norm for q >= 1, S_q
    itself for q < 1).  q = 2 is the identity transport.
    """
    if q == 2.0:
        return 1.0, 1.0, 1.0, 1.0
    mc = mazur_constants(2.0, q)
    # Power-sum bounds: c_lower * (D^2)^le <= S_q <= c_upper * (D^2)^ue.
    m = distance_root(q)
    return (mc.c_lower ** (1.0 / m), 2.0 * mc.lower_exponent / m,
            mc.c_upper ** (1.0 / m), 2.0 * mc.upper_exponent / m)


def moduli_exponents(q: float) -> tuple[float, float]:
    """(gamma_q, xi_q): growth exponents of the block expansion / compression.

    The block maps satisfy, with bandwidth r and domain separation t,

        expansion  <= const * (r t^2)^gamma_q
        compression >= const * (r t^2)^xi_q     (valid while r t^2 <= 1)

    in the block's own distance (q-norm for q >= 1, power sum for q < 1).
    The block distance is c D^e of the psi distance D, with D^2 between
    (2/e) r t^2 and 2 r t^2 there, so these are the transport exponents
    halved: (1/q, 1/2) for q >= 2, (1/2, 1/q) for 1 <= q <= 2, (q/2, 1) below.
    """
    _, e_lo, _, e_hi = _transport_constants(q)
    return e_hi / 2.0, e_lo / 2.0


def delta_q(q: float) -> float:
    """Certified block-distance floor once bandwidth * separation^2 >= 1.

    At that threshold the squared psi distance is at least 2 (e-1)/e, and
    it only grows with separation; transporting the floor through the
    certified lower constant gives a uniform compression level
    c_lo D^e_lo.  The power is numpy's on a 0-d array, whose last bit
    differs from Python's scalar pow at a few exponents.
    """
    c_lo, e_lo, _, _ = _transport_constants(q)
    return float(c_lo * np.asarray(math.sqrt(SATURATION_LEVEL)) ** e_lo)


def _block_coordinates(X1: np.ndarray, backend: TruncatedExp | RandomFeatures,
                       wb: np.ndarray | None, out: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Coordinates c of the rows [x, 1] of ``X1`` and their squared row
    norms n^2, so that c / n is psi_r(x) row by row, written into
    ``out``: raw cosines under the random-feature table ``wb``, the
    series' unit rows with n^2 = 1."""
    if isinstance(backend, TruncatedExp):
        coords = exp_coordinates_batch(X1[:, :-1], backend, out=out)
        return coords, np.ones(len(coords))
    return _rff_cosines(X1, wb, out=out)


# The package's one byte budget of working sets.  A row tile of
# block_mass holds this much in each of its two scratch arrays, the
# coordinates and the images of its stacked [x; y] rows, and a group of
# blocks this much of feature tables.  At 512 float32 features a tile is
# 128 pairs, 256 stacked rows, whose scratch arrays take 2 x 512 KiB and
# fit one core's L2 (1024-pair tiles need 2 x 4 MiB and run from L3), and
# a group is 15 tables of 17 x 512.  At 4096 features a tile is 16 pairs
# and a group one table.  A slice of GluedEmbedding.mass_interval holds
# this much in all of its (separations x blocks) arrays together.
_SCRATCH_BYTES = 512 * 1024


def _width(backend: TruncatedExp | RandomFeatures) -> int:
    return backend.n_coords if isinstance(backend, TruncatedExp) else backend.n_features


def _plan(X: np.ndarray, backends: tuple) -> tuple[np.dtype, np.dtype, int, int, int]:
    """How :func:`block_mass` runs ``backends`` on the points ``X``: the
    dtype of the rows [x, 1] (that of X if floating, else float64), the
    dtype of the coordinates (float64 for the series), the widest block's
    coordinate count, the pairs of a tile and the blocks of a group.  One
    (2 pairs x coordinates) array of a tile's stacked rows, and the
    (dim + 1) x features tables of a group, each take about _SCRATCH_BYTES."""
    if len({type(b) for b in backends}) > 1:
        raise ValueError("the blocks of one call must share one backend")
    dtype = X.dtype if X.dtype.kind == "f" else np.dtype(float)
    cdt = np.dtype(float) if backends and isinstance(backends[0], TruncatedExp) else dtype
    width = max((_width(b) for b in backends), default=1)
    row = cdt.itemsize * width
    return (dtype, cdt, width, max(1, _SCRATCH_BYTES // (2 * row)),
            max(1, _SCRATCH_BYTES // ((X.shape[1] + 1) * row)))


def block_mass(X: np.ndarray, Y: np.ndarray, backends, q: float) -> np.ndarray:
    """Power mass of paired rows summed over the blocks ``backends``, each
    mapped into l_q.

    Block n maps a row x to phi_n(x) = s_a(psi_r(x)) with a = 2/q: the
    backend's unit-sphere coordinates psi_r(x) (truncated series or random
    features) under the coordinatewise signed power s_a, the (2, q) Mazur
    map, which lands on the unit q-sphere.  Random features run in the
    floating dtype of ``X`` (float64 for other input); the series is
    evaluated in float64.  All blocks of one call share one backend.

    Block n adds sum_i |phi_n(x)_i - phi_n(y)_i|^q, its share of the
    glued mass in both regimes: the q-th power of the block distance for
    q >= 1, the power-sum block distance itself for q < 1.  The kernel
    never normalises a coordinate.  With c_x the backend's coordinates of
    x and n_x their norm, psi_r(x) = c_x / n_x, and s_a is homogeneous of
    degree a with a q = 2, so the block adds

        sum_i |s_a(c_x)_i - (n_x / n_y)^a s_a(c_y)_i|^q / n_x^2:

    one per-row scale of s_a(c_y) instead of two full-array divides
    (n = 1 for the series).  The row sums are einsums in the
    coordinates' dtype (:func:`~embedlab.mazur._row_power_sums`), so
    float32 for float32 rows; the per-row ratios and quotients are float64.

    The loops run groups of blocks outside and row tiles inside
    (:func:`_plan`), so only one group's feature tables are alive at a
    time and each table is drawn once per call.  A tile of m pairs
    stacks its rows as [x; y] in one buffer of 2m rows [x, 1], written
    once per group, so the feature product also adds the phases, and
    checked finite in the first group.  A block then takes one feature
    product, one cos, one norm einsum and one signed power over the
    stack, in two reused scratch arrays: the coordinates c and the
    images p.  The difference h of the x and y images goes into p[:m],
    and the power sums take c[m:] as spare.  Reusing the arrays keeps
    the C allocator from handing their pages back to the system and
    faulting them in again for every block.  Each row adds its blocks in
    order into a float64 total, and every step is rowwise, so neither
    the tile nor the group size changes a bit of the result.
    """
    X, Y = (np.atleast_2d(np.asarray(P)) for P in (X, Y))
    backends = tuple(backends)
    dtype, cdt, width, rows, group = _plan(X, backends)
    n, dim = X.shape
    XY1 = np.ones((2 * rows, dim + 1), dtype=dtype)
    flats = np.empty((2, 2 * rows * width), dtype=cdt)
    total = np.zeros(n)
    a = 2.0 / q
    for g in range(0, len(backends), group):
        blocks = backends[g:g + group]
        tables = [_rff_table(b.r, b.n_features, b.seed, dim, dtype)
                  if isinstance(b, RandomFeatures) else None for b in blocks]
        for start in range(0, n, rows):
            sl = slice(start, min(start + rows, n))
            m = sl.stop - start
            xy1 = XY1[:2 * m]
            xy1[:m, :-1], xy1[m:, :-1] = X[sl], Y[sl]
            if g == 0 and not np.all(np.isfinite(xy1)):
                raise ValueError("input contains non-finite entries")
            for backend, wb in zip(blocks, tables):
                shape = (2 * m, _width(backend))
                c, p = (f[:shape[0] * shape[1]].reshape(shape) for f in flats)
                c, n2 = _block_coordinates(xy1, backend, wb, c)
                p = _signed_power(c, a, out=p)
                scale = np.divide(n2[:m], n2[m:], dtype=float) ** (1.0 / q)  # (n_x / n_y)^a
                p[m:] *= scale.astype(p.dtype)[:, None]
                h = np.subtract(p[:m], p[m:], out=p[:m])
                total[sl] += np.divide(_row_power_sums(h, q, spare=c[m:]), n2[:m], dtype=float)
        del tables  # freed before the next group's are drawn, not after
    return total
