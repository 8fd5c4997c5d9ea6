"""Empirical compression/expansion moduli and exponent fits.

The lab samples pairs at prescribed separations, evaluates an embedding
on them, and reduces the image distances to two envelopes:

* ``rho_hat[j]``   -- min image distance over pairs with separation at
  least the row's left bin edge (an *upper* estimate of the true
  compression modulus there, since sampling sees a subset),
* ``omega_hat[j]`` -- max image distance over pairs with separation
  below the row's right bin edge, or at most it on the last row (a
  *lower* estimate of the true expansion modulus).

Row j counts the separations in ``[edges[j], edges[j+1])``; the last row
is closed.  Separations outside ``[edges[0], edges[-1]]`` fall in no row
but still enter both envelopes.  :func:`reduce_envelopes` is that
reduction over explicit edges: ``moduli`` runs use log-spaced edges
through :func:`estimate_moduli`, ``folner`` runs the schedule brackets.
Both then fit with :func:`fit_envelopes` (a slope is null below five
usable rows) and render with :func:`write_moduli_csv`.

Those directions matter: certified theory bounds are checked as
``rho_hat >= certified_lower`` and ``omega_hat <= certified_upper``;
violations of these cannot be explained by sampling and are real
errors.  Both envelopes are nondecreasing by construction, and
``rho_hat <= omega_hat`` on every row whose own bin is nonempty.

All randomness is derived per pair from (seed, pair index) through a
counter-based generator, so results are identical for any evaluation
order or worker count; aggregation uses only order-independent
reductions (min, max, count).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

if TYPE_CHECKING:  # annotations only: folner runs never load the l_2 side
    from .glue import GluedEmbedding

__all__ = [
    "PairSampler",
    "ModuliEstimate",
    "ExponentFit",
    "estimate_moduli",
    "reduce_envelopes",
    "fit_exponent",
    "fit_envelopes",
    "loglog_fit",
    "exact_kernel_engine",
    "coordinate_engine",
    "fast_rff_engine",
    "glued_certifier",
    "write_moduli_csv",
]

# Relative float slack of the certified-bound comparisons.
_REL_TOL = 1e-9


@dataclass(frozen=True)
class PairSampler:
    """Draws (x, y) pairs with prescribed log-uniform separations.

    Prescribing separations (rather than sampling two independent
    points) guarantees coverage at every scale; independent sampling
    concentrates all mass at one distance scale.  Base points are
    standard Gaussian, directions uniform on the sphere, and pair i
    consumes only the stream keyed by (seed, i).
    """

    t_min: float
    t_max: float
    dim: int = 16

    def __post_init__(self) -> None:
        if not (0 < self.t_min < self.t_max):
            raise ValueError("need 0 < t_min < t_max")
        if self.dim < 1:
            raise ValueError("need dim >= 1")

    def sample(self, n_pairs: int, seed: int, dtype=np.float64
               ) -> tuple[np.ndarray | None, np.ndarray | None, np.ndarray]:
        """``n_pairs`` rows of (x, y, t).  Pair i draws a Gaussian base
        point, a Gaussian direction and a uniform for t from the Philox
        stream keyed by ``SeedSequence((seed, i))``, set with a zero
        counter on one reused generator.  The keys are hashed from the
        uint32 words of seed and i by :func:`_seed_keys`, one chunk of
        pairs at a time.  Each pair reads its base point into x, its
        direction into y and then its uniform, the values that
        ``normal(0, 1)``, ``normal()`` and ``uniform()`` would read; the
        chunk's directions are then scaled in place, y = x + t d / |d|.

        A chunk's rows are computed in float64 and stored once in
        ``dtype`` (float32 rows are rounded once, as a float32 kernel
        would round them); ``dtype=None`` keeps no rows (X and Y are
        None), while every pair still draws its normals, so t is the same
        stream.
        """
        if seed < 0:
            raise ValueError(f"seed must be non-negative, got {seed}")
        X = Y = None
        if dtype is not None:
            X, Y = np.empty((2, n_pairs, self.dim), dtype=dtype)
        xc, yc = np.empty((2, min(n_pairs, _KEY_CHUNK), self.dim))  # a chunk's rows
        t = np.empty(n_pairs)
        norm = np.empty(min(n_pairs, _KEY_CHUNK))
        log_ratio = math.log(self.t_max / self.t_min)
        bitgen = np.random.Philox()
        rng = np.random.Generator(bitgen)
        state = bitgen.state
        counter = np.zeros(4, dtype=np.uint64)
        words = [seed >> s & 0xFFFFFFFF for s in range(0, max(seed.bit_length(), 1), 32)]
        for start in range(0, n_pairs, _KEY_CHUNK):
            stop = min(start + _KEY_CHUNK, n_pairs)
            x, y = xc[:stop - start], yc[:stop - start]
            for j, key in enumerate(_seed_keys(words, start, stop)):
                state["state"] = {"counter": counter, "key": key}
                bitgen.state = state
                rng.standard_normal(out=x[j])
                direction = rng.standard_normal(out=y[j])
                norm[j] = math.sqrt(direction.dot(direction))  # np.linalg.norm's route
                t[start + j] = self.t_min * math.exp(rng.random() * log_ratio)
            y /= norm[:stop - start, None]
            y *= t[start:stop, None]
            y += x
            if X is not None:
                X[start:stop], Y[start:stop] = x, y
        return X, Y, t


# Pairs whose Philox keys are hashed at once: 16 KiB of keys.
_KEY_CHUNK = 1024

# The constants of NumPy's SeedSequence (numpy/random/bit_generator.pyx).
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _seed_keys(words: list[int], start: int, stop: int) -> np.ndarray:
    """``SeedSequence(words + [i]).generate_state(2, np.uint64)`` for each
    i in [start, stop) below 2^32, as rows of a (stop - start, 2) array.

    SeedSequence's hash, vectorised over i in uint32 arithmetic: hashmix
    each entropy word (zeros past the last) into a pool of four words,
    mix every pool word into every other, mix in the words past the
    pool, and hash the pool into four output words, which pair into two
    uint64 low word first.  The multipliers of hashmix and of the output
    hash advance the same way for every i, so they are Python integers.
    """
    if stop > 1 << 32:
        raise ValueError("pair indices must stay below 2^32")
    u32 = np.uint32
    index = np.arange(start, stop, dtype=u32)
    entropy = [np.full(index.size, w, dtype=u32) for w in words] + [index]
    hash_a = _INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_a
        value = value ^ u32(hash_a)
        hash_a = hash_a * _MULT_A & 0xFFFFFFFF
        value *= u32(hash_a)
        value ^= value >> u32(16)
        return value

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        x *= u32(_MIX_MULT_L)
        y *= u32(_MIX_MULT_R)
        x -= y
        x ^= x >> u32(16)
        return x

    zero = np.zeros(index.size, dtype=u32)
    pool = [hashmix(entropy[k] if k < len(entropy) else zero) for k in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    keys = np.zeros((index.size, 2), dtype=np.uint64)
    hash_b = _INIT_B
    for k, word in enumerate(pool):
        word ^= u32(hash_b)
        hash_b = hash_b * _MULT_B & 0xFFFFFFFF
        word *= u32(hash_b)
        word ^= word >> u32(16)
        keys[:, k // 2] |= word.astype(np.uint64) << np.uint64(32 * (k % 2))
    return keys


@dataclass
class ModuliEstimate:
    """Envelope estimates over bins; row j covers [edges[j], edges[j+1]),
    and the last row also its right edge."""

    edges: np.ndarray          # len B+1
    rho_hat: np.ndarray        # len B, at left edges
    omega_hat: np.ndarray      # len B, at right edges
    counts: np.ndarray         # len B
    n_pairs: int               # separations in [edges[0], edges[-1]]
    certified_lower: np.ndarray | None = None   # at left edges
    certified_upper: np.ndarray | None = None   # at right edges

    @property
    def n_bins(self) -> int:
        return len(self.edges) - 1

    def validate(self) -> None:
        for name, env in (("rho_hat", self.rho_hat), ("omega_hat", self.omega_hat)):
            vals = env[np.isfinite(env)]
            if np.any(np.diff(vals) < -1e-12 * (1 + np.abs(vals[:-1]))):
                raise AssertionError(f"{name} is not nondecreasing")
        both = np.isfinite(self.rho_hat) & np.isfinite(self.omega_hat) & (self.counts > 0)
        if np.any(self.rho_hat[both] > self.omega_hat[both] * (1 + 1e-12)):
            raise AssertionError("rho_hat exceeds omega_hat on a populated bin")
        if int(self.counts.sum()) != self.n_pairs:
            raise AssertionError("bin counts do not sum to the in-range pair count")

    def certified_violations(self) -> int:
        """Rows where an envelope crosses its certified bound.  In kernel
        mode the engine is the lower end of ``distance_interval(t)`` and the
        certifier that interval at the bin edges, so only an interval not
        nondecreasing in t trips it; ``verify --suite gluing`` audits pairs."""
        if self.certified_lower is None or self.certified_upper is None:
            return 0
        bad = 0
        ok = np.isfinite(self.rho_hat) & np.isfinite(self.certified_lower)
        bad += int(np.sum(self.rho_hat[ok] < self.certified_lower[ok] * (1 - _REL_TOL)))
        ok = np.isfinite(self.omega_hat) & np.isfinite(self.certified_upper)
        bad += int(np.sum(self.omega_hat[ok] > self.certified_upper[ok] * (1 + _REL_TOL)))
        return bad


def estimate_moduli(f: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray],
                    sampler: PairSampler, bins: int = 36, pairs: int = 2000,
                    seed: int = 0,
                    certifier: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]] | None = None
                    ) -> ModuliEstimate:
    """Sample pairs, evaluate ``f(X, Y, t)``, and build the envelopes over
    ``bins`` log-spaced rows from ``sampler.t_min`` to ``sampler.t_max``;
    raises if more than half of the rows are empty.

    The pair rows are held once, in the dtype that ``f.rows`` names: the
    engines of this module set it (float32 for :func:`fast_rff_engine`,
    None for :func:`exact_kernel_engine`, which reads only t), and any
    other ``f`` gets float64 rows.

    ``certifier`` is passed to :func:`reduce_envelopes`.
    """
    if bins < 1 or pairs < 1:
        raise ValueError("need bins >= 1 and pairs >= 1")
    X, Y, t = sampler.sample(pairs, seed, dtype=getattr(f, "rows", np.float64))
    img = np.asarray(f(X, Y, t), dtype=float)
    if img.shape != t.shape or not np.all(np.isfinite(img)) or np.any(img < 0):
        raise ValueError("engine returned invalid image distances")
    est = reduce_envelopes(t, img, np.geomspace(sampler.t_min, sampler.t_max, bins + 1),
                           certifier=certifier)
    empty = float(np.mean(est.counts == 0))
    if empty > 0.5:
        raise ValueError(f"{empty:.0%} of bins are empty; sampler failed to cover the range")
    return est


def reduce_envelopes(t, img, edges, *,
                     certifier: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]] | None = None
                     ) -> ModuliEstimate:
    """Envelope rows of image distances ``img`` at separations ``t`` over
    the strictly increasing bin ``edges`` (see the module docstring).

    ``certifier(t)`` may supply certified (lower, upper) image-distance
    bounds; they are recorded per row, and
    :meth:`ModuliEstimate.certified_violations` counts the rows that
    cross them.  Only exact engines should be held to that count; Monte
    Carlo backends carry the columns as reference.
    """
    t = np.asarray(t, dtype=float)
    img = np.asarray(img, dtype=float)
    edges = np.asarray(edges, dtype=float)
    if edges.ndim != 1 or edges.size < 2 or not np.all(np.diff(edges) > 0):
        raise ValueError("bin edges must be strictly increasing")
    order = np.argsort(t, kind="stable")
    t_sorted = t[order]
    img_sorted = img[order]
    suffix_min = np.minimum.accumulate(img_sorted[::-1])[::-1]
    prefix_max = np.maximum.accumulate(img_sorted)

    lo = np.searchsorted(t_sorted, edges[:-1], side="left")
    hi = np.searchsorted(t_sorted, edges[1:], side="left")
    hi[-1] = np.searchsorted(t_sorted, edges[-1], side="right")  # last row is closed
    rho = np.full(lo.size, np.nan)
    omega = np.full(hi.size, np.nan)
    rho[lo < t.size] = suffix_min[lo[lo < t.size]]
    omega[hi > 0] = prefix_max[hi[hi > 0] - 1]

    cert_lo = cert_hi = None
    if certifier is not None:
        cert_lo = np.asarray(certifier(edges[:-1])[0], dtype=float)
        cert_hi = np.asarray(certifier(edges[1:])[1], dtype=float)

    est = ModuliEstimate(edges=edges, rho_hat=rho, omega_hat=omega,
                         counts=(hi - lo).astype(np.int64),
                         n_pairs=int(hi[-1] - lo[0]),
                         certified_lower=cert_lo, certified_upper=cert_hi)
    est.validate()
    return est


@dataclass(frozen=True)
class ExponentFit:
    """Least-squares log-log slope of an envelope over a distance window.

    The slope is an *achieved* scaling of this particular embedding, not
    a modulus of the underlying space (which takes a supremum over all
    embeddings and is not observable here).
    """

    envelope: str
    slope: float
    intercept: float
    t_lo: float
    t_hi: float
    residual_rms: float
    n_bins: int

    def to_dict(self) -> dict:
        return {"envelope": self.envelope, "range": [self.t_lo, self.t_hi],
                "slope": self.slope, "intercept": self.intercept,
                "residual": self.residual_rms, "bins": self.n_bins}


def fit_exponent(m: ModuliEstimate, envelope: str, t_lo: float, t_hi: float) -> ExponentFit:
    """Fit log(envelope) against log(t) on the usable rows inside
    [t_lo, t_hi] (populated, finite and positive), by the closed-form
    least squares of :func:`loglog_fit`."""
    if not (0 < t_lo < t_hi):
        raise ValueError("need 0 < t_lo < t_hi")
    if envelope == "rho":
        ts, vals = m.edges[:-1], m.rho_hat
    elif envelope == "omega":
        ts, vals = m.edges[1:], m.omega_hat
    else:
        raise ValueError("envelope must be 'rho' or 'omega'")
    use = (ts >= t_lo) & (ts <= t_hi) & (m.counts > 0) & np.isfinite(vals) & (vals > 0)
    if int(use.sum()) < 5:
        raise ValueError(f"only {int(use.sum())} usable bins in range; need >= 5")
    slope, intercept, residual = loglog_fit(ts[use].tolist(), vals[use].tolist())
    return ExponentFit(envelope=envelope, slope=slope, intercept=intercept,
                       t_lo=t_lo, t_hi=t_hi, residual_rms=residual, n_bins=int(use.sum()))


def loglog_fit(xs, ys) -> tuple[float, float, float]:
    """(slope, intercept, residual RMS) of the least-squares line through
    the points (log x, log y), all x and y positive and not all x equal.

    The 2x2 normal equations solved in closed form on centred data, in
    Python floats: ``math.log`` of each point, ``math.fsum`` for the
    means, S_xx, S_xy and the squared residuals.  No LAPACK solve runs,
    so the bytes of a fit depend neither on OpenBLAS's core type nor on
    numpy's SIMD dispatch.
    """
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    n = len(lx)
    mx, my = math.fsum(lx) / n, math.fsum(ly) / n
    dx = [x - mx for x in lx]
    sxx = math.fsum(d * d for d in dx)
    if not sxx > 0:
        raise ValueError("need two distinct abscissae to fit a line")
    slope = math.fsum(d * (y - my) for d, y in zip(dx, ly)) / sxx
    intercept = my - slope * mx
    residual = math.sqrt(math.fsum((y - (slope * x + intercept)) ** 2
                                   for x, y in zip(lx, ly)) / n)
    return slope, intercept, residual


def fit_envelopes(m: ModuliEstimate, t_lo: float, t_hi: float) -> dict:
    """``rho_slope``, ``omega_slope``, ``rho_fit`` and ``omega_fit`` over
    [t_lo, t_hi]; an envelope with fewer than five usable rows there has
    a null (None) slope and fit."""
    if not (0 < t_lo < t_hi):
        raise ValueError("need 0 < t_lo < t_hi")
    doc = {}
    for env in ("rho", "omega"):
        try:
            fit = fit_exponent(m, env, t_lo, t_hi).to_dict()
        except ValueError:  # too few usable rows: the window is checked above
            fit = None
        doc.update({f"{env}_slope": None if fit is None else fit["slope"], f"{env}_fit": fit})
    return doc


# -- engines over glued embeddings --------------------------------------


def exact_kernel_engine(e: GluedEmbedding) -> Callable:
    """Exact pair distances for kernel-mode l_2 gluings (distance-only)."""
    if not getattr(e.family, "kernel_mode", False):
        raise ValueError("exact engine needs a kernel-mode family")
    if e.schedule.q != 2.0:
        raise ValueError("kernel-mode distances are exact only at q = 2; "
                         "use a coordinate backend for other exponents")

    def engine(X, Y, t):
        lo, hi = e.distance_interval(np.asarray(t, dtype=float))
        return lo

    engine.rows = None  # estimate_moduli keeps no pair rows for it
    return engine


def _rows_engine(e: GluedEmbedding, rows) -> Callable:
    """``e.image_distances`` on the points cast once, on entry, to ``rows``;
    a block's |h|^q reaches 2^q per coordinate, so a distance past the
    range of ``rows`` (float32 from q = 121) is refused, naming q."""
    name = np.dtype(rows).name

    def engine(X, Y, t):
        img = e.image_distances(np.asarray(X, dtype=rows), np.asarray(Y, dtype=rows))
        if not np.all(np.isfinite(img)):
            raise ValueError(f"the {name} block masses at q={e.schedule.q:g} "
                             f"leave the {name} range")
        return img

    engine.rows = rows
    return engine


def coordinate_engine(e: GluedEmbedding) -> Callable:
    """Float64 evaluation of a coordinate-backed (exp or rff) glued embedding:
    :meth:`GluedEmbedding.image_distances` on float64 points."""
    if getattr(e.family, "kernel_mode", False):
        raise ValueError("coordinate engine needs a coordinate backend")
    return _rows_engine(e, np.float64)


def fast_rff_engine(e: GluedEmbedding) -> Callable:
    """Float32 evaluation of an rff-backed glued embedding.

    The same block kernel as :func:`coordinate_engine` on the points in
    float32: cosine features, per-row norms and signed power in float32,
    block masses summed in float64.  :func:`estimate_moduli` holds its
    pair rows in float32 (``engine.rows``), each rounded once from the
    sampler's float64 chunk; float64 points passed directly are cast
    once on entry, the same rounding.  The feature tables are the
    float64 path's draws, so the two agree up to float32 rounding.  This
    is what makes 2e4-pair moduli runs over a few hundred blocks
    affordable, in memory that does not grow with the block count: the
    kernel holds one group of feature tables at a time, and a tile's x
    and y rows stacked in two scratch arrays.  The feature product runs
    in row slabs that OpenBLAS keeps on the calling thread, so each
    worker's run of row tiles uses one CPU: splitting a tile's product
    across both CPUs of a 2-CPU host nearly doubled the CPU time without
    shortening the wall time, a BLAS worker spinning between products,
    and tiles of 2048 rows a side, whose scratch arrays spilled out of
    L2, cost more CPU than tiles of 256.
    """
    if getattr(e.family, "backend", None) != "rff":
        raise ValueError("fast engine needs an rff-backed family")
    return _rows_engine(e, np.float32)


def glued_certifier(e: GluedEmbedding) -> Callable:
    """Certified (lower, upper) glued distance bounds as a function of t."""

    def certifier(t):
        return e.distance_interval(np.asarray(t, dtype=float))

    return certifier


_COLUMNS = ("bin_edge_t", "rho_hat", "omega_hat", "count", "certified_lower", "certified_upper")


def _cell(value) -> str:
    """One CSV cell: an integer as itself, other numbers to 12 significant digits."""
    if isinstance(value, numbers.Integral):
        return str(int(value))
    return format(float(value), ".12g")


def write_moduli_csv(m: ModuliEstimate | None, path, extra: dict | None = None) -> None:
    """Deterministic CSV render (stable formatting, no timestamps): one row
    per bin of ``m`` under the envelope columns, then the named per-row
    columns of ``extra``.  Without an estimate (a run that realizes no
    envelopes) the rows are those of ``extra``, with nan envelope cells
    and zero counts; a missing certified column renders as nan."""
    extra = extra or {}
    n = len(next(iter(extra.values()))) if m is None else m.n_bins
    nan = [math.nan] * n
    cols = [nan, nan, nan, [0] * n, nan, nan] if m is None else [
        m.edges, m.rho_hat, m.omega_hat, m.counts,
        nan if m.certified_lower is None else m.certified_lower,
        nan if m.certified_upper is None else m.certified_upper]
    rows = [_COLUMNS + tuple(extra)]
    rows += [[_cell(col[j]) for col in cols + list(extra.values())] for j in range(n)]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("".join(",".join(row) + "\n" for row in rows))
