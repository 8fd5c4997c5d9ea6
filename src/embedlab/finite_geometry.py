"""Finite diagnostic spaces: Hamming cubes, k-subset spaces, and the
cube-based distortion lower bounds used to cap achievable compression.

Everything here is exact integer combinatorics at desk scale; the only
floats are the final p-th roots and ratios.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .metric_core import distance_root

# Hard enumeration caps.  Pair iteration beyond ~1e6 vertices or bit
# matrices beyond 2^14 rows are out of desk-scale scope.
MAX_CUBE_PAIR_DIM = 24
MAX_CUBE_MATRIX_DIM = 14
MAX_AUDIT_PAIRS = 1 << 20

# Relative float slack of the probe audit's comparisons.
_REL_TOL = 1e-12

# Set bits of each byte value.
_POPCOUNT = np.array([bin(b).count("1") for b in range(256)], dtype=np.int64)


@dataclass(frozen=True)
class HammingCube:
    """Vertex set {0,1}^m under the ell_p distance (see :mod:`.metric_core`).

    Vertices are bitmask integers 0..2^m-1; coordinates are the bits.
    """

    m: int
    p: float

    def __post_init__(self):
        if not isinstance(self.m, int) or self.m < 1:
            raise ValueError("m must be a positive integer")
        if self.m > MAX_CUBE_PAIR_DIM:
            raise ValueError(f"m={self.m} exceeds enumeration cap {MAX_CUBE_PAIR_DIM}")
        distance_root(self.p)  # refuses p outside (0, inf)

    @property
    def n_vertices(self) -> int:
        return 1 << self.m

    def bit_matrix(self) -> np.ndarray:
        """(2^m, m) 0/1 matrix; row u holds the bits of vertex u."""
        if self.m > MAX_CUBE_MATRIX_DIM:
            raise ValueError(f"m={self.m} exceeds matrix cap {MAX_CUBE_MATRIX_DIM}")
        u = np.arange(self.n_vertices, dtype=np.int64)
        return ((u[:, None] >> np.arange(self.m)) & 1).astype(np.float64)

    def points(self):
        return self.bit_matrix()

    def distances_from(self, u: int, v) -> np.ndarray:
        """d_p from vertex u to each vertex of the bitmask array ``v``: the
        popcount of u xor v, an exact integer in float64, taken to the root."""
        x = np.bitwise_xor(u, np.asarray(v, dtype=np.int64))
        ham = np.zeros(x.shape)
        for bit in range(self.m):
            ham += (x >> bit) & 1
        return ham ** (1.0 / distance_root(self.p))

    def diameter(self) -> float:
        return self.m ** (1.0 / distance_root(self.p))


@dataclass(frozen=True)
class GkSpace:
    """All k-element subsets of {1..n} with the half-symmetric-difference
    distance.  Elements are sorted tuples."""

    k: int
    ground: int

    def __post_init__(self):
        if not (1 <= self.k <= self.ground):
            raise ValueError("need 1 <= k <= ground")
        if math.comb(self.ground, self.k) > MAX_AUDIT_PAIRS:
            raise ValueError("element count exceeds enumeration cap")

    def elements(self) -> list[tuple[int, ...]]:
        return list(itertools.combinations(range(1, self.ground + 1), self.k))

    def bitmasks(self) -> np.ndarray:
        """(C(n,k), ceil(n / 8)) uint8 bitmasks in element order: byte j of
        row u holds the ground points 8j + 1 .. 8j + 8 of the element u."""
        bits = np.asarray(self.elements(), dtype=np.int64) - 1
        out = np.zeros((len(bits), -(-self.ground // 8)), dtype=np.uint8)
        rows = np.repeat(np.arange(len(bits)), self.k)
        np.bitwise_or.at(out, (rows, bits.ravel() >> 3),
                         np.left_shift(1, bits.ravel() & 7).astype(np.uint8))
        return out


@dataclass(frozen=True)
class ProbeAuditReport:
    """Brute-force audit of the basis-sum probe on G_k."""

    k: int
    ground: int
    p: float
    n_pairs: int
    max_ratio: float          # image distance / subset distance, sup over pairs
    min_nonzero_image: float  # discreteness scale of the image
    lipschitz_violations: int
    discreteness_violations: int
    sampled: bool = False

    @property
    def violations(self) -> int:
        return self.lipschitz_violations + self.discreteness_violations


def probe_audit(k: int, ground: int, p, *,
                lipschitz_factor: float = 2.0) -> ProbeAuditReport:
    """Check the probe is ``lipschitz_factor``-Lipschitz and 1-discrete.

    The probe sends a k-subset u of {1..ground} to the sum of the standard
    basis vectors it indexes.  The image difference vector has
    |A Delta B| entries of modulus 1, so image distances reduce to
    symmetric-difference counts; the audit is exact integer arithmetic
    over all pairs (caps permitting).  The counts are popcounts of the
    XOR of two elements' bitmasks (:meth:`GkSpace.bitmasks`), taken one
    row of pairs (u, v > u) at a time and folded into a histogram, from
    which the maximum ratio, the minimum image and the violation counts
    follow: no (pairs x pairs) array is built.
    """
    root = distance_root(p)
    space = GkSpace(k, ground)
    masks = space.bitmasks()
    n_el = len(masks)
    if math.comb(n_el, 2) > MAX_AUDIT_PAIRS:
        raise ValueError("pair count exceeds enumeration cap")
    hist = np.zeros(2 * k + 1, dtype=np.int64)  # pairs by |A Delta B|
    for u in range(n_el - 1):
        sym = _POPCOUNT[masks[u] ^ masks[u + 1:]].sum(axis=1)
        hist += np.bincount(sym, minlength=2 * k + 1)
    sym = np.flatnonzero(hist).astype(np.float64)  # the counts met, all > 0
    pairs = hist[hist > 0]
    image = sym ** (1.0 / root)
    ratio = image / (sym / 2.0)
    return ProbeAuditReport(
        k=k, ground=ground, p=p, n_pairs=int(pairs.sum()),
        max_ratio=float(ratio.max()) if ratio.size else 0.0,
        min_nonzero_image=float(image.min()) if image.size else math.inf,
        lipschitz_violations=int(pairs[ratio > lipschitz_factor * (1.0 + _REL_TOL)].sum()),
        discreteness_violations=int(pairs[image < 1.0 - _REL_TOL].sum()),
    )


def enflo_lower_bound(m: int, p, q_type: float) -> float:
    """Distortion lower bound for embedding the cube into a type-q target.

    Exponent-form bound: diam^(1/m - 1/q_type) with m = max(p, 1) the
    distance root and diam the cube diameter in d_p.  The hidden constant
    is 1 for Euclidean targets (q_type = 2), where the diagonal-vs-edge
    certificate below makes the bound exact.
    """
    expo = _enflo_exponent(p, q_type)
    return HammingCube(m, p).diameter() ** expo


def _enflo_exponent(p: float, q_type: float) -> float:
    if not 1 <= q_type <= 2:  # no Banach space has Rademacher type above 2
        raise ValueError(f"target type must lie in [1, 2], got {q_type}")
    return 1.0 / distance_root(p) - 1.0 / q_type


@dataclass(frozen=True)
class TypeTwoCertificate:
    """Diagonal/edge quadratic sums of a map defined on cube vertices."""

    m: int
    diagonal_sum: float
    edge_sum: float
    ratio: float
    degenerate: bool


def enflo_type2_certificate(f, m: int) -> TypeTwoCertificate:
    """Compare antipodal-diagonal and edge energies of f on {0,1}^m.

    ``f`` is an array of shape (2^m, d) whose row u is the image of the
    bitmask vertex u.  For maps into Euclidean space the ratio never
    exceeds 1; equality holds for the identity coordinates.
    """
    n = 1 << m
    imgs = np.asarray(f, dtype=float)
    if imgs.ndim == 1:
        imgs = imgs[:, None]
    if imgs.shape[0] != n:
        raise ValueError("map must be defined on all 2^m vertices")
    if not np.all(np.isfinite(imgs)):
        raise ValueError("map contains non-finite values")
    full = n - 1
    half = np.arange(n // 2)
    diag = float(np.sum((imgs[half] - imgs[half ^ full]) ** 2))
    edge = 0.0
    for j in range(m):
        lo = np.flatnonzero((np.arange(n) >> j) & 1 == 0)
        edge += float(np.sum((imgs[lo] - imgs[lo | (1 << j)]) ** 2))
    if edge == 0.0:
        return TypeTwoCertificate(m=m, diagonal_sum=diag, edge_sum=0.0,
                                  ratio=0.0, degenerate=True)
    return TypeTwoCertificate(m=m, diagonal_sum=diag, edge_sum=edge,
                              ratio=diag / edge, degenerate=False)


def cube_report(m: int, p, q_type: float = 2.0) -> dict:
    """Identity-embedding summary for one cube: bound, distortion, ratio."""
    from .moduli import distortion

    cube = HammingCube(m, p)
    cert = enflo_type2_certificate(cube.bit_matrix(), m)
    return {
        "m": m,
        "p": p,
        "target_type": q_type,
        "bound": enflo_lower_bound(m, p, q_type),
        "bound_exponent": _enflo_exponent(p, q_type),
        "measured_distortion": distortion(lambda v: v, cube),
        "certificate_ratio": cert.ratio,
    }
