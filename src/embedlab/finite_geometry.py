"""Finite diagnostic spaces: Hamming cubes, k-subset spaces, and the
cube-based distortion lower bounds used to cap achievable compression.

Everything here is exact integer combinatorics; the only floats are the
final p-th roots and ratios.  Both audits are closed forms over the one
integer that fixes a pair's distances: the Hamming distance h for the
cube identity (:func:`cube_report`, at h = 1 and h = m only), the overlap
deficit j = |A minus B| for the subset probe (:func:`probe_audit`).  No
pair of points is enumerated; ``tests/oracles.py`` walks every pair
(``dense_distortion``, ``gk_probe_audit``) and every h, and the tests
hold the closed forms to those walks bit for bit.  Enflo's type-2
inequality, a theorem for every map into a Hilbert space, enters only as
the floor :func:`enflo_lower_bound`; its diagonal/edge certificate lives
in the test oracles (``enflo_type2_certificate``).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .metric_core import distance_root

# The subset space's cap: the probe audit enumerates nothing, but counts
# its C(ground, k)^2 / 2 pairs in int64.  Exact integers would lift it, yet
# outgrow JSON: at k = 5000, ground = 10000 the pair count has over 6,000
# digits, past the 4,300 that Python writes as text.
MAX_GK_ELEMENTS = 1 << 20

# Relative float slack of the probe audit's comparisons.
_REL_TOL = 1e-12


@dataclass(frozen=True)
class HammingCube:
    """Vertex set {0,1}^m under the ell_p distance (see :mod:`.metric_core`):
    two vertices at Hamming distance h lie h^(1/max(p, 1)) apart.  Any m up
    to the float range is a cube; nothing here holds a vertex.
    """

    m: int
    p: float

    def __post_init__(self):
        if not isinstance(self.m, int) or not 1 <= self.m <= sys.float_info.max:
            raise ValueError(f"m={self.m} must be a positive integer in the float range")
        distance_root(self.p)  # refuses p outside (0, inf)

    def diameter(self) -> float:
        return self.m ** (1.0 / distance_root(self.p))


@dataclass(frozen=True)
class GkSpace:
    """All k-element subsets of {1..n} with the half-symmetric-difference
    distance."""

    k: int
    ground: int

    def __post_init__(self):
        if not (1 <= self.k <= self.ground):
            raise ValueError("need 1 <= k <= ground")
        n_el = math.comb(self.ground, self.k)
        if n_el > MAX_GK_ELEMENTS:
            count = n_el if n_el.bit_length() <= 64 else f"2^{n_el.bit_length() - 1} or more"
            raise ValueError(f"k={self.k}, ground={self.ground}: C(ground, k) = {count} "
                             f"elements exceed the cap {MAX_GK_ELEMENTS}")


@dataclass(frozen=True)
class ProbeAuditReport:
    """Exact audit of the basis-sum probe on G_k, over every pair."""

    k: int
    ground: int
    p: float
    n_pairs: int
    max_ratio: float          # image distance / subset distance, sup over pairs
    min_nonzero_image: float  # discreteness scale of the image
    lipschitz_violations: int
    discreteness_violations: int

    @property
    def violations(self) -> int:
        return self.lipschitz_violations + self.discreteness_violations


def probe_audit(k: int, ground: int, p, *,
                lipschitz_factor: float = 2.0) -> ProbeAuditReport:
    """Check the probe is ``lipschitz_factor``-Lipschitz and 1-discrete.

    The probe sends a k-subset u of {1..ground} to the sum of the standard
    basis vectors it indexes.  The image difference vector has
    |A Delta B| entries of modulus 1, so image distances reduce to
    symmetric-difference counts, and |A Delta B| = 2j when |A minus B| = j.
    For 1 <= j <= min(k, ground - k), C(ground, k) C(k, j) C(ground - k, j) / 2
    unordered pairs meet that count: the histogram of the audit over all
    pairs, from which the maximum ratio, the minimum image and the
    violation counts follow exactly.
    """
    root = distance_root(p)
    GkSpace(k, ground)  # refuses k outside 1..ground and oversized spaces
    n_el = math.comb(ground, k)
    j = np.arange(1, min(k, ground - k) + 1)
    pairs = np.array([n_el * math.comb(k, i) * math.comb(ground - k, i) // 2
                      for i in j.tolist()], dtype=np.int64)
    sym = 2.0 * j  # the counts met, all > 0
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
    is 1 for Euclidean targets (q_type = 2), where the identity meets the
    bound exactly at p <= 1 and p = 2 (:func:`cube_report`).
    """
    expo = _enflo_exponent(p, q_type)
    return HammingCube(m, p).diameter() ** expo


def _enflo_exponent(p: float, q_type: float) -> float:
    if not 1 <= q_type <= 2:  # no Banach space has Rademacher type above 2
        raise ValueError(f"target type must lie in [1, 2], got {q_type}")
    return 1.0 / distance_root(p) - 1.0 / q_type


def cube_report(m: int, p, q_type: float = 2.0) -> dict:
    """Identity-embedding summary for one cube: bound, distortion, ratio.

    The identity sends vertex u to its bit row, so a pair at Hamming
    distance h has domain distance h^(1/r), r = max(p, 1), and image
    distance sqrt(h); the pair (0, 2^h - 1) meets each h in 1..m.  The
    distortion (max image/domain ratio) * (max domain/image ratio) over all
    pairs is therefore the same product over h = 1..m.  Both ratios are
    powers of h, h^(1/2 - 1/r) and its inverse, so each is monotone in h
    and peaks over 1..m at h = 1 or h = m: two distances give the product.

    The identity's type-2 certificate ratio is exactly 1.  Its diagonal
    sum runs over the 2^(m-1) antipodal pairs (u, u xor (2^m - 1)), whose
    bit rows differ in all m coordinates, so it is m 2^(m-1); its edge sum
    runs over the m 2^(m-1) edges, whose bit rows differ in one, so it is
    m 2^(m-1) as well.  The tests' certificate on the (2^m, m) bit matrix
    adds those exact integers in float64 and returns 1.0 too.
    """
    HammingCube(m, p)  # refuses m and p outside the cubes
    h = np.array([1.0, float(m)])
    dom = h ** (1.0 / distance_root(p))
    im = np.sqrt(h)
    return {
        "m": m,
        "p": p,
        "target_type": q_type,
        "bound": enflo_lower_bound(m, p, q_type),
        "bound_exponent": _enflo_exponent(p, q_type),
        "measured_distortion": float(np.max(im / dom) * np.max(dom / im)),
        "certificate_ratio": 1.0,
    }


def cube_violations(rep: dict, floor_scale: float = 1.0) -> int:
    """1 if a :func:`cube_report`'s distortion breaks its floor ``bound *
    floor_scale``, else 0: within a relative 1e-9 of it (m / sqrt(m) and m^(1/2) may differ
    in the last bit) where the identity meets it (type 2, p <= 1 or p = 2), else not below."""
    measured, bound = rep["measured_distortion"], rep["bound"] * floor_scale
    if rep["target_type"] == 2 and (rep["p"] <= 1 or rep["p"] == 2):
        return int(abs(measured - bound) > 1e-9 * bound)
    return int(measured < bound * (1 - 1e-9))
