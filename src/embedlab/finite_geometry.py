"""Finite diagnostic spaces: Hamming cubes, k-subset spaces, and the
cube-based distortion lower bounds used to cap achievable compression.

Everything here is exact integer combinatorics at desk scale; the only
floats are the final p-th roots and ratios.  Both audits are closed
forms over the one integer that fixes a pair's distances: the Hamming
distance h for the cube identity (:func:`cube_report`), the overlap
deficit j = |A minus B| for the subset probe (:func:`probe_audit`).  No
pair of points is enumerated; ``tests/oracles.py`` walks every pair
(``dense_distortion``, ``gk_probe_audit``) and the tests hold the closed
forms to those walks bit for bit.  Enflo's type-2 inequality, a theorem
for every map into a Hilbert space, enters only as the floor
:func:`enflo_lower_bound`; its diagonal/edge certificate lives in the
test oracles (``enflo_type2_certificate``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .metric_core import distance_root

# Hard caps.  Cubes beyond 2^24 vertices (whose distance rows
# ``distances_from`` holds) and subset spaces beyond 2^20 elements are out
# of desk-scale scope.
MAX_CUBE_PAIR_DIM = 24
MAX_GK_ELEMENTS = 1 << 20

# Relative float slack of the probe audit's comparisons.
_REL_TOL = 1e-12


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
    distance."""

    k: int
    ground: int

    def __post_init__(self):
        if not (1 <= self.k <= self.ground):
            raise ValueError("need 1 <= k <= ground")
        if math.comb(self.ground, self.k) > MAX_GK_ELEMENTS:
            raise ValueError(f"element count exceeds cap {MAX_GK_ELEMENTS}")


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
    distance h has domain distance h^(1/max(p, 1)) and image distance
    sqrt(h); the pair (0, 2^h - 1) meets each h in 1..m.  The distortion
    (max image/domain ratio) * (max domain/image ratio) over all pairs is
    therefore the same product over those m distances.

    The identity's type-2 certificate ratio is exactly 1.  Its diagonal
    sum runs over the 2^(m-1) antipodal pairs (u, u xor (2^m - 1)), whose
    bit rows differ in all m coordinates, so it is m 2^(m-1); its edge sum
    runs over the m 2^(m-1) edges, whose bit rows differ in one, so it is
    m 2^(m-1) as well.  The tests' certificate on the (2^m, m) bit matrix
    adds those exact integers in float64 and returns 1.0 too; the closed
    form holds no array, so every cube up to ``MAX_CUBE_PAIR_DIM`` is
    reported.
    """
    cube = HammingCube(m, p)
    h = np.arange(1, m + 1)
    dom = cube.distances_from(0, (1 << h) - 1)
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
    floor_scale``, else 0: equal to 1e-9 where the identity meets the floor
    (type 2 with p <= 1 or p = 2), else not below it."""
    measured, bound = rep["measured_distortion"], rep["bound"] * floor_scale
    if rep["target_type"] == 2 and (rep["p"] <= 1 or rep["p"] == 2):
        return int(abs(measured - bound) > 1e-9)
    return int(measured < bound * (1 - 1e-9))
