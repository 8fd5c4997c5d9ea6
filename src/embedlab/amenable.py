"""Lattice groups and trees with explicit almost-invariant set systems,
characteristic-function embeddings into ell_p over the group, and the
certified distance bounds of the glued coarse embeddings.

Models are discrete (counting measure) so every defect and every block
distance is exact integer set arithmetic.  The run paths use closed
forms over arrays of pairs (box and tree-segment symmetric differences,
hence every block distance; the worst box defect); the set enumerations
stay as the oracles the tests compare them against.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .metric_core import ExponentRegime, MonotoneFunction, h_ab

MAX_SET_SIZE = 1 << 20  # materialization cap for explicit set arithmetic


# ---------------------------------------------------------------------------
# group and tree models


@dataclass(frozen=True)
class ZkModel:
    """Z^k with the ell_1 word metric and counting measure."""

    k: int
    name: str = field(init=False)

    def __post_init__(self):
        if not isinstance(self.k, int) or self.k < 1:
            raise ValueError("k must be a positive integer")
        object.__setattr__(self, "name", f"z{self.k}")

    @property
    def identity(self):
        return (0,) * self.k

    def mul(self, g, h):
        return tuple(a + b for a, b in zip(g, h))

    def inv(self, g):
        return tuple(-a for a in g)

    def metric(self, g, h) -> float:
        return float(sum(abs(a - b) for a, b in zip(g, h)))

    def ball(self, radius: int) -> list[tuple[int, ...]]:
        """All lattice points with ell_1 norm <= radius."""
        r = int(radius)
        if (2 * r + 1) ** self.k > MAX_SET_SIZE:
            raise ValueError("ball too large to enumerate")
        pts = [p for p in itertools.product(range(-r, r + 1), repeat=self.k)
               if sum(abs(c) for c in p) <= r]
        return pts


@dataclass(frozen=True)
class HeisenbergModel:
    """Integer Heisenberg group with the homogeneous gauge quasi-metric.

    Product (x,y,z)(x',y',z') = (x+x', y+y', z+z'+x y'); the gauge
    |x| + |y| + ceil(sqrt(|z|)) is left-invariant by construction but
    not symmetric (the gauge of an inverse differs), which is the usual
    price of this quasi-isometric model.
    """

    name: str = "heis"

    @property
    def identity(self):
        return (0, 0, 0)

    def mul(self, g, h):
        return (g[0] + h[0], g[1] + h[1], g[2] + h[2] + g[0] * h[1])

    def inv(self, g):
        return (-g[0], -g[1], -g[2] + g[0] * g[1])

    def gauge(self, g) -> int:
        z = abs(g[2])
        root = math.isqrt(z - 1) + 1 if z else 0  # ceil(sqrt(z)) on integers
        return abs(g[0]) + abs(g[1]) + root

    def metric(self, g, h) -> float:
        return float(self.gauge(self.mul(self.inv(g), h)))

    def ball_count(self, radius: int) -> int:
        """|B(e, R)| by summing the z-fiber count over each (x, y)."""
        r = int(radius)
        total = 0
        for a in range(r + 1):
            n_xy = 1 if a == 0 else 4 * a
            c = r - a  # gauge budget left for the z part
            total += n_xy * (2 * c * c + 1)
        return total

    def ball(self, radius: int) -> list[tuple[int, int, int]]:
        r = int(radius)
        if self.ball_count(r) > MAX_SET_SIZE:
            raise ValueError("ball too large to enumerate")
        out = []
        for x in range(-r, r + 1):
            for y in range(-r + abs(x), r - abs(x) + 1):
                c = r - abs(x) - abs(y)
                zmax = c * c
                out.extend((x, y, z) for z in range(-zmax, zmax + 1))
        return out


@dataclass(frozen=True)
class TreeModel:
    """Rooted tree with uniform branching; nodes are label paths.

    The designated ray to infinity is the all-zeros branch.  ``depth``
    caps how far segments may reach; constructions needing more raise.
    """

    branching: int = 2
    depth: int = 4000
    name: str = "tree"

    def __post_init__(self):
        if self.branching < 1 or self.depth < 1:
            raise ValueError("branching and depth must be positive")

    @property
    def root(self):
        return ()

    def check_node(self, x):
        if len(x) > self.depth or any(not 0 <= c < self.branching for c in x):
            raise ValueError("node outside the truncated tree")

    def metric(self, x, y) -> float:
        return float(len(x) + len(y) - 2 * _common_prefix(x, y))

    def zeros_prefix(self, x) -> int:
        """Depth of the deepest ancestor of x lying on the designated ray."""
        z = 0
        for c in x:
            if c != 0:
                break
            z += 1
        return z

    def ray_segment(self, x, n_vertices: int) -> tuple[tuple[int, ...], ...]:
        """First ``n_vertices`` vertices of the merging ray started at x.

        The ray climbs from x to its deepest all-zeros ancestor, then
        follows the designated ray outward; consecutive vertices are at
        graph distance 1 and positions realize distances from x.
        """
        self.check_node(x)
        z = self.zeros_prefix(x)
        out = []
        for j in range(n_vertices):
            up = len(x) - j
            if up >= z:
                out.append(tuple(x[:up]))
            else:
                d = z + (j - (len(x) - z))  # back on the zeros ray, going out
                if d > self.depth:
                    raise ValueError("truncation depth insufficient for segment")
                out.append((0,) * d)
        return tuple(out)


def _common_prefix(x, y) -> int:
    c = 0
    for a, b in zip(x, y):
        if a != b:
            break
        c += 1
    return c


# ---------------------------------------------------------------------------
# defects


def folner_defect(F, g, group) -> float:
    """|F Delta gF| / |F| by explicit left translation."""
    fs = set(F)
    if not fs:
        raise ValueError("empty set")
    gf = {group.mul(g, f) for f in fs}
    return len(fs ^ gf) / len(fs)


def a_defect(a, b) -> float:
    """|A Delta B| / |A cap B|; +inf for disjoint sets."""
    sa, sb = set(a), set(b)
    if not sa or not sb:
        raise ValueError("empty set")
    inter = len(sa & sb)
    if inter == 0:
        return math.inf
    return (len(sa) + len(sb) - 2 * inter) / inter


def box_intersection_count(half_side: int, g) -> int:
    """|F cap gF| for the box [-M, M]^k translated by g; 0 if they miss."""
    m = 2 * half_side + 1
    prod = 1
    for gi in g:
        prod *= max(0, m - abs(gi))
    return prod


def box_defect(half_side: int, g) -> float:
    """Exact |F Delta gF| / |F| for box translates, no enumeration."""
    k = len(g)
    total = (2 * half_side + 1) ** k
    return 2 * (total - box_intersection_count(half_side, g)) / total


# ---------------------------------------------------------------------------
# set systems


def _preset_eps(n: int) -> float:
    """Defect budget min(1/2, 1/(n log^2 n)).

    The raw value exceeds 1 at n = 2, which would flip the sign of the
    eps/(1-eps) transfer; capping at 1/2 is the usual normalization for
    such schedules and only touches that first entry.
    """
    if n < 2:
        raise ValueError("schedule index must be >= 2")
    return min(0.5, 1.0 / (n * math.log(n) ** 2))


@dataclass(frozen=True)
class ZkFolnerSystem:
    """Box witnesses F_n = [-M_n, M_n]^k with certified defect <= eps_n.

    Schedule r_n = n, eps_n = 1/(n log^2 n).  The half-side M_n =
    ceil(r_n / eps_n) makes the translate bound 2 r_n / (2 M_n + 1) < eps_n
    for every g with ell_1 length <= r_n, uniformly in k.
    """

    group: ZkModel
    n_min: int = 2
    n_max: int = 20

    def __post_init__(self):
        if not 2 <= self.n_min <= self.n_max:
            raise ValueError("need 2 <= n_min <= n_max")

    def r(self, n: int) -> float:
        return float(n)

    def eps(self, n: int) -> float:
        return _preset_eps(n)

    def a_eps(self, n: int) -> float:
        e = self.eps(n)
        return e / (1.0 - e)

    def half_side(self, n: int) -> int:
        return math.ceil(self.r(n) / self.eps(n))

    def rad(self, n: int) -> float:
        # circumradius of the box in the ell_1 word metric (corner norm)
        return float(self.group.k * self.half_side(n))

    def size(self, n: int) -> int:
        return (2 * self.half_side(n) + 1) ** self.group.k

    def folner_set(self, n: int) -> set:
        m = self.half_side(n)
        if self.size(n) > MAX_SET_SIZE:
            raise ValueError("Folner set too large to materialize")
        return set(itertools.product(range(-m, m + 1), repeat=self.group.k))

    def set_at(self, x, n: int) -> set:
        return {self.group.mul(x, f) for f in self.folner_set(n)}

    def sym_diff_count(self, x, y, n: int) -> int:
        g = self.group.mul(self.group.inv(x), y)
        m = self.half_side(n)
        return 2 * (self.size(n) - box_intersection_count(m, g))

    def sym_diff_counts(self, pairs) -> np.ndarray:
        """sym_diff_count per pair (rows) and index n_min..n_max (columns);
        Python integers once a box reaches 2^53 points, so counts and their
        float conversions stay exact."""
        exact = np.int64 if self.size(self.n_max) < 1 << 53 else object
        xy = np.array(pairs, dtype=exact).reshape(len(pairs), 2, self.group.k)
        shift = np.abs(xy[:, 1] - xy[:, 0])
        cols = []
        for n in range(self.n_min, self.n_max + 1):
            inter = np.prod(np.maximum(2 * self.half_side(n) + 1 - shift, 0), axis=1)
            cols.append(2 * (self.size(n) - inter))
        return np.stack(cols, axis=1)

    def block_distance_pth(self, x, y, n: int, p: float) -> float:
        """||phi_n(x) - phi_n(y)||_p^p; translates have equal measure so
        this is |A Delta B| / |F_n| regardless of p."""
        return self.sym_diff_count(x, y, n) / self.size(n)


@dataclass(frozen=True)
class TreeACollection:
    """Merging-ray segments A_n(t) of ceil(r_n / eps_n) vertices."""

    tree: TreeModel
    n_min: int = 2
    n_max: int = 20

    def __post_init__(self):
        if not 2 <= self.n_min <= self.n_max:
            raise ValueError("need 2 <= n_min <= n_max")

    def r(self, n: int) -> float:
        return float(n)

    def eps(self, n: int) -> float:
        return _preset_eps(n)

    def a_eps(self, n: int) -> float:
        # segment arithmetic gives |A Delta B| <= 2 r_n and
        # |A cap B| >= size - 2 r_n directly; when the segment is no
        # longer than 2 r_n the certified bound is vacuous (+inf)
        denom = self.size(n) - 2.0 * self.r(n)
        return 2.0 * self.r(n) / denom if denom > 0 else math.inf

    def size(self, n: int) -> int:
        return math.ceil(self.r(n) / self.eps(n))

    def rad(self, n: int) -> float:
        return float(self.size(n) - 1)

    def set_at(self, x, n: int) -> tuple:
        return self.tree.ray_segment(x, self.size(n))

    def _geometry(self, pairs) -> np.ndarray:
        """Rows: depths, zeros prefixes and common prefix of each pair."""
        zp = self.tree.zeros_prefix
        return np.array([(len(x), len(y), zp(x), zp(y), _common_prefix(x, y))
                         for x, y in pairs], dtype=np.int64).reshape(-1, 5).T

    def _sym_diff(self, geometry: np.ndarray, s: int) -> np.ndarray:
        """|A(x) Delta A(y)| for segments of s vertices.

        A(x) is a path: the ancestors of x at depths [max(z, L-s+1), L]
        (L = len(x), z = zeros_prefix(x)), then the zeros-ray depths
        [z, 2z+s-L-1] when the climb reaches z.  Two segments share the
        zeros-ray depths both reach and the off-ray ancestors at depths in
        (max(zx, zy), cp] both climbs pass, cp the common prefix: the
        intersection is two interval overlaps.
        """
        lx, ly, zx, zy, cp = geometry
        top_x = np.where(lx - zx < s, 2 * zx + s - lx - 1, zx - 1)  # zx - 1: none
        top_y = np.where(ly - zy < s, 2 * zy + s - ly - 1, zy - 1)
        if np.any(np.maximum(top_x, top_y) > self.tree.depth):
            raise ValueError("truncation depth insufficient for segment")
        on_ray = np.minimum(top_x, top_y) - np.maximum(zx, zy) + 1
        climb = cp - np.maximum.reduce([zx + 1, zy + 1, lx - s + 1, ly - s + 1]) + 1
        return 2 * (s - np.maximum(on_ray, 0) - np.maximum(climb, 0))

    def sym_diff_count(self, x, y, n: int) -> int:
        return int(self._sym_diff(self._geometry([(x, y)]), self.size(n))[0])

    def sym_diff_counts(self, pairs) -> np.ndarray:
        """sym_diff_count per pair (rows) and index n_min..n_max (columns)."""
        geometry = self._geometry(pairs)
        return np.stack([self._sym_diff(geometry, self.size(n))
                         for n in range(self.n_min, self.n_max + 1)], axis=1)

    def a_defects(self, pairs) -> np.ndarray:
        """|A Delta B| / |A cap B| (+inf if disjoint) per pair and index;
        both segments have s vertices, so |A cap B| = s - |A Delta B| / 2."""
        counts = self.sym_diff_counts(pairs)
        inter = np.array([self.size(n) for n in range(self.n_min, self.n_max + 1)]) - counts // 2
        return np.divide(counts, inter, out=np.full(counts.shape, math.inf), where=inter > 0)

    def block_distance_pth(self, x, y, n: int, p: float) -> float:
        # segments share the size, so the equal-measure identity applies
        return self.sym_diff_count(x, y, n) / self.size(n)


def block_distances_pth(sys, pairs) -> np.ndarray:
    """block_distance_pth per pair (rows) and index n_min..n_max (columns)."""
    counts = sys.sym_diff_counts(pairs)
    sizes = [sys.size(n) for n in range(sys.n_min, sys.n_max + 1)]
    return np.asarray(counts / np.array(sizes, dtype=counts.dtype), dtype=float)


def _support_reach(sys, model, x, n: int) -> float:
    """Largest distance from x to a point of the materialized A_n(x); a
    Z^k box x + [-M, M]^k is built as one integer array, measured in ell_1."""
    if not isinstance(sys, ZkFolnerSystem):
        return max(model.metric(x, v) for v in sys.set_at(x, n))
    if sys.size(n) > MAX_SET_SIZE:
        raise ValueError("Folner set too large to materialize")
    m = sys.half_side(n)
    box = np.stack(np.meshgrid(*(np.arange(c - m, c + m + 1) for c in x), indexing="ij"), -1)
    return float(np.abs(box - np.asarray(x)).sum(axis=-1).max())


# ---------------------------------------------------------------------------
# characteristic-function blocks


@dataclass
class CharBoundReport:
    """Outcome of the 2 eps'_n distance-bound audit."""

    model: str
    p: float
    n_pairs: int
    n_checks: int
    violations: int
    support_violations: int
    worst_margin: float  # min over checks of bound - value; negative = violated
    bound_scale: float

    def to_dict(self) -> dict:
        return dict(model=self.model, p=self.p, n_pairs=self.n_pairs,
                    n_checks=self.n_checks, violations=self.violations,
                    support_violations=self.support_violations,
                    worst_margin=self.worst_margin, bound_scale=self.bound_scale)


def sample_zk_pairs(group: ZkModel, n_pairs: int, max_dist: int, seed: int,
                    spread: int = 1000) -> list[tuple[tuple, tuple]]:
    """Deterministic pairs (x, y) with 1 <= d(x, y) <= max_dist.

    Pair i derives its own generator from (seed, i) so any subset of the
    stream is reproducible independently of batching.
    """
    out = []
    for i in range(n_pairs):
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, i))))
        x = tuple(int(v) for v in rng.integers(-spread, spread + 1, size=group.k))
        while True:
            g = tuple(int(v) for v in rng.integers(-max_dist, max_dist + 1, size=group.k))
            l1 = sum(abs(c) for c in g)
            if 1 <= l1 <= max_dist:
                break
        out.append((x, group.mul(x, g)))
    return out


def sample_tree_pairs(tree: TreeModel, n_pairs: int, max_dist: int, seed: int,
                      max_depth: int = 40) -> list[tuple[tuple, tuple]]:
    """Deterministic tree pairs at graph distance in [1, max_dist]."""
    out = []
    for i in range(n_pairs):
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, i))))
        d0 = int(rng.integers(0, max_depth + 1))
        x = tuple(int(v) for v in rng.integers(0, tree.branching, size=d0))
        y = x
        for _ in range(int(rng.integers(1, max_dist + 1))):
            if y and rng.random() < 0.5:
                y = y[:-1]
            elif len(y) < tree.depth:
                y = y + (int(rng.integers(0, tree.branching)),)
        if y == x:
            y = x + (0,) if len(x) < tree.depth else x[:-1]
        out.append((x, y))
    return out


def char_embedding_bound_check(sys, model, pairs, p, *, bound_scale: float = 1.0,
                               rel_tol: float = 1e-9,
                               audit_support: bool = True) -> CharBoundReport:
    """Verify ||phi_n(x) - phi_n(y)||_p^p <= 2 eps'_n on certified pairs.

    Each sampled pair is checked at every schedule index n with
    d(x, y) <= r_n; ``bound_scale`` shrinks the bound for negative
    controls.  Support radii are audited against rad(n) where the
    support is materialized.
    """
    regime = p if isinstance(p, ExponentRegime) else ExponentRegime.from_p(p)
    if regime.p < 1:
        raise ValueError("characteristic-function blocks need p >= 1")
    checks = violations = support_bad = 0
    worst = math.inf
    d = np.array([model.metric(x, y) for x, y in pairs], dtype=float)
    vals = block_distances_pth(sys, pairs)
    for j, n in enumerate(range(sys.n_min, sys.n_max + 1)):
        val = vals[d <= sys.r(n), j]
        if not val.size:
            continue
        bound = 2.0 * sys.a_eps(n) * bound_scale
        # fmin skips NaN margins (an infinite bound scaled by 0), as min() did
        worst = float(np.fmin.reduce(bound - val, initial=worst))
        checks += val.size
        violations += int(np.count_nonzero(val > bound * (1.0 + rel_tol)))
    if audit_support:
        for x, _ in pairs[:8]:
            for n in range(sys.n_min, min(sys.n_min + 3, sys.n_max) + 1):
                try:
                    reach = _support_reach(sys, model, x, n)
                except ValueError:
                    continue  # materialization cap; closed form still certified
                if reach > sys.rad(n) + 1e-9:
                    support_bad += 1
    return CharBoundReport(
        model=model.name, p=regime.p, n_pairs=len(pairs), n_checks=checks,
        violations=violations, support_violations=support_bad,
        worst_margin=worst if checks else math.nan, bound_scale=bound_scale,
    )


# ---------------------------------------------------------------------------
# glued embedding over the group


@dataclass(frozen=True)
class GluedGroupEmbedding:
    """ell_p direct sum of the normalized indicator blocks.

    The base point (identity / root) cancels in every distance, so the
    pairwise image distance is just the p-sum of block distances.  All
    claims below are finite sums over the materialized block range; no
    asymptotic constant is left implicit.
    """

    sys: object
    model: object
    p: float

    def __post_init__(self):
        if self.p < 1:
            raise ValueError("group blocks need p >= 1")

    @property
    def n_range(self) -> range:
        return range(self.sys.n_min, self.sys.n_max + 1)

    def image_distances_pth(self, pairs) -> np.ndarray:
        """||Phi(x) - Phi(y)||_p^p per pair: block distances summed in
        index order, so each entry rounds like the scalar sum over n."""
        acc = np.zeros(len(pairs))
        for col in block_distances_pth(self.sys, pairs).T:
            acc += col
        return acc

    def image_distance_pth(self, x, y) -> float:
        return float(self.image_distances_pth([(x, y)])[0])

    def image_distance(self, x, y) -> float:
        return self.image_distance_pth(x, y) ** (1.0 / self.p)

    def disjoint_step_count(self, d: float) -> int:
        """Blocks whose supports must be disjoint at distance d."""
        return sum(1 for n in self.n_range if d > 2.0 * self.sys.rad(n))

    def certified_lower_pth(self, d: float) -> float:
        # each disjoint block carries two unit masses: exactly 2 per block
        return 2.0 * self.disjoint_step_count(d)

    def coarse_step_count(self, d: float) -> int:
        return sum(1 for n in self.n_range if self.sys.r(n) < d)

    def tail_constant(self) -> float:
        return sum(2.0 * self.sys.a_eps(n) for n in self.n_range)

    def certified_upper_pth(self, d: float) -> float:
        """2^p k + K with k the blocks below distance d and K the exact
        remainder sum of the certified block bounds."""
        k = self.coarse_step_count(d)
        return 2.0 ** self.p * k + self.tail_constant()

    def bounds_check(self, pairs, *, upper_scale: float = 1.0,
                     rel_tol: float = 1e-9, image_pth=None) -> dict:
        """``image_pth``: image_distances_pth(pairs), if already computed."""
        if image_pth is None:
            image_pth = self.image_distances_pth(pairs)
        upper_viol = lower_viol = 0
        worst_upper = worst_lower = math.inf
        for (x, y), val in zip(pairs, np.asarray(image_pth).tolist()):
            d = self.model.metric(x, y)
            ub = self.certified_upper_pth(d) * upper_scale
            lb = self.certified_lower_pth(d)
            worst_upper = min(worst_upper, ub - val)
            worst_lower = min(worst_lower, val - lb)
            if val > ub * (1.0 + rel_tol):
                upper_viol += 1
            if val < lb * (1.0 - rel_tol):
                lower_viol += 1
        return {
            "n_pairs": len(pairs), "upper_violations": upper_viol,
            "lower_violations": lower_viol, "worst_upper_margin": worst_upper,
            "worst_lower_margin": worst_lower, "upper_scale": upper_scale,
        }


def glued_group_embedding(sys, model, p) -> GluedGroupEmbedding:
    regime = p if isinstance(p, ExponentRegime) else ExponentRegime.from_p(p)
    return GluedGroupEmbedding(sys=sys, model=model, p=regime.p)


# ---------------------------------------------------------------------------
# radial witnesses and predicted envelopes


def radial_folner_upper(model, n: int) -> float:
    """Circumradius of an explicit witness achieving defect 1/(n log^2 n)
    at translation range n.

    Z^k uses the box with half-side ceil(n^2 log^2 n): its defect bound
    2 r / (2 M + 1) < eps_n is certified for every k (the radius scales
    like r/eps, not the smaller r/eps^(1/k) one might hope for from
    naive volume counting).  The Heisenberg witness is the gauge ball of
    radius 1/eps_n; its defect carries an absolute constant rather than
    a clean <= eps_n certificate.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    eps = _preset_eps(n)
    if isinstance(model, ZkModel):
        return float(model.k * math.ceil(n / eps))
    if isinstance(model, HeisenbergModel):
        return float(math.floor(1.0 / eps))
    raise ValueError(f"unsupported model: {model!r}")


def heisenberg_growth_fit(r_max: int = 20, r_min: int = 2) -> float:
    """Log-log slope of the gauge-ball volume; ~4 for the lattice model."""
    model = HeisenbergModel()
    rs = np.arange(r_min, r_max + 1, dtype=float)
    counts = np.array([model.ball_count(int(r)) for r in rs], dtype=float)
    return float(np.polyfit(np.log(rs), np.log(counts), 1)[0])


_GAP_PARAMS = {  # model name -> (a, b) with lower envelope h_{(a,b)}(t)^(1/p)
    "tree": (2.0, 2.0),
    "heis": (1.0, 2.0),
}


def predicted_group_gap(model, p) -> tuple[MonotoneFunction, MonotoneFunction]:
    """(lower, upper) envelopes for the glued group embedding.

    Lower: generalized inverse of the witness radius growth t^a log^b t,
    taken to the 1/p power; upper: t^(1/p).  For Z^k the certified
    witness radius grows like n^2 log^2 n for every k, so the certified
    parameters are (2, 2) regardless of k.
    """
    regime = p if isinstance(p, ExponentRegime) else ExponentRegime.from_p(p)
    if regime.p < 1:
        raise ValueError("group embeddings are built for p >= 1")
    if isinstance(model, ZkModel):
        a, b = 2.0, 2.0
    else:
        try:
            a, b = _GAP_PARAMS[model.name]
        except (AttributeError, KeyError):
            raise ValueError(f"unsupported model: {model!r}") from None
    ip = 1.0 / regime.p
    lower = MonotoneFunction(lambda t: h_ab(a, b, t) ** ip, lo=1.0, hi=1e12,
                             kind="power_log_inverse",
                             params={"a": a, "b": b, "inv_p": ip})
    upper = MonotoneFunction.power(1.0, ip, lo=1.0, hi=1e12)
    return lower, upper
