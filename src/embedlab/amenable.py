"""Lattice groups and trees with explicit almost-invariant set systems,
characteristic-function embeddings into ell_p over the group, and the
certified distance bounds of the glued coarse embeddings.

Models are discrete (counting measure) so every defect and every block
distance is exact integer set arithmetic, computed in closed form: box
and tree-segment symmetric differences over arrays of pairs (hence every
block distance), the worst box defect, and the Heisenberg gauge-ball
defect of the generator (1, 0, 0) as O(R) arithmetic series over the
z-fiber heights.  Nothing here enumerates a Folner set or keeps a scalar
group law; the enumerations, the fiber sum of any translate and the
scalar group operations live in the tests as the oracles these closed
forms are checked against.  The support radius rad(n) is a closed form
too: the box corners and segment vertices it bounds are walked only by
the test oracles.  The glued-bound audit is one array pass over pairs.

Both set systems (boxes of Z^k, tree segments) share one array interface
(``model``, the schedule ``r``, ``eps``, ``a_eps``, ``size`` and ``rad``,
``sample_pairs``, ``distances``, ``sym_diff_counts``, ``worst_defects``
and ``defect_budget``), and :func:`folner_system` looks one up by group
name: callers run one path for every group.  The Heisenberg group has no
set system yet.

The pair samplers draw arrays from counter-based streams.  Z^k pairs
take each field (base points, lengths, multinomial splits, signs) from
its own stream keyed by (seed, 9, field); tree walks run in blocks of
_TREE_BLOCK, block j from the stream keyed by (seed, 10, j), all walks of
a block advanced together one step at a time.  Both keep the prefix
property: for one model, max_dist and seed, the first m pairs of an
n-pair draw are the m-pair draw.  A different max_dist moves every pair.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

_REL_TOL = 1e-9  # relative float slack of the certified-bound audits
_MAX_DIST = 1 << 62  # keeps Z^k lengths plus the +-1000 base points inside int64
_TREE_BASE_DEPTH = 40  # sampled tree pairs start at depth 0.._TREE_BASE_DEPTH
_TREE_BLOCK = 512  # tree walks per sampling block, each block its own stream
_TREE_CHUNK = 256  # walk steps drawn at once


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


@dataclass(frozen=True)
class HeisenbergModel:
    """Integer Heisenberg group with the homogeneous gauge quasi-metric.

    Product (x,y,z)(x',y',z') = (x+x', y+y', z+z'+x y'); the gauge
    |x| + |y| + ceil(sqrt(|z|)) is left-invariant by construction but
    not symmetric (the gauge of an inverse differs), which is the usual
    price of this quasi-isometric model.
    """

    name: str = "heis"

    def ball_count(self, radius: int) -> int:
        """|B(e, R)| = (2 R^4 + 10 R^2 + 6 R + 3) / 3, the sum over a = 0..R of
        2 (R - a)^2 + 1 z values for each of the 4a (one at a = 0) points (x, y)
        with |x| + |y| = a; the tests keep that sum as the oracle."""
        r = int(radius)
        return (2 * r ** 4 + 10 * r ** 2 + 6 * r + 3) // 3


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

    def zeros_prefix(self, x) -> int:
        """Depth of the deepest ancestor of x lying on the designated ray."""
        z = 0
        for c in x:
            if c != 0:
                break
            z += 1
        return z


def _common_prefix(x, y) -> int:
    c = 0
    for a, b in zip(x, y):
        if a != b:
            break
        c += 1
    return c


# ---------------------------------------------------------------------------
# defects


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


def heis_generator_overlap(radius: int) -> int:
    """|B(R) cap gB(R)| for the gauge ball and g = (1, 0, 0), in O(R).

    Translation by g carries the z-fiber over (x - 1, y) to the column
    (x, y), shifted by y, where it meets [-h, h]: with h = (R - |x| - |y|)^2,
    h' = (R - |x - 1| - |y|)^2 and s = |y| the overlap is
    max(0, min(h, h' + s) + min(h, h' - s) + 1).  The columns x >= 1
    (u = x - 1) and x <= 0 (u = -x) have the heights (o^2, (o + 1)^2) and
    ((o + 1)^2, o^2), o = R - 1 - u - s >= 0, and both overlap in
    f(o, s) = 2 o^2 + 1 for s <= 2 o + 1, else max(0, 2 o^2 + 2 o + 2 - s).
    So the count is 2 sum_{o=0}^{R-1} sum_{s=0}^{R-1-o} w(s) f(o, s), with
    w(0) = 1 and w(s) = 2 (the two signs of y) otherwise, and each inner
    sum is two arithmetic series: the band s <= 2 o + 1 and the tail.
    """
    r, total = int(radius), 0
    for o in range(r):
        top = r - 1 - o  # the largest s of this o
        total += (2 * o * o + 1) * (2 * min(top, 2 * o + 1) + 1)
        c = 2 * o * o + 2 * o + 2
        lo, hi = 2 * o + 2, min(top, c - 1)  # the tail, where c - s > 0
        total += max(0, hi - lo + 1) * (2 * c - lo - hi)
    return 2 * total


def heis_worst_defects(n_min: int, n_max: int) -> list[tuple[int, float, int, float]]:
    """(n, eps_n, R_n, worst defect) for n = n_min..n_max: the gauge ball of
    radius R_n = floor(1/eps_n) and its worst defect over the generators
    (+-1, 0, 0) and (0, +-1, 0), that of (1, 0, 0).

    For any finite F and g, |F cap gF| = |F cap g^-1 F| (left translation
    by g^-1 carries one onto the other), and the inverses of (1, 0, 0) and
    (0, 1, 0) under (x, y, z)(x', y', z') = (x + x', y + y', z + z' + x y')
    are (-1, 0, 0) and (0, -1, 0), so the four counts are those of
    (1, 0, 0) and (0, 1, 0).  The gauge is symmetric in x and y, so
    swapping them maps the column pairs of one onto those of the other,
    fiber heights h and h' kept.  A (0, 1, 0) overlap is 2 min(h, h') + 1,
    both fibers centred; a (1, 0, 0) overlap shears the same two fibers,
    so it is at most that: the least count.
    """
    if not 2 <= n_min <= n_max:
        raise ValueError("need 2 <= n_min <= n_max")
    rows = []
    for n in range(n_min, n_max + 1):
        eps = _preset_eps(n)
        radius = int(1.0 / eps)
        total = HeisenbergModel().ball_count(radius)
        rows.append((n, eps, radius, 2 * (total - heis_generator_overlap(radius)) / total))
    return rows


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

    @property
    def model(self) -> ZkModel:
        return self.group

    def r(self, n: int) -> float:
        return float(n)

    def eps(self, n: int) -> float:
        return _preset_eps(n)

    def a_eps(self, n: int) -> float:
        e = self.eps(n)
        return e / (1.0 - e)

    def defect_budget(self, n: int) -> float:  # what worst_defects must stay under
        return self.eps(n)

    def half_side(self, n: int) -> int:
        return math.ceil(self.r(n) / self.eps(n))

    def rad(self, n: int) -> float:
        """Support reach of x F_n: the largest ell_1 distance from x to a
        point of the box x + [-M_n, M_n]^k.  The distance to x is convex on
        the box, so its maximum sits at a corner, and every corner lies at
        distance k M_n; the test oracles walk the corners."""
        return float(self.group.k * self.half_side(n))

    def size(self, n: int) -> int:
        return (2 * self.half_side(n) + 1) ** self.group.k

    def sample_pairs(self, n_pairs: int, max_dist: float, seed: int) -> list:
        return sample_zk_pairs(self.group, n_pairs, max_dist, seed)

    def _shifts(self, pairs, dtype=np.int64) -> np.ndarray:
        """|y_i - x_i| per pair (rows) and coordinate (columns)."""
        xy = np.array(pairs, dtype=dtype).reshape(len(pairs), 2, self.group.k)
        return np.abs(xy[:, 1] - xy[:, 0])

    def distances(self, pairs) -> np.ndarray:
        """The ell_1 separation of each pair."""
        return self._shifts(pairs).sum(axis=1).astype(float)

    def sym_diff_counts(self, pairs) -> np.ndarray:
        """|x F_n Delta y F_n| per pair (rows) and index n_min..n_max (columns);
        Python integers once a box reaches 2^53 points, so counts and their
        float conversions stay exact."""
        exact = np.int64 if self.size(self.n_max) < 1 << 53 else object
        shift = self._shifts(pairs, exact)
        cols = []
        for n in range(self.n_min, self.n_max + 1):
            inter = np.prod(np.maximum(2 * self.half_side(n) + 1 - shift, 0), axis=1)
            cols.append(2 * (self.size(n) - inter))
        return np.stack(cols, axis=1)

    def worst_defects(self, counts, d) -> dict[int, float]:
        """Exact worst translation defect per index over shifts up to r_n;
        the closed form covers every shift, so it ignores the pairs.

        The defect 2 (1 - |F cap gF| / |F|) grows as |F cap gF| =
        prod_i (m - |g_i|) shrinks, with m = 2 M + 1 > r >= |g_i| on the ball.
        Since (m - a)(m - b) >= m (m - a - b) for a, b >= 0, merging two
        coordinates of g into one never raises the product, so over the
        ell_1 ball of radius r it is smallest at the axis vector
        (r, 0, ..., 0).  Enumerating the ball stays as the test oracle.
        """
        return {n: box_defect(self.half_side(n), (int(self.r(n)),) + (0,) * (self.group.k - 1))
                for n in range(self.n_min, self.n_max + 1)}


@dataclass(frozen=True)
class TreeACollection:
    """Merging-ray segments A_n(t) of ceil(r_n / eps_n) vertices."""

    tree: TreeModel
    n_min: int = 2
    n_max: int = 20

    def __post_init__(self):
        if not 2 <= self.n_min <= self.n_max:
            raise ValueError("need 2 <= n_min <= n_max")

    @property
    def model(self) -> TreeModel:
        return self.tree

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

    def defect_budget(self, n: int) -> float:  # what worst_defects must stay under
        return self.a_eps(n)

    def size(self, n: int) -> int:
        return math.ceil(self.r(n) / self.eps(n))

    def rad(self, n: int) -> float:
        """Support reach of A_n(x): the segment is a path of s_n vertices
        starting at x, climbing to the ray and then out along it, and vertex
        j lies at graph distance j from x, so the reach is s_n - 1; the test
        oracles walk the segment."""
        return float(self.size(n) - 1)

    def sample_pairs(self, n_pairs: int, max_dist: float, seed: int) -> list:
        return sample_tree_pairs(self.tree, n_pairs, int(max_dist), seed)

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

    def distances(self, pairs) -> np.ndarray:
        """The graph distance of each pair."""
        lx, ly, _, _, cp = self._geometry(pairs)
        return (lx + ly - 2 * cp).astype(float)

    def sym_diff_counts(self, pairs) -> np.ndarray:
        """|A_n(x) Delta A_n(y)| per pair (rows) and index n_min..n_max (columns)."""
        geometry = self._geometry(pairs)
        return np.stack([self._sym_diff(geometry, self.size(n))
                         for n in range(self.n_min, self.n_max + 1)], axis=1)

    def a_defects(self, counts: np.ndarray) -> np.ndarray:
        """|A Delta B| / |A cap B| (+inf if disjoint) per pair and index,
        from the pairs' :meth:`sym_diff_counts`; both segments have s
        vertices, so |A cap B| = s - |A Delta B| / 2."""
        inter = np.array([self.size(n) for n in range(self.n_min, self.n_max + 1)]) - counts // 2
        return np.divide(counts, inter, out=np.full(counts.shape, math.inf), where=inter > 0)

    def worst_defects(self, counts: np.ndarray, d) -> dict[int, float]:
        """Worst |A Delta B| / |A cap B| per index over the pairs within
        r_n, from the pairs' :meth:`sym_diff_counts` and separations d."""
        ad = self.a_defects(counts)
        return {n: float(ad[d <= self.r(n), j].max(initial=0.0))
                for j, n in enumerate(range(self.n_min, self.n_max + 1))}

    def block_distance_pth(self, x, y, n: int, p: float) -> float:
        # segments share the size, so the equal-measure identity applies
        s = self.size(n)
        return int(self._sym_diff(self._geometry([(x, y)]), s)[0]) / s


def folner_system(group: str, n_min: int, n_max: int) -> ZkFolnerSystem | TreeACollection:
    """The set system of a named group over the indices n_min..n_max:
    ``"z<k>"`` names the boxes of Z^k and ``"tree"`` the ray segments of
    the binary tree.  Any other name raises ``ValueError``."""
    if group == "tree":
        return TreeACollection(TreeModel(), n_min=n_min, n_max=n_max)
    if group[:1] == "z" and group[1:].isdigit():
        return ZkFolnerSystem(ZkModel(int(group[1:])), n_min=n_min, n_max=n_max)
    raise ValueError(f"no set system for group {group!r}")


def defect_budget_check(sys, defects: dict[int, float],
                        scale: float = 1.0) -> tuple[int, float]:
    """(count, least slack) of the worst defects (``sys.worst_defects``) over
    ``sys.defect_budget(n) * scale``; a scale below 1 is a negative control."""
    budgets = {n: sys.defect_budget(n) * scale for n in defects}
    violations = sum(1 for n, v in defects.items() if v > budgets[n] * (1 + 1e-12))
    return violations, min(budgets[n] - v for n, v in defects.items())


def block_distances_pth(sys, counts: np.ndarray) -> np.ndarray:
    """block_distance_pth per pair (rows) and index n_min..n_max (columns),
    from the pairs' ``sys.sym_diff_counts``."""
    sizes = [sys.size(n) for n in range(sys.n_min, sys.n_max + 1)]
    return np.asarray(counts / np.array(sizes, dtype=counts.dtype), dtype=float)


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
    worst_margin: float  # min over checks of bound - value; negative = violated
    bound_scale: float

    def to_dict(self) -> dict:
        return asdict(self)


def _stream(seed: int, *key: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, *key))))


def _check_max_dist(max_dist) -> None:
    if not 1 <= max_dist < _MAX_DIST:
        raise ValueError(f"need a finite max_dist in [1, 2^62), got {max_dist:g}")


def sample_zk_pairs(group: ZkModel, n_pairs: int, max_dist: float,
                    seed: int) -> list[tuple[tuple, tuple]]:
    """Deterministic pairs (x, y) with log-uniform ell_1 separations
    1 <= d(x, y) <= max_dist, for a max_dist in [1, 2^62).

    The length is drawn log-uniformly in [1, max_dist], rounded, capped
    at floor(max_dist) and split across coordinates with random signs,
    so every scale up to max_dist sees traffic (a uniform box would leave
    the small schedule brackets empty).  Base points are uniform in
    [-1000, 1000]^k.  Each field is one row-major array draw from its own
    stream, keyed by (seed, 9, field): base points 0, lengths 1,
    multinomial splits 2, signs 3.  Row i of every draw is pair i, so the
    first m pairs of an n-pair draw are the m-pair draw.
    """
    _check_max_dist(max_dist)
    k = group.k
    x = _stream(seed, 9, 0).integers(-1000, 1001, size=(n_pairs, k))
    log_len = _stream(seed, 9, 1).uniform(0.0, math.log(max_dist), size=n_pairs)
    length = np.clip(np.rint(np.exp(log_len)), 1, math.floor(max_dist)).astype(np.int64)
    parts = _stream(seed, 9, 2).multinomial(length, np.full(k, 1.0 / k))
    signs = _stream(seed, 9, 3).choice((-1, 1), size=(n_pairs, k))
    y = x + signs * parts
    return [(tuple(a), tuple(b)) for a, b in zip(x.tolist(), y.tolist())]


def sample_tree_pairs(tree: TreeModel, n_pairs: int, max_dist: int,
                      seed: int) -> list[tuple[tuple, tuple]]:
    """Deterministic tree pairs at graph distance in [1, max_dist < 2^62].

    Pair i is a random walk: it starts at x, a node of uniform depth in
    [0, min(_TREE_BASE_DEPTH, depth)] with uniform labels, and takes a
    uniform number of steps in [1, max_dist], each to the parent or to a
    uniform child with probability 1/2 (always a child at the root, and
    the parent or nothing at the truncation depth).  y is where it ends,
    or a neighbour of x if it ends at x.

    Pairs come in blocks of _TREE_BLOCK walks, block j drawn from the
    stream keyed by (seed, 10, j).  A block's draws are always made for
    all its rows and the first rows are kept, so the first m pairs of an
    n-pair draw are the m-pair draw.
    """
    _check_max_dist(max_dist)
    out = []
    for block, start in enumerate(range(0, n_pairs, _TREE_BLOCK)):
        keep = min(_TREE_BLOCK, n_pairs - start)
        out += _tree_walks(tree, keep, max_dist, _stream(seed, 10, block))
    return out


def _tree_walks(tree: TreeModel, keep: int, max_dist: int,
                rng: np.random.Generator) -> list[tuple[tuple, tuple]]:
    """The first ``keep`` walks of one block, all advanced together.

    A walk's node is its depth plus a row of ``path`` whose first depth
    labels are the node.  A step writes its label at the slot above the
    top, which only a move to a child keeps, then moves the depth by the
    step's sign: |depth + sign| reflects at the root and the minimum with
    the truncation depth holds the walk there.  ``path`` is allocated
    once, as wide as the deepest node a walk can reach, and signs and
    labels are drawn in chunks of _TREE_CHUNK steps, so the draws do not
    grow with keep * max_dist.
    """
    b, cap = tree.branching, tree.depth
    base = min(_TREE_BASE_DEPTH, cap)
    d0 = rng.integers(0, base + 1, size=_TREE_BLOCK)[:keep]
    start = rng.integers(0, b, size=(_TREE_BLOCK, base))[:keep]
    steps = rng.integers(1, max_dist + 1, size=_TREE_BLOCK)[:keep]
    label_type = np.min_scalar_type(2 * b - 1)
    n_steps = int(steps.max())
    path = np.zeros((keep, min(base + n_steps, cap) + 1), dtype=label_type)
    path[:, :base] = start
    depth = d0.copy()
    rows = np.arange(keep)
    for t0 in range(0, n_steps, _TREE_CHUNK):
        # one draw per step: below b asks for the parent, and mod b is the label
        u = rng.integers(0, 2 * b, size=(_TREE_BLOCK, _TREE_CHUNK), dtype=label_type)[:keep]
        sign = np.where(u < b, -1, 1)
        sign[np.arange(t0, t0 + _TREE_CHUNK) >= steps[:, None]] = 0  # walk over
        sign, label = sign.T.copy(), (u % b).T.copy()
        for t in range(min(_TREE_CHUNK, n_steps - t0)):
            path[rows, depth] = label[t]
            depth += sign[t]
            np.abs(depth, out=depth)
            np.minimum(depth, cap, out=depth)
    out = []
    for i in range(keep):
        x = tuple(start[i, :d0[i]].tolist())
        y = tuple(path[i, :depth[i]].tolist())
        if y == x:
            y = x + (0,) if len(x) < cap else x[:-1]
        out.append((x, y))
    return out


def char_embedding_bound_check(sys, p, *, d, counts,
                               bound_scale: float = 1.0) -> CharBoundReport:
    """Verify ||phi_n(x) - phi_n(y)||_p^p <= 2 eps'_n on certified pairs.

    Each sampled pair is checked at every schedule index n with
    d(x, y) <= r_n, where ``d`` holds the pair separations d(x, y) and
    ``counts`` their ``sys.sym_diff_counts``, row for row.
    ``bound_scale``, in (0, 1], shrinks the bound for negative controls.
    The supports need no audit: ``sys.rad`` is their reach in closed form.
    """
    if not 1 <= p < math.inf:
        raise ValueError(f"characteristic-function blocks need a finite p >= 1, got {p}")
    if not 0 < bound_scale <= 1:
        raise ValueError(f"bound_scale must lie in (0, 1], got {bound_scale:g}")
    checks = violations = 0
    worst = math.inf
    d = np.asarray(d, dtype=float)
    vals = block_distances_pth(sys, counts)
    for j, n in enumerate(range(sys.n_min, sys.n_max + 1)):
        val = vals[d <= sys.r(n), j]
        if not val.size:
            continue
        bound = 2.0 * sys.a_eps(n) * bound_scale
        worst = float(np.fmin.reduce(bound - val, initial=worst))
        checks += val.size
        violations += int(np.count_nonzero(val > bound * (1.0 + _REL_TOL)))
    return CharBoundReport(
        model=sys.model.name, p=p, n_pairs=len(d), n_checks=checks, violations=violations,
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
        if not 1 <= self.p < math.inf:
            raise ValueError(f"group blocks need a finite p >= 1, got {self.p}")
        # the upper bound's largest term, 2^p times every block, must stay a
        # float with the audit's relative slack on top (2.0 ** 1024 raises)
        if self.p >= 1024 or 2.0 ** self.p * len(self.n_range) * (1.0 + _REL_TOL) == math.inf:
            raise ValueError(f"the upper bound's 2^p leaves the float range at p = {self.p:g}")

    @property
    def n_range(self) -> range:
        return range(self.sys.n_min, self.sys.n_max + 1)

    def image_distances_pth(self, counts: np.ndarray) -> np.ndarray:
        """||Phi(x) - Phi(y)||_p^p per pair from the pairs'
        ``sys.sym_diff_counts``: block distances summed in index order, so
        each entry rounds like the scalar sum over n."""
        acc = np.zeros(len(counts))
        for col in block_distances_pth(self.sys, counts).T:
            acc += col
        return acc

    def disjoint_step_count(self, d):
        """Blocks whose supports must be disjoint at distance d (2 rad(n) < d);
        d may be an array of separations."""
        return _count_below([2.0 * self.sys.rad(n) for n in self.n_range], d)

    def certified_lower_pth(self, d):
        # each disjoint block carries two unit masses: exactly 2 per block
        return 2.0 * self.disjoint_step_count(d)

    def coarse_step_count(self, d):
        """Blocks with r(n) < d; d may be an array of separations."""
        return _count_below([self.sys.r(n) for n in self.n_range], d)

    def tail_constant(self) -> float:
        """Sum over the blocks of min(2 eps'_n, 2).

        Each block bound is capped at 2: the blocks are indicators of
        equal-size sets, so ||phi_n(x) - phi_n(y)||_p^p = |A Delta B| / |A|
        <= 2.  The cap keeps the sum finite where 2 eps'_n is vacuous
        (+inf), as for the first tree segments, which are no longer than
        2 r_n.
        """
        return sum(min(2.0 * self.sys.a_eps(n), 2.0) for n in self.n_range)

    def certified_upper_pth(self, d):
        """2^p k + K with k the blocks below distance d and K the capped
        sum of the certified block bounds (:meth:`tail_constant`)."""
        return 2.0 ** self.p * self.coarse_step_count(d) + self.tail_constant()

    def bounds_check(self, d, image_pth, *, upper_scale: float = 1.0) -> dict:
        """Audit the certified bounds on ``image_pth``, the
        :meth:`image_distances_pth` of pairs at separations ``d``.  NaN
        margins are skipped in the minima."""
        d = np.asarray(d, dtype=float)
        val = np.asarray(image_pth, dtype=float)
        ub = self.certified_upper_pth(d) * upper_scale
        lb = self.certified_lower_pth(d)
        return {
            "n_pairs": int(d.size),
            "upper_violations": int(np.count_nonzero(val > ub * (1.0 + _REL_TOL))),
            "lower_violations": int(np.count_nonzero(val < lb * (1.0 - _REL_TOL))),
            "worst_upper_margin": float(np.fmin.reduce(ub - val, initial=math.inf)),
            "worst_lower_margin": float(np.fmin.reduce(val - lb, initial=math.inf)),
            "upper_scale": upper_scale,
        }


def _count_below(radii: list[float], d):
    """How many of ``radii`` lie strictly below each separation in d."""
    return np.searchsorted(np.sort(radii), d, side="left")


def glued_group_embedding(sys, model, p) -> GluedGroupEmbedding:
    return GluedGroupEmbedding(sys=sys, model=model, p=p)


# ---------------------------------------------------------------------------
# growth fit


def heisenberg_growth_fit(r_max: int = 20, r_min: int = 2) -> float:
    """Log-log slope of the gauge-ball volume over the radii r_min..r_max;
    ~4 for the lattice model.  The closed-form least squares of
    :func:`embedlab.moduli.loglog_fit`, in Python floats."""
    from .moduli import loglog_fit  # here, so verify --suite folner never loads moduli

    model = HeisenbergModel()
    rs = range(r_min, r_max + 1)
    return loglog_fit(rs, [model.ball_count(r) for r in rs])[0]
