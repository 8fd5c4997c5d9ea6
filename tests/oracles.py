"""Set enumerations and per-pair loops that the closed forms and array
audits of ``embedlab.amenable`` are checked against: the scalar group
laws and word metrics of Z^k and the Heisenberg group, the tree's graph
metric, node check and merging-ray segments walked vertex by vertex,
lattice and gauge balls, the gauge ball's volume as a fiber sum, box
Folner sets and their translates, the defect |F Delta gF| / |F| by
explicit translation and, for the gauge ball, from the fiber sum of any
translate (:func:`heis_intersection_count` over numpy slabs of columns,
:func:`heis_fiber_overlap` column by column in scalar arithmetic), which
the package's O(R) count of the generator (1, 0, 0) is checked against,
the symmetric
difference and block distance of one pair, the support reach of a box at
its 2^k corners and as a materialized box and of a tree segment vertex by
vertex (the closed form ``rad`` is checked against these), and the
glued-bound audit pair by pair.  The Mazur map is the package's signed
power on a checked copy (:func:`mazur_map`), and the Mazur grid audit of
``embedlab.mazur`` is checked against a loop over the cells on whole
arrays, with a fresh draw per exponent p and its sums by the package's
one power-sum kernel, and against the same loop with its sums by numpy's
pow and sum; its sampler against whole-array normalization.  The closed-form series residual of
``embedlab.gaussian`` is checked against a Poisson tail summed in
decimal arithmetic, its block kernel on random features against the
glued mass in textbook order in float64 and, on both backends, against
the kernel that took x and y rows through their own arrays, and the sliced kernel-mode
intervals of ``embedlab.glue`` against one whole-array evaluation by the
block transport :func:`sphere_block_interval`.  The schedules that
``embedlab.glue`` derives are checked against each preset's formulas
written out by hand (:func:`preset_formulas`), and the closed-form coarse
step count against the doubling search over the ranges
(:func:`coarse_step_count_search`).  The Hamming-cube distance rows of
``embedlab.finite_geometry`` are checked against the popcount of one
pair's XOR and against the dense distance matrix of the bit-matrix
product (:func:`bit_matrix`), and its closed-form distortion of the cube
identity against every pair of that matrix and of the images of the bit
rows, and its type-2 ratio of 1 against Enflo's diagonal/edge
certificate (:func:`enflo_type2_certificate`), which the tests also hold
to Enflo's inequality on Gaussian clouds and to the parallelogram
identity on linear maps; its closed-form probe audit of k-subsets
against the Gram matrix of the incidence rows of every subset.  The
moduli pair sampler of ``embedlab.moduli`` is checked against one fresh
generator per pair, and its closed-form log-log fit against
``np.polyfit``'s least squares.

Each enumerator refuses sets past ``MAX_SET_SIZE`` points.
"""

import collections
import decimal
import itertools
import math

import numpy as np

from embedlab.amenable import HeisenbergModel, ZkFolnerSystem, box_intersection_count
from embedlab import gaussian
from embedlab.finite_geometry import GkSpace
from embedlab.gaussian import SATURATION_LEVEL, RandomFeatures
from embedlab.glue import PowerLogSeq
from embedlab.mazur import _row_power_sums, _signed_power, mazur_constants
from embedlab.metric_core import distance_root

MAX_SET_SIZE = 1 << 20


def zk_mul(g, h):
    return tuple(a + b for a, b in zip(g, h))


def zk_inv(g):
    return tuple(-a for a in g)


def zk_gauge(g) -> int:
    """The ell_1 word length of g in Z^k."""
    return sum(abs(a) for a in g)


def zk_metric(g, h) -> float:
    """The ell_1 word distance of g^-1 h in Z^k."""
    return float(zk_gauge(zk_mul(zk_inv(g), h)))


def heis_mul(g, h):
    """(x,y,z)(x',y',z') = (x+x', y+y', z+z'+x y') in the integer Heisenberg group."""
    return (g[0] + h[0], g[1] + h[1], g[2] + h[2] + g[0] * h[1])


def heis_inv(g):
    return (-g[0], -g[1], -g[2] + g[0] * g[1])


def heis_gauge(g) -> int:
    """|x| + |y| + ceil(sqrt(|z|)), on integers."""
    z = abs(g[2])
    return abs(g[0]) + abs(g[1]) + (math.isqrt(z - 1) + 1 if z else 0)


def heis_metric(g, h) -> float:
    """The left-invariant gauge distance of g^-1 h."""
    return float(heis_gauge(heis_mul(heis_inv(g), h)))


def check_node(tree, x) -> None:
    """Refuse x unless it is a label path of the truncated ``tree``."""
    if len(x) > tree.depth or any(not 0 <= c < tree.branching for c in x):
        raise ValueError("node outside the truncated tree")


def _common_prefix(x, y) -> int:
    c = 0
    for a, b in zip(x, y):
        if a != b:
            break
        c += 1
    return c


def tree_metric(x, y) -> float:
    """The graph distance of two tree nodes: both climbs to their deepest
    common ancestor."""
    return float(len(x) + len(y) - 2 * _common_prefix(x, y))


def group_metric(model, x, y) -> float:
    """The word metric of a ``ZkModel`` or the graph metric of a ``TreeModel``."""
    return tree_metric(x, y) if model.name == "tree" else zk_metric(x, y)


def ray_segment(tree, x, n_vertices: int) -> tuple[tuple[int, ...], ...]:
    """First ``n_vertices`` vertices of the merging ray started at x, one by
    one: the ray climbs from x to its deepest all-zeros ancestor, then
    follows the designated all-zeros ray outward."""
    check_node(tree, x)
    z = tree.zeros_prefix(x)
    out = []
    for j in range(n_vertices):
        up = len(x) - j
        if up >= z:
            out.append(tuple(x[:up]))
        else:
            d = z + (j - (len(x) - z))  # back on the zeros ray, going out
            if d > tree.depth:
                raise ValueError("truncation depth insufficient for segment")
            out.append((0,) * d)
    return tuple(out)


def support_reach(sys, x, n: int) -> float:
    """Largest distance from x to a point of A_n(x): over the 2^k corners
    of the box x + [-M_n, M_n]^k (the distance to x is convex on the box),
    or over the vertices of the tree segment."""
    if isinstance(sys, ZkFolnerSystem):
        m = sys.half_side(n)
        return max(zk_metric(x, tuple(c + s * m for c, s in zip(x, signs)))
                   for signs in itertools.product((-1, 1), repeat=len(x)))
    return max(tree_metric(x, v) for v in ray_segment(sys.tree, x, sys.size(n)))


def zk_ball(model, radius: int) -> list[tuple[int, ...]]:
    """All points of Z^k with ell_1 norm <= radius."""
    r = int(radius)
    if (2 * r + 1) ** model.k > MAX_SET_SIZE:
        raise ValueError("ball too large to enumerate")
    return [p for p in itertools.product(range(-r, r + 1), repeat=model.k)
            if zk_gauge(p) <= r]


def heis_ball_count(radius: int) -> int:
    """|B(e, R)| by summing the z-fiber count over each |x| + |y| = a."""
    r = int(radius)
    total = 0
    for a in range(r + 1):
        n_xy = 1 if a == 0 else 4 * a
        c = r - a  # gauge budget left for the z part
        total += n_xy * (2 * c * c + 1)
    return total


def heis_ball(model, radius: int) -> list[tuple[int, int, int]]:
    """All points of the Heisenberg group with gauge <= radius."""
    r = int(radius)
    if model.ball_count(r) > MAX_SET_SIZE:
        raise ValueError("ball too large to enumerate")
    out = []
    for x in range(-r, r + 1):
        for y in range(-r + abs(x), r - abs(x) + 1):
            zmax = (r - abs(x) - abs(y)) ** 2
            out.extend((x, y, z) for z in range(-zmax, zmax + 1))
    return out


def heis_fiber_overlap(radius: int, g) -> int:
    """|B(R) cap gB(R)| column by column: over each (x, y) of the ball, the
    integer overlap of its z-fiber [-h, h], h = (R - |x| - |y|)^2, with the
    fiber that left translation by g = (a, b, c) carries there, that over
    (x - a, y - b) shifted by c + a (y - b)."""
    r = int(radius)
    a, b, c = g
    total = 0
    for x in range(-r, r + 1):
        for y in range(-r + abs(x), r - abs(x) + 1):
            moved = r - abs(x - a) - abs(y - b)
            if moved < 0:
                continue
            h, h_moved, shift = (r - abs(x) - abs(y)) ** 2, moved ** 2, c + a * (y - b)
            total += max(0, min(h, shift + h_moved) - max(-h, shift - h_moved) + 1)
    return total


HEIS_SLAB = 1 << 16  # grid points per vectorized slab of heis_intersection_count


def heis_intersection_count(radius: int, g) -> int:
    """|F cap gF| for the gauge ball F = B(R) and any g = (a, b, c), summed
    fiber by fiber over numpy slabs: the same column sum as
    :func:`heis_fiber_overlap`, O(R^2) terms, taken in slabs of x rows to
    bound the memory.  The package counts only g = (1, 0, 0), in closed
    form (``heis_generator_overlap``)."""
    r = int(radius)
    a, b, c = g
    y = np.arange(-r, r + 1)[None, :]
    rows = max(1, HEIS_SLAB // y.size)
    total = 0
    for x0 in range(-r, r + 1, rows):
        x = np.arange(x0, min(x0 + rows, r + 1))[:, None]
        own = r - np.abs(x) - np.abs(y)
        moved = r - np.abs(x - a) - np.abs(y - b)
        shift = c + a * (y - b)
        lo = np.maximum(-own ** 2, shift - moved ** 2)
        hi = np.minimum(own ** 2, shift + moved ** 2)
        overlap = np.maximum(hi - lo + 1, 0)
        total += int(overlap[(own >= 0) & (moved >= 0)].sum())
    return total


def folner_set(sys, n: int) -> set:
    """The box [-M_n, M_n]^k of a ``ZkFolnerSystem``."""
    m = sys.half_side(n)
    if sys.size(n) > MAX_SET_SIZE:
        raise ValueError("Folner set too large to materialize")
    return set(itertools.product(range(-m, m + 1), repeat=sys.group.k))


def set_at(sys, x, n: int) -> set:
    """A_n(x): the translate x F_n of a box, or the tree segment at x."""
    if isinstance(sys, ZkFolnerSystem):
        return {zk_mul(x, f) for f in folner_set(sys, n)}
    return set(ray_segment(sys.tree, x, sys.size(n)))


def folner_defect(F, g, group) -> float:
    """|F Delta gF| / |F| by explicit left translation in ``group``, a
    ``ZkModel`` or the ``HeisenbergModel``."""
    fs = set(F)
    if not fs:
        raise ValueError("empty set")
    mul = heis_mul if group.name == "heis" else zk_mul
    gf = {mul(g, f) for f in fs}
    return len(fs ^ gf) / len(fs)


def heis_defect(radius: int, g) -> float:
    """|F Delta gF| / |F| for the gauge ball F = B(R), from the closed-form
    volume and the slabbed intersection count, with no enumeration."""
    total = HeisenbergModel().ball_count(radius)
    return 2 * (total - heis_intersection_count(radius, g)) / total


def sym_diff_count(sys, x, y, n: int) -> int:
    """|A_n(x) Delta A_n(y)| of one pair: for boxes 2 (|F_n| - |F_n cap g
    F_n|) with g = x^-1 y, for tree segments by enumerating both."""
    if isinstance(sys, ZkFolnerSystem):
        g = zk_mul(zk_inv(x), y)
        return 2 * (sys.size(n) - box_intersection_count(sys.half_side(n), g))
    s = sys.size(n)
    return len(set(ray_segment(sys.tree, x, s)) ^ set(ray_segment(sys.tree, y, s)))


def block_distance_pth(sys, x, y, n: int) -> float:
    """||phi_n(x) - phi_n(y)||_p^p of one pair, |A Delta B| / |A| for
    every p: the sets have equal size."""
    return sym_diff_count(sys, x, y, n) / sys.size(n)


def zk_support_reach(sys, x, n: int) -> float:
    """Largest ell_1 distance from x to the box x + [-M_n, M_n]^k, built as
    one integer array: the check of :func:`support_reach`'s corner walk."""
    if sys.size(n) > MAX_SET_SIZE:
        raise ValueError("Folner set too large to materialize")
    m = sys.half_side(n)
    box = np.stack(np.meshgrid(*(np.arange(c - m, c + m + 1) for c in x), indexing="ij"), -1)
    return float(np.abs(box - np.asarray(x)).sum(axis=-1).max())


def bounds_check_per_pair(emb, pairs, image_pth, upper_scale: float = 1.0) -> dict:
    """``GluedGroupEmbedding.bounds_check`` as a Python loop over pairs: the
    separation from the model metric, the step counts as sums over the
    index range, and the margins reduced by ``min``."""
    tail = sum(min(2.0 * emb.sys.a_eps(n), 2.0) for n in emb.n_range)
    upper_viol = lower_viol = 0
    worst_upper = worst_lower = math.inf
    for (x, y), val in zip(pairs, np.asarray(image_pth).tolist()):
        d = group_metric(emb.model, x, y)
        ub = (2.0 ** emb.p * sum(1 for n in emb.n_range if emb.sys.r(n) < d) + tail) * upper_scale
        lb = 2.0 * sum(1 for n in emb.n_range if d > 2.0 * emb.sys.rad(n))
        worst_upper = min(worst_upper, ub - val)
        worst_lower = min(worst_lower, val - lb)
        if val > ub * (1.0 + 1e-9):
            upper_viol += 1
        if val < lb * (1.0 - 1e-9):
            lower_viol += 1
    return {"n_pairs": len(pairs), "upper_violations": upper_viol,
            "lower_violations": lower_viol, "worst_upper_margin": worst_upper,
            "worst_lower_margin": worst_lower, "upper_scale": upper_scale}


def l2_sphere_pairs(samples: int, dim: int, seed: int):
    """Pairs on the unit sphere of l_2^dim on whole arrays, a quarter of
    them made close: Gaussian x rows, far y rows, near-pair scales and
    near-pair steps, each from its own Philox stream keyed (seed, 105, k),
    every row normalized in l_2."""
    xs, far, scales, steps = (np.random.Generator(np.random.Philox(
        np.random.SeedSequence((seed, 105, k)))) for k in range(4))
    n_near = samples // 4
    x = xs.standard_normal((samples, dim))
    x2 = x / np.linalg.norm(x, axis=1, keepdims=True)
    scale = np.exp(scales.uniform(math.log(1e-6), math.log(1e-1), size=(n_near, 1)))
    y = np.concatenate([x2[:n_near] + scale * steps.standard_normal((n_near, dim)),
                        far.standard_normal((samples - n_near, dim))])
    return x2, y / np.linalg.norm(y, axis=1, keepdims=True)


def bit_matrix(m: int) -> np.ndarray:
    """(2^m, m) 0/1 matrix; row u holds the bits of vertex u, low bit first."""
    if 1 << m > MAX_SET_SIZE:
        raise ValueError(f"2^{m} vertices exceed MAX_SET_SIZE")
    u = np.arange(1 << m, dtype=np.int64)
    return ((u[:, None] >> np.arange(m)) & 1).astype(np.float64)


TypeTwoCertificate = collections.namedtuple(
    "TypeTwoCertificate", "diagonal_sum edge_sum ratio degenerate")


def enflo_type2_certificate(f, m: int) -> TypeTwoCertificate:
    """Compare antipodal-diagonal and edge energies of f on {0,1}^m.

    ``f`` is an array of shape (2^m, d) whose row u is the image of the
    bitmask vertex u.  For maps into Euclidean space the ratio never
    exceeds 1 (Enflo's inequality); linear maps meet it exactly (the
    parallelogram identity), the identity coordinates among them.
    """
    n = 1 << m
    imgs = np.asarray(f, dtype=float)
    if imgs.ndim == 1:
        imgs = imgs[:, None]
    if imgs.shape[0] != n:
        raise ValueError("map must be defined on all 2^m vertices")
    if not np.all(np.isfinite(imgs)):
        raise ValueError("map contains non-finite values")
    half = np.arange(n // 2)
    diag = float(np.sum((imgs[half] - imgs[half ^ (n - 1)]) ** 2))
    edge = 0.0
    for j in range(m):
        lo = np.flatnonzero((np.arange(n) >> j) & 1 == 0)
        edge += float(np.sum((imgs[lo] - imgs[lo | (1 << j)]) ** 2))
    if edge == 0.0:
        return TypeTwoCertificate(diag, 0.0, 0.0, True)
    return TypeTwoCertificate(diag, edge, diag / edge, False)


def cube_distance_matrix(cube) -> np.ndarray:
    """Dense (2^m, 2^m) matrix of the cube's d_p distances from the bit
    matrix: popcount(u xor v) = b_u . (1 - b_v) + b_v . (1 - b_u)."""
    b = bit_matrix(cube.m)
    ham = b @ (1.0 - b).T
    ham += ham.T  # exact integers in float64
    return ham ** (1.0 / distance_root(cube.p))


def dense_distortion(f, cube) -> float:
    """(max image/domain ratio) * (max domain/image ratio) over all pairs
    of the cube's vertices on whole arrays: the images of the bit rows,
    their (n, n, d) difference array, and the upper-triangle pairs of it
    and of :func:`cube_distance_matrix`."""
    dom = cube_distance_matrix(cube)
    imgs = np.asarray([np.asarray(f(b), dtype=float) for b in bit_matrix(cube.m)])
    diff = imgs[:, None, :] - imgs[None, :, :]
    im = np.sqrt(np.sum(diff ** 2, axis=2))
    iu = np.triu_indices(len(imgs), k=1)
    dom_u, im_u = dom[iu], im[iu]
    if np.any(im_u <= 0):
        raise ValueError("map is not injective on the cube (zero image distance)")
    return float(np.max(im_u / dom_u) * np.max(dom_u / im_u))


def cube_distance(u: int, v: int, cube) -> float:
    """d_p between two vertices of ``cube`` given as bitmasks."""
    n = 1 << cube.m
    if not (0 <= u < n and 0 <= v < n):
        raise ValueError("vertex masks out of range")
    h = (u ^ v).bit_count()
    if cube.p <= 1:
        return float(h)
    return h ** (1.0 / cube.p) if h else 0.0


def poisson_tail(n: int, lam: float) -> float:
    """Pr[Poisson(lam) >= n] summed term by term in 60-digit decimals."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        x = decimal.Decimal(lam)
        term = (-x).exp()
        for j in range(1, n):
            term = term * x / j
        total = decimal.Decimal(0)
        j = n
        while True:
            term = term * x / j
            total += term
            if j > lam and term <= total * decimal.Decimal("1e-40"):
                return float(total)
            j += 1


def mazur_map(x, p: float, q: float) -> np.ndarray:
    """The (p, q) Mazur map sgn(x_i) |x_i|^(p/q) of a copy of ``x``, by the
    package's signed power; refuses exponents outside (0, inf) and
    non-finite entries.  Sends the unit sphere of l_p to the unit sphere
    of l_q exactly: sum |Mx_i|^q = sum |x_i|^p."""
    if not (0 < p < math.inf and 0 < q < math.inf):
        raise ValueError(f"exponents must be finite and positive, got p={p}, q={q}")
    xa = np.array(x, dtype=float)  # a copy: the signed power consumes it
    if not np.all(np.isfinite(xa)):
        raise ValueError("input contains non-finite entries")
    return _signed_power(xa, p / q)[()]


def power_sums(h, q: float) -> np.ndarray:
    """sum_i |h_i|^q per row by the package's one q-th power-sum kernel
    (``mazur._row_power_sums``), on a copy of ``h``."""
    h = np.array(h, dtype=float)
    return _row_power_sums(h, q, np.empty_like(h))


def textbook_power_sums(h, q: float) -> np.ndarray:
    """sum_i |h_i|^q per row by numpy's pow and pairwise sum."""
    return np.sum(np.abs(h) ** q, axis=1)


def mazur_cell_bounds(x, y, consts, upper_scale: float = 1.0, *, sums=power_sums
                      ) -> tuple[int, float]:
    """Violations and worst relative margin of both certified power-sum
    inequalities on whole arrays of l_p sphere pairs, every power sum
    taken by ``sums``."""
    p, q = consts.p, consts.q
    s_p = sums(x - y, p)
    s_mq = sums(mazur_map(x, p, q) - mazur_map(y, p, q), q)
    lower_bound = consts.c_lower * np.power(s_p, consts.lower_exponent)
    upper_bound = consts.c_upper * upper_scale * np.power(s_p, consts.upper_exponent)
    nz = s_p > 0
    scale = np.maximum(s_mq, 1e-300)
    lower_margin = np.where(nz, (s_mq - lower_bound) / scale, 0.0)
    upper_margin = np.where(nz, (upper_bound - s_mq) / scale, 0.0)
    violations = int(np.sum(lower_margin < 0) + np.sum(upper_margin < 0))
    return violations, float(min(lower_margin.min(), upper_margin.min()))


def mazur_grid_audit(grid, samples: int, dim: int, seed: int,
                     upper_scale: float = 1.0, *, sums=power_sums) -> dict:
    """``mazur.audit_sphere_pairs`` on fresh draws as a loop over p, then q,
    on whole arrays: a draw per p, every map recomputed per cell, every
    power sum taken by ``sums`` (the shared kernel, or numpy's pow and sum
    with :func:`textbook_power_sums`)."""
    cells = []
    total = 0
    worst = math.inf
    sphere_dev = invol_dev = 0.0
    for p in grid:
        x2, y2 = l2_sphere_pairs(samples, dim, seed)
        x, y = mazur_map(x2, 2.0, p), mazur_map(y2, 2.0, p)
        for q in grid:
            mx = mazur_map(x, p, q)
            s_dev = float(np.max(np.abs(np.power(sums(mx, q), 1.0 / q) - 1.0)))
            i_dev = float(np.max(np.abs(mazur_map(mx, q, p) - x)))
            sphere_dev = max(sphere_dev, s_dev)
            invol_dev = max(invol_dev, i_dev)
            cell = {"p": p, "q": q, "sphere_deviation": s_dev,
                    "involution_deviation": i_dev}
            bad = int(s_dev > 1e-12) + int(i_dev > 1e-12)
            if p != q:
                viol, margin = mazur_cell_bounds(x, y, mazur_constants(p, q), upper_scale,
                                                 sums=sums)
                worst = min(worst, margin)
                cell["worst_margin"] = margin
                bad += viol
            cell["violations"] = bad
            total += bad
            cells.append(cell)
    return {"violations": total, "worst_margin": worst,
            "max_sphere_deviation": sphere_dev,
            "max_involution_deviation": invol_dev, "cells": cells}


def rff_coordinates(X, backend) -> np.ndarray:
    """Unit-normalised random features of the rows of X, in float64: the
    table from Philox((*seed, dim)) (frequencies, then phases), the
    features cos(w.x + b), each row divided by its norm."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    dim = X.shape[1]
    seed = backend.seed if isinstance(backend.seed, tuple) else (backend.seed,)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed + (dim,))))
    w = rng.normal(0.0, math.sqrt(2.0 * backend.r), size=(dim, backend.n_features))
    b = rng.uniform(0.0, 2.0 * math.pi, size=backend.n_features)
    z = np.cos(X @ w + b)
    return z / np.linalg.norm(z, axis=1, keepdims=True)


def rff_block_mass(X, Y, backends, q: float) -> np.ndarray:
    """The glued mass of paired rows over random-feature ``backends``, in
    float64 and textbook order: per block, the normalised features of
    :func:`rff_coordinates`, then the signed power 2/q, then
    sum_i |phi(x)_i - phi(y)_i|^q; the blocks added up."""
    mass = np.zeros(len(np.atleast_2d(X)))
    for be in backends:
        side = [np.sign(z) * np.abs(z) ** (2.0 / q)
                for z in (rff_coordinates(X, be), rff_coordinates(Y, be))]
        mass += np.sum(np.abs(side[0] - side[1]) ** q, axis=1)
    return mass


def per_side_block_mass(X, Y, backends, q: float) -> np.ndarray:
    """The block kernel of ``embedlab.gaussian.block_mass`` as it ran before
    its tiles stacked x over y, in one tile of all the pairs: per block,
    the x rows' coordinates into one (pairs x coordinates) array and their
    signed power 2/q into a second, the y rows' coordinates through the
    first into a third, the y images scaled by (n_x / n_y)^(2/q), the
    difference into the second, and its q-th power sum, with the third as
    spare, over n_x^2, added per row in float64.  Three scratch arrays and
    a feature product per side."""
    X, Y = np.atleast_2d(X), np.atleast_2d(Y)
    backends = tuple(backends)
    dtype, cdt = gaussian._plan(X, backends)[:2]
    n, dim = X.shape
    x1, y1 = np.ones((2, n, dim + 1), dtype=dtype)
    x1[:, :-1], y1[:, :-1] = X, Y
    total = np.zeros(n)
    for backend in backends:
        wb = (gaussian._rff_table(backend.r, backend.n_features, backend.seed, dim, dtype)
              if isinstance(backend, RandomFeatures) else None)
        coords, px, py = np.empty((3, n, gaussian._width(backend)), dtype=cdt)
        coords, n2x = gaussian._block_coordinates(x1, backend, wb, coords)
        px = _signed_power(coords, 2.0 / q, out=px)
        coords, n2y = gaussian._block_coordinates(y1, backend, wb, coords)
        py = _signed_power(coords, 2.0 / q, out=py)
        py *= (np.divide(n2x, n2y, dtype=float) ** (1.0 / q)).astype(py.dtype)[:, None]
        h = np.subtract(px, py, out=px)
        total += np.divide(_row_power_sums(h, q, spare=py), n2x, dtype=float)
    return total


def rff_glued_distance(e, X, Y) -> np.ndarray:
    """:func:`rff_block_mass` over the blocks of the glued embedding ``e``,
    block n at bandwidth r_n with seed (base_seed, n), taken to the
    distance root of its q."""
    fam, q = e.family, e.schedule.q
    backends = [RandomFeatures(float(r), fam.n_features, (fam.base_seed, int(n)))
                for n, r in zip(e.block_ids, e.bandwidths)]
    return rff_block_mass(X, Y, backends, q) ** (1.0 / distance_root(q))


def sphere_block_interval(D, q: float):
    """Certified [lower, upper] block distance for unit-sphere pairs at l_2
    distance D: both ends c D^e of the transport constants of q."""
    c_lo, e_lo, c_hi, e_hi = gaussian._transport_constants(q)
    D = np.asarray(D, dtype=float)
    return c_lo * D ** e_lo, c_hi * D ** e_hi


def branch_exponents(q: float) -> tuple[float, float]:
    """(gamma_q, xi_q) by regime: (1/q, 1/2) for q >= 2, (1/2, 1/q) for
    1 <= q < 2 and (q/2, 1) for q < 1."""
    if q <= 0:
        raise ValueError("q must be positive")
    if q >= 2:
        return 1.0 / q, 0.5
    if q >= 1:
        return 0.5, 1.0 / q
    return q / 2.0, 1.0


def preset_formulas(name: str, q: float | None = None, beta: float | None = None,
                    nu: float | None = None) -> dict:
    """A preset schedule's attributes by hand: the bandwidths, thresholds
    and budgets of each preset written out, the exponents of
    :func:`branch_exponents`, the block floor delta_q by
    :func:`sphere_block_interval` at the saturation level, and the
    multipliers.  ``coarse_l2`` has no compression budget, shapes or
    mu_mult."""
    def eta(q):
        return float(sphere_block_interval(math.sqrt(SATURATION_LEVEL), q)[0])

    if name == "coarse_l2":
        return {"r_seq": PowerLogSeq(1.0, 1.0, 0.0, n_min=1),
                "eps_seq": PowerLogSeq(1.0, -nu, 0.0, n_min=1),
                "s_seq": PowerLogSeq(1.0, 1.0 + nu, 0.0, n_min=1),
                "mu_seq": None, "eta": eta(2.0), "eps_mult": math.sqrt(2.0), "n0": 1}
    if name == "warmup_l2":
        q = 2.0
    gamma_q, xi_q = branch_exponents(q)
    c_lo, _, c_hi, _ = gaussian._transport_constants(q)
    if name in ("warmup_l2", "strong_qge2"):
        r_seq = PowerLogSeq(1.0, -1.0, -beta)
        s_seq = PowerLogSeq(1.0, 0.5, beta / 2.0)
    elif name == "strong_1leqle2":
        r_seq = PowerLogSeq(1.0, -2.0 / q, -2.0 * beta / q)
        s_seq = PowerLogSeq(1.0, 1.0 / q, beta / q)
    else:
        r_seq = PowerLogSeq(1.0, -2.0 / q ** 2, -2.0 * beta / q ** 2)
        s_seq = PowerLogSeq(1.0, 1.0 / q ** 2, beta / q ** 2)
    return {"r_seq": r_seq, "s_seq": s_seq,
            "eps_seq": PowerLogSeq(1.0, r_seq.n_pow * gamma_q, r_seq.log_pow * gamma_q),
            "mu_seq": PowerLogSeq(1.0, r_seq.n_pow * xi_q, r_seq.log_pow * xi_q),
            "eta": eta(q), "gamma": 2.0 * gamma_q, "xi": 2.0 * xi_q,
            "eps_mult": c_hi * 2.0 ** gamma_q, "mu_mult": c_lo * (2.0 / math.e) ** xi_q,
            "n0": 2}


def coarse_step_count_search(schedule, d) -> np.ndarray:
    """#{n >= n0 : r_n <= d} by a doubling search for the first range past
    max(d), then ``searchsorted`` over the ranges up to it."""
    d = np.atleast_1d(d)
    hi = float(np.max(d))
    n_max = schedule.n0 + 4
    while float(schedule.r(n_max)) <= hi:
        n_max *= 2
        if n_max > 10 ** 9:
            raise ValueError("coarse range sequence grows too slowly for these distances")
    ns = np.arange(schedule.n0, n_max + 1)
    r_vals = np.asarray(schedule.r(ns), dtype=float)
    return np.searchsorted(r_vals, d, side="right")


def glued_mass_interval(e, d) -> tuple[np.ndarray, np.ndarray]:
    """The kernel-mode power-mass interval of the glued embedding ``e`` at
    the separations ``d`` in one whole-array pass: the psi distance
    sqrt(2 (1 - e^(-r d^2))) of every (separation, block) pair, both ends
    transported by ``sphere_block_interval``, their m-th powers summed
    over the blocks."""
    d = np.atleast_1d(np.asarray(d, dtype=float))
    m = distance_root(e.schedule.q)
    D = np.sqrt(2.0 * -np.expm1(-e.bandwidths[None, :] * d[:, None] ** 2))
    lo, hi = sphere_block_interval(D, e.schedule.q)
    return (lo ** m).sum(axis=1), (hi ** m).sum(axis=1)


def glued_interval(e, d) -> tuple[np.ndarray, np.ndarray]:
    """:func:`glued_mass_interval` taken to the root 1/m: the kernel-mode
    distance interval in one whole-array pass."""
    m = distance_root(e.schedule.q)
    lo, hi = glued_mass_interval(e, d)
    return lo ** (1.0 / m), hi ** (1.0 / m)


def pair_sample_loop(sampler, n_pairs: int, seed: int):
    """The moduli pair stream drawn pair by pair as the textbook loop:
    a fresh generator on Philox(SeedSequence((seed, i))) for pair i, a
    Gaussian base point, a Gaussian direction normalised by
    ``np.linalg.norm``, then a log-uniform separation."""
    X = np.empty((n_pairs, sampler.dim))
    Y = np.empty((n_pairs, sampler.dim))
    t = np.empty(n_pairs)
    log_ratio = math.log(sampler.t_max / sampler.t_min)
    for i in range(n_pairs):
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, i))))
        base = rng.normal(0.0, 1.0, size=sampler.dim)
        direction = rng.normal(size=sampler.dim)
        direction /= np.linalg.norm(direction)
        t[i] = sampler.t_min * math.exp(rng.uniform() * log_ratio)
        X[i] = base
        Y[i] = base + t[i] * direction
    return X, Y, t


def polyfit_loglog(xs, ys) -> tuple[float, float, float]:
    """(slope, intercept, residual RMS) of the line through (log x, log y)
    by ``np.polyfit``, which solves the least squares through LAPACK."""
    lx, ly = np.log(xs), np.log(ys)
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    return float(slope), float(intercept), float(np.sqrt(np.mean(resid ** 2)))


def gk_elements(space) -> list[tuple[int, ...]]:
    """The k-subsets of {1..ground} of a ``GkSpace`` as sorted tuples, in
    lexicographic order."""
    return list(itertools.combinations(range(1, space.ground + 1), space.k))


def gk_incidence_matrix(space) -> np.ndarray:
    """(C(n,k), n) 0/1 float64 incidence matrix of G(k, n), in the order of
    :func:`gk_elements`: row u is the probe image of u, the sum of the
    basis vectors it indexes."""
    els = gk_elements(space)
    mat = np.zeros((len(els), space.ground))
    for i, e in enumerate(els):
        mat[i, np.asarray(e) - 1] = 1.0
    return mat


def gk_probe_audit(k: int, ground: int, p, lipschitz_factor: float = 2.0) -> dict:
    """The probe audit over the whole Gram matrix of the incidence rows:
    |A Delta B| = 2 (k - |A cap B|) for every pair u < v at once."""
    mat = gk_incidence_matrix(GkSpace(k, ground))
    sym = 2.0 * (k - mat @ mat.T)[np.triu_indices(len(mat), k=1)]
    image = sym ** (1.0 / distance_root(p))
    ratio = image / (sym / 2.0)
    return {"n_pairs": int(sym.size),
            "max_ratio": float(ratio.max()) if ratio.size else 0.0,
            "min_nonzero_image": float(image.min()) if image.size else math.inf,
            "lipschitz_violations": int(np.sum(ratio > lipschitz_factor * (1.0 + 1e-12))),
            "discreteness_violations": int(np.sum(image < 1.0 - 1e-12))}
