"""Set enumerations and per-pair loops that the closed forms and array
audits of ``embedlab.amenable`` are checked against: lattice and gauge
balls, box Folner sets and their translates, the defect |F Delta gF| / |F|
by explicit translation, the support reach of a materialized box, and the
glued-bound audit pair by pair.

Each enumerator refuses sets past ``MAX_SET_SIZE`` points.
"""

import itertools
import math

import numpy as np

from embedlab.amenable import ZkFolnerSystem

MAX_SET_SIZE = 1 << 20


def zk_ball(model, radius: int) -> list[tuple[int, ...]]:
    """All points of Z^k with ell_1 norm <= radius."""
    r = int(radius)
    if (2 * r + 1) ** model.k > MAX_SET_SIZE:
        raise ValueError("ball too large to enumerate")
    return [p for p in itertools.product(range(-r, r + 1), repeat=model.k)
            if sum(abs(c) for c in p) <= r]


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


def folner_set(sys, n: int) -> set:
    """The box [-M_n, M_n]^k of a ``ZkFolnerSystem``."""
    m = sys.half_side(n)
    if sys.size(n) > MAX_SET_SIZE:
        raise ValueError("Folner set too large to materialize")
    return set(itertools.product(range(-m, m + 1), repeat=sys.group.k))


def set_at(sys, x, n: int) -> set:
    """A_n(x): the translate x F_n of a box, or the tree segment at x."""
    if isinstance(sys, ZkFolnerSystem):
        return {sys.group.mul(x, f) for f in folner_set(sys, n)}
    return set(sys.set_at(x, n))


def folner_defect(F, g, group) -> float:
    """|F Delta gF| / |F| by explicit left translation."""
    fs = set(F)
    if not fs:
        raise ValueError("empty set")
    gf = {group.mul(g, f) for f in fs}
    return len(fs ^ gf) / len(fs)


def zk_support_reach(sys, x, n: int) -> float:
    """Largest ell_1 distance from x to the box x + [-M_n, M_n]^k, built as
    one integer array."""
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
        d = emb.model.metric(x, y)
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
