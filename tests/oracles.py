"""Set enumerations that the closed forms of ``embedlab.amenable`` are
checked against: lattice and gauge balls, box Folner sets and their
translates, and the defect |F Delta gF| / |F| by explicit translation.

Each enumerator refuses sets past ``amenable.MAX_SET_SIZE`` points.
"""

import itertools

from embedlab.amenable import MAX_SET_SIZE, ZkFolnerSystem


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
