"""Gluing countably many fundamental block maps into one embedding.

A *schedule* is the bookkeeping for the glued map
``phi(x) = (phi_n(x) - phi_n(0))_n`` into an l_q-sum of block targets (the
base point cancels in every distance, so only differences are computed):

* ``r_n``  -- block scale (strong schedules: the Gaussian bandwidth,
  decreasing; coarse schedules: the range radius r_n = n, with bandwidth
  ``(eps_n / r_n)^2``),
* ``eps_n`` -- expansion budget of block n,
* ``mu_n``  -- compression budget of block n at small separations,
* ``s_n``   -- activation threshold: block n's distance is at least
  ``eta`` once the separation reaches s_n,
* ``gamma`` / ``xi`` -- the exponents of d in the shared expansion /
  compression shapes ``d^gamma`` and ``d^xi``.

A preset chooses only q, beta or nu, and r_n; :class:`ParamSchedule`
derives the rest from r_n and the transport constants of q.  The budgets
keep their plain power-log form, and the *certified* per-block bounds
carry an extra multiplier (``eps_mult`` / ``mu_mult``) absorbing the
exact transport constants: the sqrt(2) from ``1 - e^{-u} <= u``, the 1/e
from ``1 - e^{-u} >= u/e`` on u <= 1, and the signed-power sphere
constants.  All claims audited by
:func:`per_pair_bounds_check` use the certified budgets, so a zero
violation count is an exact statement about the maps as built, with no
asymptotic slack hiding in a constant.

Writing Q = Delta^m for the glued power mass, with m = max(q, 1) the
distance root of :func:`~embedlab.metric_core.distance_root` (Q = Delta
itself for q <= 1, where the metric is already a power sum; in kernel
mode the certified interval :meth:`GluedEmbedding.mass_interval`), the
audited per-pair claims are:

* strong upper:   ``Q <= (sum_n ceps_n^m) * d^(gamma*m)``
* step lower:     ``Q >= k * eta^m`` where k blocks have ``s_n <= d``
* small-distance: ``Q >= (sum_n cmu_n^m) * d^(xi*m)`` on the region
  ``max_n r_n * d^2 <= 1`` where the 1/e envelope is valid
* coarse upper:   ``Q <= 2^m * k + K`` for ``r_k <= d``, K the full
  certified budget mass
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import gaussian
from .gaussian import (
    RandomFeatures,
    TruncatedExp,
    block_mass,
    delta_q,
    moduli_exponents,
    psi_distance_exact,
    _plan,
    _transport_constants,
)
from .metric_core import distance_root

__all__ = [
    "PowerLogSeq",
    "ParamSchedule",
    "preset_schedule",
    "GaussianBlockFamily",
    "GluedEmbedding",
    "glue",
    "per_pair_bounds_check",
    "GluingCheckReport",
]


@dataclass(frozen=True)
class PowerLogSeq:
    """n -> coef * n^n_pow * ln(n)^log_pow, defined for n >= n_min."""

    coef: float
    n_pow: float
    log_pow: float
    n_min: int = 2

    def __post_init__(self) -> None:
        if self.coef <= 0:
            raise ValueError("coefficient must be positive")
        if self.log_pow != 0 and self.n_min < 2:
            raise ValueError("log powers need n_min >= 2 (log 1 = 0 degenerates)")

    def value(self, n) -> np.ndarray:
        n = np.asarray(n, dtype=float)
        if np.any(n < self.n_min):
            raise ValueError(f"sequence defined for n >= {self.n_min}")
        out = self.coef * n ** self.n_pow
        if self.log_pow != 0:
            out = out * np.log(n) ** self.log_pow
        return out

    def power_tail(self, power: float, n_last: int) -> float:
        """Certified upper bound on sum_{n > n_last} value(n)^power.

        Integral comparison for the eventually decreasing summand
        x^{-a} ln(x)^{-b} with a = -power * n_pow, b = -power * log_pow;
        raises if the series diverges or its log factor grows (b < 0,
        which no preset's budgets have).
        """
        if n_last < max(self.n_min, 2):
            raise ValueError("tail start must be at or beyond the first index")
        a = -power * self.n_pow
        b = -power * self.log_pow
        c = self.coef ** power
        ln_n = math.log(n_last)
        if a > 1 and b >= 0:
            return c * n_last ** (1.0 - a) * ln_n ** (-b) / (a - 1.0)
        if a > 1 and b < 0:
            raise ValueError("no certified tail for a growing log factor")
        if a == 1 and b > 1:
            return c * ln_n ** (1.0 - b) / (b - 1.0)
        raise ValueError(f"sum of value(n)^{power} diverges (a={a}, b={b})")


# Terms summed exactly before the certified tail takes over in the full
# budget mass (:meth:`ParamSchedule.eps_mass_total`).
_MASS_TERMS = 10_000

# Relative float slack of the per-pair audit comparisons.
_REL_TOL = 1e-9


@dataclass(frozen=True)
class ParamSchedule:
    """A gluing schedule: what its preset chooses, and what follows from it.

    A schedule is given its name, q, kind and block scales r_n, and the
    exponent of its budgets: ``beta`` for a strong schedule, whose budgets
    r_n^gamma_q must be (n ln^beta n)^(-1/q), ``nu`` for a coarse one,
    whose budgets are n^-nu.  The rest is derived once from r_n and the
    transport constants (c_lo, e_lo, c_hi, e_hi) of q, with (gamma_q,
    xi_q) = (e_hi, e_lo) / 2 (:func:`moduli_exponents`): the budgets
    ``eps_seq`` and, strong only, ``mu_seq`` = r_n^xi_q; the thresholds
    ``s_seq`` = b_n^(-1/2) of the bandwidths b_n, the saturation rule
    b_n s_n^2 = 1 of the step claim (r_n^(-1/2) strong, r_n / eps_n
    coarse); the shapes ``gamma`` = 2 gamma_q and ``xi`` = 2 xi_q; the
    floor ``eta`` = delta_q; the multipliers ``eps_mult`` = c_hi 2^gamma_q
    (sqrt(2) at q = 2) and ``mu_mult`` = c_lo (2/e)^xi_q; and ``n0``, the
    first index of r_n.

    Budget tails come from the construction, not from products of rounded
    exponents: a strong eps_n^p is (n ln^beta n)^(-p/q), whose tail takes
    the exponents (p/q, (p/q) beta), (1, beta) at p = q; a coarse one is
    n^(-p nu).

    No r_n is evaluated here; the shapes of r_n are proofs, not probes.  A
    strong schedule's budget form puts r_n = (n ln^beta n)^(-1/(q gamma_q))
    with gamma_q > 0 and beta > 1 (else its tail diverges), so both
    exponents of r_n are negative and its r_n decrease from n = 2 on.  A
    coarse schedule needs the ranges r_n = n, so its step count past d is
    the closed form of :func:`_coarse_step_count`.  Whether the r_n of the
    realized blocks stay in the float range is checked where they are
    realized, by :class:`GluedEmbedding`.
    """

    name: str
    q: float
    kind: str                      # "strong" | "coarse"
    r_seq: PowerLogSeq
    beta: float | None = None
    nu: float | None = None
    eps_seq: PowerLogSeq = field(init=False)
    mu_seq: PowerLogSeq | None = field(init=False)
    s_seq: PowerLogSeq = field(init=False)
    eta: float = field(init=False)
    gamma: float = field(init=False)
    xi: float = field(init=False)
    eps_mult: float = field(init=False)
    mu_mult: float = field(init=False)
    n0: int = field(init=False)

    def __post_init__(self) -> None:
        if self.kind not in ("strong", "coarse"):
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        need = "beta" if self.kind == "strong" else "nu"
        if getattr(self, need) is None:
            raise ValueError(f"{self.kind} schedules need {need}")
        m = self.mass_power  # refuses q outside (0, inf) first
        r = self.r_seq
        if self.kind == "coarse" and (r.coef, r.n_pow, r.log_pow) != (1.0, 1.0, 0.0):
            raise ValueError("coarse schedules need ranges r_n = n")
        eta = delta_q(self.q)
        if eta == 0:  # the reversed Mazur lower constant underflowed
            raise ValueError(f"{self.name} at q={self.q:g}: the block floor delta_q "
                             "leaves the float range")
        gamma_q, xi_q = moduli_exponents(self.q)
        c_lo, _, c_hi, _ = _transport_constants(self.q)

        def power(e):  # r_n^e
            return PowerLogSeq(r.coef ** e, r.n_pow * e, r.log_pow * e, r.n_min)

        if self.kind == "strong":
            eps, mu, s = power(gamma_q), power(xi_q), power(-0.5)
            # The tails below hold for eps_n^q = 1 / (n ln^beta n) only.
            if not (math.isclose(eps.coef, 1.0) and math.isclose(-self.q * eps.n_pow, 1.0)
                    and math.isclose(-self.q * eps.log_pow, self.beta)):
                raise ValueError("strong schedules need budgets r_n^gamma_q "
                                 "= (n ln^beta n)^(-1/q)")
        else:
            eps, mu = PowerLogSeq(1.0, -self.nu, 0.0, r.n_min), None
            s = PowerLogSeq(r.coef, r.n_pow + self.nu, r.log_pow, r.n_min)
        derived = dict(eps_seq=eps, mu_seq=mu, s_seq=s, eta=eta,
                       gamma=2.0 * gamma_q, xi=2.0 * xi_q,
                       eps_mult=c_hi * 2.0 ** gamma_q,
                       mu_mult=c_lo * (2.0 / math.e) ** xi_q, n0=r.n_min)
        for name, value in derived.items():
            object.__setattr__(self, name, value)
        # Budgets must be summable at both the tail-bookkeeping power q
        # and the gluing power m; certify now so construction fails early.
        for p in dict.fromkeys((self.q, m)):
            self._eps_tail(p, max(self.n0, 2))

    # -- sequence access -------------------------------------------------

    def r(self, n):
        return self.r_seq.value(n)

    def eps(self, n):
        return self.eps_seq.value(n)

    def s(self, n):
        return self.s_seq.value(n)

    def bandwidth(self, n):
        """Gaussian bandwidth of block n (coarse schedules derive it)."""
        if self.kind == "coarse":
            return (self.eps(n) / self.r(n)) ** 2
        return self.r(n)

    @property
    def mass_power(self) -> float:
        """Power applied to block distances when gluing: the distance root m."""
        return distance_root(self.q)

    # -- certified budgets -----------------------------------------------

    def certified_eps(self, n):
        return self.eps_mult * self.eps(n)

    def _eps_tail(self, power: float, n_last: int) -> float:
        """Certified bound on sum_{n > n_last} ceps_n^power, from the
        construction: ceps_n^power is eps_mult^power times n^(-power nu)
        (coarse) or (n ln^beta n)^(-power/q) (strong)."""
        if self.kind == "coarse":
            tail = self.eps_seq.power_tail(power, n_last)
        else:
            tail = PowerLogSeq(1.0, 1.0, self.beta).power_tail(-power / self.q, n_last)
        return self.eps_mult ** power * tail

    def eps_q_tail(self, n_terms: int) -> float:
        """Certified bound on sum_{n > last} ceps_n^q (tail bookkeeping mass)."""
        return self._eps_tail(self.q, self.n0 + n_terms - 1)

    def eps_mass_partial(self, n_terms: int) -> float:
        ns = np.arange(self.n0, self.n0 + n_terms)
        return float(np.sum(self.certified_eps(ns) ** self.mass_power))

    def eps_mass_total(self) -> float:
        """Certified upper bound on the full budget mass sum_n ceps_n^m."""
        tail = self._eps_tail(self.mass_power, self.n0 + _MASS_TERMS - 1)
        return self.eps_mass_partial(_MASS_TERMS) + tail

    def mu_mass_partial(self, n_terms: int) -> float:
        ns = np.arange(self.n0, self.n0 + n_terms)
        return float(np.sum((self.mu_mult * self.mu_seq.value(ns)) ** self.mass_power))

    def to_json_dict(self) -> dict:
        out = {"name": self.name, "q": self.q, "kind": self.kind,
               "eta": self.eta, "n0": self.n0}
        out.update({k: v for k, v in (("beta", self.beta), ("nu", self.nu)) if v is not None})
        return out


def preset_schedule(name: str, q: float | None = None, beta: float | None = None,
                    nu: float | None = None) -> ParamSchedule:
    """Named schedules realizing the deformation-gap constructions.

    ``warmup_l2``       q = 2, needs beta > 1
    ``strong_qge2``     q >= 2, needs beta > 1
    ``strong_1leqle2``  1 <= q <= 2, needs beta > 1
    ``strong_qle1``     0 < q <= 1, needs beta > 1
    ``coarse_l2``       q = 2, needs nu > 1/2

    A preset chooses its bandwidths r_n, or for ``coarse_l2`` its ranges
    r_n = n; :class:`ParamSchedule` derives the rest.  The strong r_n are
    (n ln^beta n)^(-k) with k = 1, 2/q and 2/q^2, so that r_n^gamma_q is
    (n ln^beta n)^(-1/q) in each regime.
    """
    if name == "coarse_l2":
        if nu is None or not 0.5 < nu < math.inf:
            raise ValueError(f"coarse_l2 requires a finite nu > 1/2, got {nu}")
        if q not in (None, 2.0):
            raise ValueError("coarse_l2 is an l_2 construction")
        return ParamSchedule(name, 2.0, "coarse", PowerLogSeq(1.0, 1.0, 0.0, n_min=1), nu=nu)

    if beta is None or not 1 < beta < math.inf:
        raise ValueError(f"{name} requires a finite beta > 1, got {beta}")
    if name == "warmup_l2":
        if q not in (None, 2.0):
            raise ValueError("warmup_l2 is an l_2 construction")
        q = 2.0
    if q is None or not math.isfinite(q):
        raise ValueError(f"{name} requires a finite q, got {q}")
    if name in ("warmup_l2", "strong_qge2"):
        if q < 2:
            raise ValueError(f"{name} requires q >= 2")
        r_seq = PowerLogSeq(1.0, -1.0, -beta)
    elif name == "strong_1leqle2":
        if not (1 <= q <= 2):
            raise ValueError("strong_1leqle2 requires 1 <= q <= 2")
        r_seq = PowerLogSeq(1.0, -2.0 / q, -2.0 * beta / q)
    elif name == "strong_qle1":
        if not (0 < q <= 1):
            raise ValueError("strong_qle1 requires 0 < q <= 1")
        r_seq = PowerLogSeq(1.0, -2.0 / q ** 2, -2.0 * beta / q ** 2)
    else:
        raise ValueError(f"unknown schedule preset {name!r}")
    return ParamSchedule(name, q, "strong", r_seq, beta=beta)


_EXP_DEGREE = 32  # degree of the truncated series of every exp block


class GaussianBlockFamily:
    """Realizes a schedule's blocks with a chosen coordinate backend.

    ``backend="kernel"`` stays coordinate-free (pair geometry is then a
    certified interval, exact at q = 2); ``"exp"`` and ``"rff"``
    materialize coordinates.  rff block n draws its feature table from
    the counter-based stream keyed by (base_seed, n), so block content
    never depends on evaluation order.
    """

    def __init__(self, schedule: ParamSchedule, backend: str = "kernel",
                 base_seed: int = 0, n_features: int = 512, ambient_dim: int = 16):
        if backend not in ("kernel", "exp", "rff"):
            raise ValueError(f"unknown backend {backend!r}")
        self.schedule = schedule
        self.backend = backend
        self.base_seed = base_seed
        self.n_features = n_features
        self.ambient_dim = ambient_dim

    @property
    def kernel_mode(self) -> bool:
        return self.backend == "kernel"

    def block(self, n: int) -> TruncatedExp | RandomFeatures:
        """The coordinate backend of block n; kernel mode has none."""
        if self.kernel_mode:
            raise ValueError("kernel-mode blocks have no coordinates; "
                             "use distance_interval")
        r = float(self.schedule.bandwidth(n))
        if self.backend == "exp":
            return TruncatedExp(r, _EXP_DEGREE, self.ambient_dim)
        return RandomFeatures(r, self.n_features, seed=(self.base_seed, n))


class GluedEmbedding:
    """A truncated glued embedding of the family's schedule, with
    ``n_terms`` blocks from index n0 on, whose distances and intervals
    run their row chunks on ``threads`` worker threads.

    The bandwidths and thresholds of the realized blocks are evaluated
    once, here; the first block whose bandwidth or threshold is not finite
    and positive (r_n underflows to 0 at small q) is refused by number,
    for every backend.
    """

    def __init__(self, family: GaussianBlockFamily, n_terms: int = 200, threads: int = 1):
        if n_terms < 1:
            raise ValueError("need at least one block")
        if threads < 1:
            raise ValueError(f"need at least one thread, got {threads}")
        self.family = family
        self.schedule = schedule = family.schedule
        self.n_terms = n_terms
        self.threads = threads
        self.block_ids = np.arange(schedule.n0, schedule.n0 + n_terms)
        with np.errstate(all="ignore"):  # values past the float range are refused below
            self.bandwidths = np.asarray(schedule.bandwidth(self.block_ids), dtype=float)
            self.s_values = np.asarray(schedule.s(self.block_ids), dtype=float)
            ok = ((self.bandwidths > 0) & (self.bandwidths < math.inf)
                  & (self.s_values > 0) & (self.s_values < math.inf))
        if not ok.all():
            raise ValueError(f"{schedule.name} at q={schedule.q:g}: the bandwidths r_n "
                             f"leave the float range at block {self.block_ids[~ok][0]}")

    @property
    def tail_constant(self) -> float:
        """Certified bound on the budget mass omitted by truncation."""
        return self.schedule.eps_q_tail(self.n_terms)

    # -- coordinate mode -------------------------------------------------

    @functools.cached_property
    def _blocks(self) -> tuple[TruncatedExp | RandomFeatures, ...]:
        return tuple(self.family.block(int(n)) for n in self.block_ids)

    def _rows(self, P) -> np.ndarray:
        """Points as rows, checked against the family's ambient dimension
        (an rff table would otherwise be drawn for any dimension)."""
        P = np.atleast_2d(P)
        dim = self.family.ambient_dim
        if P.shape[1] != dim:
            raise ValueError(f"points have dim {P.shape[1]}, family expects {dim}")
        return P

    def _chunked(self, part, step: int, n: int, lead: tuple = ()) -> np.ndarray:
        """The (*lead, n) array whose columns ``sl`` are ``part(sl)``, for
        slices of ``step`` of the n rows run on ``threads`` workers and
        placed by position."""
        slices = [slice(i, i + step) for i in range(0, n, step)]
        if self.threads == 1 or len(slices) <= 1:
            parts = map(part, slices)
        else:
            # deferred: concurrent.futures and logging cost one-thread runs 6-10 ms
            from concurrent.futures import ThreadPoolExecutor
            with ThreadPoolExecutor(max_workers=self.threads) as pool:
                parts = list(pool.map(part, slices))
        out = np.zeros(lead + (n,))
        for sl, got in zip(slices, parts):
            out[..., sl] = got
        return out

    def image_distances(self, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        """Glued distances for paired rows of X and Y (coordinate mode).

        The glued mass is :func:`~embedlab.gaussian.block_mass` over the
        blocks, one call per worker of ``threads``, each on one contiguous
        run of the kernel's row tiles.  The block maps run in the floating
        dtype of ``X`` (float32 rows give float32 random features and row
        sums); the blocks are summed in float64.  Every row adds its blocks
        in order and the tiles do not depend on the runs, nor the bytes.
        """
        if self.family.kernel_mode:
            raise ValueError("kernel-mode embeddings have interval distances; "
                             "use distance_interval")
        X, Y = self._rows(X), self._rows(Y)
        blocks, q = self._blocks, self.schedule.q  # built here, never in a worker
        tile = _plan(X, blocks)[3]
        tiles = -(-len(X) // tile)
        run = tile * max(1, -(-tiles // self.threads))  # whole tiles per worker
        total = self._chunked(lambda sl: block_mass(X[sl], Y[sl], blocks, q),
                              run, len(X))
        return total ** (1.0 / self.schedule.mass_power)

    # -- kernel mode -----------------------------------------------------

    def mass_interval(self, d) -> tuple[np.ndarray, np.ndarray]:
        """Certified [lower, upper] glued power mass Q = Delta^m at
        separation d, m the distance root: the block masses summed, the
        ends whose m-th roots :meth:`distance_interval` takes.

        Exact (lower == upper) at q = 2 where the block transport is the
        identity and pair distances are functions of the separation alone:
        there each block's mass is taken once and is both ends.  Block n
        adds (c D_n^e)^m to an end, D_n the psi distance and (c, e) the
        end's transport constants.  The (separations x blocks) arrays are
        built per slice of separations: the arrays a slice keeps alive,
        one at q = 2 and two elsewhere, hold ``_SCRATCH_BYTES`` together,
        so the slices depend on the block count, never the thread count.
        """
        d = np.atleast_1d(np.asarray(d, dtype=float))
        q, m = self.schedule.q, self.schedule.mass_power
        c_lo, e_lo, c_hi, e_hi = _transport_constants(q)
        exact = q == 2.0
        rows = max(1, gaussian._SCRATCH_BYTES // ((1 if exact else 2) * self.bandwidths.nbytes))

        def end_mass(D, c, e):  # in D's storage
            D **= e
            D *= c
            D **= m
            return D.sum(axis=1)

        def masses(sl):
            D = psi_distance_exact(d[sl, None], self.bandwidths)
            if exact:  # the identity transport: one mass is both ends
                D **= m
                return (D.sum(axis=1),) * 2
            return end_mass(D.copy(), c_lo, e_lo), end_mass(D, c_hi, e_hi)

        lo, hi = self._chunked(masses, rows, len(d), lead=(2,))
        return lo, hi

    def distance_interval(self, d) -> tuple[np.ndarray, np.ndarray]:
        """Certified [lower, upper] glued distance at separation d: the
        m-th roots of :meth:`mass_interval`."""
        lo, hi = self.mass_interval(d)
        m = self.schedule.mass_power
        return lo ** (1.0 / m), hi ** (1.0 / m)

    # -- shared ----------------------------------------------------------

    def step_count(self, d) -> np.ndarray:
        """Number of truncated blocks whose activation threshold s_n <= d."""
        d = np.atleast_1d(np.asarray(d, dtype=float))
        return np.searchsorted(self.s_values, d, side="right")


def glue(family: GaussianBlockFamily, n_terms: int = 200, threads: int = 1) -> GluedEmbedding:
    """Assemble a truncated glued embedding from a block family."""
    return GluedEmbedding(family, n_terms, threads)


@dataclass
class GluingCheckReport:
    """Outcome of auditing the certified per-pair claims on sampled pairs."""

    schedule: str
    kind: str
    n_pairs: int
    n_terms: int
    upper_violations: int = 0
    step_violations: int = 0
    small_violations: int = 0
    indeterminate: int = 0
    small_checked: int = 0
    worst_upper_margin: float = math.inf
    worst_step_margin: float = math.inf
    worst_small_margin: float = math.inf
    constants: dict = field(default_factory=dict)

    @property
    def violations(self) -> int:
        return self.upper_violations + self.step_violations + self.small_violations

    def to_dict(self) -> dict:
        worst = {
            "upper": self.worst_upper_margin,
            "step": self.worst_step_margin,
            "small_distance": self.worst_small_margin,
        }
        return {
            "schedule": self.schedule,
            "kind": self.kind,
            "pairs": self.n_pairs,
            "terms": self.n_terms,
            "violations": self.violations,
            "violations_by_bound": {
                "upper": self.upper_violations,
                "step": self.step_violations,
                "small_distance": self.small_violations,
            },
            "indeterminate": self.indeterminate,
            "small_distance_pairs_checked": self.small_checked,
            "worst_margins": {k: (v if math.isfinite(v) else None) for k, v in worst.items()},
            "constants": self.constants,
        }


def _coarse_step_count(schedule: ParamSchedule, d: np.ndarray) -> np.ndarray:
    """#{n >= n0 : r_n <= d} over the *infinite* schedule (coarse upper k):
    with the ranges r_n = n of every coarse schedule, the integers n0..d,
    max(0, floor(d) - n0 + 1)."""
    return np.maximum(0.0, np.floor(np.atleast_1d(d)) - schedule.n0 + 1)


def _lower_claim(lo_m: np.ndarray, hi_m: np.ndarray,
                 claim: np.ndarray) -> tuple[int, int, float]:
    """(violations, indeterminate, worst margin) of a lower claim on the
    [lo, hi] glued masses, over the entries where the claim is positive;
    margins are relative to the claim, +inf where none is positive."""
    pos = claim > 0
    lo, hi, c = lo_m[pos], hi_m[pos], claim[pos]
    floor = c * (1 - _REL_TOL)
    return (int(np.sum(hi < floor)), int(np.sum((lo < floor) & (hi >= floor))),
            float(np.min((lo - c) / c, initial=math.inf)))


def per_pair_bounds_check(e: GluedEmbedding, distances: np.ndarray,
                          eps_scale: float = 1.0) -> GluingCheckReport:
    """Audit every certified per-pair claim at the given separations.

    The glued power mass is known as the certified interval [L, U] of
    :meth:`GluedEmbedding.mass_interval`; a claim counts as violated when
    it fails even for the favourable endpoint and as verified when it
    holds for the unfavourable one, anything in between landing in
    ``indeterminate``.
    For the presets the claims hold analytically for the unfavourable
    endpoints, so a nonzero indeterminate count is itself a red flag.

    Margins are relative slacks of the unfavourable endpoint; the worst
    (smallest) one is reported per claim.  ``eps_scale`` rescales the
    certified budget constants; values < 1 tighten the upper claims and
    feed the negative-control tests.  Aggregation is order-independent
    (counts, minima), so pair batches may be processed in any order.
    """
    d = np.atleast_1d(np.asarray(distances, dtype=float))
    if np.any(d < 0):
        raise ValueError("separations must be nonnegative")
    sched = e.schedule
    m = sched.mass_power
    rep = GluingCheckReport(schedule=sched.name, kind=sched.kind,
                            n_pairs=len(d), n_terms=e.n_terms)

    # Work with the glued power mass throughout: the summed masses
    # themselves, never powers of their roots.
    lo_m, hi_m = e.mass_interval(d)

    if sched.kind == "strong":
        upper_claim = eps_scale ** m * sched.eps_mass_partial(e.n_terms) * (d ** sched.gamma) ** m
    else:
        K = eps_scale ** m * sched.eps_mass_total()
        upper_claim = 2.0 ** m * _coarse_step_count(sched, d) + K
    floor = np.maximum(upper_claim, 1e-300)
    rep.upper_violations = int(np.sum(lo_m > upper_claim + _REL_TOL * floor))
    rep.indeterminate += int(np.sum((hi_m > upper_claim + _REL_TOL * floor)
                                    & (lo_m <= upper_claim + _REL_TOL * floor)))
    rep.worst_upper_margin = float(np.min((upper_claim - hi_m) / floor))

    rep.step_violations, indet, rep.worst_step_margin = _lower_claim(
        lo_m, hi_m, e.step_count(d) * sched.eta ** m)
    rep.indeterminate += indet

    if sched.kind == "strong":
        # The compression envelope needs bandwidth * d^2 <= 1 for every
        # truncated block; with nonincreasing bandwidths that pins the
        # validity region to the first block's scale.
        r_max = float(np.max(e.bandwidths))
        valid = r_max * d ** 2 <= 1.0
        rep.small_checked = int(np.sum(valid))
        small_claim = sched.mu_mass_partial(e.n_terms) * (d[valid] ** sched.xi) ** m
        rep.small_violations, indet, rep.worst_small_margin = _lower_claim(
            lo_m[valid], hi_m[valid], small_claim)
        rep.indeterminate += indet
        rep.constants["small_validity_t_max"] = r_max ** -0.5
        # The shared shape hypothesis xi <= gamma also only holds there.
        rep.constants["shape_order_region"] = "restricted_to_small_validity"

    rep.constants.update({
        "eta": sched.eta,
        "eps_mult": sched.eps_mult,
        "mu_mult": sched.mu_mult,
        "eps_mass_partial": sched.eps_mass_partial(e.n_terms),
        "eps_scale": eps_scale,
    })
    if sched.kind == "coarse":
        rep.constants["K"] = eps_scale ** m * sched.eps_mass_total()
    return rep
