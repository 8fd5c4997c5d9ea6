"""Command-line front end: deterministic runs, verification suites, reports.

Every artifact is a pure function of the parsed configuration: stable
JSON/CSV formatting, no timestamps, seeded sampling only.  Exit status:
0 clean, 1 a certified bound violated, 2 a usage error, 3 an I/O failure.
The parser checks every numeric flag once, by its type, and parses a
``--config`` file as flags, so a bad value from either exits 2 naming it.

Each command imports numpy and the package modules it runs when it is
called, not here, so a process loads only what its subcommand needs:
``report`` loads no numpy, and ``folner`` none of the l_2 side.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .report import canonical_json

EXIT_OK = 0
EXIT_VIOLATIONS = 1
EXIT_USAGE = 2
EXIT_IO = 3

_GROUPS = ("z1", "z2", "z3", "tree", "heis")

# The flags each --preset needs, by keyword of glue.preset_schedule;
# warmup_l2 and coarse_l2 fix q = 2 themselves.
PRESET_PARAMS = {
    "warmup_l2": ("beta",),
    "strong_qge2": ("q", "beta"),
    "strong_1leqle2": ("q", "beta"),
    "strong_qle1": ("q", "beta"),
    "coarse_l2": ("nu",),
}

# Parsed values left out of the config echoed into reports: the config
# file (its entries are echoed as the flags they became), the handler,
# output paths and --threads.  Reruns of one configuration with different
# thread counts or destinations must stay byte-identical.
_NOT_ECHOED = frozenset({"config", "handler", "out", "json_out", "threads", "results_dir"})


def _echo(args: argparse.Namespace) -> dict:
    return {k: v for k, v in vars(args).items() if k not in _NOT_ECHOED}


def _number(cast, lo: float, hi: float, *, lo_open: bool = False, what: str):
    """argparse type: ``cast(text)``, finite, in [lo, hi] or (lo, hi] if ``lo_open``."""
    def convert(text: str):
        try:
            x = cast(text)
        except ValueError:
            x = math.nan
        if not ((lo < x if lo_open else lo <= x) and x <= hi and abs(x) < math.inf):
            raise argparse.ArgumentTypeError(f"must be {what}, got {text}")
        return x
    return convert


_NON_NEGATIVE_INT = _number(int, 0, math.inf, what="a non-negative integer")
_POSITIVE_INT = _number(int, 1, math.inf, what="a positive integer")
_INT_AT_LEAST_TWO = _number(int, 2, math.inf, what="an integer >= 2")
_FINITE = _number(float, -math.inf, math.inf, what="a finite number")
_POSITIVE = _number(float, 0, math.inf, lo_open=True, what="a finite number > 0")
_AT_LEAST_ONE = _number(float, 1, math.inf, what="a finite number >= 1")


def _grid(text: str) -> str:
    """argparse type of ``--grid``: comma-separated finite exponents > 0, at
    least two distinct (else no (p, q) cell has p != q to audit).  Returns
    the text, which the suite splits."""
    if len({_POSITIVE(v) for v in text.split(",")}) < 2:
        raise argparse.ArgumentTypeError(f"needs two distinct exponents, got {text}")
    return text


def _emit_json(doc: dict, path: str | None) -> None:
    text = canonical_json(doc)
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _emit_run(args: argparse.Namespace, fields: dict, est=None, window=(),
              extra: dict | None = None) -> int:
    """Write a run's artifacts and return its violations: the JSON document
    (a ``moduli_run`` with the config echo, ``fields`` and, given an
    estimate, its fits over ``window``) and, with ``--out``, the CSV of
    the estimate's rows and the ``extra`` columns."""
    from . import moduli

    doc = {"report_kind": "moduli_run", "config": _echo(args), **fields}
    if est is not None:
        doc.update(moduli.fit_envelopes(est, *window))
    if args.out:
        moduli.write_moduli_csv(est, args.out, extra)
    _emit_json(doc, args.json_out)
    return doc["violations"]


def _batch_rng(seed: int, salt: int):
    import numpy as np

    return np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, salt))))


# ---------------------------------------------------------------------------
# moduli


# The regime a preset's run is compared under, unless --regime names one.
_DEFAULT_REGIME = {"coarse_l2": "coarse", "warmup_l2": "small_t"}


def cmd_moduli(args: argparse.Namespace) -> int:
    missing = [f"--{k}" for k in PRESET_PARAMS[args.preset] if getattr(args, k) is None]
    if missing:
        raise ValueError(f"--preset {args.preset} needs {' and '.join(missing)}")
    fit_lo = args.t_min if args.fit_lo is None else args.fit_lo
    fit_hi = args.t_max if args.fit_hi is None else args.fit_hi
    for lo, hi, names in ((args.t_min, args.t_max, ("--t-min", "--t-max")),
                          (fit_lo, fit_hi, ("--fit-lo", "--fit-hi"))):
        if not lo < hi:
            raise ValueError(f"{names[0]} {lo:g} must be below {names[1]} {hi:g}")
    from . import moduli
    from .glue import GaussianBlockFamily, glue as glue_embedding, preset_schedule

    sched = preset_schedule(args.preset, q=args.q, beta=args.beta, nu=args.nu)
    family = GaussianBlockFamily(sched, backend=args.backend,
                                      base_seed=args.base_seed,
                                      n_features=args.n_features,
                                      ambient_dim=args.dim)
    e = glue_embedding(family, n_terms=args.n_terms, threads=args.threads)
    if args.backend == "kernel":
        engine = moduli.exact_kernel_engine(e)
    elif args.backend == "rff":
        engine = moduli.fast_rff_engine(e)
    else:
        engine = moduli.coordinate_engine(e)
    sampler = moduli.PairSampler(args.t_min, args.t_max, dim=args.dim)
    certified_enforced = args.backend == "kernel"
    est = moduli.estimate_moduli(engine, sampler, bins=args.bins, pairs=args.pairs,
                                 seed=args.seed, certifier=moduli.glued_certifier(e))
    return _emit_run(args, {
        "domain": "l2",
        "target": f"l{sched.q:g}",
        "regime": args.regime or _DEFAULT_REGIME.get(args.preset, "large_t"),
        "schedule": sched.to_json_dict(),
        "blocks_realized": int(len(e.block_ids)),
        "tail_constant": float(e.tail_constant),
        "violations": est.certified_violations() if certified_enforced else 0,
        "certified_enforced": certified_enforced,
    }, est, (fit_lo, fit_hi))


# ---------------------------------------------------------------------------
# verify suites


def _suite_mazur(args: argparse.Namespace) -> dict:
    from . import mazur

    grid = [float(v) for v in args.grid.split(",")]
    upper_scale = 0.5 if args.negative_control else 1.0
    tiles = mazur.sphere_pair_tiles(args.samples, args.dim, args.seed)
    rep = mazur.audit_sphere_pairs(tiles, grid, upper_scale=upper_scale)
    return {"suite": "mazur", "grid": grid, "samples": args.samples,
            "upper_scale": upper_scale, **rep}


def _suite_kernel(args: argparse.Namespace) -> dict:
    import numpy as np

    from .gaussian import RandomFeatures, TruncatedExp, block_mass, psi_distance_exact

    dim = min(args.dim, 3)
    backend = TruncatedExp(args.r, args.degree, dim)
    rng = _batch_rng(args.seed, 101)
    X = rng.standard_normal((args.samples, dim))
    Y = rng.standard_normal((args.samples, dim))
    # Bounded inputs keep the series residual certifiable at this degree.
    for M in (X, Y):
        M *= (1.2 * rng.random((args.samples, 1))
              / np.maximum(np.linalg.norm(M, axis=1, keepdims=True), 1e-12))
    max_residual = float(max(backend.residual(X).max(), backend.residual(Y).max()))
    # The kernel every exp moduli run takes: at q = 2 the block mass is
    # |psi(x) - psi(y)|^2, as for the features below.
    measured = np.sqrt(block_mass(X, Y, [backend], 2.0))
    exact = psi_distance_exact(np.linalg.norm(X - Y, axis=1), args.r)
    exp_err = float(np.max(np.abs(measured - exact)))
    # Halving a tolerance would not trip: the series distances miss by
    # rounding alone (about 4e-15 against 1e-10) and the feature kernel by
    # Monte-Carlo error of order D^(-1/2) (about 0.05 against 0.08).  The
    # control scales every tolerance by 1e-6, below the rounding of a row
    # sum over thousands of coordinates and below any Monte-Carlo error.
    tol = 1e-6 if args.negative_control else 1.0
    exp_viol = (int(max_residual >= 1e-14 * tol)
                + int(np.sum(np.abs(measured - exact) > 1e-10 * tol)))

    feats = RandomFeatures(args.r, args.n_features, (args.seed, 7))
    rdim = 16
    rng = _batch_rng(args.seed, 102)
    P = rng.standard_normal((args.samples, rdim))
    Q = rng.standard_normal((args.samples, rdim)) * rng.uniform(0.0, 3.0, (args.samples, 1))
    kernel_true = np.exp(-args.r * np.sum((P - Q) ** 2, axis=1))
    # The kernel every rff moduli run takes, on float32 rows as there: at
    # q = 2 a block's mass is |psi(p) - psi(q)|^2 = 2 - 2 <psi(p), psi(q)>,
    # since the psi rows are unit vectors.  block_mass tiles the rows
    # itself and draws the table once.
    P, Q = P.astype(np.float32), Q.astype(np.float32)
    kernel_est = 1.0 - block_mass(P, Q, [feats], 2.0) / 2.0
    rff_err = float(np.max(np.abs(kernel_est - kernel_true)))
    rff_viol = int(np.sum(np.abs(kernel_est - kernel_true) > 0.08 * tol))

    return {"suite": "kernel", "r": args.r, "degree": args.degree,
            "series_dim": dim, "samples": args.samples,
            "max_series_residual": max_residual,
            "max_psi_distance_error": exp_err,
            "n_features": args.n_features,
            "max_kernel_error": rff_err,
            "violations": exp_viol + rff_viol}


def _suite_gluing(args: argparse.Namespace) -> dict:
    import numpy as np

    from .glue import (GaussianBlockFamily, glue as glue_embedding,
                       per_pair_bounds_check, preset_schedule)

    sched = preset_schedule("warmup_l2", beta=args.beta)
    family = GaussianBlockFamily(sched, backend="kernel")
    e = glue_embedding(family, n_terms=args.n_terms)
    rng = _batch_rng(args.seed, 103)
    max_dist = args.max_dist if args.max_dist is not None else 1000.0
    # Separations are drawn log-uniformly on [1, max_dist].
    d = np.exp(rng.uniform(math.log(1.0), math.log(max_dist), args.pairs))
    eps_scale = 0.5 if args.negative_control else 1.0
    rep = per_pair_bounds_check(e, d, eps_scale=eps_scale)
    doc = rep.to_dict()
    doc.update({"suite": "gluing", "eps_scale": eps_scale,
                "violations": rep.violations})
    return doc


def _folner_audit(system, n_pairs: int, max_dist: float, seed: int, p: float,
                  bound_scale: float = 1.0):
    """Sample pairs of a set system and audit them: the pairs' separations
    and ``sym_diff_counts``, the worst defect per index and the
    block-distance bound check, for ``folner`` and ``verify --suite folner``."""
    from .amenable import char_embedding_bound_check

    pairs = system.sample_pairs(n_pairs, max_dist, seed)
    d = system.distances(pairs)
    counts = system.sym_diff_counts(pairs)
    defects = system.worst_defects(counts, d)
    char = char_embedding_bound_check(system, p, d=d, counts=counts, bound_scale=bound_scale)
    return d, counts, defects, char


def _suite_folner(args: argparse.Namespace) -> dict:
    from . import amenable

    if args.p < 1:  # verify's --p is shared with the cube and gk suites, which take p > 0
        raise ValueError(f"--p must be >= 1 for the folner suite, got {args.p}")
    system = amenable.folner_system("z2", 2, args.n_max)
    # Block-distance checks only fire at separations <= r_n, so the sampler
    # stays within twice the largest certified radius, in whole steps.
    max_dist = int(args.max_dist) if args.max_dist is not None else 2 * args.n_max
    _, _, defects, char = _folner_audit(system, args.pairs, max_dist, args.seed, args.p)
    if char.n_checks == 0:
        raise ValueError(f"--pairs {args.pairs} at --max-dist {max_dist} drew no pair "
                         "within a certified radius: the folner suite audited nothing")
    # Box translates at full shift and tree segments offset along the ray
    # nearly saturate their defect budgets, so halved budgets trip both.
    scale = 0.5 if args.negative_control else 1.0
    defect_viol, worst_defect_slack = amenable.defect_budget_check(system, defects, scale)
    tree = amenable.folner_system("tree", 2, args.n_max)
    offsets = [((), (0,) * n) for n in range(2, args.n_max + 1)]
    tree_defects = tree.worst_defects(tree.sym_diff_counts(offsets), tree.distances(offsets))
    a_defect_viol, _ = amenable.defect_budget_check(tree, tree_defects, scale)
    return {"suite": "folner", "group": "z2", "n_max": args.n_max,
            "defect_scale": scale, "defect_violations": defect_viol,
            "a_defect_violations": a_defect_viol,
            "worst_defect_slack": worst_defect_slack,
            "char_check": char.to_dict(),
            "violations": defect_viol + a_defect_viol + char.violations}


def _suite_cube(args: argparse.Namespace) -> dict:
    from .finite_geometry import cube_report, cube_violations

    rows = []
    total = 0
    floor_scale = 2.0 if args.negative_control else 1.0
    for m in range(2, args.m_max + 1):
        rep = cube_report(m, args.p)
        # The control doubles the floor: where the identity lies above it,
        # it does so by less than a factor 2 at m = 2 for every p.
        bad = cube_violations(rep, floor_scale)
        total += bad
        rows.append({"m": m, "bound": rep["bound"] * floor_scale,
                     "measured_distortion": rep["measured_distortion"],
                     "identity_ratio": rep["certificate_ratio"], "violations": bad})
    return {"suite": "cube", "p": args.p, "m_max": args.m_max,
            "rows": rows, "violations": total}


def _suite_gk(args: argparse.Namespace) -> dict:
    from .finite_geometry import probe_audit

    rows = []
    total = 0
    lipschitz = 1.0 if args.negative_control else 2.0
    for k in range(1, args.k_max + 1):
        for ground in range(2 * k, args.ground_max + 1):
            rep = probe_audit(k, ground, args.p, lipschitz_factor=lipschitz)
            total += rep.violations
            rows.append({"k": k, "ground": ground, "max_ratio": rep.max_ratio,
                         "min_nonzero_image": rep.min_nonzero_image,
                         "violations": rep.violations})
    return {"suite": "gk", "p": args.p, "k_max": args.k_max,
            "ground_max": args.ground_max, "rows": rows, "violations": total}


_SUITES = {
    "mazur": _suite_mazur,
    "kernel": _suite_kernel,
    "gluing": _suite_gluing,
    "folner": _suite_folner,
    "cube": _suite_cube,
    "gk": _suite_gk,
}


def cmd_verify(args: argparse.Namespace) -> int:
    doc = _SUITES[args.suite](args)
    doc["report_kind"] = f"verify_{args.suite}"
    doc["negative_control"] = args.negative_control
    doc["config"] = _echo(args)
    _emit_json(doc, args.out)
    return int(doc["violations"])


# ---------------------------------------------------------------------------
# cube / gk


def cmd_cube(args: argparse.Namespace) -> int:
    from .finite_geometry import cube_report, cube_violations

    doc = cube_report(args.m, args.p, args.target_type)
    doc.update({"report_kind": "cube_report", "violations": cube_violations(doc),
                "config": _echo(args)})
    _emit_json(doc, args.out)
    return doc["violations"]


def cmd_gk(args: argparse.Namespace) -> int:
    from .finite_geometry import probe_audit

    if args.ground <= args.k:  # G(k, ground) has at most one point: no pair to audit
        raise ValueError(f"--ground {args.ground} must exceed --k {args.k}: "
                         "G(k, ground) would have no pair to audit")
    rep = probe_audit(args.k, args.ground, args.p)
    doc = {"report_kind": "gk_report", "k": rep.k, "ground": rep.ground,
           "p": rep.p, "pairs_checked": rep.n_pairs,
           "max_ratio": rep.max_ratio,
           "min_nonzero_image": rep.min_nonzero_image,
           "lipschitz_violations": rep.lipschitz_violations,
           "discreteness_violations": rep.discreteness_violations,
           "violations": rep.violations, "config": _echo(args)}
    _emit_json(doc, args.out)
    return rep.violations


# ---------------------------------------------------------------------------
# folner artifact run


def cmd_folner(args: argparse.Namespace) -> int:
    import numpy as np

    from . import amenable, moduli

    fields: dict = {"run_kind": "folner", "group": args.group}
    if args.group == "heis":  # translation defects and volume growth only
        for flag, value in (("--p", args.p), ("--bound-scale", args.bound_scale)):
            if value != 1.0:  # a control that cannot fail: heis audits no bound yet
                raise ValueError(f"{flag} {value:g} does not apply: --group heis audits no bound")
        rows = amenable.heis_worst_defects(args.n_min, args.n_max)
        ns, eps, radii, defects = (list(col) for col in zip(*rows))
        # volume growth over the indices r = n_min..n_max, not the radii R_n; one r has no slope
        growth = (amenable.heisenberg_growth_fit(args.n_max, args.n_min)
                  if args.n_min < args.n_max else None)
        # No glued embedding is realized here, so this run must not feed
        # the comparison table's measured column.
        fields.update({"report_kind": "folner_run", "growth_fit": growth,
                       "defects": {str(n): v for n, v in zip(ns, defects)}, "violations": 0})
        return _emit_run(args, fields, extra={
            "n": ns, "eps_n": eps, "rad_n": [float(r) for r in radii],
            "measured_defect_max": defects})
    system = amenable.folner_system(args.group, args.n_min, args.n_max)
    n_range = range(args.n_min, args.n_max + 1)
    edges = [system.r(n) for n in n_range] + [args.max_dist]
    if not edges[-1] > edges[-2]:
        raise ValueError(f"--max-dist {args.max_dist:g} must exceed "
                         f"r(n_max) = {edges[-2]:g}")
    emb = amenable.glued_group_embedding(system, system.model, args.p)
    d, counts, defects, char = _folner_audit(system, args.pairs, args.max_dist,
                                             args.seed, args.p, args.bound_scale)
    defect_viol, _ = amenable.defect_budget_check(system, defects)
    image_pth = emb.image_distances_pth(counts)
    bounds = emb.bounds_check(d, image_pth, upper_scale=args.bound_scale)

    def root(pth):  # Python's pow, which numpy's SIMD power can differ from
        return [v ** (1.0 / emb.p) for v in np.asarray(pth).tolist()]

    est = moduli.reduce_envelopes(
        d, root(image_pth), edges,
        certifier=lambda ts: (root(emb.certified_lower_pth(ts)),
                              root(emb.certified_upper_pth(ts))))
    # Group runs carry the same report kind as l_2 moduli runs, and name
    # their p as those name q, so the comparison table matches them on it.
    fields.update({"domain": args.group, "target": f"l{args.p:g}", "regime": "large_t",
                   "defect_violations": defect_viol, "char_check": char.to_dict(),
                   "glued_bounds": bounds,
                   "violations": (defect_viol + char.violations
                                  + bounds["upper_violations"] + bounds["lower_violations"])})
    return _emit_run(args, fields, est, (est.edges[0], est.edges[-1]), extra={
        "n": list(n_range), "eps_n": [system.eps(n) for n in n_range],
        "rad_n": [float(system.rad(n)) for n in n_range],
        "measured_defect_max": [defects.get(n, math.nan) for n in n_range]})


# ---------------------------------------------------------------------------
# report


def cmd_report(args: argparse.Namespace) -> int:
    from .report import report_tables

    table = report_tables(args.results_dir)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(table.to_json())
    sys.stdout.write(table.to_text())
    bad = sum(1 for row in table.rows if row["verdict"] == "inconsistent")
    return EXIT_VIOLATIONS if bad else EXIT_OK


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="embedlab",
        description="Deterministic embedding experiments: moduli envelopes, "
                    "certified-bound verification, and claim comparison tables.")
    parser.add_argument("--config", metavar="FILE",
                        help="JSON object of flag values; explicit flags win")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(sp):
        sp.add_argument("--seed", type=_NON_NEGATIVE_INT, default=0, help="master RNG seed")
        sp.add_argument("--out", default=None, help="primary artifact path")
        sp.add_argument("--threads", type=_POSITIVE_INT, default=1,
                        help="worker threads: a glued embedding runs its row tiles "
                             "on N threads, one contiguous run each, which bounds its "
                             "compute threads (results are thread-count independent)")

    mod = sub.add_parser("moduli", help="envelope estimates for a glued embedding")
    common(mod)
    mod.add_argument("--preset", default="strong_qge2", choices=tuple(PRESET_PARAMS))
    mod.add_argument("--q", type=_POSITIVE, default=None)
    mod.add_argument("--beta", type=_FINITE, default=None)
    mod.add_argument("--nu", type=_FINITE, default=None)
    mod.add_argument("--backend", default="rff", choices=("kernel", "exp", "rff"))
    mod.add_argument("--n-features", type=_POSITIVE_INT, default=512)
    mod.add_argument("--base-seed", type=_NON_NEGATIVE_INT, default=0)
    mod.add_argument("--n-terms", type=_POSITIVE_INT, default=200)
    mod.add_argument("--dim", type=_POSITIVE_INT, default=16)
    mod.add_argument("--t-min", type=_POSITIVE, default=0.1)
    mod.add_argument("--t-max", type=_POSITIVE, default=100.0)
    mod.add_argument("--bins", type=_POSITIVE_INT, default=36)
    mod.add_argument("--pairs", type=_POSITIVE_INT, default=2000)
    mod.add_argument("--fit-lo", type=_POSITIVE, default=None)
    mod.add_argument("--fit-hi", type=_POSITIVE, default=None)
    mod.add_argument("--regime", default=None, choices=("large_t", "small_t", "coarse"))
    mod.add_argument("--json-out", default=None)
    mod.set_defaults(handler=cmd_moduli)

    ver = sub.add_parser("verify", help="run a certified-bound verification suite")
    common(ver)
    ver.add_argument("--suite", required=True, choices=sorted(_SUITES))
    ver.add_argument("--negative-control", action="store_true",
                     help="tighten the audited bounds so that the run must report "
                          "violations, which proves the detector is live: halve the "
                          "mazur upper constants, the gluing budget, the folner defect "
                          "budgets and the gk Lipschitz factor, double the cube floor, "
                          "scale the kernel tolerances by 1e-6")
    ver.add_argument("--samples", type=_POSITIVE_INT, default=1000)
    ver.add_argument("--dim", type=_POSITIVE_INT, default=16)
    ver.add_argument("--grid", type=_grid, default="0.5,1,1.5,2,3,4")
    ver.add_argument("--r", type=_POSITIVE, default=1.0)
    ver.add_argument("--degree", type=_NON_NEGATIVE_INT, default=32)
    ver.add_argument("--n-features", type=_POSITIVE_INT, default=4096)
    ver.add_argument("--beta", type=_FINITE, default=2.0)
    ver.add_argument("--n-terms", type=_POSITIVE_INT, default=200)
    ver.add_argument("--pairs", type=_POSITIVE_INT, default=500)
    ver.add_argument("--max-dist", type=_AT_LEAST_ONE, default=None,
                     help="suites pick a range suited to their checks by default")
    ver.add_argument("--n-max", type=_INT_AT_LEAST_TWO, default=20)
    # Bounds below which the cube or gk suite would audit nothing.
    ver.add_argument("--m-max", type=_INT_AT_LEAST_TWO, default=8)
    ver.add_argument("--k-max", type=_POSITIVE_INT, default=4)
    ver.add_argument("--ground-max", type=_INT_AT_LEAST_TWO, default=12)
    ver.add_argument("--p", type=_POSITIVE, default=1.0)
    ver.set_defaults(handler=cmd_verify)

    cub = sub.add_parser("cube", help="Hamming-cube distortion floor and certificate")
    common(cub)
    cub.add_argument("--m", type=_POSITIVE_INT, required=True)
    cub.add_argument("--p", type=_POSITIVE, default=1.0)
    cub.add_argument("--target-type", type=_number(float, 1, 2, what="in [1, 2]"), default=2.0)
    cub.set_defaults(handler=cmd_cube)

    gk = sub.add_parser("gk", help="audit the k-subset probe map")
    common(gk)
    gk.add_argument("--k", type=_POSITIVE_INT, required=True)
    gk.add_argument("--ground", type=_POSITIVE_INT, required=True)
    gk.add_argument("--p", type=_POSITIVE, default=1.0)
    gk.set_defaults(handler=cmd_gk)

    fol = sub.add_parser("folner", help="group-model run: defects, block bounds, envelopes")
    common(fol)
    fol.add_argument("--group", default="z2", choices=_GROUPS)
    fol.add_argument("--n-min", type=_INT_AT_LEAST_TWO, default=2)
    fol.add_argument("--n-max", type=_INT_AT_LEAST_TWO, default=20)
    fol.add_argument("--p", type=_AT_LEAST_ONE, default=1.0)
    fol.add_argument("--pairs", type=_POSITIVE_INT, default=500)
    fol.add_argument("--max-dist", type=_AT_LEAST_ONE, default=1000.0)
    fol.add_argument("--bound-scale",
                     type=_number(float, 0, 1, lo_open=True, what="in (0, 1]"), default=1.0)
    fol.add_argument("--json-out", default=None)
    fol.set_defaults(handler=cmd_folner)

    rep = sub.add_parser("report", help="render the claim comparison tables")
    common(rep)
    rep.add_argument("--results-dir", required=True)
    rep.set_defaults(handler=cmd_report)
    return parser


def _with_config(argv: list[str]) -> list[str]:
    """``argv`` with each ``--config`` entry spliced in after the subcommand as
    ``--key=value``, or as the bare flag for ``true`` (``false`` and ``null``
    are left out): the parser checks it as a flag, and later flags win."""
    peek = argparse.ArgumentParser(add_help=False)
    peek.add_argument("--config")
    known, rest = peek.parse_known_args(argv)
    if known.config is None:
        return argv
    with open(known.config, encoding="utf-8") as fh:
        loaded = json.load(fh)
    if not isinstance(loaded, dict):
        raise ValueError("config file must hold a JSON object")
    flags = []
    for key, value in loaded.items():
        flag = "--" + key.replace("_", "-")
        if value is True:
            flags.append(flag)
        elif value is not False and value is not None:
            flags.append(f"{flag}={value if isinstance(value, str) else json.dumps(value)}")
    return rest[:1] + flags + rest[1:]


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        argv = _with_config(argv)
    except OSError as exc:
        print(f"embedlab: cannot read config: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, json.JSONDecodeError) as exc:
        print(f"embedlab: bad config: {exc}", file=sys.stderr)
        return EXIT_USAGE
    args = build_parser().parse_args(argv)
    try:
        violations = args.handler(args)
    except OSError as exc:
        print(f"embedlab: I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"embedlab: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK if violations == 0 else EXIT_VIOLATIONS


if __name__ == "__main__":
    sys.exit(main())
