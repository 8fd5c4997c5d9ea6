"""Command-line front end: deterministic runs, verification suites, reports.

Every artifact is a pure function of the parsed configuration: stable
JSON/CSV formatting, no timestamps, seeded sampling only.  The exit
status separates scientific outcome from plumbing: 0 clean, 1 when any
certified bound was violated, 2 for usage errors (argparse), 3 for I/O
failures.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import amenable, mazur, moduli
from .finite_geometry import (HammingCube, cube_report,
                              enflo_type2_certificate, probe_audit)
from .gaussian import (RandomFeatures, TruncatedExp, exp_coordinates_batch,
                       psi_distance_exact, rff_coordinates_batch)
from .glue import (GaussianBlockFamily, glue as glue_embedding,
                   per_pair_bounds_check, preset_schedule)
from .report import canonical_json, report_tables

EXIT_OK = 0
EXIT_VIOLATIONS = 1
EXIT_USAGE = 2
EXIT_IO = 3

# Fixed work-splitting quantum.  Thread count must never influence the
# arithmetic, so batches are cut at this size for 1 and N threads alike
# and only the executor differs.
_WORK_CHUNK = 2048

_PRESETS = ("warmup_l2", "strong_qge2", "strong_1leqle2", "strong_qle1", "coarse_l2")
_GROUPS = ("z1", "z2", "z3", "tree", "heis")

# Keys echoed into reports, per subcommand.  Output paths and --threads
# are deliberately absent: reruns of one configuration with different
# thread counts or destinations must stay byte-identical.
_ECHO_KEYS = {
    "moduli": ("subcommand", "preset", "q", "beta", "nu", "backend", "n_features",
               "base_seed", "n_terms", "dim", "t_min", "t_max", "bins", "pairs",
               "fit_lo", "fit_hi", "regime", "seed"),
    "verify": ("subcommand", "suite", "negative_control", "samples", "dim",
               "grid", "r", "degree", "n_features", "beta", "n_terms", "pairs",
               "max_dist", "m_max", "k_max", "ground_max", "p", "seed"),
    "cube": ("subcommand", "m", "p", "target_type", "seed"),
    "gk": ("subcommand", "k", "ground", "p", "seed"),
    "folner": ("subcommand", "group", "n_min", "n_max", "p", "pairs",
               "max_dist", "bound_scale", "seed"),
    "report": ("subcommand", "seed"),
}


def _echo(args: argparse.Namespace) -> dict:
    keys = _ECHO_KEYS[args.subcommand]
    return {k: getattr(args, k) for k in keys if hasattr(args, k)}


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _emit_json(doc: dict, path: str | None) -> None:
    text = canonical_json(doc)
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _fmt(value) -> str:
    if value is None:
        return "nan"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".12g")


def _threaded(f, threads: int):
    """Row-chunked parallel wrapper with thread-count-independent output.

    Chunks are fixed slices of the input; each is evaluated by the same
    code on the same data whatever the executor, and results are placed
    by slice, so the assembled array is bitwise reproducible.
    """

    def engine(X, Y, t):
        t = np.asarray(t, dtype=float)
        X = np.atleast_2d(np.asarray(X, dtype=float))
        Y = np.atleast_2d(np.asarray(Y, dtype=float))
        n = len(t)
        slices = [slice(i, min(i + _WORK_CHUNK, n)) for i in range(0, n, _WORK_CHUNK)]

        def work(sl):
            return np.asarray(f(X[sl], Y[sl], t[sl]), dtype=float)

        if threads <= 1 or len(slices) <= 1:
            parts = [work(sl) for sl in slices]
        else:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                parts = list(pool.map(work, slices))
        out = np.empty(n, dtype=float)
        for sl, part in zip(slices, parts):
            out[sl] = part
        return out

    return engine


def _batch_rng(seed: int, salt: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, salt))))


# ---------------------------------------------------------------------------
# moduli


def _default_regime(preset: str) -> str:
    if preset == "coarse_l2":
        return "coarse"
    if preset == "warmup_l2":
        return "small_t"
    return "large_t"


def cmd_moduli(args: argparse.Namespace) -> int:
    sched = preset_schedule(args.preset, q=args.q, beta=args.beta, nu=args.nu)
    family = GaussianBlockFamily(sched, backend=args.backend,
                                      base_seed=args.base_seed,
                                      n_features=args.n_features,
                                      ambient_dim=args.dim)
    e = glue_embedding(family, n_terms=args.n_terms)
    if args.backend == "kernel":
        engine = moduli.exact_kernel_engine(e)
    elif args.backend == "rff":
        engine = moduli.fast_rff_engine(e)
    else:
        engine = moduli.coordinate_engine(e)
    sampler = moduli.PairSampler(args.t_min, args.t_max, dim=args.dim)
    certified_enforced = args.backend == "kernel"
    est = moduli.estimate_moduli(_threaded(engine, args.threads), sampler,
                                 bins=args.bins, pairs=args.pairs, seed=args.seed,
                                 certifier=moduli.glued_certifier(e),
                                 certified_enforced=certified_enforced,
                                 meta={"preset": args.preset, "backend": args.backend})
    fit_lo = args.fit_lo if args.fit_lo is not None else args.t_min
    fit_hi = args.fit_hi if args.fit_hi is not None else args.t_max
    rho_fit = moduli.fit_exponent(est, "rho", fit_lo, fit_hi)
    omega_fit = moduli.fit_exponent(est, "omega", fit_lo, fit_hi)
    violations = est.certified_violations() if certified_enforced else 0

    doc = {
        "report_kind": "moduli_run",
        "domain": "l2",
        "target": f"l{sched.q.p:g}",
        "regime": args.regime or _default_regime(args.preset),
        "config": _echo(args),
        "schedule": sched.to_json_dict(),
        "blocks_realized": int(len(e.block_ids)),
        "tail_constant": float(e.tail_constant),
        "rho_slope": rho_fit.slope,
        "omega_slope": omega_fit.slope,
        "rho_fit": rho_fit.to_dict(),
        "omega_fit": omega_fit.to_dict(),
        "violations": violations,
        "certified_enforced": certified_enforced,
    }
    if args.out:
        moduli.write_moduli_csv(est, args.out)
    _emit_json(doc, args.json_out)
    return violations


# ---------------------------------------------------------------------------
# verify suites


def _suite_mazur(args: argparse.Namespace) -> dict:
    grid = [float(v) for v in args.grid.split(",")]
    upper_scale = 0.5 if args.negative_control else 1.0
    cells = []
    total = 0
    worst = math.inf
    sphere_dev = invol_dev = 0.0
    for p in grid:
        x, y = mazur.sample_sphere_pairs(p, args.samples, args.dim, args.seed)
        for q in grid:
            mx = mazur.mazur_map(x, p, q)
            s_dev = float(np.max(np.abs(np.sum(np.abs(mx) ** q, axis=1) ** (1.0 / q) - 1.0)))
            i_dev = float(np.max(np.abs(mazur.mazur_map(mx, q, p) - x)))
            sphere_dev = max(sphere_dev, s_dev)
            invol_dev = max(invol_dev, i_dev)
            cell = {"p": p, "q": q, "sphere_deviation": s_dev,
                    "involution_deviation": i_dev}
            bad = int(s_dev > 1e-12) + int(i_dev > 1e-12)
            if p != q:  # the two-sided distance bounds need distinct exponents
                rep = mazur._audit_pairs(x, y, mazur.mazur_constants(p, q),
                                         upper_scale=upper_scale)
                worst = min(worst, rep["worst_margin"])
                cell["worst_margin"] = rep["worst_margin"]
                bad += rep["violations"]
            cell["violations"] = bad
            total += bad
            cells.append(cell)
    return {"suite": "mazur", "grid": grid, "samples": args.samples,
            "upper_scale": upper_scale, "violations": total,
            "worst_margin": worst, "max_sphere_deviation": sphere_dev,
            "max_involution_deviation": invol_dev, "cells": cells}


def _suite_kernel(args: argparse.Namespace) -> dict:
    dim = min(args.dim, 3)
    backend = TruncatedExp(args.r, args.degree, dim)
    rng = _batch_rng(args.seed, 101)
    X = rng.standard_normal((args.samples, dim))
    Y = rng.standard_normal((args.samples, dim))
    # Bounded inputs keep the series residual certifiable at this degree.
    for M in (X, Y):
        M *= (1.2 * rng.random((args.samples, 1))
              / np.maximum(np.linalg.norm(M, axis=1, keepdims=True), 1e-12))
    cx, res_x = exp_coordinates_batch(X, backend)
    cy, res_y = exp_coordinates_batch(Y, backend)
    max_residual = float(max(res_x.max(), res_y.max()))
    measured = np.linalg.norm(cx - cy, axis=1)
    exact = psi_distance_exact(np.linalg.norm(X - Y, axis=1), args.r)
    exp_err = float(np.max(np.abs(measured - exact)))
    exp_viol = int(max_residual >= 1e-14) + int(np.sum(np.abs(measured - exact) > 1e-10))

    feats = RandomFeatures(args.r, args.n_features, (args.seed, 7))
    rdim = 16
    rng = _batch_rng(args.seed, 102)
    P = rng.standard_normal((args.samples, rdim))
    Q = rng.standard_normal((args.samples, rdim)) * rng.uniform(0.0, 3.0, (args.samples, 1))
    zp = rff_coordinates_batch(P, feats)
    zq = rff_coordinates_batch(Q, feats)
    kernel_est = np.sum(zp * zq, axis=1)
    kernel_true = np.exp(-args.r * np.sum((P - Q) ** 2, axis=1))
    rff_err = float(np.max(np.abs(kernel_est - kernel_true)))
    rff_viol = int(np.sum(np.abs(kernel_est - kernel_true) > 0.08))

    return {"suite": "kernel", "r": args.r, "degree": args.degree,
            "series_dim": dim, "samples": args.samples,
            "max_series_residual": max_residual,
            "max_psi_distance_error": exp_err,
            "n_features": args.n_features,
            "max_kernel_error": rff_err,
            "violations": exp_viol + rff_viol}


def _suite_gluing(args: argparse.Namespace) -> dict:
    sched = preset_schedule("warmup_l2", beta=args.beta)
    family = GaussianBlockFamily(sched, backend="kernel")
    e = glue_embedding(family, n_terms=args.n_terms)
    rng = _batch_rng(args.seed, 103)
    max_dist = args.max_dist if args.max_dist is not None else 1000.0
    d = np.exp(rng.uniform(math.log(1.0), math.log(max_dist), args.pairs))
    eps_scale = 0.5 if args.negative_control else 1.0
    rep = per_pair_bounds_check(e, d, eps_scale=eps_scale)
    doc = rep.to_dict()
    doc.update({"suite": "gluing", "eps_scale": eps_scale,
                "violations": rep.violations})
    return doc


def _zk_worst_defects(system: amenable.ZkFolnerSystem) -> dict[int, float]:
    """Exact worst translation defect per index over shifts up to r_n.

    The defect 2 (1 - |F cap gF| / |F|) grows as |F cap gF| =
    prod_i (m - |g_i|) shrinks, with m = 2 M + 1 > r >= |g_i| on the ball.
    Since (m - a)(m - b) >= m (m - a - b) for a, b >= 0, merging two
    coordinates of g into one never raises the product, so over the
    ell_1 ball of radius r it is smallest at the axis vector
    (r, 0, ..., 0).  Enumerating the ball stays as the test oracle.
    """
    return {n: amenable.box_defect(system.half_side(n),
                                   (int(system.r(n)),) + (0,) * (system.group.k - 1))
            for n in range(system.n_min, system.n_max + 1)}


def _suite_folner(args: argparse.Namespace) -> dict:
    model = amenable.ZkModel(2)
    system = amenable.ZkFolnerSystem(model, n_min=2, n_max=args.n_max)
    # Block-distance checks only fire at separations <= r_n, so the
    # sampler stays within twice the largest certified radius.
    max_dist = int(args.max_dist) if args.max_dist is not None else 2 * args.n_max
    pairs = amenable.sample_zk_pairs(model, args.pairs, max_dist, args.seed)
    defects = _zk_worst_defects(system)
    scale = 0.5 if args.negative_control else 1.0
    defect_viol = sum(1 for n, dmax in defects.items()
                      if dmax > system.eps(n) * scale * (1 + 1e-12))
    worst_defect_slack = min(system.eps(n) * scale - defects[n] for n in defects)
    a_defect_viol = 0
    if args.negative_control:
        # The block-distance bound 2 eps'_n cannot be tightened by half
        # on equal-measure witnesses (its factor 2 covers unequal set
        # sizes), so the control targets the defect budgets, which the
        # witnesses saturate: box translates at full shift length and
        # tree segments offset along the distinguished ray.
        for n, dmax in defects.items():
            if dmax / (1.0 - dmax) > system.a_eps(n) * 0.5 * (1 + 1e-12):
                a_defect_viol += 1
        tree = amenable.TreeModel()
        tsys = amenable.TreeACollection(tree, n_min=2, n_max=args.n_max)
        for n in range(2, args.n_max + 1):
            if not math.isfinite(tsys.a_eps(n)):
                continue
            ad = tsys.a_defects([((), (0,) * n)])[0, n - 2]
            if ad > tsys.a_eps(n) * 0.5 * (1 + 1e-12):
                a_defect_viol += 1
    char = amenable.char_embedding_bound_check(system, model, pairs, args.p)
    return {"suite": "folner", "group": "z2", "n_max": args.n_max,
            "defect_scale": scale, "defect_violations": defect_viol,
            "a_defect_violations": a_defect_viol,
            "worst_defect_slack": worst_defect_slack,
            "char_check": char.to_dict(),
            "violations": (defect_viol + a_defect_viol + char.violations
                           + char.support_violations)}


def _suite_cube(args: argparse.Namespace) -> dict:
    rows = []
    total = 0
    rng = _batch_rng(args.seed, 104)
    for m in range(2, args.m_max + 1):
        rep = cube_report(m, args.p)
        bad = int(abs(rep["measured_distortion"] - rep["bound"]) > 1e-9)
        bad += int(rep["certificate_ratio"] > 1 + 1e-12)
        # Arbitrary Euclidean images must never beat the type-2 ratio;
        # linear ones must sit exactly on it (parallelogram identity).
        cloud = enflo_type2_certificate(rng.standard_normal((1 << m, m)), m)
        A = rng.standard_normal((m, m))
        linear = enflo_type2_certificate(HammingCube(m, 2.0).bit_matrix() @ A.T, m)
        bad += int(cloud.ratio > 1 + 1e-12)
        bad += int(abs(linear.ratio - 1.0) > 1e-12)
        total += bad
        rows.append({"m": m, "bound": rep["bound"],
                     "measured_distortion": rep["measured_distortion"],
                     "identity_ratio": rep["certificate_ratio"],
                     "random_ratio": cloud.ratio,
                     "linear_ratio": linear.ratio, "violations": bad})
    return {"suite": "cube", "p": args.p, "m_max": args.m_max,
            "rows": rows, "violations": total}


def _suite_gk(args: argparse.Namespace) -> dict:
    rows = []
    total = 0
    for k in range(1, args.k_max + 1):
        for ground in range(2 * k, args.ground_max + 1):
            rep = probe_audit(k, ground, args.p)
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
    doc = cube_report(args.m, args.p, args.target_type)
    # The distortion bound is a certified floor; an identity measurement
    # below it would mean one of the two computations is wrong.
    violations = int(doc["measured_distortion"] < doc["bound"] * (1 - 1e-9))
    doc.update({"report_kind": "cube_report", "violations": violations,
                "config": _echo(args)})
    _emit_json(doc, args.out)
    return violations


def cmd_gk(args: argparse.Namespace) -> int:
    rep = probe_audit(args.k, args.ground, args.p)
    doc = {"report_kind": "gk_report", "k": rep.k, "ground": rep.ground,
           "p": rep.p, "pairs_checked": rep.n_pairs, "sampled": rep.sampled,
           "max_ratio": rep.max_ratio,
           "min_nonzero_image": rep.min_nonzero_image,
           "lipschitz_violations": rep.lipschitz_violations,
           "discreteness_violations": rep.discreteness_violations,
           "violations": rep.violations, "config": _echo(args)}
    _emit_json(doc, args.out)
    return rep.violations


# ---------------------------------------------------------------------------
# folner artifact run


_FOLNER_HEADER = ("bin_edge_t,rho_hat,omega_hat,count,certified_lower,"
                  "certified_upper,n,eps_n,rad_n,measured_defect_max")

# Exact translation-defect audits on the Heisenberg model enumerate the
# ball twice; past this size the column is reported as nan.
_HEIS_DEFECT_CAP = 200_000


def _log_spread_zk_pairs(model, n_pairs: int, max_dist: float, seed: int):
    """Lattice pairs with log-uniform separations, one RNG stream per pair.

    Uniform sampling in a box leaves the small brackets empty; here the
    l_1 length is drawn log-uniformly in [1, max_dist] and split across
    coordinates, so every schedule row sees traffic.
    """
    out = []
    k = model.k
    for i in range(n_pairs):
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, i, 9))))
        x = tuple(int(v) for v in rng.integers(-1000, 1001, size=k))
        length = max(1, int(round(math.exp(rng.uniform(0.0, math.log(max_dist))))))
        parts = rng.multinomial(length, np.full(k, 1.0 / k))
        signs = rng.choice((-1, 1), size=k)
        g = tuple(int(s) * int(c) for s, c in zip(signs, parts))
        out.append((x, model.mul(x, g)))
    return out


def _envelope_rows(system, emb, pairs, model, image_pth, defects, max_dist):
    """Per-index CSV rows: envelope estimates over schedule brackets."""
    p = emb.p
    d = np.array([model.metric(x, y) for x, y in pairs], dtype=float)
    img = np.array([v ** (1.0 / p) for v in image_pth.tolist()], dtype=float)
    order = np.argsort(d, kind="stable")
    d_sorted, img_sorted = d[order], img[order]
    suffix_min = np.minimum.accumulate(img_sorted[::-1])[::-1]
    prefix_max = np.maximum.accumulate(img_sorted)
    n_range = list(range(system.n_min, system.n_max + 1))
    edges = [float(system.r(n)) for n in n_range] + [float(max_dist)]
    rows = []
    for j, n in enumerate(n_range):
        left, right = edges[j], edges[j + 1]
        lo = np.searchsorted(d_sorted, left, side="left")
        hi = np.searchsorted(d_sorted, right, side="right" if j == len(n_range) - 1 else "left")
        rho = float(suffix_min[lo]) if lo < len(d_sorted) else math.nan
        omega = float(prefix_max[hi - 1]) if hi > 0 else math.nan
        rows.append((left, rho, omega, int(hi - lo),
                     emb.certified_lower_pth(left) ** (1.0 / p),
                     emb.certified_upper_pth(right) ** (1.0 / p),
                     n, system.eps(n), float(system.rad(n)),
                     defects.get(n, math.nan)))
    return rows


def _tree_defects(system, pairs, model) -> dict[int, float]:
    """Worst |A Delta B| / |A cap B| per index over the pairs within r_n."""
    d = np.array([model.metric(x, y) for x, y in pairs], dtype=float)
    ad = system.a_defects(pairs)
    return {n: float(ad[d <= system.r(n), j].max(initial=0.0))
            for j, n in enumerate(range(system.n_min, system.n_max + 1))}


def _heis_defects(model, n_min, n_max) -> dict[int, float]:
    gens = ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0))
    out = {}
    for n in range(n_min, n_max + 1):
        radius = int(1.0 / amenable._preset_eps(n))
        if model.ball_count(radius) > _HEIS_DEFECT_CAP:
            out[n] = math.nan
            continue
        F = set(model.ball(radius))
        out[n] = max(amenable.folner_defect(F, g, model) for g in gens)
    return out


def _bracket_slopes(rows) -> dict:
    """Log-log envelope slopes over the populated schedule brackets."""
    out = {}
    for idx, name in ((1, "rho_slope"), (2, "omega_slope")):
        pts = [(r[0], r[idx]) for r in rows
               if r[0] > 0 and math.isfinite(r[idx]) and r[idx] > 0]
        if len(pts) < 3:
            out[name] = None
            continue
        xs = np.log([p[0] for p in pts])
        ys = np.log([p[1] for p in pts])
        out[name] = float(np.polyfit(xs, ys, 1)[0])
    return out


def cmd_folner(args: argparse.Namespace) -> int:
    # Group runs carry the same report kind as l_2 moduli runs so the
    # comparison table can pick up their fitted exponents.
    doc: dict = {"report_kind": "moduli_run", "run_kind": "folner",
                 "group": args.group, "domain": args.group, "target": "lp",
                 "regime": "large_t", "config": _echo(args)}
    if args.group == "heis":  # translation defects (size-capped) and volume growth only
        model = amenable.HeisenbergModel()
        defects = _heis_defects(model, args.n_min, args.n_max)
        fit = amenable.heisenberg_growth_fit()
        rows = []
        for n in range(args.n_min, args.n_max + 1):
            eps = amenable._preset_eps(n)
            rows.append((math.nan, math.nan, math.nan, 0, math.nan, math.nan,
                         n, eps, float(int(1.0 / eps)), defects[n]))
        # No glued embedding is realized here, so this run must not feed
        # the comparison table's measured column.
        doc["report_kind"] = "folner_run"
        for key in ("domain", "target", "regime"):
            doc.pop(key)
        doc.update({"growth_fit": fit, "defects": {str(n): defects[n] for n in defects}})
        violations = 0
    else:
        if args.group == "tree":
            model = amenable.TreeModel()
            system = amenable.TreeACollection(model, n_min=args.n_min, n_max=args.n_max)
            pairs = amenable.sample_tree_pairs(model, args.pairs, int(args.max_dist),
                                               args.seed)
            defects, budget = _tree_defects(system, pairs, model), system.a_eps
        else:
            model = amenable.ZkModel(int(args.group[1]))
            system = amenable.ZkFolnerSystem(model, n_min=args.n_min, n_max=args.n_max)
            pairs = _log_spread_zk_pairs(model, args.pairs, args.max_dist, args.seed)
            defects, budget = _zk_worst_defects(system), system.eps
        emb = amenable.glued_group_embedding(system, model, args.p)
        defect_viol = sum(1 for n, v in defects.items() if v > budget(n) * (1 + 1e-12))
        char = amenable.char_embedding_bound_check(system, model, pairs, args.p,
                                                  bound_scale=args.bound_scale)
        image_pth = emb.image_distances_pth(pairs)
        bounds = emb.bounds_check(pairs, image_pth=image_pth)
        rows = _envelope_rows(system, emb, pairs, model, image_pth, defects, args.max_dist)
        violations = (defect_viol + char.violations + char.support_violations
                      + bounds["upper_violations"] + bounds["lower_violations"])
        doc.update({"defect_violations": defect_viol, "char_check": char.to_dict(),
                    "glued_bounds": bounds})
    if doc["report_kind"] == "moduli_run":
        doc.update(_bracket_slopes(rows))
    if args.out:
        lines = [_FOLNER_HEADER]
        for row in rows:
            lines.append(",".join(_fmt(v) for v in row))
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write("\n".join(lines) + "\n")
    doc["violations"] = violations
    _emit_json(doc, args.json_out)
    return violations


# ---------------------------------------------------------------------------
# report


def cmd_report(args: argparse.Namespace) -> int:
    table = report_tables(args.results_dir)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(table.to_json())
    sys.stdout.write(table.to_text())
    bad = sum(1 for row in table.rows if row["verdict"] == "inconsistent")
    return EXIT_VIOLATIONS if bad else EXIT_OK


# ---------------------------------------------------------------------------
# parser


def build_parser(config_defaults: dict | None = None) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="embedlab",
        description="Deterministic embedding experiments: moduli envelopes, "
                    "certified-bound verification, and claim comparison tables.")
    parser.add_argument("--config", metavar="FILE",
                        help="JSON file of defaults; explicit flags win")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(sp):
        sp.add_argument("--seed", type=int, default=0, help="master RNG seed")
        sp.add_argument("--out", default=None, help="primary artifact path")
        sp.add_argument("--threads", type=_positive_int, default=1,
                        help="worker threads (results are thread-count independent)")

    mod = sub.add_parser("moduli", help="envelope estimates for a glued embedding")
    common(mod)
    mod.add_argument("--preset", default="strong_qge2", choices=_PRESETS)
    mod.add_argument("--q", type=float, default=None)
    mod.add_argument("--beta", type=float, default=None)
    mod.add_argument("--nu", type=float, default=None)
    mod.add_argument("--backend", default="rff", choices=("kernel", "exp", "rff"))
    mod.add_argument("--n-features", type=int, default=512)
    mod.add_argument("--base-seed", type=int, default=0)
    mod.add_argument("--n-terms", type=int, default=200)
    mod.add_argument("--dim", type=int, default=16)
    mod.add_argument("--t-min", type=float, default=0.1)
    mod.add_argument("--t-max", type=float, default=100.0)
    mod.add_argument("--bins", type=int, default=36)
    mod.add_argument("--pairs", type=int, default=2000)
    mod.add_argument("--fit-lo", type=float, default=None)
    mod.add_argument("--fit-hi", type=float, default=None)
    mod.add_argument("--regime", default=None, choices=("large_t", "small_t", "coarse"))
    mod.add_argument("--json-out", default=None)
    mod.set_defaults(handler=cmd_moduli)

    ver = sub.add_parser("verify", help="run a certified-bound verification suite")
    common(ver)
    ver.add_argument("--suite", required=True, choices=sorted(_SUITES))
    ver.add_argument("--negative-control", action="store_true",
                     help="tighten the audited bounds; a clean run then proves "
                          "the detector is live")
    ver.add_argument("--samples", type=int, default=1000)
    ver.add_argument("--dim", type=int, default=16)
    ver.add_argument("--grid", default="0.5,1,1.5,2,3,4")
    ver.add_argument("--r", type=float, default=1.0)
    ver.add_argument("--degree", type=int, default=32)
    ver.add_argument("--n-features", type=int, default=4096)
    ver.add_argument("--beta", type=float, default=2.0)
    ver.add_argument("--n-terms", type=int, default=200)
    ver.add_argument("--pairs", type=int, default=500)
    ver.add_argument("--max-dist", type=float, default=None,
                     help="suites pick a range suited to their checks by default")
    ver.add_argument("--n-max", type=int, default=20)
    ver.add_argument("--m-max", type=int, default=8)
    ver.add_argument("--k-max", type=int, default=4)
    ver.add_argument("--ground-max", type=int, default=12)
    ver.add_argument("--p", type=float, default=1.0)
    ver.set_defaults(handler=cmd_verify)

    cub = sub.add_parser("cube", help="Hamming-cube distortion floor and certificate")
    common(cub)
    cub.add_argument("--m", type=int, required=True)
    cub.add_argument("--p", type=float, default=1.0)
    cub.add_argument("--target-type", type=float, default=2.0)
    cub.set_defaults(handler=cmd_cube)

    gk = sub.add_parser("gk", help="audit the k-subset probe map")
    common(gk)
    gk.add_argument("--k", type=int, required=True)
    gk.add_argument("--ground", type=int, required=True)
    gk.add_argument("--p", type=float, default=1.0)
    gk.set_defaults(handler=cmd_gk)

    fol = sub.add_parser("folner", help="group-model run: defects, block bounds, envelopes")
    common(fol)
    fol.add_argument("--group", default="z2", choices=_GROUPS)
    fol.add_argument("--n-min", type=int, default=2)
    fol.add_argument("--n-max", type=int, default=20)
    fol.add_argument("--p", type=float, default=1.0)
    fol.add_argument("--pairs", type=int, default=500)
    fol.add_argument("--max-dist", type=float, default=1000.0)
    fol.add_argument("--bound-scale", type=float, default=1.0)
    fol.add_argument("--json-out", default=None)
    fol.set_defaults(handler=cmd_folner)

    rep = sub.add_parser("report", help="render the claim comparison tables")
    common(rep)
    rep.add_argument("--results-dir", required=True)
    rep.set_defaults(handler=cmd_report)

    if config_defaults:
        # Subparsers parse into a fresh namespace, so file-sourced
        # defaults must be installed on each of them to lose against
        # explicit flags but win against built-ins.
        for sp in (parser, mod, ver, cub, gk, fol, rep):
            sp.set_defaults(**config_defaults)
    return parser


def _config_defaults(argv: list[str]) -> dict:
    peek = argparse.ArgumentParser(add_help=False)
    peek.add_argument("--config")
    known, _ = peek.parse_known_args(argv)
    if known.config is None:
        return {}
    with open(known.config, encoding="utf-8") as fh:
        loaded = json.load(fh)
    if not isinstance(loaded, dict):
        raise ValueError("config file must hold a JSON object")
    return {str(k).replace("-", "_"): v for k, v in loaded.items()}


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        defaults = _config_defaults(argv)
    except OSError as exc:
        print(f"embedlab: cannot read config: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, json.JSONDecodeError) as exc:
        print(f"embedlab: bad config: {exc}", file=sys.stderr)
        return EXIT_USAGE
    parser = build_parser(defaults)
    args = parser.parse_args(argv)
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
