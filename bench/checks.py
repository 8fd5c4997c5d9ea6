"""Output checks for the benchmark's embedlab invocations.

Each check reads the artifacts one invocation wrote and returns a list of
problems (empty when the output is right).  A check either compares
against a computation made here, apart from the program, or tests a
property the method must have; none compares against a stored copy of
earlier output.  ``selfcheck.py`` holds a negative control for each.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import traceback

import numpy as np

import workloads

REL_TOL = 1e-9  # artifacts print 12 significant digits

# float32 random-feature engine against the float64 reference.  Float32
# cosines of arguments near 1e2 carry errors of a few 1e-6 per coordinate;
# glued distances (all >= 0.2 on the agreement pairs) differed by at most
# 7e-7 relative on seeds 1-3, so 1e-5 relative leaves a wide margin while
# any change of tables, bandwidths or exponents moves them by far more.
RFF_RTOL = 1e-5


# ---------------------------------------------------------------------------
# artifact access


def read_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def read_csv(path: str) -> dict[str, np.ndarray]:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        raise ValueError(f"{path} has no rows")
    return {k: np.array([float(r[k]) for r in rows]) for k in rows[0]}


def opt(args: tuple[str, ...], flag: str, default=None):
    """Value following ``flag`` in an argument list."""
    if flag in args:
        return args[args.index(flag) + 1]
    if default is None:
        raise KeyError(flag)
    return default


# ---------------------------------------------------------------------------
# reference computations made apart from the program


def schedule_bandwidths(preset: str, n_terms: int, q: float = 2.0,
                        beta: float | None = None, nu: float | None = None):
    """(block indices, Gaussian bandwidths) of the preset schedules."""
    if preset == "coarse_l2":
        n = np.arange(1, n_terms + 1, dtype=float)
        # range r_n = n, budget eps_n = n^-nu, bandwidth (eps_n / r_n)^2
        return n, n ** (-2.0 * (1.0 + nu))
    n = np.arange(2, n_terms + 2, dtype=float)
    if preset in ("warmup_l2", "strong_qge2"):
        return n, 1.0 / (n * np.log(n) ** beta)
    if preset == "strong_1leqle2":
        return n, n ** (-2.0 / q) * np.log(n) ** (-2.0 * beta / q)
    raise ValueError(f"no bandwidth formula for {preset}")


def exact_l2_glued(t, bandwidths) -> np.ndarray:
    """f(t) = sqrt(sum_n 2 (1 - exp(-r_n t^2))), the q = 2 glued distance."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    return np.sqrt(np.sum(-2.0 * np.expm1(-np.outer(t * t, bandwidths)), axis=1))


def pair_separations(seed: int, n_pairs: int, t_min: float, t_max: float,
                     dim: int) -> np.ndarray:
    """Separations of the moduli pair stream: pair i draws from Philox((seed, i))
    a Gaussian base point, a Gaussian direction, then a log-uniform t."""
    log_ratio = math.log(t_max / t_min)
    t = np.empty(n_pairs)
    for i in range(n_pairs):
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, i))))
        rng.normal(0.0, 1.0, size=dim)
        rng.normal(size=dim)
        t[i] = t_min * math.exp(rng.uniform() * log_ratio)
    return t


def bin_counts(t: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Pairs with edges[j] <= t <= edges[j + 1], per bin."""
    return np.array([int(np.sum((t >= lo) & (t <= hi)))
                     for lo, hi in zip(edges[:-1], edges[1:])])


def rff_reference(X, Y, block_ids, bandwidths, base_seed: int, n_features: int,
                  q: float) -> np.ndarray:
    """Float64 glued rff distance: per block n, features drawn from
    Philox((base_seed, n, dim)), unit-normalised cosines, signed power 2/q,
    then the l_q sum over blocks."""
    dim = X.shape[1]
    mass = np.zeros(len(X))
    for n, r in zip(block_ids, bandwidths):
        rng = np.random.Generator(np.random.Philox(
            np.random.SeedSequence((base_seed, int(n), dim))))
        w = rng.normal(0.0, math.sqrt(2.0 * r), size=(dim, n_features))
        b = rng.uniform(0.0, 2.0 * math.pi, size=n_features)
        side = []
        for P in (X, Y):
            z = np.cos(P @ w + b)
            z /= np.linalg.norm(z, axis=1, keepdims=True)
            side.append(np.sign(z) * np.abs(z) ** (2.0 / q))
        mass += np.sum(np.abs(side[0] - side[1]) ** q, axis=1)
    return mass ** (1.0 / q)


def agreement_pairs(seed: int, n_pairs: int = 48, dim: int = 16):
    """Seeded pairs at log-uniform separations in [0.1, 100]."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, 0xBE))))
    X = rng.standard_normal((n_pairs, dim))
    u = rng.standard_normal((n_pairs, dim))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    t = np.exp(rng.uniform(math.log(0.1), math.log(100.0), n_pairs))
    return X, X + t[:, None] * u, t


def compare_rff(program: np.ndarray, reference: np.ndarray) -> list[str]:
    err = np.abs(program - reference)
    bad = err > RFF_RTOL * np.abs(reference)
    if np.any(bad):
        j = int(np.argmax(err))
        return [f"fast_rff_engine differs from the float64 reference on {int(bad.sum())} "
                f"pairs (worst {program[j]!r} vs {reference[j]!r})"]
    return []


def tree_segment(x: tuple, size: int) -> list[bytes]:
    """First ``size`` vertices of the merging ray from x, each spelled out as
    its full root path: up to the deepest all-zeros ancestor, then outward
    along the all-zeros ray.  Paths are byte strings (one byte per edge
    label), which hash far faster than tuples of the same length."""
    path = bytes(x)
    z = len(path) - len(path.lstrip(b"\0"))
    out = []
    for j in range(size):
        up = len(path) - j
        out.append(path[:up] if up >= z else bytes(z + j - (len(path) - z)))
    return out


def tree_block_distance(x: tuple, y: tuple, size: int) -> float:
    """|A(x) Delta A(y)| / |A| by enumerating both segments."""
    return len(set(tree_segment(x, size)) ^ set(tree_segment(y, size))) / size


def tree_segment_size(n: int) -> int:
    eps = min(0.5, 1.0 / (n * math.log(n) ** 2))
    return math.ceil(n / eps)


def zk_defect_closed_form(n: int) -> float:
    """Worst box defect over shifts of l_1 length <= n: 2n / (2 M_n + 1)."""
    eps = min(0.5, 1.0 / (n * math.log(n) ** 2))
    return 2.0 * n / (2 * math.ceil(n / eps) + 1)


# ---------------------------------------------------------------------------
# checks on artifacts


def _close(a: float, b: float, tol: float = REL_TOL) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(b))


def zero_violations(doc: dict, label: str) -> list[str]:
    v = doc.get("violations")
    return [] if v == 0 else [f"{label}: violations = {v!r}"]


def envelope_invariants(env: dict[str, np.ndarray], label: str) -> list[str]:
    """Envelopes are nondecreasing and rho_hat <= omega_hat on populated rows."""
    out = []
    for key in ("rho_hat", "omega_hat"):
        vals = env[key][np.isfinite(env[key])]
        if np.any(np.diff(vals) < -REL_TOL * np.abs(vals[:-1])):
            out.append(f"{label}: {key} decreases")
    pop = (env["count"] > 0) & np.isfinite(env["rho_hat"]) & np.isfinite(env["omega_hat"])
    if np.any(env["rho_hat"][pop] > env["omega_hat"][pop] * (1 + REL_TOL)):
        out.append(f"{label}: rho_hat exceeds omega_hat on a populated row")
    return out


def certified_columns(env: dict[str, np.ndarray], label: str) -> list[str]:
    """rho_hat >= certified_lower and omega_hat <= certified_upper."""
    out = []
    lo, hi = env["certified_lower"], env["certified_upper"]
    ok = np.isfinite(env["rho_hat"]) & np.isfinite(lo)
    if np.any(env["rho_hat"][ok] < lo[ok] * (1 - REL_TOL)):
        out.append(f"{label}: rho_hat below certified_lower")
    ok = np.isfinite(env["omega_hat"]) & np.isfinite(hi)
    if np.any(env["omega_hat"][ok] > hi[ok] * (1 + REL_TOL)):
        out.append(f"{label}: omega_hat above certified_upper")
    return out


def moduli_bins(env: dict[str, np.ndarray], args: tuple[str, ...], seed: int,
                label: str) -> list[str]:
    """Bin edges and counts equal a histogram of the re-drawn separations."""
    t_min, t_max = float(opt(args, "--t-min")), float(opt(args, "--t-max"))
    bins, pairs = int(opt(args, "--bins")), int(opt(args, "--pairs"))
    edges = np.geomspace(t_min, t_max, bins + 1)
    if len(env["bin_edge_t"]) != bins or not all(
            _close(a, b) for a, b in zip(env["bin_edge_t"], edges[:-1])):
        return [f"{label}: bin edges differ from geomspace({t_min}, {t_max}, {bins + 1})"]
    t = pair_separations(seed, pairs, t_min, t_max, int(opt(args, "--dim", "16")))
    want = bin_counts(t, edges)
    if not np.array_equal(env["count"].astype(int), want):
        return [f"{label}: bin counts differ from the re-drawn separations"]
    return []


def l2_edge_distances(args: tuple[str, ...]) -> np.ndarray:
    """f at the bin edges of a kernel-mode (q = 2) moduli invocation."""
    _, r = schedule_bandwidths(opt(args, "--preset"), int(opt(args, "--n-terms")),
                               beta=float(opt(args, "--beta", "nan")),
                               nu=float(opt(args, "--nu", "nan")))
    edges = np.geomspace(float(opt(args, "--t-min")), float(opt(args, "--t-max")),
                         int(opt(args, "--bins")) + 1)
    return exact_l2_glued(edges, r)


def l2_exact_bins(env: dict[str, np.ndarray], args: tuple[str, ...], label: str) -> list[str]:
    """At q = 2: f(edge_j) <= rho_hat_j and omega_hat_j <= f(edge_{j+1})."""
    f = l2_edge_distances(args)
    pop = env["count"] > 0
    lo_bad = env["rho_hat"][pop] < f[:-1][pop] * (1 - REL_TOL)
    hi_bad = env["omega_hat"][pop] > f[1:][pop] * (1 + REL_TOL)
    if np.any(lo_bad) or np.any(hi_bad):
        return [f"{label}: envelope leaves [f(edge_j), f(edge_j+1)] on "
                f"{int(lo_bad.sum() + hi_bad.sum())} populated rows"]
    return []


def rff_omega_cap(env: dict[str, np.ndarray], args: tuple[str, ...], label: str) -> list[str]:
    """Unit q-sphere blocks differ by at most 2 in l_q: omega_hat <= 2 blocks^(1/q)."""
    q, blocks = float(opt(args, "--q")), int(opt(args, "--n-terms"))
    cap = 2.0 * blocks ** (1.0 / q)
    vals = env["omega_hat"][np.isfinite(env["omega_hat"])]
    if np.any(vals > cap):
        return [f"{label}: omega_hat {float(vals.max())!r} exceeds 2 blocks^(1/q) = {cap!r}"]
    return []


def rff_engine_values(args: tuple[str, ...], seed: int) -> tuple[np.ndarray, np.ndarray]:
    """(program, reference) glued distances on the agreement pairs: the
    program's fast_rff_engine and the float64 reference of this module."""
    from embedlab.glue import GaussianBlockFamily, glue, preset_schedule
    from embedlab.moduli import fast_rff_engine

    preset, q = opt(args, "--preset"), float(opt(args, "--q"))
    beta, n_terms = float(opt(args, "--beta")), int(opt(args, "--n-terms"))
    base_seed, n_features = int(opt(args, "--base-seed")), int(opt(args, "--n-features"))
    fam = GaussianBlockFamily(preset_schedule(preset, q=q, beta=beta), backend="rff",
                              base_seed=base_seed, n_features=n_features)
    X, Y, t = agreement_pairs(seed)
    program = np.asarray(fast_rff_engine(glue(fam, n_terms=n_terms))(X, Y, t))
    ids, r = schedule_bandwidths(preset, n_terms, q=q, beta=beta)
    return program, rff_reference(X, Y, ids, r, base_seed, n_features, q)


def zk_defect_column(env: dict[str, np.ndarray], label: str) -> list[str]:
    bad = [int(n) for n, v in zip(env["n"], env["measured_defect_max"])
           if not _close(v, zk_defect_closed_form(int(n)))]
    return [f"{label}: measured_defect_max differs from 2n/(2M_n+1) at n = {bad}"] if bad else []


def tree_pair_distances(env: dict[str, np.ndarray], args: tuple[str, ...], seed: int,
                        label: str, sample: int = 8) -> list[str]:
    """Sampled tree pairs: block distances by segment enumeration equal the
    program's, and their glued distances sit inside the CSV envelopes."""
    from embedlab.amenable import TreeACollection, TreeModel, sample_tree_pairs

    n_min, n_max = int(opt(args, "--n-min", "2")), int(opt(args, "--n-max", "20"))
    tree = TreeModel()
    pairs = sample_tree_pairs(tree, sample, int(float(opt(args, "--max-dist", "1000"))), seed)
    system = TreeACollection(tree, n_min=n_min, n_max=n_max)
    return tree_distance_problems(pairs, system, env, n_min, n_max, label)


def tree_distance_problems(pairs, system, env, n_min, n_max, label,
                           brute=tree_block_distance) -> list[str]:
    out = []
    edges = np.append(env["bin_edge_t"], np.inf)
    for x, y in pairs:
        total = 0.0
        for n in range(n_min, n_max + 1):
            want = brute(x, y, tree_segment_size(n))
            got = system.block_distance_pth(x, y, n, 1.0)
            if got != want:
                out.append(f"{label}: block distance at n={n} is {got!r}, "
                           f"enumeration gives {want!r}")
            total += want
        d = float(len(x) + len(y) - 2 * _common_prefix(x, y))
        for j in range(len(env["bin_edge_t"])):
            if d >= edges[j] and total < env["rho_hat"][j] * (1 - REL_TOL):
                out.append(f"{label}: pair at distance {d} lies below rho_hat row {j}")
            # folner rows cover [edge_j, edge_j+1); the last row is closed
            if d < edges[j + 1] and total > env["omega_hat"][j] * (1 + REL_TOL):
                out.append(f"{label}: pair at distance {d} lies above omega_hat row {j}")
    return out


def _common_prefix(x: tuple, y: tuple) -> int:
    c = 0
    for a, b in zip(x, y):
        if a != b:
            break
        c += 1
    return c


def report_consistent(tables: dict, results_dir: str, label: str) -> list[str]:
    """Every claims row that a run in ``results_dir`` matches is consistent."""
    ran = set()
    for name in sorted(os.listdir(results_dir)):
        doc = read_json(os.path.join(results_dir, name))
        if doc.get("report_kind") == "moduli_run":
            ran.add((doc.get("domain"), doc.get("target"), doc.get("regime")))
    out = []
    seen = set()
    for row in tables["rows"]:
        key = (row["domain"], row["target"], row["regime"])
        if key in ran:
            seen.add(key)
            if row["verdict"] != "consistent":
                out.append(f"{label}: {key} is {row['verdict']}")
    if not seen:
        out.append(f"{label}: no claims row matched the workload's runs")
    return out


# ---------------------------------------------------------------------------
# per-invocation dispatch


def check_invocation(args: tuple[str, ...], workdir: str, seed: int) -> list[str]:
    """All checks that apply to one invocation's artifacts in ``workdir``."""
    label = " ".join(args[:3])
    sub = args[0]
    if sub == "report":
        return report_consistent(read_json(os.path.join(workdir, opt(args, "--out"))),
                                 os.path.join(workdir, opt(args, "--results-dir")), label)
    doc_path = opt(args, "--json-out") if sub in ("moduli", "folner") else opt(args, "--out")
    doc = read_json(os.path.join(workdir, doc_path))
    out = zero_violations(doc, label)
    if sub == "verify":
        return out + verify_suite(doc, label)
    env = read_csv(os.path.join(workdir, opt(args, "--out")))
    if sub == "moduli":
        out += envelope_invariants(env, label) + moduli_bins(env, args, seed, label)
        if opt(args, "--backend") == "kernel":
            out += certified_columns(env, label) + l2_exact_bins(env, args, label)
        else:
            out += rff_omega_cap(env, args, label)
            out += compare_rff(*rff_engine_values(args, seed))
        return out
    group = opt(args, "--group")
    if group == "heis":
        fit = doc.get("growth_fit")
        if not (isinstance(fit, float) and 3.5 <= fit <= 4.5):
            out.append(f"{label}: gauge-ball growth exponent {fit!r} is not near 4")
        return out
    out += envelope_invariants(env, label) + certified_columns(env, label)
    if group == "tree":
        out += tree_pair_distances(env, args, seed, label)
    else:
        out += zk_defect_column(env, label)
    return out


def verify_suite(doc: dict, label: str) -> list[str]:
    suite = doc.get("suite")
    out = []
    if suite == "mazur":
        devs = [doc["max_sphere_deviation"], doc["max_involution_deviation"]]
        for cell in doc["cells"]:
            devs += [cell["sphere_deviation"], cell["involution_deviation"]]
        if max(devs) > 1e-12:
            out.append(f"{label}: sphere or involution deviation {max(devs)!r} > 1e-12")
    elif suite == "cube":
        for row in doc["rows"]:
            if doc["p"] == 1.0 and abs(row["measured_distortion"] - math.sqrt(row["m"])) > 1e-9:
                out.append(f"{label}: m={row['m']} distortion {row['measured_distortion']!r} "
                           f"is not sqrt(m)")
    elif suite == "gk":
        for row in doc["rows"]:
            if doc["p"] == 1.0 and (row["max_ratio"] != 2.0 or row["min_nonzero_image"] != 2.0):
                out.append(f"{label}: k={row['k']} ground={row['ground']} ratio "
                           f"{row['max_ratio']!r} / image {row['min_nonzero_image']!r} != 2")
    elif suite == "gluing":
        if doc.get("indeterminate") != 0:
            out.append(f"{label}: {doc.get('indeterminate')!r} indeterminate pairs at q = 2")
    return out


def main() -> int:
    """Check one pass: print a JSON list of problem lists, one per invocation."""
    ap = argparse.ArgumentParser(description="check the artifacts of one benchmark pass")
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--dir", required=True, help="pass directory")
    ap.add_argument("--codes", required=True, help="comma-separated exit codes, in order")
    args = ap.parse_args()
    codes = [int(c) for c in args.codes.split(",")]
    out = []
    for inv, code in zip(workloads.invocations(args.workload, args.seed), codes):
        label = " ".join(inv[:3])
        if code != 0:
            out.append([f"{label}: exit code {code}"])
            continue
        try:
            out.append(check_invocation(inv, args.dir, args.seed))
        except Exception:  # a malformed artifact fails its invocation
            out.append([f"{label}: check raised\n{traceback.format_exc()}"])
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
