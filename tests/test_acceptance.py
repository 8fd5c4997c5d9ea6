"""Acceptance gate: one test per release criterion, tolerances pinned.

Each test times itself against the agreed wall-clock budget and asserts
the quantitative thresholds directly; ``pytest -v`` then reads as a
one-line pass/fail verdict per criterion.
"""

import math
import time

import numpy as np
import pytest

from embedlab import cli
from embedlab.amenable import (
    TreeACollection,
    TreeModel,
    ZkFolnerSystem,
    ZkModel,
    box_defect,
    char_embedding_bound_check,
    glued_group_embedding,
    heisenberg_growth_fit,
    sample_tree_pairs,
    sample_zk_pairs,
)
from embedlab.finite_geometry import cube_report, probe_audit
from embedlab.glue import GaussianBlockFamily, glue, per_pair_bounds_check, preset_schedule
from embedlab.mazur import audit_sphere_pairs, sphere_pair_tiles
from embedlab.moduli import (
    PairSampler,
    estimate_moduli,
    exact_kernel_engine,
    fast_rff_engine,
    fit_envelopes,
    glued_certifier,
)
from oracles import enflo_type2_certificate, ray_segment, zk_ball, zk_metric


def _verify_args(extra):
    return cli.build_parser().parse_args(["verify"] + extra)


def test_c01_series_and_feature_backends_meet_error_budgets():
    start = time.monotonic()
    args = _verify_args(["--suite", "kernel"])  # 1000 samples, degree 32, 4096 features
    doc = cli._SUITES["kernel"](args)
    assert doc["series_dim"] <= 3
    assert doc["samples"] == 1000
    assert doc["max_series_residual"] < 1e-14
    assert doc["max_psi_distance_error"] <= 1e-10
    assert doc["n_features"] == 4096
    assert doc["max_kernel_error"] <= 0.08
    assert doc["violations"] == 0
    assert time.monotonic() - start < 30.0


def test_c02_sphere_maps_certified_on_the_exponent_grid():
    start = time.monotonic()
    args = _verify_args(["--suite", "mazur", "--samples", "100000"])
    doc = cli._SUITES["mazur"](args)
    assert doc["grid"] == [0.5, 1.0, 1.5, 2.0, 3.0, 4.0]
    assert doc["max_sphere_deviation"] <= 1e-12
    assert doc["max_involution_deviation"] <= 1e-12
    assert doc["violations"] == 0
    assert doc["worst_margin"] > 0.0
    assert time.monotonic() - start < 60.0


def test_c03_glued_bounds_hold_per_pair_on_both_schedules():
    start = time.monotonic()
    d = np.geomspace(1.0, 1e3, 2000)

    warm = glue(GaussianBlockFamily(preset_schedule("warmup_l2", beta=2.0)),
                n_terms=200)
    rep = per_pair_bounds_check(warm, d)
    assert rep.violations == 0
    assert rep.indeterminate == 0  # exact distances at q = 2

    strong = glue(GaussianBlockFamily(preset_schedule("strong_qge2", q=4.0, beta=1.05)),
                  n_terms=200)
    rep4 = per_pair_bounds_check(strong, d)
    assert rep4.violations == 0
    assert time.monotonic() - start < 120.0


def test_c04_moduli_slopes_match_the_claimed_exponents():
    # q = 4: compression slope floor 0.35, expansion slope 0.5 +- 0.1.
    start = time.monotonic()
    sched = preset_schedule("strong_qge2", q=4.0, beta=1.05)
    fam = GaussianBlockFamily(sched, backend="rff", base_seed=42, n_features=512)
    e = glue(fam, n_terms=400)
    est = estimate_moduli(fast_rff_engine(e), PairSampler(0.1, 100.0),
                          bins=36, pairs=20000, seed=13)
    doc = fit_envelopes(est, 1.0, 8.0)
    assert doc["rho_slope"] >= 0.35
    assert 0.4 <= doc["omega_slope"] <= 0.6
    assert time.monotonic() - start < 180.0

    # q = 1.5: compression slope floor 0.5.
    start = time.monotonic()
    sched = preset_schedule("strong_1leqle2", q=1.5, beta=1.1)
    fam = GaussianBlockFamily(sched, backend="rff", base_seed=42, n_features=512)
    e = glue(fam, n_terms=160)
    est = estimate_moduli(fast_rff_engine(e), PairSampler(0.1, 100.0),
                          bins=36, pairs=20000, seed=13)
    assert fit_envelopes(est, 2.0, 20.0)["rho_slope"] >= 0.5
    assert time.monotonic() - start < 180.0

    # warm-up at small separations: both slopes within 1 +- 0.1, certified.
    start = time.monotonic()
    e = glue(GaussianBlockFamily(preset_schedule("warmup_l2", beta=2.0)),
             n_terms=200)
    est = estimate_moduli(exact_kernel_engine(e), PairSampler(1e-3, 1e-1),
                          bins=36, pairs=20000, seed=11,
                          certifier=glued_certifier(e))
    assert est.certified_violations() == 0
    doc = fit_envelopes(est, 1e-3, 1e-1)
    assert 0.9 <= doc["rho_slope"] <= 1.1
    assert 0.9 <= doc["omega_slope"] <= 1.1
    assert time.monotonic() - start < 180.0


def test_c05_coarse_schedule_bounded_above_and_still_rising():
    start = time.monotonic()
    e = glue(GaussianBlockFamily(preset_schedule("coarse_l2", nu=0.75)),
             n_terms=300)
    rep = per_pair_bounds_check(e, np.geomspace(1.0, 1e3, 2000))
    assert rep.violations == 0

    est = estimate_moduli(exact_kernel_engine(e), PairSampler(1.0, 1e3),
                          bins=36, pairs=4000, seed=5,
                          certifier=glued_certifier(e))
    assert est.certified_violations() == 0
    decade_bins = (0, 12, 24)  # left edges 1, 10, 100
    assert all(est.counts[j] > 0 for j in decade_bins)
    assert est.rho_hat[0] < est.rho_hat[12] < est.rho_hat[24]
    assert time.monotonic() - start < 120.0


def test_c06_cube_distortion_floor_met_exactly_by_the_identity():
    start = time.monotonic()
    for m in range(2, 11):
        rep = cube_report(m, 1.0)
        assert abs(rep["measured_distortion"] - math.sqrt(m)) <= 1e-9
        assert abs(rep["certificate_ratio"] - 1.0) <= 1e-12
    rng = np.random.default_rng(0)
    for _ in range(100):
        cert = enflo_type2_certificate(rng.standard_normal((64, 4)), 6)
        assert cert.ratio <= 1.0 + 1e-12
    assert time.monotonic() - start < 60.0


def test_c07_subset_probe_is_two_lipschitz_and_one_discrete():
    start = time.monotonic()
    for k in range(1, 5):
        for ground in range(k + 1, 13):
            rep = probe_audit(k, ground, 1.0)
            assert rep.violations == 0
            assert rep.max_ratio == 2.0
            assert rep.min_nonzero_image == 2.0
    assert time.monotonic() - start < 10.0


def test_c08_group_presets_certified_end_to_end():
    start = time.monotonic()
    model = ZkModel(2)
    system = ZkFolnerSystem(model, n_min=2, n_max=20)

    # exact worst translation defects against the schedule budgets
    for n in range(2, 21):
        M = system.half_side(n)
        worst = max(box_defect(M, g) for g in zk_ball(model, n) if any(g))
        assert worst <= system.eps(n)
        assert worst / (1.0 - worst) <= system.a_eps(n)

    # block-distance bound on sampled pairs
    pairs = sample_zk_pairs(model, 2000, 40, seed=3)
    char = char_embedding_bound_check(system, 1.0, d=system.distances(pairs),
                                      counts=system.sym_diff_counts(pairs))
    assert char.n_checks > 0
    assert char.violations == 0

    # far translates: every block contributes exactly two unit masses
    emb = glued_group_embedding(system, model, 2.0)
    far = (20000, 0)
    assert zk_metric((0, 0), far) > 2.0 * system.rad(20)
    assert emb.certified_lower_pth(20000.0) == 38.0
    far_counts = system.sym_diff_counts([((0, 0), far)])
    assert emb.image_distances_pth(far_counts)[0] == pytest.approx(38.0, abs=1e-12)

    # gauge-ball growth of the Heisenberg model
    assert 3.5 <= heisenberg_growth_fit(20) <= 4.5

    # tree segments: closed-form set arithmetic equals brute enumeration
    tree = TreeModel()
    col = TreeACollection(tree, n_min=2, n_max=8)
    x, y = (0,) * 3, (0,) * 7
    assert col.sym_diff_counts([(x, y)])[0, 5 - 2] == 8  # twice the graph distance
    for a, b in sample_tree_pairs(tree, 50, 10, seed=2):
        for n in range(2, 9):
            s = col.size(n)
            brute = len(set(ray_segment(tree, a, s)) ^ set(ray_segment(tree, b, s)))
            assert col.sym_diff_counts([(a, b)])[0, n - 2] == brute
    assert time.monotonic() - start < 180.0


def test_c09_thread_count_never_changes_artifacts(tmp_path):
    def once(tag, threads):
        j = tmp_path / f"{tag}.json"
        c = tmp_path / f"{tag}.csv"
        code = cli.main(["moduli", "--preset", "strong_qge2", "--q", "4",
                         "--beta", "1.05", "--backend", "rff",
                         "--n-features", "256", "--n-terms", "100",
                         "--pairs", "3000", "--bins", "24",
                         "--t-min", "0.5", "--t-max", "50", "--seed", "13",
                         "--threads", str(threads),
                         "--out", str(c), "--json-out", str(j)])
        assert code == cli.EXIT_OK
        return j.read_bytes(), c.read_bytes()

    assert once("t1", 1) == once("t8", 8)


def test_c10_negative_controls_trip_every_checker():
    # Controls that live in the verify suites: a halved gk Lipschitz
    # factor, a doubled cube floor (also where the identity lies above
    # it, as at p = 4) and kernel tolerances scaled by 1e-6.
    for flags in (["gk"], ["cube"], ["cube", "--p", "4"], ["kernel"]):
        for seed in ("0", "7"):
            argv = ["--suite", *flags, "--seed", seed]
            assert cli._SUITES[flags[0]](_verify_args(argv))["violations"] == 0
            doc = cli._SUITES[flags[0]](_verify_args(argv + ["--negative-control"]))
            assert doc["violations"] > 0, argv

    # halved sphere-map constants
    bad = audit_sphere_pairs(sphere_pair_tiles(2000, 16, 0, 512), [2.0, 1.0],
                             upper_scale=0.5)
    assert bad["violations"] > 0

    # halved gluing budget
    e = glue(GaussianBlockFamily(preset_schedule("warmup_l2", beta=2.0)),
             n_terms=200)
    rep = per_pair_bounds_check(e, np.geomspace(1.0, 1e3, 500), eps_scale=0.5)
    assert rep.upper_violations > 0

    # halved defect budgets: the box witnesses nearly saturate them
    model = ZkModel(2)
    system = ZkFolnerSystem(model, n_min=2, n_max=20)
    defect_hits = a_defect_hits = 0
    for n in range(2, 21):
        M = system.half_side(n)
        worst = max(box_defect(M, g) for g in zk_ball(model, n) if any(g))
        defect_hits += worst > 0.5 * system.eps(n)
        a_defect_hits += worst / (1.0 - worst) > 0.5 * system.a_eps(n)
    assert defect_hits == 19
    assert a_defect_hits == 19

    # The block-distance bound carries a structural factor 2 that covers
    # unequal support sizes; on equal-size supports the attainable value
    # stays below half the bound, so a halved-bound control cannot fire
    # and correctly reports zero.  Non-vacuity of this checker is shown
    # at quarter scale, where full-length translates do cross the line.
    pairs = sample_zk_pairs(model, 500, 40, seed=3)
    half = char_embedding_bound_check(system, 1.0, d=system.distances(pairs),
                                      counts=system.sym_diff_counts(pairs), bound_scale=0.5)
    assert half.violations == 0
    witnesses = [((0, 0), (n, 0)) for n in range(3, 21)]
    quarter = char_embedding_bound_check(system, 1.0,
                                         d=[zk_metric(x, y) for x, y in witnesses],
                                         counts=system.sym_diff_counts(witnesses),
                                         bound_scale=0.25)
    assert quarter.violations >= 18
