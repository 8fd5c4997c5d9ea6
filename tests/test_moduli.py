"""Envelope estimation, exponent fits, the engines, and the cube identity's
distortion against the all-pairs oracle."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from embedlab.finite_geometry import HammingCube, cube_report
from embedlab import cli, gaussian, moduli
from embedlab.glue import GaussianBlockFamily, glue, preset_schedule
from embedlab.moduli import (
    _KEY_CHUNK,
    ModuliEstimate,
    PairSampler,
    coordinate_engine,
    estimate_moduli,
    exact_kernel_engine,
    fast_rff_engine,
    fit_envelopes,
    glued_certifier,
    loglog_fit,
    reduce_envelopes,
    _seed_keys,
    write_moduli_csv,
)
from oracles import (dense_distortion, envelope_invariants, pair_sample_loop, polyfit_loglog,
                     rff_glued_distance)


def identity_engine(X, Y, t):
    return np.linalg.norm(X - Y, axis=1)


class TestPairSampler:
    def test_validation(self):
        with pytest.raises(ValueError):
            PairSampler(1.0, 0.5)
        with pytest.raises(ValueError):
            PairSampler(0.1, 1.0, dim=0)

    def test_a_ratio_past_the_float_range_is_refused(self):
        with pytest.raises(ValueError, match=r"t_max / t_min = 1e\+200 / 1e-200 leaves"):
            PairSampler(1e-200, 1e200)
        # a finite ratio of 1e300 still draws t_min exp(u log ratio)
        s = PairSampler(1e-100, 1e200, dim=3)
        assert np.array_equal(s.sample(40, seed=2)[2], pair_sample_loop(s, 40, 2)[2])

    def test_separations_are_realized(self):
        X, Y, t = PairSampler(0.1, 100.0, dim=6).sample(200, seed=4)
        assert np.allclose(np.linalg.norm(X - Y, axis=1), t, rtol=1e-12)
        assert t.min() >= 0.1 and t.max() <= 100.0

    @pytest.mark.parametrize("seed", [0, 7, 2 ** 32 + 5])  # 2^32 + 5 keys with two words
    def test_draws_the_stream_of_a_fresh_generator_per_pair(self, seed):
        s = PairSampler(0.1, 100.0, dim=16)
        got, want = s.sample(300, seed), pair_sample_loop(s, 300, seed)
        for a, b in zip(got, want):
            assert np.array_equal(a, b)
        assert np.array_equal(s.sample(1, seed)[2], want[2][:1])  # pair index 0 alone

    def test_the_stream_holds_across_key_chunks(self):
        # 2^70 + 3 keys with three words; the pairs span two key chunks.
        s = PairSampler(0.1, 100.0, dim=5)
        n = _KEY_CHUNK + 3
        for a, b in zip(s.sample(n, 2 ** 70 + 3), pair_sample_loop(s, n, 2 ** 70 + 3)):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("words", [[0], [7], [5, 1], [3, 2 ** 32 - 1, 17],
                                       [9, 8, 7, 6, 5]])  # five words overflow the pool
    def test_keys_are_the_seed_sequence_states(self, words):
        n = 65540
        keys = _seed_keys(words, 0, n)
        assert keys.shape == (n, 2) and keys.dtype == np.uint64
        for i in (0, 1, 65535, 65536, n - 1):
            want = np.random.SeedSequence(words + [i]).generate_state(2, np.uint64)
            assert np.array_equal(keys[i], want), i
        assert np.array_equal(_seed_keys(words, 65530, n), keys[65530:])

    def test_negative_seed_is_refused(self):
        with pytest.raises(ValueError, match="non-negative"):
            PairSampler(0.1, 1.0).sample(1, -1)

    @pytest.mark.parametrize("seed", [7, 2 ** 70 + 3])  # 2^70 + 3 keys with three words
    def test_rows_are_stored_once_in_the_engine_dtype(self, seed):
        # The pairs span two key chunks; float32 rows are the float64 rows
        # rounded once, and no rows at all leave t as it was.
        s = PairSampler(0.1, 100.0, dim=16)
        n = _KEY_CHUNK + 3
        X, Y, t = s.sample(n, seed)
        X32, Y32, t32 = s.sample(n, seed, dtype=np.float32)
        assert X32.dtype == Y32.dtype == np.float32
        assert np.array_equal(X32, X.astype(np.float32))
        assert np.array_equal(Y32, Y.astype(np.float32))
        assert np.array_equal(t32, t)
        none = s.sample(n, seed, dtype=None)
        assert none[0] is None and none[1] is None
        assert np.array_equal(none[2], t)

    def test_per_pair_streams_are_batch_independent(self):
        s = PairSampler(0.1, 10.0, dim=4)
        X10, Y10, t10 = s.sample(10, seed=9)
        X4, Y4, t4 = s.sample(4, seed=9)
        assert np.array_equal(X10[:4], X4)
        assert np.array_equal(Y10[:4], Y4)
        assert np.array_equal(t10[:4], t4)


class TestEstimateModuli:
    def test_identity_envelopes_track_bin_edges(self):
        sampler = PairSampler(0.1, 100.0)
        est = estimate_moduli(identity_engine, sampler, bins=24, pairs=1500, seed=3)
        envelope_invariants(est, sampler.sample(1500, seed=3)[2])
        for j in range(est.n_bins):
            if est.counts[j] == 0:
                continue
            assert est.edges[j] <= est.rho_hat[j] <= est.edges[j + 1] * (1 + 1e-12)
            assert est.edges[j] * (1 - 1e-12) <= est.omega_hat[j] <= est.edges[j + 1]

    def test_envelopes_match_brute_force(self):
        # independent reduction: explicit loops over the sampled pairs
        sampler = PairSampler(0.5, 50.0, dim=3)
        rng_engine = lambda X, Y, t: t * (1.0 + 0.3 * np.sin(7.0 * t))
        est = estimate_moduli(rng_engine, sampler, bins=10, pairs=400, seed=11)
        _, _, t = sampler.sample(400, seed=11)
        img = rng_engine(None, None, t)
        for j in range(est.n_bins):
            left, right = est.edges[j], est.edges[j + 1]
            below = (t < right) if j < est.n_bins - 1 else (t <= right)
            ge = img[t >= left]
            le = img[below]
            assert est.rho_hat[j] == (ge.min() if ge.size else est.rho_hat[j])
            assert est.omega_hat[j] == (le.max() if le.size else est.omega_hat[j])
            assert est.counts[j] == int(((t >= left) & below).sum())

    def test_separation_on_an_interior_edge_counts_once_in_the_upper_row(self):
        class OnEdges:  # every separation sits exactly on a bin edge
            t_min, t_max = 0.1, 10.0

            def sample(self, n, seed, dtype):
                t = np.geomspace(self.t_min, self.t_max, 5)
                return np.zeros((n, 1)), np.zeros((n, 1)), t

        est = estimate_moduli(lambda X, Y, t: 2.0 * t, OnEdges(), bins=4, pairs=5, seed=0)
        assert est.counts.tolist() == [1, 1, 1, 2]
        assert est.counts.sum() == 5
        # omega is taken below the right edge, and at it on the last row
        assert est.omega_hat.tolist() == (2.0 * est.edges[[0, 1, 2, 4]]).tolist()
        assert est.rho_hat.tolist() == (2.0 * est.edges[:-1]).tolist()

    def test_engine_output_validated(self):
        bad = lambda X, Y, t: np.full_like(t, np.nan)
        with pytest.raises(ValueError):
            estimate_moduli(bad, PairSampler(0.1, 1.0), bins=4, pairs=50, seed=0)

    def test_empty_fraction_guard(self):
        # all mass at one separation: most log bins stay empty
        sampler = PairSampler(1e-3, 1e3)
        clumped = lambda X, Y, t: np.ones_like(t)
        with pytest.raises(ValueError, match="bins are empty"):
            estimate_moduli(clumped, sampler, bins=200, pairs=8, seed=0)

    def test_the_envelope_oracle_catches_tampering(self):
        sampler = PairSampler(0.1, 10.0)
        est = estimate_moduli(identity_engine, sampler, bins=8, pairs=300, seed=1)
        t = sampler.sample(300, seed=1)[2]
        envelope_invariants(est, t)
        est.rho_hat = est.rho_hat[::-1].copy()
        with pytest.raises(AssertionError, match="rho_hat is not nondecreasing"):
            envelope_invariants(est, t)

    def test_certified_violation_count(self):
        est = estimate_moduli(identity_engine, PairSampler(0.1, 10.0), bins=8,
                              pairs=300, seed=1,
                              certifier=lambda t: (np.asarray(t) * 0.5, np.asarray(t) * 2.0))
        assert est.certified_violations() == 0
        est.certified_lower = est.certified_lower * 10.0
        assert est.certified_violations() > 0


class TestReduceEnvelopes:
    def test_out_of_range_separations_bound_both_envelopes(self):
        t = np.array([1.0, 2.5, 3.0, 5.0, 9.0])
        img = np.array([7.0, 2.0, 3.0, 5.0, 0.5])
        est = reduce_envelopes(t, img, [2.0, 4.0, 8.0])
        assert est.counts.tolist() == [2, 1]  # 1.0 and 9.0 lie in no row
        assert est.counts.sum() == 3
        envelope_invariants(est, t)
        assert est.rho_hat.tolist() == [0.5, 0.5]  # the pair at 9.0 still counts
        assert est.omega_hat.tolist() == [7.0, 7.0]  # and so does the pair at 1.0

    def test_empty_input_gives_empty_rows(self):
        est = reduce_envelopes([], [], [1.0, 2.0, 3.0])
        assert est.counts.tolist() == [0, 0]
        assert np.isnan(est.rho_hat).all() and np.isnan(est.omega_hat).all()

    @pytest.mark.parametrize("edges", [[1.0, 3.0, 2.0], [1.0, 2.0, 2.0], [5.0], [1.0, np.nan]])
    def test_edges_must_increase_strictly(self, edges):
        with pytest.raises(ValueError, match="strictly increasing"):
            reduce_envelopes([1.5], [1.0], edges)


class TestEnvelopeInvariants:
    """``envelope_invariants`` on the estimates of every engine, and its
    negative controls."""

    @pytest.mark.parametrize("seed", [0, 7, 4242])
    @pytest.mark.parametrize("bins", [1, 7, 48])
    def test_identity_estimates_hold_the_identities(self, seed, bins):
        # Separations from 0.01 to 1000 over edges from 0.1 to 100: some
        # fall outside every row and still enter both envelopes.
        X, Y, t = PairSampler(0.01, 1000.0, dim=4).sample(200, seed)
        est = reduce_envelopes(t, identity_engine(X, Y, t), np.geomspace(0.1, 100.0, bins + 1))
        assert est.counts.sum() < t.size
        envelope_invariants(est, t)
        if bins == 1:
            return
        # Negative controls: a reversed rho, and a count moved from a
        # populated row into an empty one, whose rho lies a bin above its
        # omega for the identity.
        tampered = dataclasses.replace(est, rho_hat=est.rho_hat[::-1].copy())
        with pytest.raises(AssertionError, match="rho_hat is not nondecreasing"):
            envelope_invariants(tampered, t)
        empty = np.flatnonzero((est.counts == 0) & np.isfinite(est.rho_hat)
                               & np.isfinite(est.omega_hat))
        if bins == 48:
            assert empty.size  # 200 pairs leave rows of a sixteenth decade empty
        first = np.flatnonzero(est.counts)[0]
        for j in empty:
            counts = est.counts.copy()
            counts[first] -= 1
            counts[j] += 1
            with pytest.raises(AssertionError, match="exceeds omega_hat"):
                envelope_invariants(dataclasses.replace(est, counts=counts), t)

    @pytest.mark.parametrize("argv", [
        ["moduli", "--preset", "warmup_l2", "--beta", "2", "--backend", "kernel",
         "--n-terms", "30", "--pairs", "500", "--t-min", "0.001", "--t-max", "0.1"],
        ["moduli", "--preset", "coarse_l2", "--nu", "0.75", "--backend", "kernel",
         "--n-terms", "50", "--pairs", "500", "--t-min", "1", "--t-max", "1000"],
        ["moduli", "--preset", "strong_qge2", "--q", "4", "--beta", "1.05",
         "--n-features", "64", "--n-terms", "8", "--pairs", "300"],
        ["folner", "--group", "z2", "--pairs", "200", "--n-max", "12", "--max-dist", "200"],
        ["folner", "--group", "tree", "--pairs", "100", "--n-max", "8", "--max-dist", "30"],
    ], ids=["kernel-warmup_l2", "kernel-coarse_l2", "rff-q4", "folner-z2", "folner-tree"])
    def test_every_reduction_of_a_run_holds_the_identities(self, tmp_path, monkeypatch, argv):
        seen = []

        def recording(t, img, edges, **kwargs):
            est = reduce_envelopes(t, img, edges, **kwargs)
            seen.append((np.array(t, dtype=float), est))
            return est

        monkeypatch.setattr(moduli, "reduce_envelopes", recording)
        assert cli.main([*argv, "--json-out", str(tmp_path / "run.json")]) == cli.EXIT_OK
        assert len(seen) == 1
        t, est = seen[0]
        envelope_invariants(est, t)
        tampered = dataclasses.replace(est, rho_hat=est.rho_hat[::-1].copy())
        with pytest.raises(AssertionError, match="rho_hat is not nondecreasing"):
            envelope_invariants(tampered, t)
        dropped = est.counts.copy()
        dropped[np.argmax(dropped)] -= 1
        with pytest.raises(AssertionError, match="separations in range"):
            envelope_invariants(dataclasses.replace(est, counts=dropped), t)


class TestFitEnvelopes:
    def test_pure_power_recovery(self):
        est = estimate_moduli(lambda X, Y, t: t ** 0.5, PairSampler(0.1, 100.0),
                              bins=24, pairs=2000, seed=5)
        doc = fit_envelopes(est, 0.1, 100.0)
        for env in ("rho", "omega"):
            fit = doc[f"{env}_fit"]
            assert fit["slope"] == doc[f"{env}_slope"] == pytest.approx(0.5, abs=0.02)
            assert fit["residual"] < 0.05
            assert (fit["envelope"], fit["range"]) == (env, [0.1, 100.0])

    def test_constant_envelope_zero_slope(self):
        est = estimate_moduli(lambda X, Y, t: np.ones_like(t), PairSampler(0.1, 100.0),
                              bins=12, pairs=500, seed=2)
        assert fit_envelopes(est, 0.1, 100.0)["rho_slope"] == pytest.approx(0.0, abs=1e-9)

    def test_fit_is_loglog_fit_on_the_usable_rows(self):
        # rho is 0 on the rows whose left edge is at most 1, which are
        # populated and finite but not positive: only the rows past them
        # and inside the window enter, rho at left edges, omega at right.
        est = estimate_moduli(lambda X, Y, t: np.sqrt(np.maximum(t - 1.0, 0.0)),
                              PairSampler(0.1, 100.0), bins=24, pairs=2000, seed=5)
        doc = fit_envelopes(est, 0.5, 50.0)
        for env, ts, vals in (("rho", est.edges[:-1], est.rho_hat),
                              ("omega", est.edges[1:], est.omega_hat)):
            use = [j for j in range(est.n_bins) if 0.5 <= ts[j] <= 50.0
                   and est.counts[j] > 0 and vals[j] > 0]
            slope, intercept, residual = loglog_fit(ts[use].tolist(), vals[use].tolist())
            assert doc[f"{env}_fit"] == {"envelope": env, "range": [0.5, 50.0],
                                         "slope": slope, "intercept": intercept,
                                         "residual": residual, "bins": len(use)}
            assert doc[f"{env}_slope"] == slope
        inside = (est.edges[:-1] >= 0.5) & (est.edges[:-1] <= 50.0) & (est.counts > 0)
        assert doc["rho_fit"]["bins"] < int(inside.sum())  # zero rows left out

    def test_fit_envelopes_is_null_below_five_usable_rows(self):
        est = estimate_moduli(identity_engine, PairSampler(0.1, 100.0), bins=12,
                              pairs=500, seed=2)
        # the window [50, 60] holds at most one row edge of the twelve
        assert fit_envelopes(est, 50.0, 60.0) == {
            "rho_slope": None, "omega_slope": None, "rho_fit": None, "omega_fit": None}

    @pytest.mark.parametrize("t_lo, t_hi", [(8.0, 1.0), (5.0, 5.0), (0.0, 1.0)])
    def test_fit_envelopes_refuses_an_empty_window(self, t_lo, t_hi):
        est = estimate_moduli(identity_engine, PairSampler(0.1, 100.0), bins=12,
                              pairs=500, seed=2)
        with pytest.raises(ValueError, match="t_lo < t_hi"):
            fit_envelopes(est, t_lo, t_hi)

    def test_fit_is_the_oracle_least_squares(self):
        est = estimate_moduli(lambda X, Y, t: t ** 0.5 * (1.2 + np.sin(t)),
                              PairSampler(0.1, 100.0), bins=24, pairs=2000, seed=5)
        fit = fit_envelopes(est, 0.5, 50.0)["omega_fit"]
        use = (est.edges[1:] >= 0.5) & (est.edges[1:] <= 50.0) & (est.counts > 0)
        want = polyfit_loglog(est.edges[1:][use], est.omega_hat[use])
        got = (fit["slope"], fit["intercept"], fit["residual"])
        assert fit["bins"] == int(use.sum())
        assert got == pytest.approx(want, rel=1e-12)

    def test_too_few_rows_inside_the_window_give_a_null_fit(self):
        # Five usable rows fit and four do not: rows of width 1 from 1 to
        # 12, rho = t^2 read at the left edges.
        t = np.arange(1.0, 13.0)
        est = reduce_envelopes(t, t ** 2, np.arange(1.0, 13.0))
        assert fit_envelopes(est, 1.0, 5.0)["rho_slope"] == pytest.approx(2.0, rel=1e-12)
        assert fit_envelopes(est, 1.0, 4.0)["rho_fit"] is None
        assert fit_envelopes(est, 1.5, 5.5)["rho_fit"] is None
        assert fit_envelopes(est, 2.0, 6.0)["omega_fit"]["bins"] == 5  # right edges 2..6


class TestLoglogFit:
    """The closed-form fit against ``np.polyfit``'s LAPACK least squares."""

    @pytest.mark.parametrize("seed", range(20))
    def test_random_windows_match_the_polyfit_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 40))
        xs = np.sort(np.exp(rng.uniform(-7.0, 7.0, n)))
        ys = rng.uniform(0.1, 2.0) * xs ** rng.uniform(-1.0, 3.0) * np.exp(rng.normal(0, 0.3, n))
        want = polyfit_loglog(xs, ys)
        got = loglog_fit(xs.tolist(), ys.tolist())
        assert got[0] == pytest.approx(want[0], rel=1e-12)
        # the intercept is log c, which can sit near 0: compare it on the
        # scale of the log data it is fitted to
        scale = float(np.abs(np.log(ys)).max())
        assert got[1] == pytest.approx(want[1], rel=1e-12, abs=1e-12 * scale)
        assert got[2] == pytest.approx(want[2], rel=1e-12)

    @pytest.mark.parametrize("c, s", [(1.0, 1.0), (3.0, 0.0), (0.5, 0.5), (2.0, 1.5),
                                      (1e-3, 3.0), (7.0, -1.0)])
    @pytest.mark.parametrize("xs", [[1, 2, 4, 8, 16, 32], list(range(2, 21)),
                                    np.geomspace(0.1, 100, 36).tolist()],
                             ids=["powers-of-two", "radii", "log-spaced"])
    def test_power_laws_give_their_exponent(self, c, s, xs):
        slope, intercept, residual = loglog_fit(xs, [c * x ** s for x in xs])
        if (c, s) == (1.0, 1.0) or s == 0.0:  # log y is log x or a constant
            assert (slope, residual) == (s, 0.0)
            assert intercept == math.log(c)
        else:  # log(c x^s) is rounded once, log c + s log x is not
            assert abs(slope - s) <= 2 * math.ulp(s)
            assert residual < 1e-14

    def test_equal_abscissae_have_no_line(self):
        with pytest.raises(ValueError, match="two distinct abscissae"):
            loglog_fit([3.0] * 5, [1.0, 2.0, 3.0, 4.0, 5.0])


class TestDistortion:
    """The closed-form distortion of ``cube_report`` against the dense
    oracle, which walks every pair of vertices."""

    def test_cube_identity_value(self):
        # Hamming metric vs Euclidean coordinates: the ratio spans [1, sqrt(m)].
        assert cube_report(4, 1.0)["measured_distortion"] == pytest.approx(2.0, abs=1e-12)

    @pytest.mark.parametrize("p", [0.5, 1.0, 1.5, 2.0, 3.0, 4.0])
    @pytest.mark.parametrize("m", range(1, 11))
    def test_rows_equal_the_dense_oracle_on_cubes(self, m, p):
        got = cube_report(m, p)["measured_distortion"]
        assert got == dense_distortion(lambda v: v, HammingCube(m, p))

    def test_cube_rows_stay_within_a_memory_bound(self):
        # The dense form builds a (1024, 1024, 10) difference array and its
        # square, 186 MB in all; the closed form takes m distances.
        tracemalloc.start()
        try:
            value = cube_report(10, 1.0)["measured_distortion"]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert value == pytest.approx(math.sqrt(10.0), abs=1e-12)
        assert peak < 2 ** 20

    def test_cube_report_at_m12_stays_within_a_memory_bound(self):
        # A dense (4096, 4096) float64 domain matrix alone is 134 MB; the
        # report's distortion and type-2 certificate are closed forms.
        tracemalloc.start()
        try:
            rep = cube_report(12, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep["measured_distortion"] == pytest.approx(math.sqrt(12.0), abs=1e-12)
        assert peak < 4 * 2 ** 20


class TestEngines:
    def test_exact_kernel_engine_guards(self):
        kern = glue(GaussianBlockFamily(preset_schedule("warmup_l2", beta=2.0)), n_terms=10)
        coord = glue(GaussianBlockFamily(preset_schedule("warmup_l2", beta=2.0),
                                         backend="rff", n_features=16), n_terms=10)
        q4 = glue(GaussianBlockFamily(preset_schedule("strong_qge2", q=4.0, beta=1.1)),
                  n_terms=10)
        assert callable(exact_kernel_engine(kern))
        with pytest.raises(ValueError):
            exact_kernel_engine(coord)
        with pytest.raises(ValueError):
            exact_kernel_engine(q4)
        with pytest.raises(ValueError):
            coordinate_engine(kern)
        with pytest.raises(ValueError):
            fast_rff_engine(kern)

    def test_exact_engine_matches_interval(self):
        e = glue(GaussianBlockFamily(preset_schedule("warmup_l2", beta=2.0)), n_terms=30)
        t = np.geomspace(0.1, 50.0, 20)
        engine = exact_kernel_engine(e)
        lo, hi = e.distance_interval(t)
        got = engine(None, None, t)
        assert np.array_equal(got, lo)
        assert np.array_equal(lo, hi)

    def test_fast_rff_agrees_with_float64_path(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(15, 5))
        Y = X + rng.normal(size=(15, 5))
        # At q = 0.5 the float32 engine is 1.6e-5 off here (3.0e-5 before
        # the kernel kept raw cosines): the blocks past the first have
        # bandwidths of 7e-5 down to 5e-10, so phi(x) and phi(y) agree to
        # about five digits, and |h|^(1/2) has unbounded slope at 0.
        # Rounding the float64 psi alone to float32 costs 8.8e-6.
        for preset, q, rtol in (("strong_qge2", 4.0, 1e-5), ("strong_1leqle2", 1.5, 1e-5),
                                ("warmup_l2", 2.0, 1e-5), ("strong_qge2", 3.0, 1e-5),
                                ("strong_qle1", 0.5, 2.5e-5)):
            fam = GaussianBlockFamily(preset_schedule(preset, q=q, beta=1.1), backend="rff",
                                      base_seed=3, n_features=32, ambient_dim=5)
            e = glue(fam, n_terms=6)
            want = rff_glued_distance(e, X, Y)
            np.testing.assert_allclose(fast_rff_engine(e)(X, Y, None), want, rtol=rtol)
            np.testing.assert_allclose(coordinate_engine(e)(X, Y, None), want, rtol=1e-12)

    @pytest.mark.parametrize("q, preset", [(4.0, "strong_qge2"), (1.5, "strong_1leqle2"),
                                           (0.5, "strong_qle1")])
    def test_fast_rff_casts_float64_rows_once_to_float32(self, q, preset):
        # The engine names the kernel's dtype: float64 rows are cast to
        # float32 once, on entry, as the sampler rounds its float32 rows,
        # so both give the same bytes.  2049 pairs end on a one-pair tile,
        # and two workers split the tiles into runs.
        fam = GaussianBlockFamily(preset_schedule(preset, q=q, beta=1.1), backend="rff",
                                  base_seed=6, n_features=512, ambient_dim=16)
        engine = fast_rff_engine(glue(fam, n_terms=8, threads=2))
        rng = np.random.default_rng(12)
        X = rng.normal(size=(2049, 16))
        Y = X + rng.normal(size=X.shape) * rng.uniform(0.0, 3.0, (2049, 1))
        got = engine(X, Y, None)
        want = engine(X.astype(np.float32), Y.astype(np.float32), None)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_fast_rff_refuses_a_row_beyond_float32(self):
        # finite in float64, but not once cast to float32
        fam = GaussianBlockFamily(preset_schedule("strong_qge2", q=4.0, beta=1.1),
                                  backend="rff", n_features=8, ambient_dim=1)
        engine = fast_rff_engine(glue(fam, n_terms=2))
        with pytest.raises(ValueError, match="non-finite"), np.errstate(over="ignore"):
            engine(np.zeros((1, 1)), np.array([[1e39]]), None)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_tables_drawn_once_per_block_per_worker_past_512_blocks(self, monkeypatch,
                                                                     threads):
        # Three tiles of 128 pairs over 600 blocks, in one call per worker:
        # every call draws each table once, so a second tile or a later
        # group never redraws one.
        draws = []

        def counted(*args):
            draws.append(args[2])
            return table(*args)

        table = gaussian._rff_table
        monkeypatch.setattr(gaussian, "_rff_table", counted)
        fam = GaussianBlockFamily(preset_schedule("strong_qge2", q=4.0, beta=1.1),
                                  backend="rff", base_seed=424242, n_features=512,
                                  ambient_dim=2)
        e = glue(fam, n_terms=600, threads=threads)
        X = np.zeros((257, 2))
        fast_rff_engine(e)(X, X + 1.0, None)
        assert len(draws) == 600 * threads
        assert sorted(set(draws)) == [(424242, int(n)) for n in e.block_ids]

    @pytest.mark.parametrize("q, preset, beta", [(4.0, "strong_qge2", 1.05),
                                                 (1.5, "strong_1leqle2", 1.1)])
    def test_row_tile_size_never_changes_results(self, monkeypatch, q, preset, beta):
        # The byte budget sizes both the tiles and the groups.  2049 pairs
        # leave a one-pair tail at every tile size, and none of the float32
        # tiles of 1024, 128 and 16 pairs (512, 64 and 8 in float64), whose
        # stacked x and y rows are twice as many, is a multiple of the 30-row
        # product slab at 512 features x (16 + 1) columns; the groups hold
        # 120, 15 and 1 float32 tables.
        fam = GaussianBlockFamily(preset_schedule(preset, q=q, beta=beta), backend="rff",
                                  base_seed=31, n_features=512, ambient_dim=16)
        e = glue(fam, n_terms=16)
        rng = np.random.default_rng(8)
        X = rng.normal(size=(2049, 16))
        Y = X + rng.normal(size=X.shape) * rng.uniform(0.0, 3.0, (2049, 1))
        runs = []
        for rows in (2048, 256, 32):
            monkeypatch.setattr(gaussian, "_SCRATCH_BYTES", rows * 512 * 4)
            runs.append((fast_rff_engine(e)(X, Y, None), coordinate_engine(e)(X, Y, None)))
        for fast, coord in runs[1:]:
            assert np.array_equal(fast, runs[0][0])
            assert np.array_equal(coord, runs[0][1])

    def test_row_tile_scratch_stays_cache_sized(self):
        # Traced peak of a 8192-row, 512-feature pass with three per-side
        # scratch arrays and the rows cast a tile at a time: 1.8 MiB with
        # 256-row tiles, 3.4 MiB with 512-row tiles and 12.6 MiB with
        # 2048-row tiles; 1.3 MiB with two arrays of 128 stacked pairs.
        # The engine's float32 copy of the rows, cast once on entry, adds
        # 1 MiB to each, so 512-row tiles fail.  The scratch arrays grow
        # with the tile.
        import tracemalloc

        fam = GaussianBlockFamily(preset_schedule("strong_qge2", q=4.0, beta=1.05),
                                  backend="rff", base_seed=9, n_features=512,
                                  ambient_dim=16)
        engine = fast_rff_engine(glue(fam, n_terms=3))
        rng = np.random.default_rng(1)
        X = rng.normal(size=(8192, 16))
        Y = X + rng.normal(size=X.shape)
        tracemalloc.start()
        try:
            engine(X, Y, None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20

    def test_stacked_tile_scratch_holds_two_arrays(self):
        # Bound set at the two 512 KiB scratch arrays, the tables and the
        # stacked rows, below the 1.5 MiB of three arrays alone.
        fam = GaussianBlockFamily(preset_schedule("strong_qge2", q=4.0, beta=1.05),
                                  backend="rff", base_seed=9, n_features=512,
                                  ambient_dim=16)
        blocks = glue(fam, n_terms=3)._blocks
        rng = np.random.default_rng(1)
        X = rng.normal(size=(8192, 16)).astype(np.float32)
        Y = (X + rng.normal(size=X.shape)).astype(np.float32)
        tracemalloc.start()
        try:
            gaussian.block_mass(X, Y, blocks, 4.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 2 ** 20

    def test_rff_estimate_holds_its_rows_once_in_float32(self):
        # Bound set at the float32 rows (1 MiB at 8192 pairs), the
        # sampler's float64 chunk and the kernel's working set, below the
        # 2 MiB of float64 rows alone.
        fam = GaussianBlockFamily(preset_schedule("strong_qge2", q=4.0, beta=1.05),
                                  backend="rff", base_seed=9, n_features=512,
                                  ambient_dim=16)
        engine = fast_rff_engine(glue(fam, n_terms=3))
        tracemalloc.start()
        try:
            estimate_moduli(engine, PairSampler(0.1, 100.0), bins=36, pairs=8192, seed=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 2 ** 20

    def test_kernel_estimate_keeps_no_rows(self):
        seen = []

        class Recording(PairSampler):
            def sample(self, n_pairs, seed, dtype=np.float64):
                X, Y, t = super().sample(n_pairs, seed, dtype)
                seen.append((X, Y))
                return X, Y, t

        e = glue(GaussianBlockFamily(preset_schedule("warmup_l2", beta=2.0)), n_terms=30)
        engine = exact_kernel_engine(e)
        sampler = Recording(0.01, 10.0)
        est = estimate_moduli(engine, sampler, bins=12, pairs=1500, seed=4,
                              certifier=glued_certifier(e))
        assert seen == [(None, None)]
        # the same envelopes as the engine on float64 rows of the same pairs
        rows = estimate_moduli(lambda X, Y, t: engine(X, Y, t), sampler, bins=12,
                               pairs=1500, seed=4, certifier=glued_certifier(e))
        assert seen[1][0].shape == (1500, 16)
        for name in ("edges", "rho_hat", "omega_hat", "counts", "certified_lower",
                     "certified_upper"):
            assert np.array_equal(getattr(est, name), getattr(rows, name), equal_nan=True)
        envelope_invariants(est, PairSampler(0.01, 10.0).sample(1500, seed=4, dtype=None)[2])

    @pytest.mark.parametrize("n_terms", [300, 6400])
    def test_interval_working_set_stays_within_the_budget(self, n_terms):
        # The slices of 4000 separations hold the 512 KiB budget; the
        # bound adds room for the separations and both ends.  Slices of
        # 256 rows with five (rows x blocks) arrays alive peaked at 2.4 MiB
        # over 300 blocks and 50 MiB over 6400.
        e = glue(GaussianBlockFamily(preset_schedule("coarse_l2", nu=0.75)), n_terms=n_terms)
        t = np.geomspace(1.0, 1000.0, 4000)
        tracemalloc.start()
        try:
            e.distance_interval(t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    def test_series_tile_scratch_stays_within_the_budget(self):
        # verify --suite kernel's series: 1000 pairs at degree 32 in
        # dimension 3, 6545 float64 coordinates, so tiles of 5 pairs whose
        # two scratch arrays of 10 stacked rows take 1 MiB (1.1 MiB traced
        # peak; 1.6 MiB with three arrays of 10 rows a side).  The
        # coordinates are written into the first of them and gathered and
        # normed a run of rows at a time; a fresh coordinate array,
        # full-size gathers and a squared copy for the norms peaked at
        # 3.0 MiB.
        backend = gaussian.TruncatedExp(0.5, 32, 3)
        rng = np.random.default_rng(3)
        X, Y = (P * 1.2 * rng.random((1000, 1)) / np.linalg.norm(P, axis=1, keepdims=True)
                for P in (rng.normal(size=(1000, 3)), rng.normal(size=(1000, 3))))
        gaussian.block_mass(X[:1], Y[:1], [backend], 2.0)  # multi-indices cached
        tracemalloc.start()
        try:
            gaussian.block_mass(X, Y, [backend], 2.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2 ** 20

    def test_wrong_dimension_rejected_by_both_engines(self):
        fam = GaussianBlockFamily(preset_schedule("strong_qge2", q=4.0, beta=1.1),
                                  backend="rff", n_features=16, ambient_dim=16)
        e = glue(fam, n_terms=3)
        X = np.zeros((2, 3))
        for engine in (fast_rff_engine(e), coordinate_engine(e)):
            with pytest.raises(ValueError, match="dim 3, family expects 16"):
                engine(X, X + 1.0, None)

    def test_certifier_wraps_interval(self):
        e = glue(GaussianBlockFamily(preset_schedule("warmup_l2", beta=2.0)), n_terms=8)
        t = np.array([0.5, 2.0])
        lo, hi = glued_certifier(e)(t)
        lo2, hi2 = e.distance_interval(t)
        assert np.array_equal(lo, lo2) and np.array_equal(hi, hi2)


class TestCsv:
    def test_deterministic_render(self, tmp_path):
        e = glue(GaussianBlockFamily(preset_schedule("warmup_l2", beta=2.0)), n_terms=20)
        est = estimate_moduli(exact_kernel_engine(e), PairSampler(0.1, 10.0), bins=6,
                              pairs=200, seed=8, certifier=glued_certifier(e))
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_moduli_csv(est, out1)
        write_moduli_csv(est, out2)
        assert out1.read_bytes() == out2.read_bytes()
        lines = out1.read_text().strip().split("\n")
        assert lines[0] == "bin_edge_t,rho_hat,omega_hat,count,certified_lower,certified_upper"
        assert len(lines) == 1 + est.n_bins
        first = lines[1].split(",")
        assert float(first[0]) == pytest.approx(0.1)
        assert int(first[3]) == int(est.counts[0])

    def test_missing_certification_renders_nan(self, tmp_path):
        est = estimate_moduli(identity_engine, PairSampler(0.1, 10.0), bins=4,
                              pairs=100, seed=0)
        out = tmp_path / "m.csv"
        write_moduli_csv(est, out)
        assert ",nan,nan" in out.read_text().split("\n")[1]

    def test_extra_columns_follow_the_envelope_columns(self, tmp_path):
        est = estimate_moduli(identity_engine, PairSampler(0.1, 10.0), bins=3,
                              pairs=100, seed=0)
        out = tmp_path / "x.csv"
        write_moduli_csv(est, out, {"n": [2, 3, 4], "eps_n": [0.5, 0.25, 1 / 3]})
        header, *rows = out.read_text().splitlines()
        assert header == ",".join(moduli._COLUMNS + ("n", "eps_n"))
        assert [r.split(",")[-2:] for r in rows] == [["2", "0.5"], ["3", "0.25"],
                                                     ["4", "0.333333333333"]]

    def test_rows_without_an_estimate_come_from_the_extra_columns(self, tmp_path):
        out = tmp_path / "h.csv"
        write_moduli_csv(None, out, {"n": [2, 3], "rad_n": [3.0, 7.0]})
        assert out.read_text().splitlines()[1:] == ["nan,nan,nan,0,nan,nan,2,3",
                                                    "nan,nan,nan,0,nan,nan,3,7"]
