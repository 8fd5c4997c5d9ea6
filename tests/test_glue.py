"""Gluing schedules, certified budgets, and the per-pair bound audits."""

import math
import re
import sys
import warnings

import numpy as np
import pytest

from embedlab import gaussian
from embedlab.gaussian import delta_q
from embedlab.glue import (
    GaussianBlockFamily,
    GluedEmbedding,
    ParamSchedule,
    PowerLogSeq,
    _coarse_step_count,
    glue,
    per_pair_bounds_check,
    preset_schedule,
)

from oracles import (coarse_step_count_search, glued_interval, glued_mass_interval,
                     preset_formulas)

# Exponent grids of the strong presets, each over its whole range.
GRIDS = {"strong_qle1": [k / 100 for k in range(14, 101)],
         "strong_1leqle2": [k / 100 for k in range(100, 201)],
         "strong_qge2": [k / 20 for k in range(40, 241)]}


class TestSequences:
    def test_power_log_values(self):
        s = PowerLogSeq(3.0, -1.0, -2.0)
        n = 5.0
        assert s.value(5) == pytest.approx(3.0 / (n * math.log(n) ** 2))
        with pytest.raises(ValueError):
            s.value(1)

    @pytest.mark.parametrize("seq,power", [
        (PowerLogSeq(1.0, -1.0, -2.0), 1.0),    # a > 1 via log corrections? a=1, b=2
        (PowerLogSeq(1.0, -2.0, -1.0), 1.5),    # a > 1, b > 0
        (PowerLogSeq(2.0, -1.5, 0.0), 2.0),     # a > 1, b = 0
    ])
    def test_power_tail_dominates_partial_sums(self, seq, power):
        n_last = 10
        ns = np.arange(n_last + 1, n_last + 200_001)
        partial = float(np.sum(seq.value(ns) ** power))
        assert seq.power_tail(power, n_last) >= partial

    def test_power_tail_divergent_rejected(self):
        with pytest.raises(ValueError):
            PowerLogSeq(1.0, -1.0, 0.0).power_tail(1.0, 10)  # harmonic
        with pytest.raises(ValueError):
            PowerLogSeq(1.0, -1.0, -1.0).power_tail(1.0, 10)  # 1/(n log n)

    def test_growing_log_tail_rejected(self):
        with pytest.raises(ValueError, match="growing log factor"):
            PowerLogSeq(1.0, -2.0, 1.0).power_tail(1.5, 10)  # a = 3, b = -1.5


class TestPresets:
    def test_warmup_values(self):
        sched = preset_schedule("warmup_l2", beta=2.0)
        r4 = 1.0 / (4.0 * math.log(4.0) ** 2)
        assert float(sched.r(4)) == pytest.approx(r4, rel=1e-12)
        assert float(sched.s(4)) == pytest.approx(1.0 / math.sqrt(r4), rel=1e-12)
        assert sched.q == 2.0 and sched.kind == "strong"

    def test_coarse_values(self):
        sched = preset_schedule("coarse_l2", nu=0.75)
        assert float(sched.r(8)) == 8.0
        assert float(sched.eps(8)) == pytest.approx(8.0 ** -0.75, rel=1e-12)
        assert float(sched.s(8)) == pytest.approx(8.0 ** 1.75, rel=1e-12)
        # coarse blocks get their Gaussian bandwidth from (eps/r)^2
        assert float(sched.bandwidth(8)) == pytest.approx((8.0 ** -0.75 / 8.0) ** 2)

    def test_low_exponent_reduction(self):
        sched = preset_schedule("strong_qle1", q=1.0, beta=2.0)
        n = 6.0
        assert float(sched.r(6)) == pytest.approx(1.0 / (n ** 2 * math.log(n) ** 4), rel=1e-12)
        assert sched.mass_power == 1.0

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            preset_schedule("warmup_l2", beta=1.0)
        with pytest.raises(ValueError):
            preset_schedule("coarse_l2", nu=0.5)
        with pytest.raises(ValueError):
            preset_schedule("strong_qge2", q=1.5, beta=1.1)
        with pytest.raises(ValueError):
            preset_schedule("strong_1leqle2", q=4.0, beta=1.1)
        with pytest.raises(ValueError):
            preset_schedule("warmup_l2", q=3.0, beta=2.0)
        with pytest.raises(ValueError):
            preset_schedule("nope", beta=2.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name, kwargs, param", [
        ("warmup_l2", {}, "beta"),
        ("strong_qge2", {"q": 4.0}, "beta"),
        ("strong_qge2", {"beta": 1.05}, "q"),
        ("strong_1leqle2", {"beta": 1.1}, "q"),
        ("strong_qle1", {"beta": 1.1}, "q"),
        ("coarse_l2", {}, "nu"),
    ])
    def test_non_finite_parameters_are_named(self, name, kwargs, param, bad):
        # NaN fails every comparison, so each check is written to fail on it.
        with pytest.raises(ValueError, match=f"{name} requires a finite {param}"):
            preset_schedule(name, **kwargs, **{param: bad})

    @pytest.mark.parametrize("name, q, beta, refused", [
        ("warmup_l2", None, 1900.0, False), ("warmup_l2", None, 2000.0, True),
        ("strong_qle1", 0.5, 900.0, False), ("strong_qle1", 0.5, 1000.0, True),
    ])
    def test_budget_tail_past_the_float_range_is_refused(self, name, q, beta, refused):
        # The tail from n = 2 at the power q holds ln(2)^(1 - beta), past the
        # float range from beta near 1937; strong_qle1 at q = 1/2 also sums
        # the power m = 1, whose tail holds ln(2)^(-2 beta), past it from
        # beta near 968.  Python's pow raises there rather than warn.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if refused:
                with pytest.raises(ValueError, match=re.escape(
                        f"{name} at q={q or 2:g}, beta={beta:g}: "
                        "the budget tail leaves the float range")):
                    preset_schedule(name, q=q, beta=beta)
            else:
                sched = preset_schedule(name, q=q, beta=beta)
                assert 0 < sched.eps_q_tail(1) < math.inf

    @pytest.mark.parametrize("name,q", [
        ("warmup_l2", 2.0), ("strong_qge2", 4.0), ("strong_1leqle2", 1.5),
        ("strong_qle1", 0.5),
    ])
    def test_eta_is_block_floor(self, name, q):
        sched = preset_schedule(name, q=q, beta=1.1)
        assert sched.eta == pytest.approx(delta_q(q))

    def test_mass_power_regimes(self):
        assert preset_schedule("strong_qge2", q=4.0, beta=1.1).mass_power == 4.0
        assert preset_schedule("strong_qle1", q=0.5, beta=1.1).mass_power == 1.0


class TestScheduleInvariants:
    def test_budget_mass_ordering(self):
        sched = preset_schedule("warmup_l2", beta=2.0)
        assert sched.eps_q_tail(100) < sched.eps_q_tail(10)
        assert sched.eps_mass_total() >= sched.eps_mass_partial(10_000)
        assert sched.certified_eps(4) == pytest.approx(sched.eps_mult * float(sched.eps(4)))

    def test_structural_validation(self):
        shrinking = PowerLogSeq(1.0, -1.0, -2.0)  # 1 / (n ln^2 n)
        ok = dict(name="x", q=2.0, kind="strong", beta=2.0)
        ParamSchedule(r_seq=shrinking, **ok)
        # growing bandwidths break the budget form, which forces decrease
        with pytest.raises(ValueError, match="need budgets"):
            ParamSchedule(r_seq=PowerLogSeq(1.0, 1.0, 2.0), **ok)
        with pytest.raises(ValueError, match="diverges"):  # eps budget must be q-summable
            ParamSchedule(r_seq=PowerLogSeq(1.0, -1.0, -1.0), **{**ok, "beta": 1.0})
        with pytest.raises(ValueError, match="need budgets"):  # the tails' construction
            ParamSchedule(r_seq=PowerLogSeq(1.0, -1.0, 0.0), **ok)
        with pytest.raises(ValueError):
            ParamSchedule(r_seq=shrinking, **{**ok, "kind": "odd"})
        with pytest.raises(ValueError, match="strong schedules need beta"):
            ParamSchedule(r_seq=shrinking, **{**ok, "beta": None})
        for q in (0.0, math.inf, math.nan):  # the exponent has a distance root
            with pytest.raises(ValueError, match="exponent must be a finite positive real"):
                ParamSchedule(r_seq=shrinking, **{**ok, "q": q})
        coarse = dict(name="x", q=2.0, kind="coarse", nu=0.75)
        ParamSchedule(r_seq=PowerLogSeq(1.0, 1.0, 0.0, n_min=3), **coarse)
        for r_seq in (PowerLogSeq(2.0, 1.0, 0.0), PowerLogSeq(1.0, 2.0, 0.0),
                      PowerLogSeq(1.0, 1.0, 1.0)):
            with pytest.raises(ValueError, match="coarse schedules need ranges r_n = n"):
                ParamSchedule(r_seq=r_seq, **coarse)

    @pytest.mark.parametrize("beta", [1.01, 1.05, 1.1, 2.0])
    @pytest.mark.parametrize("name", list(GRIDS))
    def test_derived_attributes_are_the_preset_formulas(self, name, beta):
        for q in GRIDS[name]:
            sched = preset_schedule(name, q=q, beta=beta)
            for attr, want in preset_formulas(name, q=q, beta=beta).items():
                assert getattr(sched, attr) == want, (q, attr)

    @pytest.mark.parametrize("nu", [0.51, 0.75, 1.0, 2.5])
    def test_coarse_attributes_are_the_preset_formulas(self, nu):
        sched = preset_schedule("coarse_l2", nu=nu)
        for attr, want in preset_formulas("coarse_l2", nu=nu).items():
            assert getattr(sched, attr) == want, attr

    @pytest.mark.parametrize("beta", [1.01, 1.05, 1.1, 2.0])
    @pytest.mark.parametrize("name", list(GRIDS))
    def test_budget_tail_is_the_borderline_closed_form(self, name, beta):
        # eps_n^q = eps_mult^q / (n ln^beta n), whose tail past N is
        # eps_mult^q ln(N)^(1 - beta) / (beta - 1) at every q: no product
        # of rounded exponents moves it off the borderline.
        for q in GRIDS[name]:
            sched = preset_schedule(name, q=q, beta=beta)
            last = sched.n0 + 99
            want = sched.eps_mult ** q * (math.log(last) ** (1 - beta) / (beta - 1))
            assert sched.eps_q_tail(100) == want, q

    @pytest.mark.parametrize("n0", [1, 3])
    def test_coarse_step_count_is_the_search(self, n0):
        sched = ParamSchedule("x", 2.0, "coarse", PowerLogSeq(1.0, 1.0, 0.0, n_min=n0), nu=0.75)
        rng = np.random.default_rng(39)
        for d in (rng.uniform(0.0, 5e5, 20_000), np.arange(0.0, 2000.5, 0.5),
                  np.array([1 - 1e-6])):
            got = _coarse_step_count(sched, d)
            assert np.array_equal(got, coarse_step_count_search(sched, d))

    @pytest.mark.parametrize("beta", [1.01, 1.05, 1.1, 2.0])
    @pytest.mark.parametrize("name", list(GRIDS))
    def test_realized_bandwidths_fall_and_thresholds_rise(self, name, beta):
        # The budget form forces both exponents of r_n negative; realized
        # over 2000 blocks, or the blocks before the first one refused.
        for q in GRIDS[name]:
            fam = GaussianBlockFamily(preset_schedule(name, q=q, beta=beta))
            try:
                e = glue(fam, n_terms=2000)
            except ValueError as exc:
                first = int(re.fullmatch(r".* at block (\d+)", str(exc)).group(1))
                e = glue(fam, n_terms=first - fam.schedule.n0)
            assert np.all(np.diff(e.bandwidths) <= 0), q
            assert np.all(np.diff(e.s_values) >= 0), q

    def test_to_json_dict_echoes_parameters(self):
        d = preset_schedule("strong_qge2", q=4.0, beta=1.05).to_json_dict()
        assert d["name"] == "strong_qge2" and d["q"] == 4.0
        assert d["beta"] == 1.05 and d["kind"] == "strong"


class TestGluedEmbedding:
    def test_kernel_mode_interval_exact_at_two(self):
        e = glue(GaussianBlockFamily(preset_schedule("warmup_l2", beta=2.0)), n_terms=40)
        d = np.array([0.0, 0.5, 3.0, 40.0])
        lo, hi = e.distance_interval(d)
        assert np.array_equal(lo, hi)
        assert lo[0] == 0.0
        assert np.all(np.diff(lo) > 0)

    def test_kernel_mode_refuses_coordinates(self):
        e = glue(GaussianBlockFamily(preset_schedule("warmup_l2", beta=2.0)), n_terms=5)
        with pytest.raises(ValueError):
            e.image_distances(np.zeros((1, 2)), np.ones((1, 2)))

    def test_coordinate_mode_base_point_and_symmetry(self):
        # The base point cancels in every glued distance, so only the
        # pair matters: the distance is symmetric and zero on the diagonal.
        sched = preset_schedule("warmup_l2", beta=2.0)
        fam = GaussianBlockFamily(sched, backend="exp", ambient_dim=2)
        e = glue(fam, n_terms=8)
        x, y = np.array([[0.3, -0.2]]), np.array([[0.9, 0.4]])
        assert e.image_distances(x, y)[0] == pytest.approx(e.image_distances(y, x)[0])
        assert e.image_distances(x, x)[0] == 0.0

    def test_wrong_dimension_rejected(self):
        fam = GaussianBlockFamily(preset_schedule("warmup_l2", beta=2.0), backend="rff",
                                  n_features=16, ambient_dim=4)
        e = glue(fam, n_terms=3)
        with pytest.raises(ValueError, match="dim 3, family expects 4"):
            e.image_distances(np.zeros((2, 3)), np.zeros((2, 4)))
        with pytest.raises(ValueError, match="dim 3, family expects 4"):
            e.image_distances(np.zeros((2, 4)), np.zeros((2, 3)))

    def test_interval_brackets_coordinate_distances(self):
        sched = preset_schedule("strong_1leqle2", q=1.5, beta=1.2)
        fam = GaussianBlockFamily(sched, backend="exp", ambient_dim=2)
        e = glue(fam, n_terms=6)
        x = np.array([[0.0, 0.0]])
        for d in (0.3, 1.0, 2.0):
            y = np.array([[d, 0.0]])
            lo, hi = e.distance_interval(d)
            val = e.image_distances(x, y)[0]
            assert lo[0] * (1 - 1e-9) <= val <= hi[0] * (1 + 1e-9)

    def test_step_count_matches_thresholds(self):
        sched = preset_schedule("warmup_l2", beta=2.0)
        e = glue(GaussianBlockFamily(sched), n_terms=30)
        for d in (0.5, 5.0, 100.0):
            manual = int(np.sum(e.s_values <= d))
            assert int(e.step_count(d)[0]) == manual
        assert int(e.step_count(1e12)[0]) == 30  # truncation caps the count

    def test_tail_bound_shape(self):
        # tail_constant bounds the certified q-power budget mass of the
        # blocks beyond the truncation.
        e = glue(GaussianBlockFamily(preset_schedule("warmup_l2", beta=2.0)), n_terms=25)
        sched = e.schedule
        ns = np.arange(sched.n0 + 25, sched.n0 + 25 + 200_000)
        omitted = float(np.sum(sched.certified_eps(ns) ** sched.q))
        assert 0 < omitted <= e.tail_constant == sched.eps_q_tail(25)

    def test_family_schedule_mismatch_rejected(self):
        # The embedding takes its schedule from the family, so the two
        # cannot disagree.
        fam = GaussianBlockFamily(preset_schedule("warmup_l2", beta=2.0))
        assert GluedEmbedding(fam).schedule is fam.schedule
        with pytest.raises(ValueError):
            glue(fam, n_terms=0)

    @pytest.mark.parametrize("backend, dtype, n_features", [
        pytest.param("rff", np.float32, 512, id="rff-float32"),
        pytest.param("rff", np.float32, 4096, id="rff-float32-4096"),
        pytest.param("exp", np.float64, 64, id="exp-float64"),
    ])
    def test_thread_count_never_changes_image_distances(self, backend, dtype, n_features):
        # 2049 pairs are 16 tiles of 128 pairs and a one-pair tail at 512
        # float32 features, 128 tiles of 16 and a one-pair tail at 4096,
        # and 35 tiles of 58 pairs and a 19-pair tail at the series' 561
        # float64 coordinates (degree 32).  Two and three threads take
        # runs of 9 and 6 tiles, 65 and 43, and 18 and 12.
        fam = GaussianBlockFamily(preset_schedule("strong_qge2", q=4.0, beta=1.1),
                                  backend=backend, base_seed=5, n_features=n_features,
                                  ambient_dim=2)
        rng = np.random.default_rng(24)
        X = rng.normal(size=(2049, 2)).astype(dtype)
        Y = (X + rng.normal(size=X.shape)).astype(dtype)
        # a short switch interval interleaves the workers as often as it can
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runs = [glue(fam, n_terms=4, threads=k).image_distances(X, Y) for k in (1, 2, 3)]
        finally:
            sys.setswitchinterval(interval)
        for got in runs[1:]:
            assert np.array_equal(got, runs[0])

    def test_thread_count_never_changes_intervals(self):
        fam = GaussianBlockFamily(preset_schedule("strong_qge2", q=4.0, beta=1.1))
        d = np.geomspace(0.01, 100.0, 2049)
        runs = [glue(fam, n_terms=30, threads=k).distance_interval(d) for k in (1, 2, 3)]
        for lo, hi in runs[1:]:
            assert np.array_equal(lo, runs[0][0]) and np.array_equal(hi, runs[0][1])
        # the row slices give the bytes of one whole-array evaluation
        for got, want in zip(runs[0], glued_interval(glue(fam, n_terms=30), d)):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("run", ["default", "one-row", "threads2"])
    @pytest.mark.parametrize("n_terms, n_seps", [(1, 700), (200, 700), (6400, 97)])
    @pytest.mark.parametrize("preset, q", [("warmup_l2", None), ("strong_qge2", 4.0)])
    def test_interval_slices_give_the_whole_array_bytes(self, monkeypatch, preset, q,
                                                        n_terms, n_seps, run):
        # At the 512 KiB budget a slice is 327 and 163 separations over 200
        # blocks (q = 2 keeps one array alive, q = 4 two), 10 and 5 over
        # 6400, so every multi-slice case ends on a short tail; a one-byte
        # budget gives one-row slices.
        if run == "one-row":
            monkeypatch.setattr(gaussian, "_SCRATCH_BYTES", 1)
        fam = GaussianBlockFamily(preset_schedule(preset, q=q, beta=1.1))
        e = glue(fam, n_terms=n_terms, threads=2 if run == "threads2" else 1)
        d = np.concatenate([[0.0], np.geomspace(1e-3, 1e4, n_seps - 1)])
        lo, hi = e.distance_interval(d)
        want_lo, want_hi = glued_interval(e, d)
        assert np.array_equal(lo, want_lo) and np.array_equal(hi, want_hi)
        assert np.array_equal(lo, hi) == (q is None)
        for got, want in zip(e.mass_interval(d), glued_mass_interval(e, d)):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("backend", ["kernel", "exp", "rff"])
    @pytest.mark.parametrize("q, n_terms, block", [(0.14, 400, 231), (0.13, 200, 101),
                                                    (0.1, 200, 15), (0.05, 200, 3)])
    def test_blocks_past_the_float_range_are_refused_by_number(self, backend, q, n_terms,
                                                               block):
        fam = GaussianBlockFamily(preset_schedule("strong_qle1", q=q, beta=1.1),
                                  backend=backend)
        message = (f"strong_qle1 at q={q:g}: the bandwidths r_n leave the float range "
                   f"at block {block}$")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match=message):
                glue(fam, n_terms=n_terms)
            e = glue(fam, n_terms=block - 2)  # the blocks before it are realized
        assert np.all(e.bandwidths > 0) and np.all(np.isfinite(e.s_values))

    def test_thread_count_below_one_is_refused(self):
        fam = GaussianBlockFamily(preset_schedule("warmup_l2", beta=2.0))
        with pytest.raises(ValueError, match="need at least one thread, got 0"):
            glue(fam, threads=0)


class TestPerPairBounds:
    def test_warmup_kernel_clean(self):
        e = glue(GaussianBlockFamily(preset_schedule("warmup_l2", beta=2.0)), n_terms=100)
        d = np.geomspace(1.0, 1e3, 300)
        rep = per_pair_bounds_check(e, d)
        assert rep.violations == 0
        assert rep.indeterminate == 0
        assert rep.worst_upper_margin > 0 and rep.worst_step_margin > 0

    def test_zero_distance_pairs_trivially_pass(self):
        e = glue(GaussianBlockFamily(preset_schedule("warmup_l2", beta=2.0)), n_terms=20)
        rep = per_pair_bounds_check(e, np.zeros(5))
        assert rep.violations == 0

    def test_small_distance_region_gated_by_bandwidth(self):
        e = glue(GaussianBlockFamily(preset_schedule("warmup_l2", beta=2.0)), n_terms=50)
        t_max = rep_t_max = float(np.max(e.bandwidths)) ** -0.5
        rep = per_pair_bounds_check(e, np.array([t_max * 0.5, t_max * 2.0]))
        assert rep.small_checked == 1
        assert rep.constants["small_validity_t_max"] == pytest.approx(rep_t_max)

    def test_coarse_constants_and_clean_run(self):
        e = glue(GaussianBlockFamily(preset_schedule("coarse_l2", nu=0.75)), n_terms=120)
        d = np.geomspace(1.0, 500.0, 200)
        rep = per_pair_bounds_check(e, d)
        assert rep.kind == "coarse"
        assert rep.violations == 0
        assert rep.constants["K"] > 0

    def test_report_dict_shape(self):
        e = glue(GaussianBlockFamily(preset_schedule("warmup_l2", beta=2.0)), n_terms=10)
        d = np.geomspace(1.0, 10.0, 20)
        doc = per_pair_bounds_check(e, d).to_dict()
        assert doc["violations"] == 0
        assert set(doc["violations_by_bound"]) == {"upper", "step", "small_distance"}
        assert doc["constants"]["eta"] == pytest.approx(delta_q(2.0))

    def test_halved_budget_detected(self):
        e = glue(GaussianBlockFamily(preset_schedule("warmup_l2", beta=2.0)), n_terms=100)
        d = np.geomspace(1.0, 1e3, 300)
        rep = per_pair_bounds_check(e, d, eps_scale=0.5)
        assert rep.upper_violations > 0

    @pytest.mark.parametrize("preset, q", [("warmup_l2", None), ("strong_qge2", 4.0)])
    def test_kernel_audit_compares_the_summed_masses(self, monkeypatch, preset, q):
        # The audit reads the block masses as summed, never the m-th power
        # of their roots: at q = 2 over 200 blocks (the gluing suite's
        # schedule) 2302 of these 4000 masses differ from that round trip.
        e = glue(GaussianBlockFamily(preset_schedule(preset, q=q, beta=2.0)), n_terms=200)
        d = np.geomspace(1.0, 1e3, 4000)
        lo_m, hi_m = e.mass_interval(d)
        monkeypatch.setattr(e, "distance_interval", None)  # the audit takes no roots
        rep = per_pair_bounds_check(e, d)
        assert rep.violations == 0 and rep.indeterminate == 0
        sched = e.schedule
        m = sched.mass_power
        upper = sched.eps_mass_partial(e.n_terms) * (d ** sched.gamma) ** m
        assert rep.worst_upper_margin == float(np.min((upper - hi_m) / upper))
        step = e.step_count(d) * sched.eta ** m
        on = step > 0
        assert rep.worst_step_margin == float(np.min((lo_m[on] - step[on]) / step[on]))

    def test_negative_distances_rejected(self):
        e = glue(GaussianBlockFamily(preset_schedule("warmup_l2", beta=2.0)), n_terms=5)
        with pytest.raises(ValueError):
            per_pair_bounds_check(e, np.array([-1.0]))
