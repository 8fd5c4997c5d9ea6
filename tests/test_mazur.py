"""Signed-power sphere maps and their certified two-sided constants."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from embedlab.mazur import (
    _power,
    _signed_power,
    audit_sphere_pairs,
    mazur_constants,
    signed_power_constant,
    sphere_pair_tiles,
)
from oracles import l2_sphere_pairs, mazur_grid_audit, mazur_map, textbook_power_sums

GRID = (0.5, 1.0, 1.5, 2.0, 3.0, 4.0)
TILE_ROWS = 1000


def _pairs(samples, dim, seed, tile_rows=TILE_ROWS):
    """The streamed sphere pairs, their tiles concatenated."""
    x2, y2 = zip(*sphere_pair_tiles(samples, dim, seed, tile_rows))
    return np.concatenate(x2), np.concatenate(y2)


def _lp_pairs(p, samples, dim, seed):
    """Sampled pairs carried to the unit sphere of l_p."""
    x2, y2 = _pairs(samples, dim, seed)
    return mazur_map(x2, 2.0, p), mazur_map(y2, 2.0, p)


def _audit(p, q, samples, seed, dim=16, upper_scale=1.0):
    """The (p, q) cell of the audit of fresh sphere pairs."""
    rep = audit_sphere_pairs(sphere_pair_tiles(samples, dim, seed, TILE_ROWS), [p, q],
                             upper_scale=upper_scale)
    return next(c for c in rep["cells"] if (c["p"], c["q"]) == (p, q))


class TestMazurMap:
    def test_sphere_preservation_exact(self):
        # sum |Mx_i|^q = sum |x_i|^p holds coordinatewise, so unit spheres map
        # onto unit spheres with no analytic slack.
        for p in GRID:
            x, _ = _lp_pairs(p, 64, 8, seed=3)
            for q in GRID:
                mx = mazur_map(x, p, q)
                dev = np.abs(np.sum(np.abs(mx) ** q, axis=1) - 1.0)
                assert dev.max() < 1e-12, (p, q)

    def test_involution(self):
        x, _ = _lp_pairs(1.5, 64, 8, seed=4)
        for q in GRID:
            back = mazur_map(mazur_map(x, 1.5, q), q, 1.5)
            assert np.abs(back - x).max() < 1e-12

    def test_identity_at_equal_exponents(self):
        x = np.array([0.5, -0.25, 0.0])
        assert np.array_equal(mazur_map(x, 2.0, 2.0), x)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            mazur_map([1.0], 0.0, 2.0)
        with pytest.raises(ValueError):
            mazur_map([math.nan], 2.0, 1.0)
        for p, q in ((math.nan, 1.0), (math.inf, 1.0), (2.0, math.inf)):
            with pytest.raises(ValueError, match="finite and positive"):
                mazur_map([0.5], p, q)


class TestSignedPower:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("a", [0.5, 4.0 / 3.0, 2.0, 1.0 / 3.0])
    def test_equals_copysign_and_the_sign_multiply(self, a, dtype):
        # The magnitudes are _power's (roots, products or **); the sign
        # is checked here, their accuracy in TestRootRoute.
        info = np.finfo(dtype)
        special = [0.0, -0.0, info.smallest_subnormal, -info.smallest_subnormal,
                   info.tiny / 3, -info.tiny / 7, info.tiny, -info.tiny, 1.0, -1.0]
        t = np.concatenate([np.array(special, dtype=dtype),
                            np.random.default_rng(2).normal(size=4000).astype(dtype)])
        magnitude = _power(np.abs(t), a, out=np.empty_like(t))
        bits = np.uint32 if dtype == np.float32 else np.uint64
        for out in (None, np.empty_like(t)):
            got = _signed_power(t.copy(), a, out=out)
            assert got.dtype == dtype
            if out is not None:
                assert got is out
            assert np.array_equal(got.view(bits), np.copysign(magnitude, t).view(bits))
            # Multiplying by +-1 is exact, so the bits agree with the old
            # sign-multiply wherever it keeps the sign; it drops it at -0.0,
            # where the result is -0.0, which compares equal.
            want = magnitude * np.sign(t)
            kept = (t != 0) | ~np.signbit(t)
            assert np.array_equal(got.view(bits)[kept], want.view(bits)[kept])
            assert np.array_equal(got, want)
            assert np.all(np.signbit(got[~kept]))

    def test_out_must_not_alias_the_input(self):
        t = np.array([-0.5, 0.25])
        with pytest.raises(ValueError):
            _signed_power(t, 0.5, out=t)

    def test_public_callers_leave_their_input_alone(self):
        x, y = l2_sphere_pairs(32, 4, seed=1)
        x0, y0 = x.copy(), y.copy()
        mazur_map(x, 2.0, 3.0)
        audit_sphere_pairs([(x, y)], [1.5, 3.0])
        assert np.array_equal(x, x0) and np.array_equal(y, y0)
        assert mazur_map(-0.25, 2.0, 1.0) == -0.0625


def _ulps(got, want):
    """Distance in units in the last place between nonnegative floats,
    with -0.0 taken as 0.0."""
    ints = np.int32 if got.dtype == np.float32 else np.int64
    got, want = np.abs(got), np.abs(want)
    return np.abs(got.view(ints).astype(np.int64) - want.view(ints).astype(np.int64))


class TestRootRoute:
    """Powers by root, square and product passes against ``**``."""

    EXPONENTS = [(1, 8), (1, 6), (1, 4), (1, 3), (1, 2), (1, 1), (4, 3), (3, 2), (2, 1),
                 (3, 1), (4, 1)]

    @staticmethod
    def _inputs(dtype):
        info = np.finfo(dtype)
        edge = [0.0, -0.0, info.tiny, info.tiny * (1 + info.eps), 2 * info.tiny,
                info.smallest_subnormal, info.tiny / 3, 1.0, 1.0 - info.epsneg, 2.0]
        rng = np.random.default_rng(12)
        bulk = np.concatenate([rng.uniform(0.0, 1.0, 20000), np.exp(rng.uniform(-80, 5, 20000))])
        return np.concatenate([np.array(edge, dtype=dtype), bulk.astype(dtype)])

    @pytest.mark.parametrize("num, den", EXPONENTS)
    def test_float32_within_three_ulp_of_the_float64_power(self, num, den):
        # numpy's float32 pow is itself up to 8 ulp off at 4/3, so the
        # reference is the float64 power rounded to float32.
        s = self._inputs(np.float32)
        e = num / den
        want = (s.astype(np.float64) ** e).astype(np.float32)
        for out in (None, np.empty_like(s)):
            got = _power(s.copy(), e, out=out)
            assert got.dtype == np.float32
            assert _ulps(got, want).max() <= 3

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps,
                        reason="needs an extended long double")
    @pytest.mark.parametrize("num, den", EXPONENTS)
    def test_float64_within_two_ulp_of_the_exact_power(self, num, den):
        # The reference takes the exact exponent num/den in long double:
        # float64 ** at the rounded exponent 4/3 is up to 27 ulp from it
        # at s = 1e-35, while s cbrt(s) stays within one.
        s = self._inputs(np.float64)
        e = np.longdouble(num) / np.longdouble(den)
        want = (s.astype(np.longdouble) ** e).astype(np.float64)
        for out in (None, np.empty_like(s)):
            got = _power(s.copy(), num / den, out=out)
            assert _ulps(got, want).max() <= 2

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("num, den", EXPONENTS)
    def test_signed_zeros_keep_their_sign(self, num, den, dtype):
        t = np.array([0.0, -0.0], dtype=dtype)
        assert np.array_equal(_power(np.abs(t), num / den), [0.0, 0.0])
        got = _signed_power(t.copy(), num / den)
        assert np.array_equal(got, [0.0, 0.0]) and list(np.signbit(got)) == [False, True]

    @pytest.mark.parametrize("e", [0.7, 2.0 / 3.0])
    def test_other_exponents_take_pow(self, e):
        # 2/3 as cbrt squared is 5 ulp off in float32, so it stays on pow.
        s = self._inputs(np.float64)
        assert np.array_equal(_power(s.copy(), e), s ** e)


class TestSignedPowerConstant:
    def test_alpha_one_is_exactly_one(self):
        assert signed_power_constant(1.0) == 1.0

    def test_alpha_two_hits_antisymmetric_minimum(self):
        # The ratio |s(u)-s(v)| / |u-v|^2 attains 2^(1-2) = 1/2 at v = -u;
        # the float guard keeps the certified value 1e-12 below it.
        assert signed_power_constant(2.0) == pytest.approx(0.5, abs=1e-10)
        assert signed_power_constant(2.0) < 0.5

    @pytest.mark.parametrize("alpha", [1.5, 2.0, 3.0, 4.0, 8.0])
    def test_closed_form_is_the_grid_minimum(self, alpha):
        # Oracle: the ratio's minimum over a grid of [-1, 1]^2, off the
        # diagonal, sits on the antidiagonal v = -u at 2^(1 - alpha).
        g = np.linspace(-1.0, 1.0, 401)
        u, v = np.meshgrid(g, g)
        keep = u != v
        num = np.abs(np.sign(u) * np.abs(u) ** alpha - np.sign(v) * np.abs(v) ** alpha)
        ratio = num[keep] / np.abs(u - v)[keep] ** alpha
        assert ratio.min() >= signed_power_constant(alpha)
        assert ratio.min() == pytest.approx(2.0 ** (1.0 - alpha), rel=1e-9)
        j = int(np.argmin(ratio))
        assert u[keep][j] == pytest.approx(-v[keep][j], abs=1e-12)

    def test_alpha_below_one_rejected(self):
        with pytest.raises(ValueError):
            signed_power_constant(0.9)

    @pytest.mark.parametrize("alpha", [1.5, 2.0, 3.0])
    def test_certified_below_true_ratio(self, alpha):
        c = signed_power_constant(alpha)
        rng = np.random.default_rng(11)
        u, v = rng.uniform(-1.0, 1.0, size=(2, 200_000))
        keep = u != v
        num = np.abs(np.sign(u) * np.abs(u) ** alpha - np.sign(v) * np.abs(v) ** alpha)
        ratio = num[keep] / np.abs(u - v)[keep] ** alpha
        assert ratio.min() >= c

    @settings(max_examples=80, deadline=None)
    @given(
        st.floats(-1.0, 1.0),
        st.floats(-1.0, 1.0),
        st.sampled_from([1.5, 2.0, 3.0]),
    )
    def test_scalar_two_sided_bounds(self, u, v, alpha):
        su = math.copysign(abs(u) ** alpha, u)
        sv = math.copysign(abs(v) ** alpha, v)
        gap = abs(su - sv)
        c = signed_power_constant(alpha)
        assert gap >= c * abs(u - v) ** alpha * (1 - 1e-12)
        upper = alpha * abs(u - v) * max(abs(u), abs(v)) ** (alpha - 1.0)
        assert gap <= upper * (1 + 1e-12)


class TestMazurConstants:
    def test_forward_orientation(self):
        mc = mazur_constants(2.0, 1.0)
        # the forward orientation: c_lower S_p <= S_Mq <= c_upper S_p^(q/p)
        assert (mc.lower_exponent, mc.upper_exponent) == (1.0, 0.5)
        assert mc.c_lower == pytest.approx(signed_power_constant(2.0))
        assert mc.c_upper == pytest.approx(2.0 * 2.0 ** 0.5)

    def test_reversed_orientation_algebra(self):
        # p < q constants come from the forward (q, p) direction by inverting
        # both inequalities; check the arithmetic explicitly.
        mc = mazur_constants(2.0, 4.0)
        # the reversed orientation: c_lower S_p^(q/p) <= S_Mq <= c_upper S_p
        assert (mc.lower_exponent, mc.upper_exponent) == (2.0, 1.0)
        c_low_fwd = signed_power_constant(2.0) ** 2
        c_up_fwd = 2.0 ** 2 * 2.0 ** 0.5
        assert mc.c_upper == pytest.approx(1.0 / c_low_fwd)
        assert mc.c_lower == pytest.approx(c_up_fwd ** -2.0)

    def test_equal_exponents_rejected(self):
        with pytest.raises(ValueError):
            mazur_constants(1.5, 1.5)


class TestSampler:
    def test_deterministic_and_on_sphere(self):
        x1, y1 = _lp_pairs(1.5, 128, 8, seed=9)
        x2, y2 = _lp_pairs(1.5, 128, 8, seed=9)
        assert np.array_equal(x1, x2) and np.array_equal(y1, y2)
        for arr in (x1, y1):
            assert np.abs(np.sum(np.abs(arr) ** 1.5, axis=1) - 1.0).max() < 1e-12

    @pytest.mark.parametrize("samples, dim", [(1, 3), (3, 4), (301, 5), (9000, 16)])
    def test_equal_to_the_whole_array_oracle(self, samples, dim):
        # Tiles of 1 and 7 rows, tiles ending just before, at and just
        # after the last near pair, and one tile for all rows: the
        # concatenated tiles are the whole-array draw bit for bit.
        want = [a.view(np.uint64) for a in l2_sphere_pairs(samples, dim, seed=6)]
        for rows in (1, 7, samples // 4 - 1, samples // 4, samples // 4 + 1, samples):
            rows = max(rows, 1)
            tiles = list(sphere_pair_tiles(samples, dim, 6, rows))
            assert all(len(x) == len(y) <= rows for x, y in tiles)
            got = [np.concatenate(a).view(np.uint64) for a in zip(*tiles)]
            assert all(np.array_equal(a, b) for a, b in zip(got, want)), rows

    def test_near_pairs_present(self):
        x, y = _pairs(400, 8, seed=2)
        d = np.linalg.norm(x - y, axis=1)
        assert d.min() < 1e-3 < d.max()


class TestBoundsCheck:
    @pytest.mark.parametrize("p,q", [(2.0, 1.0), (1.0, 0.5), (1.5, 3.0), (2.0, 4.0)])
    def test_clean_at_certified_constants(self, p, q):
        rep = _audit(p, q, samples=5000, seed=0)
        assert rep["violations"] == 0
        assert rep["worst_margin"] >= 0.0

    def test_halved_upper_constant_detected(self):
        rep = _audit(2.0, 1.0, samples=2000, seed=0, upper_scale=0.5)
        assert rep["violations"] > 0
        assert rep["worst_margin"] < 0.0


class TestGridAudit:
    @pytest.mark.parametrize("samples", [1, 3, 301])
    def test_equal_to_the_per_cell_oracle_at_every_tile(self, samples):
        # Tiles of 1, 7 and 11 rows and one tile for all rows: the folded
        # cells are the oracle's whole-array figures bit for bit.
        grid, dim = (0.5, 1.0, 3.0), 4
        want = mazur_grid_audit(grid, samples, dim, seed=6)
        x2, y2 = l2_sphere_pairs(samples, dim, seed=6)
        for rows in (1, 7, 11, samples):
            assert audit_sphere_pairs(sphere_pair_tiles(samples, dim, 6, rows), grid) == want
            tiles = [(x2[i:i + rows], y2[i:i + rows]) for i in range(0, samples, rows)]
            assert audit_sphere_pairs(tiles, grid) == want, rows

    @pytest.mark.parametrize("upper_scale", [1.0, 0.5])
    def test_counts_and_margins_match_the_pow_and_sum_route(self, upper_scale):
        # The shared power-sum kernel moves sums in their last bits
        # against numpy's pow and sum: no violation count moves, and no
        # margin by more than 1e-12 relative.  (The maps stay the
        # package's: a near pair's map difference cancels, so one ulp of
        # a map moves its S_Mq by up to 1e-10 relative.)
        got = audit_sphere_pairs(sphere_pair_tiles(301, 16, 5, TILE_ROWS), GRID,
                                 upper_scale=upper_scale)
        want = mazur_grid_audit(GRID, 301, 16, seed=5, upper_scale=upper_scale,
                                sums=textbook_power_sums)
        assert got["violations"] == want["violations"]
        assert (got["violations"] > 0) == (upper_scale < 1)
        for cell, ref in zip(got["cells"], want["cells"], strict=True):
            assert (cell["p"], cell["q"], cell["violations"]) == (
                ref["p"], ref["q"], ref["violations"])
            if "worst_margin" in ref:
                assert cell["worst_margin"] == pytest.approx(ref["worst_margin"], rel=1e-12)

    def test_non_finite_tiles_are_refused(self):
        x, y = l2_sphere_pairs(4, 3, seed=1)
        for bad in (np.nan, np.inf):
            x_bad = x.copy()
            x_bad[2, 1] = bad
            with pytest.raises(ValueError, match="non-finite"):
                audit_sphere_pairs([(x, y), (x_bad, y)], GRID)

    def test_single_exponent_grid_has_no_margin(self):
        rep = audit_sphere_pairs(sphere_pair_tiles(20, 3, 1, TILE_ROWS), [1.5])
        assert rep["worst_margin"] == math.inf
        assert [set(c) for c in rep["cells"]] == [
            {"p", "q", "sphere_deviation", "involution_deviation", "violations"}]
