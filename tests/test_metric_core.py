"""Two-regime metrics and monotone inverses."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from embedlab.metric_core import (
    ExponentRegime,
    MonotoneFunction,
    Regime,
    TruncatedVector,
    h_ab,
    lp_distance,
)


class TestExponentRegime:
    def test_canonical_split(self):
        assert ExponentRegime.from_p(0.5).is_power_sum
        assert ExponentRegime.from_p(1.0).is_power_sum
        assert not ExponentRegime.from_p(1.5).is_power_sum

    def test_mismatched_pairs_rejected(self):
        with pytest.raises(ValueError):
            ExponentRegime(0.5, Regime.NORM)
        with pytest.raises(ValueError):
            ExponentRegime(2.0, Regime.SUM_OF_POWERS)

    @pytest.mark.parametrize("p", [0.0, -1.0, math.inf, math.nan])
    def test_bad_exponent_rejected(self, p):
        with pytest.raises(ValueError):
            ExponentRegime.from_p(p)


class TestLpDistance:
    def test_matches_numpy_norms(self):
        rng = np.random.default_rng(5)
        x, y = rng.normal(size=(2, 12))
        assert lp_distance(x, y, 2.0) == pytest.approx(np.linalg.norm(x - y), rel=1e-12)
        assert lp_distance(x, y, 1.0) == pytest.approx(np.abs(x - y).sum(), rel=1e-12)
        assert lp_distance(x, y, 0.5) == pytest.approx((np.abs(x - y) ** 0.5).sum(), rel=1e-12)

    def test_regimes_agree_at_one(self):
        x, y = [1.0, -2.0, 0.5], [0.0, 1.0, 0.5]
        d_sum = lp_distance(x, y, ExponentRegime(1.0, Regime.SUM_OF_POWERS))
        d_norm = lp_distance(x, y, ExponentRegime(1.0, Regime.NORM))
        assert d_sum == d_norm == 4.0

    def test_shape_and_finiteness_validation(self):
        with pytest.raises(ValueError):
            lp_distance([1.0, 2.0], [1.0], 2.0)
        with pytest.raises(ValueError):
            lp_distance([math.nan], [0.0], 2.0)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.floats(-10, 10), min_size=6, max_size=6),
        st.lists(st.floats(-10, 10), min_size=6, max_size=6),
        st.lists(st.floats(-10, 10), min_size=6, max_size=6),
        st.sampled_from([0.3, 0.5, 1.0, 1.5, 2.0, 3.0]),
    )
    def test_metric_axioms(self, x, y, z, p):
        dxy = lp_distance(x, y, p)
        assert dxy >= 0
        assert dxy == lp_distance(y, x, p)
        assert lp_distance(x, x, p) == 0
        slack = 1e-9 * (1.0 + dxy)
        assert dxy <= lp_distance(x, z, p) + lp_distance(z, y, p) + slack


def _glued_distance(xb, yb, p):
    """l_p sum of the per-block l_p distances, in the two-regime convention."""
    reg = ExponentRegime.from_p(p)
    d = [lp_distance(a, b, reg) for a, b in zip(xb, yb)]
    if reg.is_power_sum:
        return sum(d)
    return sum(di ** p for di in d) ** (1.0 / p)


class TestLpSumDistance:
    def test_matches_flat_concatenation(self):
        # l_p sum of l_p blocks is the l_p distance of the concatenation.
        rng = np.random.default_rng(7)
        xb = [rng.normal(size=3), rng.normal(size=5)]
        yb = [rng.normal(size=3), rng.normal(size=5)]
        for p in (0.5, 1.0, 2.0, 3.0):
            combined = _glued_distance(xb, yb, p)
            flat = lp_distance(np.concatenate(xb), np.concatenate(yb), p)
            assert combined == pytest.approx(flat, rel=1e-12)

    def test_all_blocks_equal_gives_zero(self):
        xb = [np.ones(3), np.zeros(2)]
        for p in (0.5, 2.0):
            assert _glued_distance(xb, xb, p) == 0
            assert lp_distance(np.concatenate(xb), np.concatenate(xb), p) == 0


class TestTruncatedVector:
    def test_block_access(self):
        v = TruncatedVector(np.arange(6.0), np.array([0, 2, 2, 6]))
        assert v.n_blocks == 3
        assert v.block(0).tolist() == [0.0, 1.0]
        assert v.block(1).size == 0
        assert v.block(2).tolist() == [2.0, 3.0, 4.0, 5.0]

    def test_bad_offsets_rejected(self):
        with pytest.raises(ValueError):
            TruncatedVector(np.arange(4.0), np.array([0, 3]))
        with pytest.raises(ValueError):
            TruncatedVector(np.arange(4.0), np.array([1, 4]))
        with pytest.raises(ValueError):
            TruncatedVector(np.arange(4.0), np.array([0, 3, 2, 4]))


class TestMonotoneFunction:
    def test_power_form(self):
        f = MonotoneFunction.power(2.0, 0.5, lo=0.0, hi=100.0)
        assert f(4.0) == pytest.approx(4.0)
        assert f.kind == "power"
        assert f.params == {"coef": 2.0, "exponent": 0.5}

    def test_decreasing_function_rejected(self):
        with pytest.raises(ValueError):
            MonotoneFunction(lambda t: -t, 0.0, 10.0)


class TestHab:
    def test_identity_branch(self):
        assert h_ab(1.0, 0.0, 17.0) == pytest.approx(17.0)

    def test_known_inverse_point(self):
        # s * ln(s)^2 evaluated at s = e^2 equals 4 e^2.
        s = math.e ** 2
        assert h_ab(1.0, 2.0, 4.0 * s) == pytest.approx(s, rel=1e-10)

    def test_half_power_round_trip(self):
        s = math.e ** 2
        t = math.sqrt(s) * math.log(s)
        assert h_ab(0.5, 1.0, t) == pytest.approx(s, rel=1e-10)

    def test_negative_log_power_branch(self):
        # increasing branch starts at s0 = exp(-b/a); below its minimum raises
        a, b = 1.0, -1.0
        s0 = math.e
        t_min = s0 / 1.0  # s0^a * ln(s0)^b = e
        assert h_ab(a, b, t_min) == pytest.approx(s0)
        with pytest.raises(ValueError):
            h_ab(a, b, t_min - 0.5)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            h_ab(0.0, 1.0, 2.0)
        with pytest.raises(ValueError):
            h_ab(1.0, 1.0, math.inf)

    @settings(max_examples=60, deadline=None)
    @given(
        st.floats(0.3, 3.0),
        st.floats(-2.0, 3.0),
        st.floats(0.05, 6.0),
    )
    def test_round_trip_on_increasing_branch(self, a, b, u):
        s0 = 1.0 if b >= 0 else math.exp(-b / a)
        s = s0 * math.exp(u)
        t = s ** a * math.log(s) ** b if s > 1.0 or b == 0 else s ** a * 0.0
        if s <= 1.0 and b != 0:
            return  # log term vanishes; inverse not informative at the branch start
        assert h_ab(a, b, t) == pytest.approx(s, rel=1e-9)
