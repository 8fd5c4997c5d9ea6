"""Gaussian sphere maps: exact kernel geometry, truncated coordinates,
random features, and the certified block-distance envelopes."""

import math

import numpy as np
import pytest
from scipy.special import gammainc

from embedlab.gaussian import (
    SATURATION_LEVEL,
    FundamentalMapSpec,
    KernelExact,
    RandomFeatures,
    TruncatedExp,
    block_mass,
    delta_q,
    exp_coordinates_batch,
    moduli_exponents,
    phi_map,
    psi_distance_exact,
    rff_coordinates_batch,
    sphere_block_interval,
)
from embedlab.metric_core import ExponentRegime
from embedlab.mazur import signed_power_constant


class TestPsiDistance:
    def test_zero_at_zero(self):
        assert psi_distance_exact(0.0, 1.0) == 0.0

    def test_unit_point_value(self):
        want = math.sqrt(2.0 * (1.0 - math.exp(-1.0)))
        assert psi_distance_exact(1.0, 1.0) == pytest.approx(want, abs=1e-14)
        assert want == pytest.approx(1.1243847729568, abs=1e-12)

    def test_sqrt_two_asymptote(self):
        v = psi_distance_exact(1e3, 1.0)
        assert math.sqrt(2.0) - 1e-12 <= v <= math.sqrt(2.0)

    def test_inner_product_consistency(self):
        d = np.linspace(0.0, 3.0, 7)
        k = np.exp(-0.7 * d ** 2)  # <psi(x), psi(y)> at ||x - y|| = d
        assert np.allclose(psi_distance_exact(d, 0.7), np.sqrt(2.0 * (1.0 - k)), atol=1e-14)

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            psi_distance_exact(-1.0, 1.0)
        with pytest.raises(ValueError):
            psi_distance_exact(1.0, -1.0)


class TestTruncatedExp:
    def test_coordinate_count(self):
        be = TruncatedExp(1.0, 4, 3)
        assert be.n_coords == math.comb(7, 3)

    def test_cap_enforced(self):
        with pytest.raises(ValueError):
            TruncatedExp(1.0, 64, 8)

    def test_unit_rows_and_residual_formula(self):
        be = TruncatedExp(0.8, 24, 2)
        X = np.array([[0.3, -0.4], [1.0, 0.2], [0.0, 0.0]])
        coords, res = exp_coordinates_batch(X, be)
        assert np.allclose(np.linalg.norm(coords, axis=1), 1.0, atol=1e-12)
        lam = 2.0 * be.r * np.sum(X ** 2, axis=1)
        assert np.allclose(res, gammainc(be.degree + 1, lam), atol=1e-15)
        # independent tail: e^-lam * sum_{j>deg} lam^j / j!
        lam0 = float(lam[1])
        tail = sum(math.exp(-lam0 + j * math.log(lam0) - math.lgamma(j + 1))
                   for j in range(be.degree + 1, be.degree + 200))
        assert res[1] == pytest.approx(tail, rel=1e-9)

    def test_distance_matches_closed_form(self):
        be = TruncatedExp(1.0, 32, 2)
        rng = np.random.default_rng(0)
        X = rng.uniform(-0.8, 0.8, size=(50, 2))
        Y = rng.uniform(-0.8, 0.8, size=(50, 2))
        cx, rx = exp_coordinates_batch(X, be)
        cy, ry = exp_coordinates_batch(Y, be)
        assert max(rx.max(), ry.max()) < 1e-14
        got = np.linalg.norm(cx - cy, axis=1)
        want = psi_distance_exact(np.linalg.norm(X - Y, axis=1), be.r)
        assert np.abs(got - want).max() < 1e-10

    def test_single_point_wrapper(self):
        # A single point is a batch of one row.
        be = TruncatedExp(1.0, 16, 2)
        c, res = exp_coordinates_batch([0.1, 0.2], be)
        assert c.shape == (1, be.n_coords) and np.linalg.norm(c) == pytest.approx(1.0)
        assert res.shape == (1,) and res[0] < 1e-14


class TestRandomFeatures:
    def test_seed_determinism_and_block_separation(self):
        x = np.array([0.3, 1.0, -0.2])
        a = rff_coordinates_batch(x, RandomFeatures(1.0, 64, seed=(5, 2)))
        b = rff_coordinates_batch(x, RandomFeatures(1.0, 64, seed=(5, 2)))
        c = rff_coordinates_batch(x, RandomFeatures(1.0, 64, seed=(5, 3)))
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_batch_matches_single(self):
        # BLAS picks shape-dependent kernels, so rows of a batched matmul can
        # differ from the batch-of-one path in the last bit; compare tightly
        # instead of bitwise.
        be = RandomFeatures(0.5, 128, seed=7)
        X = np.random.default_rng(1).normal(size=(4, 6))
        batch = rff_coordinates_batch(X, be)
        for i in range(4):
            np.testing.assert_allclose(batch[i], rff_coordinates_batch(X[i], be)[0],
                                       rtol=1e-13, atol=1e-15)

    def test_kernel_error_shrinks_with_features(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(200, 8))
        Y = X + 0.7 * rng.normal(size=(200, 8))
        exact = np.exp(-np.sum((X - Y) ** 2, axis=1))

        def worst(n_features):
            be = RandomFeatures(1.0, n_features, seed=(0, 1))
            zx = rff_coordinates_batch(X, be)
            zy = rff_coordinates_batch(Y, be)
            return np.abs(np.sum(zx * zy, axis=1) - exact).max()

        assert worst(4096) <= 0.08
        assert worst(4096) < worst(64)

    def test_validation(self):
        with pytest.raises(ValueError):
            RandomFeatures(0.0, 16, seed=0)
        with pytest.raises(ValueError):
            rff_coordinates_batch(np.array([[math.inf]]), RandomFeatures(1.0, 8, seed=0))


class TestModuliExponents:
    def test_three_branches(self):
        assert moduli_exponents(4.0) == (0.25, 0.5)
        assert moduli_exponents(2.0) == (0.5, 0.5)
        assert moduli_exponents(1.5) == (0.5, 1.0 / 1.5)
        assert moduli_exponents(0.5) == (0.25, 1.0)

    def test_invalid(self):
        with pytest.raises(ValueError):
            moduli_exponents(0.0)


class TestDeltaQ:
    def test_identity_transport_at_two(self):
        assert delta_q(2.0) == pytest.approx(math.sqrt(SATURATION_LEVEL), abs=1e-14)

    def test_closed_forms(self):
        # q = 1: lower constant c_2 with squared distance; q = 4: the inverted
        # upper constant (4 sqrt 2)^(-1/2) on the plain distance.
        assert delta_q(1.0) == pytest.approx(signed_power_constant(2.0) * SATURATION_LEVEL,
                                             abs=1e-12)
        want4 = (4.0 * math.sqrt(2.0)) ** -0.5 * math.sqrt(SATURATION_LEVEL)
        assert delta_q(4.0) == pytest.approx(want4, abs=1e-12)

    @pytest.mark.parametrize("q,value", [
        (0.5, 0.44698), (1.0, 0.63212), (1.5, 0.92799), (2.0, 1.12438), (4.0, 0.47275),
    ])
    def test_frozen_levels(self, q, value):
        assert delta_q(q) == pytest.approx(value, abs=5e-6)


class TestSphereBlockInterval:
    def test_identity_at_two(self):
        D = np.linspace(0.0, 1.4, 9)
        lo, hi = sphere_block_interval(D, 2.0)
        assert np.array_equal(lo, D) and np.array_equal(hi, D)

    @pytest.mark.parametrize("q", [0.5, 1.0, 1.5, 4.0])
    def test_ordering(self, q):
        D = np.linspace(1e-6, math.sqrt(2.0), 50)
        lo, hi = sphere_block_interval(D, q)
        assert np.all(lo <= hi * (1 + 1e-12))
        assert np.all(lo > 0)


class TestPhiMaps:
    def test_spec_bandwidth_agreement_enforced(self):
        with pytest.raises(ValueError):
            FundamentalMapSpec(index=1, r=2.0, q=ExponentRegime.from_p(2.0),
                               backend=KernelExact(1.0))

    def test_kernel_backend_has_no_coordinates(self):
        spec = FundamentalMapSpec(index=1, r=1.0, q=ExponentRegime.from_p(2.0),
                                  backend=KernelExact(1.0))
        with pytest.raises(ValueError):
            phi_map([0.0, 0.0], spec)

    def test_q2_is_plain_sphere_map(self):
        be = TruncatedExp(1.0, 24, 2)
        spec = FundamentalMapSpec(index=1, r=1.0, q=ExponentRegime.from_p(2.0), backend=be)
        x = np.array([0.4, -0.1])
        assert np.allclose(phi_map(x, spec), exp_coordinates_batch(x, be)[0][0])

    def test_image_on_unit_q_sphere(self):
        be = TruncatedExp(1.0, 24, 2)
        for q in (1.0, 1.5, 4.0):
            spec = FundamentalMapSpec(index=1, r=1.0, q=ExponentRegime.from_p(q), backend=be)
            img = phi_map(np.array([0.4, -0.1]), spec)
            assert np.sum(np.abs(img) ** q) == pytest.approx(1.0, abs=1e-12)

    def test_envelope_sandwiches_measured_distances(self):
        be = TruncatedExp(1.0, 28, 2)
        for q in (1.5, 4.0):
            spec = FundamentalMapSpec(index=1, r=1.0, q=ExponentRegime.from_p(q), backend=be)
            t = np.array([0.05, 0.2, 0.6, 1.0, 1.5])
            X = np.zeros((len(t), 2))
            Y = np.stack([t, np.zeros_like(t)], axis=1)
            mass = block_mass(X, Y, [spec])
            lo, hi = sphere_block_interval(psi_distance_exact(t, spec.r), q)
            assert np.all(mass >= lo ** q * (1 - 1e-9))
            assert np.all(mass <= hi ** q * (1 + 1e-9))

    def test_envelope_at_zero_and_floor(self):
        spec = FundamentalMapSpec(index=1, r=1.0, q=ExponentRegime.from_p(2.0),
                                  backend=KernelExact(1.0))
        lo, hi = sphere_block_interval(psi_distance_exact(0.0, spec.r), 2.0)
        assert lo == 0.0 and hi == 0.0
        # at r t^2 = 1 the lower envelope sits at the saturation floor
        lo1, _ = sphere_block_interval(psi_distance_exact(1.0, spec.r), 2.0)
        assert lo1 >= 1.048  # well above the certified compression level
        assert float(lo1) == pytest.approx(delta_q(2.0), abs=1e-12)
