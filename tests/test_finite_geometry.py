"""Hamming cubes, k-subset spaces, probes, and type-2 certificates."""

import math

import numpy as np
import pytest

from embedlab.finite_geometry import (
    GkSpace,
    HammingCube,
    MAX_CUBE_PAIR_DIM,
    cube_report,
    enflo_lower_bound,
    probe_audit,
)
from oracles import (bit_matrix, cube_distance, cube_distance_matrix, enflo_type2_certificate,
                     gk_elements, gk_incidence_matrix, gk_probe_audit)


class TestHammingCube:
    def test_distance_is_popcount(self):
        cube = HammingCube(3, 1.0)
        assert cube.distances_from(0b000, 0b111) == 3.0
        assert cube.distances_from(0b101, 0b101) == 0.0
        assert cube.distances_from(0b101, 0b100) == 1.0

    def test_root_applied_in_norm_regime(self):
        cube = HammingCube(4, 2.0)
        assert cube.distances_from(0b0000, 0b1111) == pytest.approx(2.0)
        assert cube.diameter() == pytest.approx(2.0)
        assert HammingCube(9, 1.0).diameter() == 9.0
        assert HammingCube(4, 0.5).diameter() == 4.0

    def test_pairwise_matrix_matches_metric(self):
        cube = HammingCube(4, 1.5)
        for u in range(16):
            row = cube.distances_from(u, np.arange(16))
            for v in range(16):
                assert row[v] == pytest.approx(cube_distance(u, v, cube), abs=1e-12)
        # the rows are the dense matrix of the bit-matrix product, bit for bit
        for m, p in ((3, 0.5), (6, 1.0), (8, 1.5), (8, 3.0)):
            cube = HammingCube(m, p)
            rows = [cube.distances_from(u, np.arange(1 << m)) for u in range(1 << m)]
            assert np.array_equal(np.array(rows), cube_distance_matrix(cube))

    def test_bit_matrix_rows_encode_vertices(self):
        b = bit_matrix(3)
        assert b.shape == (8, 3)
        assert np.array_equal(b[5], [1.0, 0.0, 1.0])  # 0b101, low bit first

    def test_caps(self):
        with pytest.raises(ValueError):
            HammingCube(MAX_CUBE_PAIR_DIM + 1, 1.0)
        with pytest.raises(ValueError):
            HammingCube(0, 1.0)


class TestGkSpace:
    def test_element_count_and_matrix(self):
        space = GkSpace(2, 5)
        els = gk_elements(space)
        assert len(els) == math.comb(5, 2)
        assert els[0] == (1, 2)
        mat = gk_incidence_matrix(space)
        assert mat.shape == (10, 5)
        assert np.all(mat.sum(axis=1) == 2)

    def test_distance(self):
        # |A Delta B| / 2 = k - |A cap B|, read off the incidence matrix,
        # against set arithmetic.
        space = GkSpace(3, 6)
        els = gk_elements(space)
        mat = gk_incidence_matrix(space)
        rho = 3 - mat @ mat.T
        for i, a in enumerate(els):
            for j, b in enumerate(els):
                assert rho[i, j] == len(set(a) ^ set(b)) / 2
        assert rho[els.index((1, 2, 3)), els.index((4, 5, 6))] == 3.0
        assert rho[els.index((1, 2, 3)), els.index((1, 2, 4))] == 1.0

    def test_construction_caps(self):
        with pytest.raises(ValueError):
            GkSpace(0, 5)
        with pytest.raises(ValueError):
            GkSpace(10, 40)  # comb(40, 10) blows the enumeration cap


class TestProbe:
    def test_image_distance_counts_symmetric_difference(self):
        # The probe image of a subset is its incidence row: the sum of the
        # basis vectors it indexes.
        space = GkSpace(3, 7)
        els = gk_elements(space)
        mat = gk_incidence_matrix(space)
        a, b = (1, 2, 4), (2, 4, 6)
        va, vb = mat[els.index(a)], mat[els.index(b)]
        assert np.array_equal(np.flatnonzero(va) + 1, a)
        sym = len(set(a) ^ set(b))
        assert np.linalg.norm(va - vb) == pytest.approx(sym ** 0.5)
        assert np.abs(va - vb).sum() == sym

    def test_invalid_subsets(self):
        with pytest.raises(ValueError):  # empty subsets
            probe_audit(0, 5, 1.0)
        with pytest.raises(ValueError):  # subsets larger than the ground set
            probe_audit(6, 5, 1.0)
        with pytest.raises(ValueError):
            GkSpace(3, 2)

    def test_audit_exact_values_p1(self):
        rep = probe_audit(3, 8, 1.0)
        assert rep.n_pairs == math.comb(math.comb(8, 3), 2)
        assert rep.max_ratio == 2.0
        assert rep.min_nonzero_image == 2.0
        assert rep.violations == 0

    def test_audit_exact_values_p2(self):
        rep = probe_audit(2, 7, 2.0)
        assert rep.max_ratio == pytest.approx(math.sqrt(2.0), rel=1e-15)
        assert rep.min_nonzero_image == pytest.approx(math.sqrt(2.0), rel=1e-15)
        assert rep.violations == 0

    def test_audit_flags_a_too_small_factor(self):
        rep = probe_audit(2, 6, 1.0, lipschitz_factor=1.5)
        assert rep.lipschitz_violations > 0

    @pytest.mark.parametrize("k, ground, p, factor", [
        (1, 2, 1.0, 2.0), (4, 12, 1.0, 2.0), (3, 9, 0.5, 2.0), (2, 7, 1.5, 2.0),
        (3, 10, 3.0, 1.2), (2, 6, 1.0, 1.5), (1, 100, 0.7, 2.0), (2, 40, 2.0, 2.0),
        (4, 4, 1.0, 2.0), (1, 1, 2.0, 2.0), (3, 5, 1.0, 2.0), (5, 7, 1.5, 1.2),
        (4, 6, 0.5, 1.0), (2, 60, 1.0, 2.0)])
    def test_audit_equals_the_gram_matrix_audit(self, k, ground, p, factor):
        # The closed-form histogram gives the whole-matrix audit's figures
        # bit for bit, with violations, for k = ground, for 2k > ground
        # (where j stops at ground - k), and past a million pairs.
        rep = probe_audit(k, ground, p, lipschitz_factor=factor)
        want = gk_probe_audit(k, ground, p, lipschitz_factor=factor)
        assert {key: getattr(rep, key) for key in want} == want

    def test_audit_holds_no_pair_matrix(self):
        # 1225 elements: the whole-matrix audit holds a 12 MB Gram matrix
        # and its 750,000 triangle entries several times over.
        import tracemalloc

        tracemalloc.start()
        try:
            probe_audit(2, 50, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20


class TestEnfloBound:
    def test_exponent_form(self):
        assert enflo_lower_bound(9, 2.0, 2.0) == pytest.approx(1.0)
        assert enflo_lower_bound(9, 1.0, 2.0) == pytest.approx(3.0)
        # power-sum regime: diameter m, exponent 1 - 1/q
        assert enflo_lower_bound(4, 0.5, 2.0) == pytest.approx(2.0)
        with pytest.raises(ValueError):
            enflo_lower_bound(4, 1.0, 0.5)

    @pytest.mark.parametrize("q_type", [0.5, 2.5, 3.0, math.inf, math.nan])
    def test_type_outside_one_to_two_is_refused(self, q_type):
        # no Banach space has Rademacher type above 2; NaN must fail too
        with pytest.raises(ValueError, match="target type must lie in"):
            enflo_lower_bound(3, 1.0, q_type)


class TestTypeTwoCertificate:
    """Enflo's diagonal/edge certificate, a test oracle: the theorems it
    checks hold for every map into a Hilbert space, so no map the package
    builds is audited by it."""

    def test_identity_coordinates_are_extremal(self):
        m = 5
        cert = enflo_type2_certificate(bit_matrix(m), m)
        assert cert.diagonal_sum == m * 2 ** (m - 1)
        assert cert.edge_sum == m * 2 ** (m - 1)
        assert cert.ratio == 1.0
        assert not cert.degenerate
        # ratio 1 leaves the clean Euclidean distortion floor m^(1/p - 1/2)
        assert enflo_lower_bound(m, 1.0, 2.0) * math.sqrt(cert.ratio) == pytest.approx(math.sqrt(m))

    def test_euclidean_maps_never_exceed_one(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            cloud = rng.normal(size=(16, 3))
            cert = enflo_type2_certificate(cloud, 4)
            assert cert.ratio <= 1.0 + 1e-12

    @pytest.mark.parametrize("m", range(2, 9))
    def test_the_cube_suite_draws_obey_enflo_and_the_parallelogram_identity(self, m):
        # One Philox stream keyed (0, 104), drawn for k = 2, 3, ... in turn:
        # a Gaussian cloud on the 2^k vertices, then a Gaussian linear map
        # of the bit rows.  Clouds never beat Enflo's ratio of 1; linear
        # maps meet it (the parallelogram identity).
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((0, 104))))
        for k in range(2, m + 1):
            cloud = rng.standard_normal((1 << k, k))
            A = rng.standard_normal((k, k))
        assert enflo_type2_certificate(cloud, m).ratio <= 1 + 1e-12
        assert abs(enflo_type2_certificate(bit_matrix(m) @ A.T, m).ratio - 1.0) <= 1e-12

    def test_constant_map_degenerate(self):
        cert = enflo_type2_certificate(np.ones((8, 2)), 3)
        assert cert.degenerate
        assert cert.ratio == 0.0

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            enflo_type2_certificate(np.zeros((7, 2)), 3)
        with pytest.raises(ValueError):
            enflo_type2_certificate(np.full((8, 2), np.nan), 3)


class TestCubeReport:
    def test_identity_summary(self):
        rep = cube_report(3, 1.0)
        assert rep["m"] == 3
        assert rep["target_type"] == 2.0
        assert rep["bound"] == pytest.approx(math.sqrt(3.0))
        assert rep["bound_exponent"] == pytest.approx(0.5)
        assert rep["measured_distortion"] == pytest.approx(math.sqrt(3.0))
        assert rep["certificate_ratio"] == 1.0

    @pytest.mark.parametrize("m", range(1, 13))
    def test_certificate_ratio_is_the_bit_matrix_certificate(self, m):
        want = enflo_type2_certificate(bit_matrix(m), m)
        assert want.diagonal_sum == want.edge_sum == m * 2 ** (m - 1)
        got = cube_report(m, 1.0)["certificate_ratio"]
        assert np.float64(got).tobytes() == np.float64(want.ratio).tobytes()

    def test_cubes_past_the_matrix_cap_are_reported(self):
        # The oracle's bit matrix stops at 2^20 rows; the closed form
        # reports every cube up to the cap of HammingCube.
        rep = cube_report(MAX_CUBE_PAIR_DIM, 1.0)
        assert rep["certificate_ratio"] == 1.0
        assert rep["measured_distortion"] == pytest.approx(math.sqrt(MAX_CUBE_PAIR_DIM))
