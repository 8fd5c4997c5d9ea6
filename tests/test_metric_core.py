"""The distance root m = max(p, 1) and the distances built on it."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from embedlab.finite_geometry import HammingCube
from embedlab.glue import GaussianBlockFamily, glue, preset_schedule
from embedlab.metric_core import distance_root
from oracles import bit_matrix, cube_distance, cube_distance_matrix, mazur_map, rff_coordinates


class TestExponentRegime:
    """The regime of an exponent is its distance root: the power sum itself
    (m = 1) for p <= 1, the p-th root above."""

    def test_canonical_split(self):
        assert distance_root(0.5) == 1.0
        assert distance_root(1.0) == 1.0
        assert distance_root(1) == 1.0 and isinstance(distance_root(1), float)
        assert distance_root(1.5) == 1.5

    @pytest.mark.parametrize("p", [0.0, -1.0, math.inf, math.nan])
    def test_bad_exponent_rejected(self, p):
        with pytest.raises(ValueError, match="exponent must be a finite positive real"):
            distance_root(p)


class TestLpDistance:
    """The two-regime l_p distance, through the Hamming cube's metric."""

    def test_matches_numpy_norms(self):
        for p, dist in ((2.0, lambda d: np.linalg.norm(d)),
                        (1.0, lambda d: np.abs(d).sum()),
                        (0.5, lambda d: (np.abs(d) ** 0.5).sum())):
            mat, bits = cube_distance_matrix(HammingCube(4, p)), bit_matrix(4)
            for u, row in enumerate(mat):
                for v in range(16):
                    assert row[v] == pytest.approx(dist(bits[u] - bits[v]), rel=1e-12)

    def test_regimes_agree_at_one(self):
        by_int, by_float = HammingCube(3, 1), HammingCube(3, 1.0)
        mat_int, mat_float = cube_distance_matrix(by_int), cube_distance_matrix(by_float)
        assert mat_int[0b011, 0b110] == mat_float[0b011, 0b110] == 2.0
        assert np.array_equal(mat_int, mat_float)
        assert by_int.diameter() == by_float.diameter() == 3.0

    def test_shape_and_finiteness_validation(self):
        e = glue(GaussianBlockFamily(preset_schedule("warmup_l2", beta=2.0), backend="rff",
                                     n_features=16, ambient_dim=3), n_terms=2)
        with pytest.raises(ValueError):
            e.image_distances(np.zeros((1, 3)), np.zeros((1, 2)))
        with pytest.raises(ValueError):
            e.image_distances(np.full((1, 3), math.nan), np.zeros((1, 3)))

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 63), st.integers(0, 63), st.integers(0, 63),
        st.sampled_from([0.3, 0.5, 1.0, 1.5, 2.0, 3.0]),
    )
    def test_metric_axioms(self, x, y, z, p):
        cube = HammingCube(6, p)
        mat = cube_distance_matrix(cube)

        def d(u, v):
            return mat[u, v]

        dxy = d(x, y)
        assert dxy == pytest.approx(cube_distance(x, y, cube), rel=1e-12)
        assert dxy >= 0
        assert dxy == d(y, x)
        assert d(x, x) == 0
        slack = 1e-9 * (1.0 + dxy)
        assert dxy <= d(x, z) + d(z, y) + slack


def _flat_distance(X, Y, e):
    """Two-regime l_q distance of the concatenated block images
    phi_n = s_{2/q}(psi_n) of the rows of X and Y."""
    q = e.schedule.q
    blocks = [e.family.block(int(n)) for n in e.block_ids]
    flat_x = np.hstack([mazur_map(rff_coordinates(X, be), 2.0, q) for be in blocks])
    flat_y = np.hstack([mazur_map(rff_coordinates(Y, be), 2.0, q) for be in blocks])
    mass = np.sum(np.abs(flat_x - flat_y) ** q, axis=1)
    return mass if q <= 1 else mass ** (1.0 / q)


def _glued(preset, q):
    sched = preset_schedule(preset, q=q, beta=1.5)
    return glue(GaussianBlockFamily(sched, backend="rff", n_features=32, ambient_dim=3),
                n_terms=3)


_PRESETS = (("strong_qle1", 0.5), ("strong_1leqle2", 1.0),
            ("strong_qge2", 2.0), ("strong_qge2", 3.0))


class TestLpSumDistance:
    """The glued distance is the l_q sum of the l_q block distances."""

    def test_matches_flat_concatenation(self):
        # l_q sum of l_q blocks is the l_q distance of the concatenation.
        rng = np.random.default_rng(7)
        X, Y = rng.normal(size=(2, 5, 3))
        for preset, q in _PRESETS:
            e = _glued(preset, q)
            np.testing.assert_allclose(e.image_distances(X, Y), _flat_distance(X, Y, e),
                                       rtol=1e-12)

    def test_all_blocks_equal_gives_zero(self):
        X = np.random.default_rng(3).normal(size=(4, 3))
        for preset, q in (_PRESETS[0], _PRESETS[2]):
            e = _glued(preset, q)
            assert np.array_equal(e.image_distances(X, X), np.zeros(4))
            assert np.array_equal(_flat_distance(X, X, e), np.zeros(4))
