"""Gaussian sphere maps: exact kernel geometry, truncated coordinates,
random features, and the certified block-distance envelopes."""

import math
import os
import re
import threading
import time
import warnings

import numpy as np
import pytest
from scipy.special import gammainc

from embedlab import gaussian
from embedlab import glue as glue_module
from embedlab.gaussian import (
    SATURATION_LEVEL,
    RandomFeatures,
    TruncatedExp,
    block_mass,
    delta_q,
    exp_coordinates_batch,
    moduli_exponents,
    psi_distance_exact,
)
from embedlab.glue import GaussianBlockFamily, glue, preset_schedule
from embedlab.mazur import signed_power_constant
from embedlab.metric_core import distance_root
from oracles import (mazur_map, per_side_block_mass, poisson_tail, rff_block_mass,
                     rff_coordinates, sphere_block_interval)


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

    def test_saturation_past_the_float_range_is_silent(self):
        # d^2 or r d^2 overflows to +inf: exp(-inf) is 0, so the distance
        # is exactly sqrt(2), and the overflow is no warning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scalars = [psi_distance_exact(1e200, 2.0), psi_distance_exact(1e154, 10.0)]
            grid = psi_distance_exact(np.array([1e-3, 1e200]), np.array([[2.0], [1e300]]))
        assert scalars == [math.sqrt(2.0)] * 2
        assert grid[0, 0] == psi_distance_exact(1e-3, 2.0) < 0.01
        assert np.all(grid.ravel()[1:] == math.sqrt(2.0))

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
        coords, res = exp_coordinates_batch(X, be), be.residual(X)
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
        cx, cy = exp_coordinates_batch(X, be), exp_coordinates_batch(Y, be)
        assert max(be.residual(X).max(), be.residual(Y).max()) < 1e-14
        got = np.linalg.norm(cx - cy, axis=1)
        want = psi_distance_exact(np.linalg.norm(X - Y, axis=1), be.r)
        assert np.abs(got - want).max() < 1e-10

    def test_large_argument_keeps_its_tables_in_range(self):
        # At ||x|| = 17 a power table 17^800 overflows and a weight
        # 1/sqrt(800!) underflows; the series itself is about 1 in norm.
        be = TruncatedExp(1.0, 800, 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            coords = exp_coordinates_batch(np.array([[17.0]]), be)
            res = be.residual(np.array([[17.0]]))
        assert np.linalg.norm(coords[0]) == pytest.approx(1.0, abs=1e-12)
        assert res[0] == gaussian._poisson_tail(801, np.array([578.0]))[0]

    def test_single_point_wrapper(self):
        # A single point is a batch of one row.
        be = TruncatedExp(1.0, 16, 2)
        c, res = exp_coordinates_batch([0.1, 0.2], be), be.residual([0.1, 0.2])
        assert c.shape == (1, be.n_coords) and np.linalg.norm(c) == pytest.approx(1.0)
        assert res.shape == (1,) and res[0] < 1e-14

    def test_block_mass_never_takes_the_residual(self, monkeypatch):
        # The residual is the certifier's business; the coordinates, and so
        # every exp run through block_mass, never sum a Poisson tail.
        def refuse(*args):
            raise AssertionError("block_mass summed a Poisson tail")

        monkeypatch.setattr(gaussian, "_poisson_tail", refuse)
        rng = np.random.default_rng(4)
        X, Y = rng.uniform(-0.8, 0.8, size=(2, 30, 2))
        blocks = [TruncatedExp(r, 24, 2) for r in (0.3, 1.0, 2.5)]
        for q in (0.5, 1.5, 2.0, 4.0):
            assert np.all(np.isfinite(block_mass(X, Y, blocks, q)))


class TestPoissonTail:
    @pytest.mark.parametrize("n", [1, 2, 33, 65])
    def test_equals_the_regularized_incomplete_gamma(self, n):
        lam = np.concatenate([[0.0], np.geomspace(1e-6, 300), np.linspace(n - 3, n + 3, 13)])
        lam = lam[lam >= 0]
        got = gaussian._poisson_tail(n, lam)
        assert got[0] == 0.0
        # Relative where the tail is a normal float: at n = 65 it underflows
        # below lam ~ 5e-4.  Against the decimal sum scipy's own error
        # reaches 9.5e-14 on this grid (n = 33, lam = 1.5e-6) and the
        # closed form's 1.5e-15, hence the two bounds.
        tiny = np.finfo(float).tiny
        np.testing.assert_allclose(got, gammainc(n, lam), rtol=1e-13, atol=tiny)
        want = [poisson_tail(n, v) for v in lam]
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=tiny)


    def test_past_the_normal_range_of_e_minus_lam(self):
        # Beyond lam = 708.4 e^-lam is no normal float.  Far above n the
        # tail is 1 to double precision; near or below n the recurrence has
        # nothing to start from, so it raises rather than return 0.
        assert gaussian._poisson_tail(33, np.array([800.0, 1e4])).tolist() == [1.0, 1.0]
        for n, lam in ((801, 800.0), (2001, 1458.0), (700, 720.0)):
            with pytest.raises(ValueError, match="below the smallest normal float"):
                gaussian._poisson_tail(n, np.array([lam]))


class TestRandomFeatures:
    def test_seed_determinism_and_block_separation(self):
        a = gaussian._rff_table(1.0, 64, (5, 2), 3, np.dtype(np.float64))
        b = gaussian._rff_table(1.0, 64, (5, 2), 3, np.dtype(np.float64))
        c = gaussian._rff_table(1.0, 64, (5, 3), 3, np.dtype(np.float64))
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
        # the float32 table holds the float64 draws, rounded
        f = gaussian._rff_table(1.0, 64, (5, 2), 3, np.dtype(np.float32))
        assert np.array_equal(f, a.astype(np.float32))

    def test_a_table_past_the_float32_range_is_refused_by_block(self):
        # sqrt(2 r) = 1.4e40: finite in float64, past float32.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            wide = gaussian._rff_table(1e80, 16, (5, 3), 2, np.dtype(np.float64))
            with pytest.raises(ValueError, match=re.escape(
                    "the feature table of block 3 leaves the float32 range: "
                    "sqrt(2 r_n) = 1.41421e+40")):
                gaussian._rff_table(1e80, 16, (5, 3), 2, np.dtype(np.float32))
        assert np.all(np.isfinite(wide))

    def test_batch_matches_single(self):
        # BLAS picks shape-dependent kernels, so rows of a batched matmul can
        # differ from the batch-of-one path in the last bit; compare tightly
        # instead of bitwise.
        be = RandomFeatures(0.5, 128, seed=(7,))
        rng = np.random.default_rng(1)
        X, Y = rng.normal(size=(2, 4, 6))
        batch = block_mass(X, Y, [be], 1.5)
        for i in range(4):
            np.testing.assert_allclose(batch[i], block_mass(X[i], Y[i], [be], 1.5)[0],
                                       rtol=1e-13, atol=1e-15)

    def test_kernel_error_shrinks_with_features(self):
        # The psi rows are unit vectors, so the q = 2 block mass is
        # 2 - 2 k^ for the kernel estimate k^, as the kernel suite reads it.
        rng = np.random.default_rng(3)
        X = rng.normal(size=(200, 8))
        Y = X + 0.7 * rng.normal(size=(200, 8))
        exact = np.exp(-np.sum((X - Y) ** 2, axis=1))

        def worst(n_features):
            be = RandomFeatures(1.0, n_features, seed=(0, 1))
            est = 1.0 - block_mass(X, Y, [be], 2.0) / 2.0
            oracle = np.sum(rff_coordinates(X, be) * rff_coordinates(Y, be), axis=1)
            np.testing.assert_allclose(est, oracle, rtol=1e-12, atol=1e-12)
            return np.abs(est - exact).max()

        assert worst(4096) <= 0.08
        assert worst(4096) < worst(64)

    def test_validation(self):
        with pytest.raises(ValueError):
            RandomFeatures(0.0, 16, seed=(0,))
        be = RandomFeatures(1.0, 8, seed=(0,))
        for dtype in (np.float64, np.float32):
            with pytest.raises(ValueError, match="non-finite"):
                block_mass(np.array([[math.inf]], dtype=dtype), np.zeros((1, 1), dtype=dtype),
                           [be], 2.0)
        with pytest.raises(ValueError, match="one backend"):
            block_mass(np.zeros((1, 1)), np.zeros((1, 1)), [be, TruncatedExp(1.0, 4, 1)], 2.0)


@pytest.mark.parametrize("r", [0.0, math.nan, math.inf])
@pytest.mark.parametrize("backend", [lambda r: TruncatedExp(r, 4, 2),
                                     lambda r: RandomFeatures(r, 16, seed=(0,))],
                         ids=["exp", "rff"])
def test_bandwidth_must_be_finite_and_positive(backend, r):
    with pytest.raises(ValueError, match="bandwidth must be finite and positive"):
        backend(r)


def _slab_rows(n_features, dim):
    # Rows per product that keep m * n * k within OpenBLAS's single-thread
    # cut-off of 2^18, and at least two so that every product is a GEMM.
    return max(2, 2 ** 18 // (n_features * dim))


def _bits(a):
    return a.view(np.uint32 if a.dtype == np.float32 else np.uint64)


class TestSlabbedFeatureProduct:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("dim", [2, 16])
    @pytest.mark.parametrize("n_features", [256, 512])
    def test_bitwise_equal_to_one_matmul(self, n_features, dim, dtype):
        be = RandomFeatures(0.3, n_features, seed=(11, 4))
        # The product has width dim + 1: rows [x, 1] times the table [w; b].
        s = _slab_rows(n_features, dim + 1)
        rng = np.random.default_rng(n_features + dim)
        wb = gaussian._rff_table(be.r, n_features, be.seed, dim, np.dtype(dtype))
        assert wb.shape == (dim + 1, n_features) and wb.dtype == dtype
        for rows in (1, s - 1, s, s + 1, 2048, 2049):
            X = (3.0 * rng.normal(size=(rows, dim))).astype(dtype)
            X1 = np.concatenate([X, np.ones((rows, 1), dtype=dtype)], axis=1)
            product = np.matmul(X1, wb)
            slabbed = gaussian._feature_product(X1, wb, np.empty_like(product))
            assert np.array_equal(_bits(slabbed), _bits(product)), rows
            # The raw cosines, into the caller's buffer, and their squared
            # row norms.
            want = np.cos(product)
            buf = np.full((rows, n_features), np.nan, dtype=dtype)
            got, n2 = gaussian._rff_cosines(X1, wb, out=buf)
            assert got is buf
            assert np.array_equal(_bits(buf), _bits(want)), rows
            assert np.array_equal(n2, np.einsum("ij,ij->i", want, want)), rows

    def test_non_contiguous_out_rejected(self):
        wb = gaussian._rff_table(1.0, 64, (0,), 3, np.dtype(np.float64))
        buf = np.empty((4, 128))[:, ::2]
        with pytest.raises(ValueError, match="C-contiguous"):
            gaussian._rff_cosines(np.ones((4, 4)), wb, out=buf)


def _cpu_per_wall(fn):
    fn()  # draws the tables
    time.sleep(0.3)  # lets BLAS workers from earlier calls go idle
    c0, t0 = time.process_time(), time.perf_counter()
    fn()
    return (time.process_time() - c0) / (time.perf_counter() - t0)


def _thread_cpu_ticks() -> dict[int, int]:
    """utime + stime, in clock ticks, of each thread of this process, by
    thread id, from /proc/self/task/<tid>/stat."""
    ticks = {}
    for tid in os.listdir("/proc/self/task"):
        try:
            with open(f"/proc/self/task/{tid}/stat", encoding="ascii") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except FileNotFoundError:  # the thread ended
            continue
        ticks[int(tid)] = int(fields[11]) + int(fields[12])  # stat fields 14, 15
    return ticks


def _blas_may_thread():
    n = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        if os.environ.get(var, "").strip().isdigit():
            n = min(n, int(os.environ[var]))
            break
    return n >= 2


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs two CPUs to see a second thread")
class TestKernelStaysOnCallingThread:
    """The block kernel's CPU time stays within its wall time: no BLAS
    worker spins through the elementwise work between its products."""

    LIMIT = 1.25
    ROWS, BLOCKS, N_FEATURES, DIM = 2048, 40, 512, 16

    def _points(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(self.ROWS, self.DIM)).astype(np.float32)
        return X, X + rng.normal(size=X.shape).astype(np.float32)

    def test_block_mass_cpu_within_wall(self):
        blocks = [RandomFeatures(0.5, self.N_FEATURES, seed=(9, n)) for n in range(self.BLOCKS)]
        X, Y = self._points()
        ratio = _cpu_per_wall(lambda: block_mass(X, Y, blocks, 4.0))
        assert ratio <= self.LIMIT

    def test_control_plain_matmul_spins_a_worker(self):
        if not _blas_may_thread():
            pytest.skip("BLAS runs on one thread")
        if not os.path.isdir("/proc/self/task"):
            pytest.skip("no per-thread CPU times in /proc/self/task")
        X, Y = self._points()
        rng = np.random.default_rng(6)
        w = rng.normal(size=(self.DIM, self.N_FEATURES)).astype(np.float32)
        b = rng.uniform(0.0, 6.0, self.N_FEATURES).astype(np.float32)

        def unslabbed():
            z = None
            for _ in range(self.BLOCKS):
                for P in (X, Y):
                    z = np.matmul(P, w, out=z)  # one product over all rows
                    z += b
                    np.cos(z, out=z)
                    z /= np.linalg.norm(z, axis=1, keepdims=True)
                    np.abs(z, out=z)
                    z **= 0.5

        # Each thread's own CPU time, read before and after the loop: a
        # thread other than the caller must gain some.  A ratio of process
        # CPU to wall time would need a spare CPU for the worker to show.
        unslabbed()  # starts the BLAS pool
        before = _thread_cpu_ticks()
        unslabbed()
        after = _thread_cpu_ticks()
        caller = threading.get_native_id()
        assert any(ticks > before.get(tid, 0)
                   for tid, ticks in after.items() if tid != caller)


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
    def test_kernel_backend_has_no_coordinates(self):
        family = GaussianBlockFamily(preset_schedule("warmup_l2", beta=2.0), backend="kernel")
        with pytest.raises(ValueError, match="use distance_interval"):
            family.block(2)

    def test_q2_is_plain_sphere_map(self):
        # At q = 2 the signed power is the identity: the block mass is the
        # squared l_2 distance of the sphere coordinates.
        be = TruncatedExp(1.0, 24, 2)
        X, Y = np.array([[0.4, -0.1]]), np.array([[-0.3, 0.5]])
        psi_x, psi_y = exp_coordinates_batch(X, be), exp_coordinates_batch(Y, be)
        want = np.sum((psi_x - psi_y) ** 2, axis=1)
        np.testing.assert_allclose(block_mass(X, Y, [be], 2.0), want, rtol=1e-12)

    def test_image_on_unit_q_sphere(self):
        # phi = s_{2/q}(psi) lands on the unit q-sphere, and the block mass
        # is the q-power mass of the difference of those images.
        be = TruncatedExp(1.0, 24, 2)
        X, Y = np.array([[0.4, -0.1]]), np.array([[0.1, 0.3]])
        psi_x, psi_y = exp_coordinates_batch(X, be), exp_coordinates_batch(Y, be)
        for q in (1.0, 1.5, 4.0):
            img_x, img_y = mazur_map(psi_x, 2.0, q), mazur_map(psi_y, 2.0, q)
            assert np.sum(np.abs(img_x) ** q) == pytest.approx(1.0, abs=1e-12)
            want = np.sum(np.abs(img_x - img_y) ** q, axis=1)
            np.testing.assert_allclose(block_mass(X, Y, [be], q), want, rtol=1e-12)

    def test_envelope_sandwiches_measured_distances(self):
        be = TruncatedExp(1.0, 28, 2)
        for q in (1.5, 4.0):
            t = np.array([0.05, 0.2, 0.6, 1.0, 1.5])
            X = np.zeros((len(t), 2))
            Y = np.stack([t, np.zeros_like(t)], axis=1)
            mass = block_mass(X, Y, [be], q)
            lo, hi = sphere_block_interval(psi_distance_exact(t, be.r), q)
            assert np.all(mass >= lo ** q * (1 - 1e-9))
            assert np.all(mass <= hi ** q * (1 + 1e-9))

    def test_block_mass_is_the_flat_lq_mass(self):
        # The l_q sum of l_q blocks is the l_q distance of the concatenated
        # block images: the mass of the concatenation, q-th power in the
        # norm regime, the power sum itself in the power-sum regime.
        rng = np.random.default_rng(8)
        X = rng.normal(size=(5, 4))
        Y = X + 0.5 * rng.normal(size=X.shape)
        blocks = [RandomFeatures(r, 64, seed=(3, n)) for n, r in enumerate((0.2, 0.9, 3.0))]
        for q in (0.5, 1.0, 1.5, 4.0):
            mass = block_mass(X, Y, blocks, q)
            for i in range(len(X)):
                # block images phi = s_{2/q}(psi), concatenated over the blocks
                flat_x = np.concatenate([mazur_map(rff_coordinates(X[i], be)[0], 2.0, q)
                                         for be in blocks])
                flat_y = np.concatenate([mazur_map(rff_coordinates(Y[i], be)[0], 2.0, q)
                                         for be in blocks])
                want = np.sum(np.abs(flat_x - flat_y) ** q)
                assert mass[i] == pytest.approx(want, rel=1e-12), (q, i)
            assert np.array_equal(block_mass(X, X, blocks, q), np.zeros(len(X)))

    @pytest.mark.parametrize("dtype, rtol", [(np.float32, 1e-5), (np.float64, 1e-12)])
    @pytest.mark.parametrize("q", [0.5, 1.5, 4.0])
    def test_block_mass_matches_the_textbook_oracle(self, q, dtype, rtol):
        # The kernel keeps raw cosines and one per-row scale; the oracle
        # normalises, takes the signed power, then the q-th power, in float64.
        rng = np.random.default_rng(21)
        X = rng.normal(size=(300, 16))
        Y = X + rng.normal(size=X.shape) * rng.uniform(0.1, 2.0, (300, 1))
        blocks = [RandomFeatures(r, 512, seed=(5, n)) for n, r in enumerate((0.02, 0.2, 0.9, 3.0))]
        got = block_mass(X.astype(dtype), Y.astype(dtype), blocks, q)
        np.testing.assert_allclose(got, rff_block_mass(X.astype(dtype), Y.astype(dtype),
                                                       blocks, q), rtol=rtol)

    @pytest.mark.parametrize("backend, dtype", [("rff", np.float32), ("rff", np.float64),
                                                ("exp", np.float64)],
                             ids=["rff-float32", "rff-float64", "series"])
    @pytest.mark.parametrize("q", [0.5, 1.0, 1.5, 2.0, 3.0, 4.0])
    def test_stacked_tiles_give_the_per_side_bytes(self, monkeypatch, q, backend, dtype):
        # The oracle takes all 2049 pairs as one tile, x and y rows through
        # their own arrays.  At the default budget a tile is 128 pairs of
        # 512 float32 features, 64 in float64 and 390 of the series' 84
        # coordinates, so the rff tiles end on a one-pair tail and the
        # series on 99 pairs; at one byte every tile is one pair.  Two and
        # three threads split the tiles into runs.
        preset = {0.5: "strong_qle1", 1.0: "strong_qle1", 1.5: "strong_1leqle2"}
        monkeypatch.setattr(glue_module, "_EXP_DEGREE", 6)
        fam = GaussianBlockFamily(preset_schedule(preset.get(q, "strong_qge2"), q=q, beta=1.1),
                                  backend=backend, base_seed=17, n_features=512,
                                  ambient_dim=3)
        rng = np.random.default_rng(40)
        X = rng.normal(size=(2049, 3))
        Y = (X + rng.normal(size=X.shape) * rng.uniform(0.0, 2.0, (2049, 1))).astype(dtype)
        X = X.astype(dtype)
        blocks = glue(fam, n_terms=3)._blocks
        want = per_side_block_mass(X, Y, blocks, q)
        assert np.array_equal(block_mass(X, Y, blocks, q), want)
        root = want ** (1.0 / distance_root(q))
        for threads in (1, 2, 3):
            assert np.array_equal(glue(fam, n_terms=3, threads=threads).image_distances(X, Y),
                                  root), threads
        monkeypatch.setattr(gaussian, "_SCRATCH_BYTES", 1)
        assert np.array_equal(block_mass(X, Y, blocks, q), want)

    def test_envelope_at_zero_and_floor(self):
        lo, hi = sphere_block_interval(psi_distance_exact(0.0, 1.0), 2.0)
        assert lo == 0.0 and hi == 0.0
        # at r t^2 = 1 the lower envelope sits at the saturation floor
        lo1, _ = sphere_block_interval(psi_distance_exact(1.0, 1.0), 2.0)
        assert lo1 >= 1.048  # well above the certified compression level
        assert float(lo1) == pytest.approx(delta_q(2.0), abs=1e-12)
