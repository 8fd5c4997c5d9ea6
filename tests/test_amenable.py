"""Lattice/tree models, defect arithmetic, indicator blocks, group gluings."""

import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from embedlab import amenable
from embedlab.amenable import (
    GluedGroupEmbedding,
    HeisenbergModel,
    TreeACollection,
    TreeModel,
    ZkFolnerSystem,
    ZkModel,
    _preset_eps,
    block_distances_pth,
    box_defect,
    box_intersection_count,
    char_embedding_bound_check,
    glued_group_embedding,
    heis_generator_overlap,
    heis_worst_defects,
    heisenberg_growth_fit,
    sample_tree_pairs,
    sample_zk_pairs,
)
from oracles import (MAX_SET_SIZE, block_distance_pth, bounds_check_per_pair, check_node,
                     folner_defect, folner_set, group_metric, heis_ball, heis_ball_count,
                     heis_defect, heis_fiber_overlap, heis_gauge, heis_intersection_count,
                     heis_inv, heis_metric, heis_mul, ray_segment,
                     set_at, support_reach, sym_diff_count, tree_metric, zk_ball, zk_gauge,
                     zk_inv, zk_metric, zk_mul, zk_support_reach)


class TestZkModel:
    def test_group_ops_and_metric(self):
        g = ZkModel(2)
        assert zk_mul((1, 2), (3, -1)) == (4, 1)
        assert zk_inv((1, -2)) == (-1, 2)
        assert zk_mul((1, -2), zk_inv((1, -2))) == (0,) * g.k
        assert zk_metric((0, 0), (2, -3)) == 5.0
        assert ZkFolnerSystem(g).distances([((0, 0), (2, -3)), ((1, 2), (3, -4))]).tolist() == [
            5.0, zk_gauge(zk_mul(zk_inv((1, 2)), (3, -4)))]

    def test_ball_enumeration(self):
        assert len(zk_ball(ZkModel(1), 3)) == 7
        assert len(zk_ball(ZkModel(2), 2)) == 13
        with pytest.raises(ValueError):
            zk_ball(ZkModel(3), 51)
        with pytest.raises(ValueError):
            ZkModel(0)


class TestHeisenberg:
    def test_group_law(self):
        g = (2, -1, 3)
        assert heis_mul(g, heis_inv(g)) == (0, 0, 0)
        assert heis_mul(heis_inv(g), g) == (0, 0, 0)
        # non-commutative: the z coordinate picks up the commutator
        assert heis_mul((1, 0, 0), (0, 1, 0)) != heis_mul((0, 1, 0), (1, 0, 0))

    def test_metric_left_invariant(self):
        g1, g2, t = (1, 2, -3), (0, -1, 5), (4, 1, 2)
        assert heis_metric(heis_mul(t, g1), heis_mul(t, g2)) == heis_metric(g1, g2)

    def test_gauge(self):
        assert heis_gauge((0, 0, 0)) == 0
        assert heis_gauge((1, -2, 0)) == 3
        assert heis_gauge((0, 0, 9)) == 3
        assert heis_gauge((0, 0, 10)) == 4  # ceil(sqrt(10))

    def test_ball_count_matches_enumeration(self):
        h = HeisenbergModel()
        for r in range(7):
            ball = heis_ball(h, r)
            assert len(ball) == len(set(ball)) == h.ball_count(r)
            assert all(heis_gauge(g) <= r for g in ball)
        with pytest.raises(ValueError):
            heis_ball(h, 40)

    def test_ball_count_is_the_fiber_sum(self):
        h = HeisenbergModel()
        assert [h.ball_count(r) for r in range(2001)] == [
            heis_ball_count(r) for r in range(2001)]

    def test_growth_exponent_near_four(self):
        slope = heisenberg_growth_fit()
        assert 3.5 <= slope <= 4.5


class TestTreeModel:
    def test_metric_counts_edges(self):
        pairs = [((0, 1, 0), (0, 1, 0)), ((0, 1), (0, 1, 0, 0)), ((0, 1, 1), (0, 0)), ((), (1, 0))]
        assert [tree_metric(x, y) for x, y in pairs] == [0.0, 2.0, 3.0, 2.0]
        assert TreeACollection(TreeModel()).distances(pairs).tolist() == [0.0, 2.0, 3.0, 2.0]

    def test_node_validation(self):
        with pytest.raises(ValueError):
            check_node((0, 2))
        with pytest.raises(ValueError):
            check_node((1, -1))
        check_node((0, 1) * 3000)

    def test_ray_segment_realizes_distances(self):
        t = TreeModel()
        for x in [(0, 1, 0), (), (0, 0), (1, 1, 0, 1)]:
            seg = ray_segment(t, x, 8)
            assert seg[0] == tuple(x)
            assert len(set(seg)) == 8
            for j, v in enumerate(seg):
                assert tree_metric(x, v) == j
            for a, b in zip(seg, seg[1:]):
                assert tree_metric(a, b) == 1.0


class TestDefects:
    def test_identity_translation_has_zero_defect(self):
        g = ZkModel(1)
        F = [(i,) for i in range(-3, 4)]
        assert folner_defect(F, (0,), g) == 0.0
        assert folner_defect(F, (2,), g) == pytest.approx(4 / 7)
        with pytest.raises(ValueError):
            folner_defect([], (0,), g)

    def test_a_defect_values(self):
        # |A Delta B| / |A cap B| of tree segments: 0 for equal segments,
        # +inf for disjoint ones, and the set ratio in between.
        tree = TreeModel()
        col = TreeACollection(tree, n_min=3, n_max=3)  # 11-vertex segments
        x, near, far = (1,) * 30, (1,) * 28, (0,) * 30
        got = col.a_defects(col.sym_diff_counts([(x, x), (x, far), (x, near)]))[:, 0]
        assert got[0] == 0.0
        assert got[1] == math.inf
        a, b = set(ray_segment(tree, x, 11)), set(ray_segment(tree, near, 11))
        assert got[2] == len(a ^ b) / len(a & b) == 4 / 9

    def test_box_defect_matches_enumeration(self):
        g = ZkModel(2)
        M, trans = 2, (1, -1)
        F = [p for p in zk_ball(g, 2 * M) if max(abs(c) for c in p) <= M]
        assert len(F) == 25
        assert box_intersection_count(M, trans) == 16
        assert box_defect(M, trans) == pytest.approx(folner_defect(F, trans, g))
        assert box_defect(M, (0, 0)) == 0.0
        assert box_defect(M, (2 * M + 1, 0)) == 2.0  # disjoint translate

    def test_preset_eps(self):
        assert _preset_eps(2) == 0.5
        assert _preset_eps(5) == pytest.approx(1.0 / (5 * math.log(5) ** 2))
        with pytest.raises(ValueError):
            _preset_eps(1)


class TestZkFolnerSystem:
    def test_schedule_values(self):
        sys = ZkFolnerSystem(ZkModel(1))
        assert sys.r(4) == 4.0
        assert sys.half_side(2) == 4
        assert sys.size(2) == 9
        assert sys.rad(2) == 4.0
        assert sys.a_eps(2) == pytest.approx(1.0)
        sys2 = ZkFolnerSystem(ZkModel(2))
        assert sys2.size(2) == 81
        assert sys2.rad(2) == 8.0

    def test_defect_stays_under_budget(self):
        sys = ZkFolnerSystem(ZkModel(1))
        for n in (2, 5, 9):
            M = sys.half_side(n)
            worst = max(box_defect(M, (g,)) for g in range(1, n + 1))
            assert worst <= sys.eps(n)

    def test_defect_budget_in_two_dims(self):
        sys = ZkFolnerSystem(ZkModel(2))
        M = sys.half_side(3)
        worst = max(box_defect(M, g) for g in zk_ball(ZkModel(2), 3) if g != (0, 0))
        assert worst <= sys.eps(3)

    def test_closed_form_sym_diff_matches_materialized_sets(self):
        sys = ZkFolnerSystem(ZkModel(2))
        x, y = (5, -2), (7, 1)
        A = set_at(sys, x, 2)
        B = set_at(sys, y, 2)
        assert len(A) == len(B) == 81
        assert sys.sym_diff_counts([(x, y)])[0, 2 - 2] == len(A ^ B)

    def test_closed_form_survives_materialization_cap(self):
        sys = ZkFolnerSystem(ZkModel(2))
        with pytest.raises(ValueError):
            folner_set(sys, 20)  # 7181^2 points
        assert sys.sym_diff_counts([((0, 0), (3, 4))])[0, 20 - 2] > 0

    def test_index_validation(self):
        with pytest.raises(ValueError):
            ZkFolnerSystem(ZkModel(1), n_min=1)
        with pytest.raises(ValueError):
            ZkFolnerSystem(ZkModel(1), n_min=5, n_max=4)


class TestTreeACollection:
    def test_schedule_values(self):
        col = TreeACollection(TreeModel())
        assert col.size(2) == 4
        assert col.rad(2) == 3.0
        assert col.a_eps(2) == math.inf  # segment too short to certify
        assert col.size(5) == 65
        assert col.a_eps(5) == pytest.approx(10.0 / 55.0)

    def test_encoded_sets_match_brute_force(self):
        tree = TreeModel()
        col = TreeACollection(tree)
        cases = [
            ((0, 0), (0, 0, 0, 0)),     # both on the designated ray
            ((1, 0, 1), (1, 1)),        # private climbs off the ray
            ((0, 1), (0, 1, 0, 1)),     # nested
            ((1,), (1, 1, 0)),          # one climb through the other
            ((1, 0), (0, 1)),           # divergent at the root
            ((), (0, 1)),
        ]
        for x, y in cases:
            for n in range(2, 7):
                s = col.size(n)
                brute = len(set(ray_segment(tree, x, s)) ^ set(ray_segment(tree, y, s)))
                assert col.sym_diff_counts([(x, y)])[0, n - 2] == brute

    def test_on_ray_difference_is_twice_the_distance(self):
        tree = TreeModel()
        col = TreeACollection(tree)
        x, y = (0,) * 3, (0,) * 7
        assert col.distances([(x, y)])[0] == 4.0
        for n in (5, 8, 12):
            if col.size(n) > 8:
                assert col.sym_diff_counts([(x, y)])[0, n - 2] == 8


def _char_block(x, n: int, sys, p: float) -> dict:
    """phi_n(x) materialized: the indicator of A_n(x) at unit ell_p norm."""
    support = set_at(sys, x, n)
    return dict.fromkeys(support, len(support) ** (-1.0 / p))


def _dense_distance_pth(a: dict, b: dict, p: float) -> float:
    return sum(abs(a.get(v, 0.0) - b.get(v, 0.0)) ** p for v in a.keys() | b.keys())


class TestCharBlocks:
    """Materialized indicator blocks: the oracle of the block distances."""

    def test_unit_norm(self):
        sys = ZkFolnerSystem(ZkModel(1))
        blk = _char_block((3,), 2, sys, 1.5)
        assert len(blk) == 9
        assert sum(h ** 1.5 for h in blk.values()) == pytest.approx(1.0, rel=1e-12)

    def test_distance_matches_dense_oracle(self):
        tree = TreeModel()
        cases = [(ZkFolnerSystem(ZkModel(2), n_max=4), sample_zk_pairs(ZkModel(2), 6, 12, seed=1)),
                 (TreeACollection(tree, n_max=5), sample_tree_pairs(tree, 6, 12, seed=1))]
        for sys, pairs in cases:
            closed = block_distances_pth(sys, sys.sym_diff_counts(pairs))
            for p in (1.0, 1.5, 3.0):  # the closed form holds whatever p
                for i, (x, y) in enumerate(pairs):
                    for j, n in enumerate(range(2, sys.n_max + 1)):
                        dense = _dense_distance_pth(_char_block(x, n, sys, p),
                                                    _char_block(y, n, sys, p), p)
                        assert closed[i, j] == pytest.approx(dense, rel=1e-12, abs=1e-15)
                        assert closed[i, j] == block_distance_pth(sys, x, y, n)


class TestSamplers:
    def test_zk_pairs_deterministic_and_in_range(self):
        g = ZkModel(2)
        pairs = sample_zk_pairs(g, 30, 12, seed=5)
        again = sample_zk_pairs(g, 30, 12, seed=5)
        assert pairs == again
        assert sample_zk_pairs(g, 8, 12, seed=5) == pairs[:8]
        for x, y in pairs:
            assert 1 <= zk_metric(x, y) <= 12

    @pytest.mark.parametrize("k,max_dist", [(1, 1), (2, 1.9), (2, 6.8), (2, 40), (3, 7.9),
                                            (3, 1000)])
    def test_zk_pairs_never_leave_the_range(self, k, max_dist):
        # a rounded log-uniform length reaches ceil(max_dist) on a share of
        # the draws below a fractional max_dist (about 37% at 1.9, 2% at
        # 6.8); the cap at floor(max_dist) keeps them in range
        g = ZkModel(k)
        d = [zk_metric(x, y) for x, y in sample_zk_pairs(g, 500, max_dist, seed=k)]
        assert 1 <= min(d) and max(d) <= max_dist

    def test_zk_pairs_need_a_unit_range(self):
        with pytest.raises(ValueError, match="max_dist"):
            sample_zk_pairs(ZkModel(2), 3, 0.5, seed=0)

    @pytest.mark.parametrize("max_dist", [math.inf, math.nan])
    def test_zk_pairs_need_a_finite_range(self, max_dist):
        with pytest.raises(ValueError, match="finite max_dist"):
            sample_zk_pairs(ZkModel(2), 3, max_dist, seed=0)

    def test_tree_pairs_valid(self):
        tree = TreeModel()
        pairs = sample_tree_pairs(tree, 30, 10, seed=2)
        assert pairs == sample_tree_pairs(tree, 30, 10, seed=2)
        for x, y in pairs:
            check_node(x)
            check_node(y)
            assert 1 <= tree_metric(x, y) <= 10

    @pytest.mark.parametrize("base,hold,n_pairs,max_dist", [
        (None, None, 600, 1000),  # two blocks
        (3, 7, 300, 40),  # walks held at the sampler's depth
        (3, 3, 50, 5),
        (None, None, 200, 1),
    ])
    def test_tree_pairs_stay_in_the_tree_and_the_range(self, monkeypatch, base, hold,
                                                        n_pairs, max_dist):
        # the walks start at depth <= _TREE_BASE_DEPTH <= _TREE_WALK_DEPTH
        if hold is not None:
            monkeypatch.setattr(amenable, "_TREE_BASE_DEPTH", base)
            monkeypatch.setattr(amenable, "_TREE_WALK_DEPTH", hold)
        hold = amenable._TREE_WALK_DEPTH
        pairs = sample_tree_pairs(TreeModel(), n_pairs, max_dist, seed=11)
        assert len(pairs) == n_pairs
        for x, y in pairs:
            check_node(x)
            check_node(y)
            assert 1 <= tree_metric(x, y) <= max_dist
            assert len(x) <= hold and (len(y) <= hold or y == x + (0,))
        if hold < max_dist:  # some walk reaches the hold
            assert max(len(y) for _, y in pairs) >= hold

    @pytest.mark.parametrize("m,n", [(8, 100), (500, 530), (512, 1100)])
    def test_tree_pairs_prefix(self, m, n):
        # the bench's tree check re-draws 8 pairs and needs them to be the
        # first 8 of the run's 100, inside the run's envelopes
        tree = TreeModel()
        assert sample_tree_pairs(tree, m, 1000, seed=6) == \
            sample_tree_pairs(tree, n, 1000, seed=6)[:m]

    def test_tree_walks_draw_their_steps_in_chunks(self):
        # Drawing the 10^5 steps of a block at once would take at least
        # 512 * 10^5 bytes; even 4 walks' steps at once as int64 would take
        # 4 * 10^5 * 8 = 3.2 MB.  A fresh process, its random module loaded
        # by one small draw, measures the growth of its peak resident set
        # across the call.
        code = (
            "import resource\n"
            "import numpy as np\n"
            "from embedlab.amenable import TreeACollection, TreeModel, sample_tree_pairs\n"
            "tree = TreeModel()\n"
            "np.random.Generator(np.random.Philox(1)).integers(0, 4, 64, dtype=np.uint8)\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "pairs = sample_tree_pairs(tree, 4, 10 ** 5, 1)\n"
            "after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "assert all(1 <= d <= 10 ** 5 for d in TreeACollection(tree).distances(pairs))\n"
            "print(after - before)\n")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(Path(amenable.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])}
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert int(out) * 1024 < 4 * 10 ** 5 * 8  # ru_maxrss is in KiB


class TestCharBoundCheck:
    def test_clean_run_on_z2(self):
        sys = ZkFolnerSystem(ZkModel(2), n_min=2, n_max=8)
        pairs = sample_zk_pairs(ZkModel(2), 40, 16, seed=1)
        rep = char_embedding_bound_check(sys, 1.0, d=sys.distances(pairs),
                                         counts=sys.sym_diff_counts(pairs))
        assert rep.n_pairs == 40
        assert rep.n_checks > 0
        assert rep.violations == 0
        assert rep.worst_margin > 0
        assert rep.to_dict()["model"] == "z2"

    def test_clean_run_on_tree(self):
        tree = TreeModel()
        col = TreeACollection(tree, n_min=2, n_max=10)
        pairs = sample_tree_pairs(tree, 40, 8, seed=3)
        rep = char_embedding_bound_check(col, 2.0, d=col.distances(pairs),
                                         counts=col.sym_diff_counts(pairs))
        assert rep.n_checks > 0
        assert rep.violations == 0

    def test_shrunken_bound_is_detected(self):
        sys = ZkFolnerSystem(ZkModel(2), n_min=2, n_max=8)
        pairs = sample_zk_pairs(ZkModel(2), 40, 16, seed=1)
        rep = char_embedding_bound_check(sys, 1.0, d=sys.distances(pairs),
                                         counts=sys.sym_diff_counts(pairs), bound_scale=0.01)
        assert rep.violations > 0
        assert rep.worst_margin < 0

    @pytest.mark.parametrize("scale", [math.nan, math.inf, 0.0, -1.0, 1.5])
    def test_bound_scale_outside_the_unit_interval_is_refused(self, scale):
        sys = ZkFolnerSystem(ZkModel(2), n_min=2, n_max=8)
        pairs = sample_zk_pairs(ZkModel(2), 4, 16, seed=1)
        with pytest.raises(ValueError, match=r"bound_scale must lie in \(0, 1\]"):
            char_embedding_bound_check(sys, 1.0, d=sys.distances(pairs),
                                       counts=sys.sym_diff_counts(pairs), bound_scale=scale)

    def test_p_validation(self):
        sys = ZkFolnerSystem(ZkModel(1))
        with pytest.raises(ValueError):
            char_embedding_bound_check(sys, 0.5, d=[], counts=sys.sym_diff_counts([]))

    @pytest.mark.parametrize("p", [math.nan, math.inf])
    def test_non_finite_p_is_refused(self, p):
        sys = ZkFolnerSystem(ZkModel(1))
        with pytest.raises(ValueError, match="blocks need a finite p >= 1"):
            char_embedding_bound_check(sys, p, d=[], counts=sys.sym_diff_counts([]))


class TestGluedGroupEmbedding:
    def test_distance_is_sum_of_blocks(self):
        sys = ZkFolnerSystem(ZkModel(1), n_min=2, n_max=8)
        e = glued_group_embedding(sys, ZkModel(1), 2.0)
        x, y = (0,), (5,)
        total = sum(block_distance_pth(sys, x, y, n) for n in range(2, 9))
        got = e.image_distances_pth(sys.sym_diff_counts([(x, y)]))[0]
        assert got == pytest.approx(total, rel=1e-15)
        assert got ** (1.0 / e.p) == pytest.approx(total ** 0.5, rel=1e-15)

    def test_disjoint_blocks_give_exact_lower_mass(self):
        sys = ZkFolnerSystem(ZkModel(1), n_min=2, n_max=8)
        e = glued_group_embedding(sys, ZkModel(1), 2.0)
        d = 2 * sys.rad(8) + 2  # beyond every diameter: all supports disjoint
        assert e.disjoint_step_count(d) == 7
        assert e.certified_lower_pth(d) == 14.0
        far = sys.sym_diff_counts([((0,), (int(d),))])
        assert e.image_distances_pth(far)[0] == pytest.approx(14.0, rel=1e-12)

    def test_upper_bound_formula(self):
        sys = ZkFolnerSystem(ZkModel(1), n_min=2, n_max=8)
        e = glued_group_embedding(sys, ZkModel(1), 2.0)
        assert e.coarse_step_count(4.5) == 3  # r_n = n < 4.5 for n = 2, 3, 4
        # 2 per block below the separation, at p = 2 as at every p
        assert e.certified_upper_pth(4.5) == pytest.approx(
            2.0 * 3 + e.tail_constant(), rel=1e-15)

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 5.0])
    @pytest.mark.parametrize("group", ["z1", "z2", "tree"])
    def test_indicator_blocks_carry_at_most_two(self, group, p):
        # f = 1_A / |A|^(1/p) and g = 1_B / |B|^(1/p) with |A| = |B|: the
        # p-th mass sum |f - g|^p is |A Delta B| / |A| <= 2 at every p,
        # and pointwise |f - g|^p <= f^p + g^p, since f and g are >= 0.
        sys = amenable.folner_system(group, 2, 4)
        pairs = sys.sample_pairs(12, 60, seed=3)
        pairs.append((pairs[0][0], pairs[0][0]))  # one pair of equal sets
        vals = block_distances_pth(sys, sys.sym_diff_counts(pairs))
        for n in range(2, 5):  # at most 63^2 points per set
            for (x, y), val in zip(pairs, vals[:, n - 2].tolist()):
                a, b = set_at(sys, x, n), set_at(sys, y, n)
                assert len(a) == len(b) == sys.size(n)
                f = {v: len(a) ** (-1.0 / p) for v in a}
                g = {v: len(b) ** (-1.0 / p) for v in b}
                terms = [(abs(f.get(v, 0.0) - g.get(v, 0.0)) ** p,
                          f.get(v, 0.0) ** p + g.get(v, 0.0) ** p) for v in a | b]
                assert all(t <= cap for t, cap in terms)
                mass = math.fsum(t for t, _ in terms)
                assert mass == pytest.approx(len(a ^ b) / len(a), rel=1e-12, abs=0)
                assert mass == pytest.approx(val, rel=1e-12, abs=0)
                assert mass <= 2.0 * (1 + 1e-12)

    def test_bounds_check_clean(self):
        sys = ZkFolnerSystem(ZkModel(2), n_min=2, n_max=8)
        e = glued_group_embedding(sys, ZkModel(2), 1.0)
        pairs = sample_zk_pairs(ZkModel(2), 50, 30, seed=7)
        image_pth = e.image_distances_pth(sys.sym_diff_counts(pairs))
        rep = e.bounds_check(sys.distances(pairs), image_pth)
        assert rep["upper_violations"] == 0
        assert rep["lower_violations"] == 0
        assert rep["worst_upper_margin"] > 0

    def test_tree_upper_bound_is_finite_and_audited(self):
        # The default tree run: the first segment's 2 eps'_n is +inf, so
        # each block term is capped at 2 (|A Delta B| / |A| <= 2).
        tree = TreeModel()
        sys = TreeACollection(tree, n_min=2, n_max=20)
        e = glued_group_embedding(sys, tree, 1.0)
        assert sys.a_eps(2) == math.inf
        assert e.tail_constant() == sum(min(2.0 * sys.a_eps(n), 2.0) for n in range(2, 21))
        assert math.isfinite(e.tail_constant())
        pairs = sample_tree_pairs(tree, 60, 1000, seed=8484)
        image_pth = e.image_distances_pth(sys.sym_diff_counts(pairs))
        d = sys.distances(pairs)
        clean = e.bounds_check(d, image_pth)
        assert clean["upper_violations"] == 0
        assert 0 < clean["worst_upper_margin"] < math.inf
        tight = e.bounds_check(d, image_pth, upper_scale=0.1)
        assert tight["upper_violations"] > 0
        assert tight["worst_upper_margin"] < 0

    def test_p_validation(self):
        with pytest.raises(ValueError):
            GluedGroupEmbedding(sys=None, model=None, p=0.5)

    @pytest.mark.parametrize("p", [math.nan, math.inf])
    def test_non_finite_p_is_refused(self, p):
        with pytest.raises(ValueError, match="group blocks need a finite p >= 1"):
            GluedGroupEmbedding(sys=None, model=None, p=p)


class TestRadialWitness:
    """Circumradius of the box witness with defect 1/(n log^2 n) at range n."""

    def test_z1_witness_radius(self):
        model = ZkModel(1)
        assert ZkFolnerSystem(model).rad(4) == 31.0
        eps = _preset_eps(4)
        assert box_defect(31, (4,)) == pytest.approx(8.0 / 63.0)
        assert box_defect(31, (4,)) <= eps
        F = [(i,) for i in range(-31, 32)]
        assert folner_defect(F, (4,), model) == box_defect(31, (4,))

    def test_scaling_with_k(self):
        # the radius scales like k r / eps for every k
        assert ZkFolnerSystem(ZkModel(3)).rad(4) == 93.0

    def test_heisenberg_witness(self):
        # the gauge ball of radius floor(1 / eps_n): 7 at n = 4; its defect
        # carries an absolute constant rather than a clean <= eps_n certificate
        model = HeisenbergModel()
        radius = math.floor(1.0 / _preset_eps(4))
        assert radius == 7
        F = set(heis_ball(model, radius))
        assert len(F) == model.ball_count(radius)
        gens = ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0))
        defect = max(folner_defect(F, g, model) for g in gens)
        assert _preset_eps(4) < defect < 5.0 / radius


def _tree_nodes(branching: int, depth: int) -> list[tuple]:
    return [node for d in range(depth + 1)
            for node in itertools.product(range(branching), repeat=d)]


class TestClosedFormOracles:
    """The array closed forms against set enumeration."""

    def test_tree_counts_match_segments_on_every_pair_to_depth_five(self):
        tree = TreeModel()
        col = TreeACollection(tree, n_min=2, n_max=4)
        nodes = _tree_nodes(2, 5)  # 63 nodes, zero-heavy labels included
        pairs = list(itertools.product(nodes, repeat=2))
        counts = col.sym_diff_counts(pairs)
        a_def = col.a_defects(counts)
        for j, n in enumerate(range(2, 5)):
            s = col.size(n)
            segs = {x: set(ray_segment(tree, x, s)) for x in nodes}
            for i, (x, y) in enumerate(pairs):
                assert counts[i, j] == len(segs[x] ^ segs[y]), (x, y, n)
                inter = len(segs[x] & segs[y])
                want = len(segs[x] ^ segs[y]) / inter if inter else math.inf
                assert a_def[i, j] == want, (x, y, n)
        assert sym_diff_count(col, (0, 0, 0), (1,), 3) == counts[
            pairs.index(((0, 0, 0), (1,))), 1]

    def test_segments_past_depth_4000_equal_the_oracle(self):
        # The tree is infinite: segments reaching past depth 4000, where the
        # sampler holds its walks, are as exact as those below it.
        tree = TreeModel()
        col = TreeACollection(tree, n_min=2, n_max=6)  # 4- to 93-vertex segments
        deep = (0,) * 3990
        pairs = [(deep, deep + (0,) * 9), (deep + (1,), deep + (0, 0, 1)),
                 (deep + (1, 1, 0), (0,) * 4000 + (1,)), (deep[:-2] + (1,), deep + (1, 0)),
                 ((), deep + (0,) * 20), ((1,) * 30, deep)]
        counts = col.sym_diff_counts(pairs)
        for j, n in enumerate(range(2, 7)):
            s = col.size(n)
            for i, (x, y) in enumerate(pairs):
                want = len(set(ray_segment(tree, x, s)) ^ set(ray_segment(tree, y, s)))
                assert counts[i, j] == want, (i, n)
        assert max(len(v) for v in ray_segment(tree, deep, col.size(6))) > 4000

    def test_sampled_counts_at_n_max_60_equal_the_enumeration(self):
        # Segments of up to 60,350 vertices, most of them on the ray: the
        # enumeration keys a ray vertex by its depth, which keys it as
        # exactly as its path does (checked on the short segments).
        col = amenable.folner_system("tree", 2, 60)
        pairs = sample_tree_pairs(col.tree, 8, 1000, seed=7)
        counts = col.sym_diff_counts(pairs)

        def segment(x, n, ray):
            return set(ray_segment(col.tree, x, col.size(n), ray=ray))

        for i, (x, y) in enumerate(pairs):
            for n in (2, 5, 8):
                assert len(segment(x, n, int) ^ segment(y, n, int)) == \
                    len(segment(x, n, lambda d: (0,) * d) ^ segment(y, n, lambda d: (0,) * d))
            for n in (2, 8, 21, 40, 60):
                assert counts[i, n - 2] == len(segment(x, n, int) ^ segment(y, n, int)), (i, n)
        assert col.size(60) == 60350

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_zk_counts_match_scalar_and_sets(self, k):
        model = ZkModel(k)
        sys = ZkFolnerSystem(model, n_min=2, n_max=9)
        pairs = sample_zk_pairs(model, 40, 30, seed=k)
        counts = sys.sym_diff_counts(pairs)
        for i, (x, y) in enumerate(pairs):
            for j, n in enumerate(range(2, 10)):
                assert counts[i, j] == sym_diff_count(sys, x, y, n)
        x, y = pairs[0]
        assert counts[0, 0] == len(set_at(sys, x, 2) ^ set_at(sys, y, 2))

    def test_zk_counts_stay_exact_past_float_precision(self):
        sys = ZkFolnerSystem(ZkModel(5), n_min=2, n_max=20)  # 14363^5 points
        assert sys.size(20) > 1 << 53
        pairs = [((0,) * 5, (7, -3, 0, 1, 9)), ((1, 2, 3, 4, 5), (1, 2, 3, 4, 6))]
        counts = sys.sym_diff_counts(pairs)
        dist = block_distances_pth(sys, counts)
        for i, (x, y) in enumerate(pairs):
            for j, n in enumerate(range(2, 21)):
                assert counts[i, j] == sym_diff_count(sys, x, y, n)
                assert dist[i, j] == block_distance_pth(sys, x, y, n)

    def test_heisenberg_defect_matches_the_enumerated_ball(self):
        model = HeisenbergModel()
        shifts = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0),
                  (2, -1, 3), (-3, 2, -5), (1, 1, 40), (30, 0, 0)]
        for radius in range(13):
            F = set(heis_ball(model, radius))
            for g in shifts:
                gF = {heis_mul(g, f) for f in F}
                assert heis_intersection_count(radius, g) == len(F & gF), (radius, g)
                assert heis_defect(radius, g) == folner_defect(F, g, model), (radius, g)
            gF = {heis_mul((1, 0, 0), f) for f in F}
            assert heis_generator_overlap(radius) == len(F & gF), radius
        assert heis_defect(12, (30, 0, 0)) == 2.0  # disjoint translate
        assert heis_defect(12, (0, 0, 0)) == 0.0

    def test_heisenberg_worst_defect_is_the_generator_maximum(self):
        model = HeisenbergModel()
        rows = heis_worst_defects(2, 6)
        assert [row[0] for row in rows] == [2, 3, 4, 5, 6]
        assert rows[0][3] == 34 / 29
        gens = ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0))
        for n, eps, radius, defect in rows:
            assert (eps, radius) == (_preset_eps(n), math.floor(1.0 / _preset_eps(n)))
            F = set(heis_ball(model, radius))
            assert defect == max(folner_defect(F, g, model) for g in gens)

    def test_heisenberg_generator_and_inverse_counts_agree(self):
        # |F cap gF| = |F cap g^-1 F|, so the worst defect needs only one
        # generator of each inverse pair.
        model = HeisenbergModel()
        for radius in range(7):
            F = set(heis_ball(model, radius))
            counts = [heis_intersection_count(radius, g)
                      for g in ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0))]
            assert heis_generator_overlap(radius) == counts[0] == counts[1], radius
            assert counts[2] == counts[3], radius
            assert counts[0] == len(F & {heis_mul((1, 0, 0), f) for f in F}), radius
            assert counts[2] == len(F & {heis_mul((0, 1, 0), f) for f in F}), radius

    def test_heisenberg_x_generator_overlaps_least(self):
        # |B cap (1,0,0)B| <= |B cap (0,1,0)B| at every radius, so the
        # worst generator defect is that of (1, 0, 0) alone.
        for radius in range(151):
            counts = [heis_generator_overlap(radius), heis_intersection_count(radius, (0, 1, 0))]
            assert counts[0] <= counts[1], radius
            if radius % 10 == 0 or radius < 10:
                assert counts == [heis_fiber_overlap(radius, g)
                                  for g in ((1, 0, 0), (0, 1, 0))], radius

    def test_heisenberg_generator_overlap_is_the_fiber_sum(self):
        # every radius to 400, the n = 60 and n = 120 witness radii, and
        # 4.6 times the n = 60 radius
        assert [math.floor(1.0 / _preset_eps(n)) for n in (60, 120)] == [1005, 2750]
        for radius in [*range(401), 1005, 2750, 4620]:
            assert heis_generator_overlap(radius) == heis_intersection_count(radius, (1, 0, 0)), \
                radius

    @pytest.mark.parametrize("tree", [False, True])
    def test_glued_distances_equal_the_scalar_sum_bitwise(self, tree):
        if tree:
            model = TreeModel()
            sys = TreeACollection(model, n_min=2, n_max=9)
            pairs = sample_tree_pairs(model, 40, 60, seed=4)
        else:
            model = ZkModel(3)
            sys = ZkFolnerSystem(model, n_min=2, n_max=12)
            pairs = sample_zk_pairs(model, 40, 60, seed=4)
        e = glued_group_embedding(sys, model, 1.5)
        got = e.image_distances_pth(sys.sym_diff_counts(pairs))
        for (x, y), val in zip(pairs, got):
            want = sum(block_distance_pth(sys, x, y, n) for n in range(sys.n_min, sys.n_max + 1))
            assert val == want


class TestFolnerSystemRegistry:
    @pytest.mark.parametrize("group", ["z1", "z2", "z3", "tree"])
    def test_distances_equal_the_scalar_metric_bitwise(self, group):
        system = amenable.folner_system(group, 2, 8)
        assert (system.n_min, system.n_max) == (2, 8)
        pairs = system.sample_pairs(200, 60, seed=12)
        got = system.distances(pairs)
        assert got.dtype == float and len(got) == 200
        assert got.tolist() == [group_metric(system.model, x, y) for x, y in pairs]

    @pytest.mark.parametrize("group", ["heis", "z", "z0", "zz", "tree2", ""])
    def test_unknown_group_is_rejected(self, group):
        with pytest.raises(ValueError):
            amenable.folner_system(group, 2, 8)


def _audit_case(group: str):
    """An embedding and 300 sampled pairs for z1, z2, z3 or the tree."""
    if group == "tree":
        model = TreeModel()
        sys = TreeACollection(model, n_min=2, n_max=12)
        pairs = sample_tree_pairs(model, 300, 200, seed=41)
    else:
        model = ZkModel(int(group[1]))
        sys = ZkFolnerSystem(model, n_min=2, n_max=12)
        pairs = sample_zk_pairs(model, 300, 200, seed=41)
    return glued_group_embedding(sys, model, 1.5), pairs


class TestArrayAuditsMatchOracles:
    """The array audits against the per-pair loop and the materialized box."""

    @pytest.mark.parametrize("upper_scale", [1.0, 0.1])
    @pytest.mark.parametrize("group", ["z1", "z2", "z3", "tree"])
    def test_bounds_check_equals_the_per_pair_loop(self, group, upper_scale):
        emb, pairs = _audit_case(group)
        image_pth = emb.image_distances_pth(emb.sys.sym_diff_counts(pairs))
        got = emb.bounds_check(emb.sys.distances(pairs), image_pth, upper_scale=upper_scale)
        want = bounds_check_per_pair(emb, pairs, image_pth, upper_scale)
        assert got == want  # margins bit for bit, violation counts exactly
        assert (got["upper_violations"] > 0) == (upper_scale < 1)


class TestSupportReach:
    """rad(n) against the supports walked point by point."""

    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("group", ["z1", "z2", "z3", "tree"])
    def test_rad_is_the_enumerated_reach(self, group, seed):
        # Every corner of a box lies at ell_1 distance k M_n and vertex j of
        # a segment at graph distance j, so the walks hit rad(n) exactly;
        # where the box is small enough, it is materialized as well.
        sys = amenable.folner_system(group, 2, 8)
        for x, _ in sys.sample_pairs(64, 1000, seed):
            for n in range(2, 9):
                reach = support_reach(sys, x, n)
                assert reach == sys.rad(n), (x, n)
                if group != "tree" and sys.size(n) <= MAX_SET_SIZE:
                    assert reach == zk_support_reach(sys, x, n), (x, n)
