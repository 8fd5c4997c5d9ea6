"""Lattice/tree models, defect arithmetic, indicator blocks, group gluings."""

import itertools
import math

import pytest

from embedlab.amenable import (
    GluedGroupEmbedding,
    HeisenbergModel,
    TreeACollection,
    TreeModel,
    ZkFolnerSystem,
    ZkModel,
    _preset_eps,
    a_defect,
    block_distances_pth,
    box_defect,
    box_intersection_count,
    char_embedding_bound_check,
    folner_defect,
    glued_group_embedding,
    heisenberg_growth_fit,
    predicted_group_gap,
    radial_folner_upper,
    sample_tree_pairs,
    sample_zk_pairs,
)


class TestZkModel:
    def test_group_ops_and_metric(self):
        g = ZkModel(2)
        assert g.mul((1, 2), (3, -1)) == (4, 1)
        assert g.inv((1, -2)) == (-1, 2)
        assert g.mul((1, -2), g.inv((1, -2))) == g.identity
        assert g.metric((0, 0), (2, -3)) == 5.0

    def test_ball_enumeration(self):
        assert len(ZkModel(1).ball(3)) == 7
        assert len(ZkModel(2).ball(2)) == 13
        with pytest.raises(ValueError):
            ZkModel(3).ball(51)
        with pytest.raises(ValueError):
            ZkModel(0)


class TestHeisenberg:
    def test_group_law(self):
        h = HeisenbergModel()
        g = (2, -1, 3)
        assert h.mul(g, h.inv(g)) == h.identity
        assert h.mul(h.inv(g), g) == h.identity
        # non-commutative: the z coordinate picks up the commutator
        assert h.mul((1, 0, 0), (0, 1, 0)) != h.mul((0, 1, 0), (1, 0, 0))

    def test_metric_left_invariant(self):
        h = HeisenbergModel()
        g1, g2, t = (1, 2, -3), (0, -1, 5), (4, 1, 2)
        assert h.metric(h.mul(t, g1), h.mul(t, g2)) == h.metric(g1, g2)

    def test_gauge(self):
        h = HeisenbergModel()
        assert h.gauge((0, 0, 0)) == 0
        assert h.gauge((1, -2, 0)) == 3
        assert h.gauge((0, 0, 9)) == 3
        assert h.gauge((0, 0, 10)) == 4  # ceil(sqrt(10))

    def test_ball_count_matches_enumeration(self):
        h = HeisenbergModel()
        for r in range(7):
            ball = h.ball(r)
            assert len(ball) == len(set(ball)) == h.ball_count(r)
            assert all(h.gauge(g) <= r for g in ball)
        with pytest.raises(ValueError):
            h.ball(40)

    def test_growth_exponent_near_four(self):
        slope = heisenberg_growth_fit()
        assert 3.5 <= slope <= 4.5


class TestTreeModel:
    def test_metric_counts_edges(self):
        t = TreeModel()
        assert t.metric((0, 1, 0), (0, 1, 0)) == 0.0
        assert t.metric((0, 1), (0, 1, 0, 0)) == 2.0
        assert t.metric((0, 1, 1), (0, 0)) == 3.0
        assert t.metric((), (1, 0)) == 2.0

    def test_node_validation(self):
        t = TreeModel(branching=2, depth=5)
        with pytest.raises(ValueError):
            t.check_node((0, 2))
        with pytest.raises(ValueError):
            t.check_node((0,) * 6)
        with pytest.raises(ValueError):
            TreeModel(branching=0)

    def test_ray_segment_realizes_distances(self):
        t = TreeModel()
        for x in [(0, 1, 0), (), (0, 0), (1, 1, 0, 1)]:
            seg = t.ray_segment(x, 8)
            assert seg[0] == tuple(x)
            assert len(set(seg)) == 8
            for j, v in enumerate(seg):
                assert t.metric(x, v) == j
            for a, b in zip(seg, seg[1:]):
                assert t.metric(a, b) == 1.0

    def test_segment_depth_cap(self):
        t = TreeModel(branching=2, depth=5)
        with pytest.raises(ValueError):
            t.ray_segment((), 7)


class TestDefects:
    def test_identity_translation_has_zero_defect(self):
        g = ZkModel(1)
        F = [(i,) for i in range(-3, 4)]
        assert folner_defect(F, (0,), g) == 0.0
        assert folner_defect(F, (2,), g) == pytest.approx(4 / 7)
        with pytest.raises(ValueError):
            folner_defect([], (0,), g)

    def test_a_defect_values(self):
        assert a_defect({1, 2}, {1, 2}) == 0.0
        assert a_defect({1, 2}, {2, 3}) == 2.0
        assert a_defect({1}, {2}) == math.inf
        with pytest.raises(ValueError):
            a_defect(set(), {1})

    def test_box_defect_matches_enumeration(self):
        g = ZkModel(2)
        M, trans = 2, (1, -1)
        F = [p for p in g.ball(2 * M) if max(abs(c) for c in p) <= M]
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
        worst = max(box_defect(M, g) for g in ZkModel(2).ball(3) if g != (0, 0))
        assert worst <= sys.eps(3)

    def test_closed_form_sym_diff_matches_materialized_sets(self):
        sys = ZkFolnerSystem(ZkModel(2))
        x, y = (5, -2), (7, 1)
        A = sys.set_at(x, 2)
        B = sys.set_at(y, 2)
        assert len(A) == len(B) == 81
        assert sys.sym_diff_count(x, y, 2) == len(A ^ B)

    def test_closed_form_survives_materialization_cap(self):
        sys = ZkFolnerSystem(ZkModel(2))
        with pytest.raises(ValueError):
            sys.folner_set(20)  # 7181^2 points
        assert sys.sym_diff_count((0, 0), (3, 4), 20) > 0

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
        tree = TreeModel(branching=3)
        col = TreeACollection(tree)
        cases = [
            ((0, 0), (0, 0, 0, 0)),     # both on the designated ray
            ((1, 0, 2), (1, 1)),        # private climbs off the ray
            ((0, 1), (0, 1, 0, 1)),     # nested
            ((1,), (2,)),               # divergent at the root
            ((), (0, 2)),
        ]
        for x, y in cases:
            for n in range(2, 7):
                s = col.size(n)
                brute = len(set(tree.ray_segment(x, s)) ^ set(tree.ray_segment(y, s)))
                assert col.sym_diff_count(x, y, n) == brute

    def test_on_ray_difference_is_twice_the_distance(self):
        tree = TreeModel()
        col = TreeACollection(tree)
        x, y = (0,) * 3, (0,) * 7
        assert tree.metric(x, y) == 4.0
        for n in (5, 8, 12):
            if col.size(n) > 8:
                assert col.sym_diff_count(x, y, n) == 8


def _char_block(x, n: int, sys, p: float) -> dict:
    """phi_n(x) materialized: the indicator of A_n(x) at unit ell_p norm."""
    support = sys.set_at(x, n)
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
            closed = block_distances_pth(sys, pairs)
            for p in (1.0, 1.5, 3.0):  # the closed form holds whatever p
                for i, (x, y) in enumerate(pairs):
                    for j, n in enumerate(range(2, sys.n_max + 1)):
                        dense = _dense_distance_pth(_char_block(x, n, sys, p),
                                                    _char_block(y, n, sys, p), p)
                        assert closed[i, j] == pytest.approx(dense, rel=1e-12, abs=1e-15)
                        assert closed[i, j] == sys.block_distance_pth(x, y, n, p)


class TestSamplers:
    def test_zk_pairs_deterministic_and_in_range(self):
        g = ZkModel(2)
        pairs = sample_zk_pairs(g, 30, 12, seed=5)
        again = sample_zk_pairs(g, 30, 12, seed=5)
        assert pairs == again
        assert sample_zk_pairs(g, 8, 12, seed=5) == pairs[:8]
        for x, y in pairs:
            assert 1 <= g.metric(x, y) <= 12

    def test_tree_pairs_valid(self):
        tree = TreeModel()
        pairs = sample_tree_pairs(tree, 30, 10, seed=2)
        assert pairs == sample_tree_pairs(tree, 30, 10, seed=2)
        for x, y in pairs:
            tree.check_node(x)
            tree.check_node(y)
            assert 1 <= tree.metric(x, y) <= 10


class TestCharBoundCheck:
    def test_clean_run_on_z2(self):
        sys = ZkFolnerSystem(ZkModel(2), n_min=2, n_max=8)
        pairs = sample_zk_pairs(ZkModel(2), 40, 16, seed=1)
        rep = char_embedding_bound_check(sys, ZkModel(2), pairs, 1.0)
        assert rep.n_checks > 0
        assert rep.violations == 0
        assert rep.support_violations == 0
        assert rep.worst_margin > 0
        assert rep.to_dict()["model"] == "z2"

    def test_clean_run_on_tree(self):
        tree = TreeModel()
        col = TreeACollection(tree, n_min=2, n_max=10)
        pairs = sample_tree_pairs(tree, 40, 8, seed=3)
        rep = char_embedding_bound_check(col, tree, pairs, 2.0)
        assert rep.n_checks > 0
        assert rep.violations == 0

    def test_shrunken_bound_is_detected(self):
        sys = ZkFolnerSystem(ZkModel(2), n_min=2, n_max=8)
        pairs = sample_zk_pairs(ZkModel(2), 40, 16, seed=1)
        rep = char_embedding_bound_check(sys, ZkModel(2), pairs, 1.0,
                                         bound_scale=0.01)
        assert rep.violations > 0
        assert rep.worst_margin < 0

    def test_p_validation(self):
        sys = ZkFolnerSystem(ZkModel(1))
        with pytest.raises(ValueError):
            char_embedding_bound_check(sys, ZkModel(1), [], 0.5)


class TestGluedGroupEmbedding:
    def test_distance_is_sum_of_blocks(self):
        sys = ZkFolnerSystem(ZkModel(1), n_min=2, n_max=8)
        e = glued_group_embedding(sys, ZkModel(1), 2.0)
        x, y = (0,), (5,)
        total = sum(sys.block_distance_pth(x, y, n, 2.0) for n in range(2, 9))
        assert e.image_distance_pth(x, y) == pytest.approx(total, rel=1e-15)
        assert e.image_distance(x, y) == pytest.approx(total ** 0.5, rel=1e-15)

    def test_disjoint_blocks_give_exact_lower_mass(self):
        sys = ZkFolnerSystem(ZkModel(1), n_min=2, n_max=8)
        e = glued_group_embedding(sys, ZkModel(1), 2.0)
        d = 2 * sys.rad(8) + 2  # beyond every diameter: all supports disjoint
        assert e.disjoint_step_count(d) == 7
        assert e.certified_lower_pth(d) == 14.0
        assert e.image_distance_pth((0,), (int(d),)) == pytest.approx(14.0, rel=1e-12)

    def test_upper_bound_formula(self):
        sys = ZkFolnerSystem(ZkModel(1), n_min=2, n_max=8)
        e = glued_group_embedding(sys, ZkModel(1), 2.0)
        assert e.coarse_step_count(4.5) == 3  # r_n = n < 4.5 for n = 2, 3, 4
        assert e.certified_upper_pth(4.5) == pytest.approx(
            4.0 * 3 + e.tail_constant(), rel=1e-15)

    def test_bounds_check_clean(self):
        sys = ZkFolnerSystem(ZkModel(2), n_min=2, n_max=8)
        e = glued_group_embedding(sys, ZkModel(2), 1.0)
        pairs = sample_zk_pairs(ZkModel(2), 50, 30, seed=7)
        rep = e.bounds_check(pairs)
        assert rep["upper_violations"] == 0
        assert rep["lower_violations"] == 0
        assert rep["worst_upper_margin"] > 0

    def test_p_validation(self):
        with pytest.raises(ValueError):
            GluedGroupEmbedding(sys=None, model=None, p=0.5)


class TestRadialWitness:
    def test_z1_witness_radius(self):
        model = ZkModel(1)
        assert radial_folner_upper(model, 4) == 31.0
        eps = _preset_eps(4)
        assert box_defect(31, (4,)) == pytest.approx(8.0 / 63.0)
        assert box_defect(31, (4,)) <= eps
        F = [(i,) for i in range(-31, 32)]
        assert folner_defect(F, (4,), model) == box_defect(31, (4,))

    def test_scaling_with_k(self):
        assert radial_folner_upper(ZkModel(3), 4) == 93.0

    def test_heisenberg_witness(self):
        assert radial_folner_upper(HeisenbergModel(), 4) == 7.0

    def test_validation(self):
        with pytest.raises(ValueError):
            radial_folner_upper(ZkModel(1), 1)
        with pytest.raises(ValueError):
            radial_folner_upper(TreeModel(), 4)


class TestPredictedGroupGap:
    def test_heisenberg_lower_is_power_log_inverse(self):
        lower, upper = predicted_group_gap(HeisenbergModel(), 1.0)
        t = 4.0 * math.e ** 2  # = s log^2 s at s = e^2
        assert lower(t) == pytest.approx(math.e ** 2, rel=1e-9)
        assert upper(16.0) == 16.0

    def test_lattice_parameters_independent_of_k(self):
        for k in (1, 2, 3):
            lower, _ = predicted_group_gap(ZkModel(k), 1.0)
            assert lower(math.e ** 2) == pytest.approx(math.e, rel=1e-9)

    def test_tree_and_root_behavior(self):
        lower, upper = predicted_group_gap(TreeModel(), 2.0)
        assert upper(16.0) == 4.0
        vals = [lower(10.0), lower(1e3), lower(1e6)]
        assert vals[0] < vals[1] < vals[2]

    def test_p_validation(self):
        with pytest.raises(ValueError):
            predicted_group_gap(ZkModel(1), 0.5)


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
        a_def = col.a_defects(pairs)
        for j, n in enumerate(range(2, 5)):
            s = col.size(n)
            segs = {x: set(tree.ray_segment(x, s)) for x in nodes}
            for i, (x, y) in enumerate(pairs):
                assert counts[i, j] == len(segs[x] ^ segs[y]), (x, y, n)
                assert a_def[i, j] == a_defect(segs[x], segs[y]), (x, y, n)
        assert col.sym_diff_count((0, 0, 0), (1,), 3) == counts[
            pairs.index(((0, 0, 0), (1,))), 1]

    def test_tree_depth_overflow_still_raises(self):
        tree = TreeModel(depth=6)
        col = TreeACollection(tree, n_min=2, n_max=3)  # 11-vertex segments
        with pytest.raises(ValueError, match="truncation depth"):
            tree.ray_segment((0, 0), col.size(3))
        with pytest.raises(ValueError, match="truncation depth"):
            col.sym_diff_count((0, 0), (0,), 3)
        with pytest.raises(ValueError, match="truncation depth"):
            col.sym_diff_counts([((1,), (0, 0))])
        assert col.sym_diff_count((1, 1, 1, 1, 1), (1, 1, 1, 1), 2) == 2

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_zk_counts_match_scalar_and_sets(self, k):
        model = ZkModel(k)
        sys = ZkFolnerSystem(model, n_min=2, n_max=9)
        pairs = sample_zk_pairs(model, 40, 30, seed=k)
        counts = sys.sym_diff_counts(pairs)
        for i, (x, y) in enumerate(pairs):
            for j, n in enumerate(range(2, 10)):
                assert counts[i, j] == sys.sym_diff_count(x, y, n)
        x, y = pairs[0]
        assert counts[0, 0] == len(sys.set_at(x, 2) ^ sys.set_at(y, 2))

    def test_zk_counts_stay_exact_past_float_precision(self):
        sys = ZkFolnerSystem(ZkModel(5), n_min=2, n_max=20)  # 14363^5 points
        assert sys.size(20) > 1 << 53
        pairs = [((0,) * 5, (7, -3, 0, 1, 9)), ((1, 2, 3, 4, 5), (1, 2, 3, 4, 6))]
        counts = sys.sym_diff_counts(pairs)
        dist = block_distances_pth(sys, pairs)
        for i, (x, y) in enumerate(pairs):
            for j, n in enumerate(range(2, 21)):
                assert counts[i, j] == sys.sym_diff_count(x, y, n)
                assert dist[i, j] == sys.block_distance_pth(x, y, n, 1.0)

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
        got = e.image_distances_pth(pairs)
        for (x, y), val in zip(pairs, got):
            want = sum(sys.block_distance_pth(x, y, n, 1.5) for n in range(sys.n_min, sys.n_max + 1))
            assert val == want
        assert e.bounds_check(pairs) == e.bounds_check(pairs, image_pth=got)


class TestSupportAudit:
    """rad(n) shrunk by one must trip the support-radius audit."""

    def test_zk_shrunken_radius_detected(self):
        class Shrunk(ZkFolnerSystem):
            def rad(self, n):
                return super().rad(n) - 1.0

        model = ZkModel(3)
        pairs = sample_zk_pairs(model, 10, 8, seed=2)
        clean = char_embedding_bound_check(ZkFolnerSystem(model, n_max=6), model, pairs, 1.0)
        assert clean.support_violations == 0
        rep = char_embedding_bound_check(Shrunk(model, n_max=6), model, pairs, 1.0)
        # every audited (point, n): n = 2, 3, 4; the n = 5 box is over the cap
        assert rep.support_violations == 8 * 3
        assert rep.violations == 0

    def test_tree_shrunken_radius_detected(self):
        class Shrunk(TreeACollection):
            def rad(self, n):
                return super().rad(n) - 1.0

        tree = TreeModel()
        pairs = sample_tree_pairs(tree, 10, 8, seed=2)
        clean = char_embedding_bound_check(TreeACollection(tree, n_max=6), tree, pairs, 1.0)
        assert clean.support_violations == 0
        rep = char_embedding_bound_check(Shrunk(tree, n_max=6), tree, pairs, 1.0)
        assert rep.support_violations == 8 * 4  # n = 2..5 for each audited point
