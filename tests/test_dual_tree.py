import unittest
from collections import Counter

from dual_tree_reference import reference_dual_tree

from mopdom import (
    EAR,
    INTERNAL,
    SIDE,
    BranchShape,
    Deviation,
    NotALeaf,
    PreconditionTooSmall,
    bad_vertices,
    build_dual_tree,
    build_mop,
    dual_to_dot,
    enumerate_all,
    fixture,
    match_branch_shape,
    random_mop,
    snake,
)
from mopdom import constructive as c


class DualTreeStructure(unittest.TestCase):
    def test_triangle_counts_and_kinds(self):
        for n in range(4, 13):
            for g in enumerate_all(n, dedup=True):
                t = build_dual_tree(g)
                self.assertEqual(len(t.triangles), n - 2)
                self.assertEqual(len(t.edges), n - 3)
                kinds = Counter(tr.kind for tr in t.triangles)
                # an ear holds the unique degree-2 vertex of its tip
                self.assertEqual(kinds[EAR], len(g.degree2_vertices()))
                deg3 = sum(1 for i in range(n - 2) if t.degree(i) == 3)
                self.assertEqual(kinds[INTERNAL], deg3)
                self.assertEqual(
                    kinds[EAR] + kinds.get(SIDE, 0) + kinds[INTERNAL], n - 2
                )

    def test_leaf_iff_ear(self):
        g = random_mop(30, seed=7)
        t = build_dual_tree(g)
        leaves = set(t.leaves())
        for i, tr in enumerate(t.triangles):
            self.assertEqual(i in leaves, tr.kind == EAR)

    def test_max_degree_three(self):
        for g in enumerate_all(10, dedup=True):
            t = build_dual_tree(g)
            self.assertLessEqual(max(t.degree(i) for i in range(8)), 3)

    def test_triforce_has_one_internal_triangle(self):
        t = build_dual_tree(fixture("triforce9"))
        kinds = Counter(tr.kind for tr in t.triangles)
        self.assertEqual(kinds, Counter({EAR: 3, SIDE: 3, INTERNAL: 1}))
        self.assertEqual(t.leaves(), (0, 4, 6))

    def test_dot_output(self):
        t = build_dual_tree(snake(6))
        dot = dual_to_dot(t)
        self.assertEqual(dot.count(" -- "), 3)
        self.assertIn(EAR, dot)


class MatchesReferenceBuilder(unittest.TestCase):
    """The fan-based builder must reproduce the apex-split construction:
    same triangles in the same order, same kinds, same edges in the same
    order."""

    def assert_same(self, g):
        t = build_dual_tree(g)
        triangles, edges = reference_dual_tree(g.n, g.chords)
        self.assertEqual([(tr.vertices, tr.kind) for tr in t.triangles], triangles)
        self.assertEqual(list(t.edges), edges)

    def test_every_small_mop(self):
        for n in range(3, 11):
            for g in enumerate_all(n):
                self.assert_same(g)

    def test_random_mops_up_to_300(self):
        for seed in range(50):
            self.assert_same(random_mop(4 + (296 * seed) // 49, seed))


class WalkToAnchor(unittest.TestCase):
    def test_snake_dual_is_a_path(self):
        t = build_dual_tree(snake(10))
        self.assertEqual(len(t.leaves()), 2)
        self.assertEqual(sorted(t.degree(i) for i in range(8)), [1, 1] + [2] * 6)

    def test_walk_from_non_leaf_rejected(self):
        t = build_dual_tree(snake(10))
        inner = next(i for i in range(8) if t.degree(i) == 2)
        with self.assertRaises(NotALeaf):
            match_branch_shape(snake(10), t, inner)

    def test_triforce_anchor_at_distance_two(self):
        g = fixture("triforce9")
        t = build_dual_tree(g)
        for leaf in t.leaves():
            res = match_branch_shape(g, t, leaf)
            self.assertIsInstance(res, BranchShape)
            self.assertEqual((res.leaf, res.dist), (leaf, 2))
            self.assertEqual(t.degree(res.anchor), 3)


class ShapeMatching(unittest.TestCase):
    def test_requires_nine_vertices(self):
        g = snake(8)
        t = build_dual_tree(g)
        with self.assertRaises(PreconditionTooSmall):
            match_branch_shape(g, t, t.leaves()[0])

    def test_total_on_all_small_graphs(self):
        # every leaf of every graph classifies without error
        seen_variants = Counter()
        seen_dists = Counter()
        for n in (9, 10):
            for g in enumerate_all(n):
                t = build_dual_tree(g)
                for leaf in t.leaves():
                    res = match_branch_shape(g, t, leaf)
                    if isinstance(res, Deviation):
                        seen_variants[res.variant] += 1
                    else:
                        self.assertIsInstance(res, BranchShape)
                        seen_dists[res.dist] += 1
        # frozen tallies for the n = 9 + n = 10 sweep; an anchor at walk
        # position 7 needs at least 9 dual nodes, so dist 6 first appears
        # at n = 11 and is absent here
        self.assertEqual(
            dict(seen_variants),
            {
                "C2-1": 352,
                "C2-2": 352,
                "C3": 740,
                "C4": 370,
                "C5a": 20,
                "C5b": 136,
                "C6a": 58,
                "C6b": 18,
                "C6c": 20,
                "C6d": 20,
            },
        )
        self.assertEqual(dict(seen_dists), {1: 2082, 2: 1212, 4: 98})

    def test_clean_shape_label_roles(self):
        expected_keys = {
            1: {"u1", "u2", "u3", "u4"},
            2: {"u1", "u2", "u3", "u4", "u5"},
            4: {"u1", "u2", "u3", "u4", "u5", "u6", "u7"},
            6: {"u1", "u2", "u3", "u4", "u5", "u6", "u7", "u8", "u9"},
        }
        for g in enumerate_all(9):
            t = build_dual_tree(g)
            for leaf in t.leaves():
                res = match_branch_shape(g, t, leaf)
                if isinstance(res, BranchShape):
                    self.assertEqual(set(res.labels), expected_keys[res.dist])
                    self.assertEqual(len(g.adjacency[res.labels["u1"]]), 2)
                    a, b = res.entry_chord_roles
                    self.assertIn(a, res.labels)
                    self.assertIn(b, res.labels)

    def test_deviation_variant_tallies_frozen_at_nine(self):
        tallies = Counter()
        for g in enumerate_all(9):
            t = build_dual_tree(g)
            for leaf in t.leaves():
                res = match_branch_shape(g, t, leaf)
                if isinstance(res, Deviation):
                    tallies[res.variant] += 1
                    self.assertEqual(res.leaf, leaf)
        self.assertEqual(
            dict(tallies),
            {
                "C2-1": 72,
                "C2-2": 72,
                "C3": 180,
                "C4": 90,
                "C5b": 36,
                "C6a": 18,
                "C6b": 18,
            },
        )


class ReductionSiteSelection(unittest.TestCase):
    """The engine's site selection: ``_Reducer`` offers the deviating walks
    and, per anchor, the clean walks that ``_candidates`` pairs up."""

    @staticmethod
    def reducer(g):
        return c._Reducer(g, bad_vertices(g).k)

    def first_group(self, g):
        groups = list(self.reducer(g).site_groups())
        self.assertTrue(groups)
        return sorted(groups[0], key=lambda sh: (sh.dist, sh.leaf))

    def test_path_tree_has_no_site(self):
        self.assertEqual(list(self.reducer(snake(12)).site_groups()), [])

    def test_deviating_leaf_blocks_site_selection(self):
        g = build_mop(9, [(1, 8), (2, 8), (3, 8), (4, 6), (4, 8), (6, 8)])
        r = self.reducer(g)
        devs = [r.walks[leaf] for leaf in sorted(r.walks) if isinstance(r.walks[leaf], Deviation)]
        self.assertTrue(devs)
        self.assertTrue(list(r.site_groups()))
        # a deviation takes precedence over the clean site the tree also has
        _, labels = next(c._candidates(r))
        self.assertEqual(labels, dict(devs[0].witness_labels))

    def test_triforce_site(self):
        s, t, *_ = self.first_group(fixture("triforce9"))
        self.assertEqual((s.dist, t.dist), (2, 2))
        self.assertEqual(s.anchor, t.anchor)
        self.assertLess(s.leaf, t.leaf)

    def test_branches_ordered_by_distance(self):
        # one short branch, one long: s must take the shorter one
        g = build_mop(
            21,
            [(2, 4), (2, 5), (1, 5), (0, 5), (0, 6), (0, 7), (9, 11), (9, 12),
             (8, 12), (7, 12), (7, 13), (7, 14), (16, 18), (16, 19), (15, 19),
             (14, 19), (14, 20), (0, 14)],
        )
        s, t, *_ = self.first_group(g)
        self.assertEqual((s.dist, t.dist), (6, 6))

        # the anchor (2, 4, 8) reads the dist-2 leaf (0, 1, 8) before the
        # dist-1 leaf (2, 3, 4); _candidates must still pair the dist-1 leaf
        # as s, which only the 1-2 rules match
        g = build_mop(9, [(1, 8), (2, 4), (2, 8), (4, 6), (4, 8), (6, 8)])
        r = self.reducer(g)
        self.assertEqual([sh.leaf for sh in next(iter(r.site_groups()))], [(0, 1, 8), (2, 3, 4)])
        rule, labels = next(c._candidates(r))
        _, sites = c.load_rules()
        self.assertIn(rule, sites[(1, 2)])
        self.assertEqual(rule.rule_id, "case_1_2c")
        self.assertEqual(labels["u1"], 3)


if __name__ == "__main__":
    unittest.main()
