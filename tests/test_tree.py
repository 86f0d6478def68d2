"""Tree representation, parsing, and elementary queries."""

import math
from functools import cached_property
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tripletcover import (
    DistanceMap,
    NewickParseError,
    PhyloTree,
    Quartet,
    TreeError,
    parse_newick,
    random_tree,
    serialize_newick,
)

from conftest import (
    caterpillar,
    path_distance_oracle,
    quartet_split_oracle,
    splits_oracle,
    trees_isomorphic,
)

TOL = 1e-9

random_trees = st.builds(
    random_tree, st.integers(3, 12), st.integers(0, 10_000), st.none()
)


class TestParsing:
    def test_five_leaf(self, five_leaf):
        assert five_leaf.labels == ("a", "b", "c", "d", "e")
        assert five_leaf.n_leaves == 5
        assert len(five_leaf.interior_ids) == 3
        assert len(five_leaf.edges) == 7

    def test_three_leaf(self):
        t = parse_newick("(a,b,c);")
        assert t.labels == ("a", "b", "c")
        assert len(t.interior_ids) == 1

    def test_eight_leaf(self, caterpillar8):
        assert caterpillar8.labels == tuple("abcdefgh")
        assert len(caterpillar8.interior_ids) == 6
        assert len(caterpillar8.edges) == 13

    def test_lengths(self):
        t = parse_newick("((a:1,b:2):0.5,c:3,(d:1,e:1):2);")
        assert t.has_lengths
        assert t.leaf_distances([("a", "b")]).get("a", "b") == 3.0

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_rejects_non_finite_edge_length(self, five_leaf, value):
        with pytest.raises(TreeError):
            five_leaf.with_edge_lengths(value)
        lengths = dict.fromkeys(five_leaf.edges, 1.0)
        lengths[five_leaf.edges[0]] = value
        labels = {five_leaf.leaf_id(x): x for x in five_leaf.labels}
        with pytest.raises(TreeError):
            PhyloTree(five_leaf.edges, labels, lengths)

    def test_rejects_overflowing_length(self):
        with pytest.raises(TreeError):
            parse_newick("((a:1e999,b:1),c:1,(d:1,e:1):1);")

    def test_whitespace_tolerated(self):
        t = parse_newick(" ( (a, b) , c , (d, e) ) ;\n")
        assert t.labels == ("a", "b", "c", "d", "e")

    @pytest.mark.parametrize(
        "text",
        [
            "((a,b),c,(d,e))",  # missing ';'
            "((a,b),c,(d,e);",  # unbalanced
            "((a,b),c,(d,));",  # missing label
            "((a,b),c);",  # two-child root: degree-2 vertex
            "((a,b,c),d,(e,f));",  # three-child internal group
            "((a,b),c,(d,a));",  # duplicate label
            "((a:1,b),c,(d,e));",  # mixed lengths
            "((a:0,b:1):1,c:1,(d:1,e:1):1);",  # zero length
            "((a:-1,b:1):1,c:1,(d:1,e:1):1);",  # negative length
            "((a,b),c,(d,e)); junk",  # trailing garbage
        ],
    )
    def test_rejects(self, text):
        with pytest.raises(NewickParseError):
            parse_newick(text)

    def test_error_reports_position(self):
        with pytest.raises(NewickParseError) as info:
            parse_newick("((a,b),c,(d,));")
        assert info.value.position == 12

    def test_duplicate_label_reports_label_and_position(self):
        with pytest.raises(NewickParseError) as info:
            parse_newick("((a,b),c,(d,a));")
        assert "duplicate label 'a'" in str(info.value)
        assert info.value.position == 13


class TestSerialization:
    def test_three_leaf_canonical(self):
        assert parse_newick("(c,a,b);").to_newick() == "(a,b,c);"

    def test_canonical_root_is_adjacent_to_smallest_leaf(self, five_leaf):
        # root at the vertex next to leaf a, children by smallest descendant
        assert five_leaf.to_newick() == "(a,b,(c,(d,e)));"

    def test_parse_serialize_fixpoint(self, five_leaf, caterpillar8, caterpillar7):
        for t in (five_leaf, caterpillar8, caterpillar7):
            again = parse_newick(t.to_newick())
            assert again.to_newick() == t.to_newick()
            assert trees_isomorphic(t, again)

    @settings(max_examples=60, deadline=None)
    @given(random_trees)
    def test_round_trip_isomorphic(self, tree):
        assert trees_isomorphic(tree, parse_newick(serialize_newick(tree)))

    def test_deep_caterpillar_round_trips(self):
        tree = caterpillar([f"x{i:04d}" for i in range(5000)])
        for t in (tree, tree.with_edge_lengths(1.5)):
            text = t.to_newick()
            assert parse_newick(text).to_newick() == text

    @settings(max_examples=25, deadline=None)
    @given(st.integers(3, 10), st.integers(0, 500))
    def test_round_trip_with_lengths_exact(self, n, seed):
        tree = random_tree(n, seed, (0.1, 10.0))
        again = parse_newick(tree.to_newick())
        assert again.to_newick() == tree.to_newick()
        assert again.split_lengths() == tree.split_lengths()


class TestMedian:
    def test_five_leaf_examples(self, five_leaf):
        # the vertex adjacent to c lies on all three paths of b,c,e
        v = five_leaf.median("b", "c", "e")
        assert five_leaf.leaf_id("c") in five_leaf.neighbors(v)
        u = five_leaf.median("a", "b", "c")
        assert five_leaf.leaf_id("a") in five_leaf.neighbors(u)
        assert five_leaf.leaf_id("b") in five_leaf.neighbors(u)

    def test_three_leaf(self):
        t = parse_newick("(a,b,c);")
        assert t.median("a", "b", "c") == t.interior_ids[0]

    def test_bad_arguments(self, five_leaf):
        with pytest.raises(TreeError):
            five_leaf.median("a", "a", "b")
        with pytest.raises(TreeError):
            five_leaf.median("a", "b", "zz")

    @settings(max_examples=40, deadline=None)
    @given(random_trees, st.data())
    def test_permutation_symmetric(self, tree, data):
        trio = data.draw(
            st.lists(st.sampled_from(tree.labels), min_size=3, max_size=3, unique=True)
        )
        values = {tree.median(*perm) for perm in permutations(trio)}
        assert len(values) == 1


class TestComponents:
    def test_five_leaf_blocks(self, five_leaf):
        by_blocks = {five_leaf.components_at(v) for v in five_leaf.interior_ids}
        assert (("a", "b"), ("c",), ("d", "e")) in by_blocks
        assert (("a",), ("b",), ("c", "d", "e")) in by_blocks

    def test_three_leaf(self):
        t = parse_newick("(a,b,c);")
        assert t.components_at(t.interior_ids[0]) == (("a",), ("b",), ("c",))

    def test_rejects_leaf(self, five_leaf):
        with pytest.raises(TreeError):
            five_leaf.components_at(five_leaf.leaf_id("a"))

    def test_blocks_computed_lazily_once(self, monkeypatch):
        tree = random_tree(12, 5, (0.5, 2.0))
        smaller = tree.remove_leaf("a")
        calls = []
        original = PhyloTree._rooted.func

        def counted(self):
            calls.append(self)
            return original(self)

        walk = cached_property(counted)
        walk.__set_name__(PhyloTree, "_rooted")
        monkeypatch.setattr(PhyloTree, "_rooted", walk)
        for _ in range(3):
            for v in tree.interior_ids:
                tree.components_at(v)
            tree.split_lengths()
            tree.to_newick()
        assert calls == [tree]
        assert "_blocks" not in smaller.__dict__
        assert "_rooted" not in smaller.__dict__

    @settings(max_examples=40, deadline=None)
    @given(random_trees)
    def test_partition(self, tree):
        for v in tree.interior_ids:
            blocks = tree.components_at(v)
            assert len(blocks) == 3
            union = [x for block in blocks for x in block]
            assert sorted(union) == list(tree.labels)
            assert len(union) == len(set(union))


class TestQuartets:
    def test_five_leaf_examples(self, five_leaf):
        assert str(five_leaf.quartet_topology("a", "b", "c", "e")) == "ab|ce"
        assert str(five_leaf.quartet_topology("a", "b", "d", "e")) == "ab|de"

    def test_cherry_forces_split(self, caterpillar8):
        q = caterpillar8.quartet_topology("e", "f", "a", "h")
        assert q.split() == {frozenset("ef"), frozenset("ah")}

    def test_canonical_form(self):
        q = Quartet.of(("d", "c"), ("b", "a"))
        assert (q.pair_one, q.pair_two) == (("a", "b"), ("c", "d"))
        assert str(q) == "ab|cd"
        long = Quartet.of(("t10", "t2"), ("t3", "t1"))
        assert str(long) == "t1,t3|t10,t2"

    @settings(max_examples=30, deadline=None)
    @given(st.integers(4, 7), st.integers(0, 2000))
    def test_matches_path_intersection_oracle(self, n, seed):
        tree = random_tree(n, seed)
        for four in combinations(tree.labels, 4):
            assert tree.quartet_topology(*four).split() == quartet_split_oracle(
                tree, four
            )


class TestRemoveLeaf:
    def test_five_leaf(self, five_leaf):
        t = five_leaf.remove_leaf("a")
        assert t.labels == ("b", "c", "d", "e")
        assert t.to_newick() == "(b,c,(d,e));"

    def test_quartet_to_triple(self):
        t = parse_newick("((a,b),c,d);").remove_leaf("a")
        assert t.labels == ("b", "c", "d")

    def test_three_leaf_refuses(self):
        with pytest.raises(TreeError):
            parse_newick("(a,b,c);").remove_leaf("a")

    def test_merged_lengths_preserve_distances(self, five_leaf):
        t = five_leaf.with_edge_lengths(1.0)
        smaller = t.remove_leaf("a")
        assert smaller.leaf_distances([("b", "c")]).get("b", "c") == 3.0
        before = t.leaf_distances("all")
        after = smaller.leaf_distances("all")
        for a, b in after.pairs():
            assert math.isclose(before.get(a, b), after.get(a, b), abs_tol=TOL)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(4, 10), st.integers(0, 500), st.data())
    def test_distance_preservation_random(self, n, seed, data):
        tree = random_tree(n, seed, (0.1, 10.0))
        x = data.draw(st.sampled_from(tree.labels))
        smaller = tree.remove_leaf(x)
        big = tree.leaf_distances("all")
        for a, b in smaller.leaf_distances("all").pairs():
            assert math.isclose(
                smaller.leaf_distances([(a, b)]).get(a, b),
                big.get(a, b),
                abs_tol=TOL,
            )


class TestLeafDistances:
    def test_unit_five_leaf(self, five_leaf):
        d = five_leaf.with_edge_lengths(1.0).leaf_distances("all")
        assert d.get("a", "b") == 2.0
        assert d.get("a", "c") == 3.0
        assert d.get("a", "e") == 4.0

    def test_cherry_pendants(self):
        t = parse_newick("((a:2,b:3):1,c:1,(d:1,e:1):1);")
        assert t.leaf_distances([("a", "b")]).get("a", "b") == 5.0

    def test_requires_lengths(self, five_leaf):
        with pytest.raises(TreeError):
            five_leaf.leaf_distances("all")

    def test_unknown_label(self, five_leaf):
        with pytest.raises(TreeError):
            five_leaf.with_edge_lengths(1.0).leaf_distances([("a", "zz")])

    @settings(max_examples=25, deadline=None)
    @given(st.integers(3, 9), st.integers(0, 500))
    def test_matches_path_oracle(self, n, seed):
        tree = random_tree(n, seed, (0.1, 10.0))
        d = tree.leaf_distances("all")
        for a, b in d.pairs():
            assert math.isclose(
                d.get(a, b), path_distance_oracle(tree, a, b), abs_tol=TOL
            )

    @settings(max_examples=20, deadline=None)
    @given(st.integers(4, 9), st.integers(0, 500))
    def test_four_point_condition(self, n, seed):
        tree = random_tree(n, seed, (0.1, 10.0))
        d = tree.leaf_distances("all")
        for a, b, c, e in combinations(tree.labels, 4):
            sums = sorted(
                (
                    d.get(a, b) + d.get(c, e),
                    d.get(a, c) + d.get(b, e),
                    d.get(a, e) + d.get(b, c),
                )
            )
            assert math.isclose(sums[1], sums[2], abs_tol=TOL)


class TestRandomTree:
    def test_three_leaves_unique(self):
        keys = {random_tree(3, seed).topology_key() for seed in range(20)}
        assert keys == {"(a,b,c);"}

    def test_deterministic(self):
        t1 = random_tree(5, 42, (0.1, 10.0))
        t2 = random_tree(5, 42, (0.1, 10.0))
        assert t1.to_newick() == t2.to_newick()

    def test_rejects_bad_input(self):
        with pytest.raises(TreeError):
            random_tree(2, 0)
        with pytest.raises(TreeError):
            random_tree(5, 0, (0.0, 1.0))
        with pytest.raises(TreeError):
            random_tree(5, 0, (3.0, 2.0))

    @settings(max_examples=40, deadline=None)
    @given(random_trees)
    def test_shape_invariants(self, tree):
        n = tree.n_leaves
        assert len(tree.edges) == 2 * n - 3
        assert len(tree.interior_ids) == n - 2

    @settings(max_examples=40, deadline=None)
    @given(st.integers(4, 12), st.integers(0, 10_000))
    def test_two_disjoint_cherries(self, n, seed):
        tree = random_tree(n, seed)
        cherries = tree.cherries()
        assert any(
            not ({c1[0], c1[1]} & {c2[0], c2[1]})
            for c1, c2 in combinations(cherries, 2)
        )


class TestRandomTreeUniformity:
    def test_six_leaf_topologies_uniform(self):
        """Frequency of each labelled topology over a frozen 10k-seed window.

        Expected count is 10000/105 with sigma = sqrt(N p (1-p)); a correct
        uniform sampler stays inside the 3-sigma band for this window and
        keeps the chi-square statistic near its mean of 104.
        """
        from collections import Counter

        n_draws = 10_000
        counts = Counter(
            random_tree(6, seed).topology_key()
            for seed in range(20_000, 20_000 + n_draws)
        )
        from tripletcover import enumerate_trees

        keys = {t.topology_key() for t in enumerate_trees("abcdef")}
        assert set(counts) <= keys
        assert len(counts) == 105
        p = 1.0 / 105.0
        sigma = math.sqrt(n_draws * p * (1 - p))
        for key in keys:
            assert abs(counts[key] - n_draws * p) <= 3 * sigma, key
        chi2 = sum((counts[k] - n_draws * p) ** 2 / (n_draws * p) for k in keys)
        assert chi2 < 180.0  # df = 104: mean 104, sd ~ 14.4


class TestDistanceMap:
    def test_symmetric_keys(self):
        d = DistanceMap({("b", "a"): 1.5})
        assert d.get("a", "b") == 1.5
        assert ("a", "b") in d and ("b", "a") in d

    def test_rejects_negative_and_self(self):
        with pytest.raises(ValueError):
            DistanceMap({("a", "b"): -1.0})
        with pytest.raises(ValueError):
            DistanceMap({("a", "a"): 0.0})

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_rejects_non_finite(self, value):
        with pytest.raises(ValueError):
            DistanceMap({("a", "b"): value})
        with pytest.raises(ValueError):
            DistanceMap.from_csv(f"a,b,{value}\n")

    def test_csv_round_trip(self):
        d = DistanceMap({("a", "b"): 1.25, ("a", "c"): 2.0, ("b", "c"): 0.75})
        assert DistanceMap.from_csv(d.to_csv()).items() == d.items()

    def test_csv_rejects_malformed(self):
        with pytest.raises(ValueError):
            DistanceMap.from_csv("a,b\n")
        with pytest.raises(ValueError):
            DistanceMap.from_csv("a,b,x\n")
        with pytest.raises(ValueError):
            DistanceMap.from_csv("a,b,1\nb,a,1\n")

    def test_restrict(self):
        d = DistanceMap({("a", "b"): 1.0, ("a", "c"): 2.0, ("b", "c"): 3.0})
        r = d.restrict([("c", "a")])
        assert r.pairs() == (("a", "c"),)
