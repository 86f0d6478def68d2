"""Triplet covers: support sets, support graph, predicates, file format."""

from itertools import combinations

import pytest

from tripletcover import (
    CoverError,
    NotACoverError,
    TripletCover,
    UniverseMismatchError,
    cover_report,
    is_minimal,
    is_minimum,
    is_triplet_cover,
    parse_newick,
    parse_pairs,
    support_graph,
    support_set,
    triangles,
    unsupported_vertices,
)


def full_pair_set(tree):
    return TripletCover(combinations(tree.labels, 2), tree.labels)


def vertex_adjacent_to(tree, *leaves):
    """The interior vertex adjacent to all the given leaves."""
    candidates = set(tree.interior_ids)
    for x in leaves:
        candidates &= set(tree.neighbors(tree.leaf_id(x)))
    assert len(candidates) == 1
    return candidates.pop()


class TestTripletCoverType:
    def test_normalizes_pairs(self):
        c = TripletCover([("b", "a")], "ab")
        assert c.pairs == (("a", "b"),)
        assert ("b", "a") in c

    def test_rejects_foreign_labels(self):
        with pytest.raises(CoverError):
            TripletCover([("a", "z")], "abc")

    def test_rejects_self_pair(self):
        with pytest.raises(ValueError):
            TripletCover([("a", "a")], "abc")

    def test_pair_file_format(self):
        text = "# comment\nb a\nc a  # trailing\n\n"
        assert parse_pairs(text) == (("a", "b"), ("a", "c"))
        with pytest.raises(CoverError):
            parse_pairs("a b c\n")
        with pytest.raises(CoverError):
            parse_pairs("a b\nb a\n")

    def test_text_round_trip(self, five_leaf_cover):
        again = TripletCover.from_text(
            five_leaf_cover.to_text(), five_leaf_cover.universe
        )
        assert again == five_leaf_cover


class TestSupportSets:
    def test_five_leaf_supports(self, five_leaf, five_leaf_cover):
        u = vertex_adjacent_to(five_leaf, "a", "b")
        v = vertex_adjacent_to(five_leaf, "c")
        w = vertex_adjacent_to(five_leaf, "d", "e")
        assert support_set(five_leaf, five_leaf_cover, u).sorted_triples() == (
            ("a", "b", "c"),
        )
        assert support_set(five_leaf, five_leaf_cover, v).sorted_triples() == (
            ("b", "c", "e"),
        )
        assert support_set(five_leaf, five_leaf_cover, w).sorted_triples() == (
            ("c", "d", "e"),
        )

    def test_caterpillar8_supports(self, caterpillar8, caterpillar8_cover):
        # spine order from the {a,b} cherry: each support is a singleton
        expected = {
            ("a", "b"): ("a", "b", "c"),
            ("g",): ("a", "g", "h"),
            ("c",): ("b", "c", "d"),
            ("h",): ("f", "g", "h"),
            ("d",): ("c", "d", "e"),
            ("e", "f"): ("d", "e", "f"),
        }
        for leaves, triple in expected.items():
            v = vertex_adjacent_to(caterpillar8, *leaves)
            assert support_set(caterpillar8, caterpillar8_cover, v).sorted_triples() == (
                triple,
            )

    def test_support_triples_are_medians(self, five_leaf, five_leaf_cover):
        for v in five_leaf.interior_ids:
            for a, b, c in support_set(five_leaf, five_leaf_cover, v).triples:
                assert five_leaf.median(a, b, c) == v

    def test_universe_mismatch(self, five_leaf):
        wrong = TripletCover([("a", "b")], "abcde" + "f")
        with pytest.raises(UniverseMismatchError):
            support_set(five_leaf, wrong, five_leaf.interior_ids[0])

    def test_rejects_leaf_vertex(self, five_leaf, five_leaf_cover):
        with pytest.raises(ValueError):
            support_set(five_leaf, five_leaf_cover, five_leaf.leaf_id("a"))


class TestIsTripletCover:
    def test_five_leaf_cover(self, five_leaf, five_leaf_cover):
        assert is_triplet_cover(five_leaf, five_leaf_cover)

    def test_lasso_is_not_a_cover(self, caterpillar7, caterpillar7_lasso):
        assert not is_triplet_cover(caterpillar7, caterpillar7_lasso)
        bad = unsupported_vertices(caterpillar7, caterpillar7_lasso)
        assert vertex_adjacent_to(caterpillar7, "a", "b") in bad

    def test_full_pair_set_always_covers(self, five_leaf, caterpillar8, caterpillar7):
        for tree in (five_leaf, caterpillar8, caterpillar7):
            assert is_triplet_cover(tree, full_pair_set(tree))

    def test_triangle_enumeration(self, five_leaf_cover):
        # K4 on {b,c,d,e} minus bd, plus ab: triangles must match a direct scan
        tris = set(triangles(five_leaf_cover))
        assert tris == {("a", "b", "c"), ("b", "c", "e"), ("c", "d", "e")}

    def test_cover_iff_every_support_nonempty(self):
        # the predicate agrees with per-vertex support enumeration
        from itertools import combinations as combos
        from random import Random

        from tripletcover import random_tree

        for seed in range(30):
            tree = random_tree(4 + seed % 6, seed)
            rng = Random(seed)
            population = list(combos(tree.labels, 2))
            pairs = rng.sample(
                population, rng.randint(3, min(2 * tree.n_leaves, len(population)))
            )
            cover = TripletCover(pairs, tree.labels)
            per_vertex = all(
                len(support_set(tree, cover, v)) >= 1 for v in tree.interior_ids
            )
            assert is_triplet_cover(tree, cover) == per_vertex


class TestSupportGraph:
    def test_five_leaf_edges(self, five_leaf, five_leaf_cover):
        u = vertex_adjacent_to(five_leaf, "a", "b")
        v = vertex_adjacent_to(five_leaf, "c")
        w = vertex_adjacent_to(five_leaf, "d", "e")
        g = support_graph(five_leaf, five_leaf_cover)
        assert set(g.edges) == {
            ("a", u),
            ("b", u),
            ("c", u),
            ("b", v),
            ("c", v),
            ("e", v),
            ("c", w),
            ("d", w),
            ("e", w),
        }
        assert g.leaf_degree("a") == 1
        assert g.leaf_degree("c") == 3

    def test_full_pair_set_forces_only_adjacent(self, five_leaf):
        g = support_graph(five_leaf, full_pair_set(five_leaf))
        assert all(g.leaf_degree(x) == 1 for x in five_leaf.labels)
        for x in five_leaf.labels:
            v = five_leaf.neighbors(five_leaf.leaf_id(x))[0]
            assert g.has_edge(x, v)

    def test_vertex_degree_bounds(self, five_leaf, five_leaf_cover):
        g = support_graph(five_leaf, five_leaf_cover)
        for v in five_leaf.interior_ids:
            assert 0 <= g.vertex_degree(v) <= 3

    def test_forced_leaves(self, five_leaf, five_leaf_cover):
        # with ad and bd added, u is supported by abc and abd, v by acd, bcd
        # and bce, and w by bde and cde: the forced leaves are what each
        # vertex's triples share
        u = vertex_adjacent_to(five_leaf, "a", "b")
        v = vertex_adjacent_to(five_leaf, "c")
        w = vertex_adjacent_to(five_leaf, "d", "e")
        g = support_graph(five_leaf, five_leaf_cover.with_pairs([("a", "d"), ("b", "d")]))
        assert g.forced_leaves(u) == ("a", "b")
        assert g.forced_leaves(v) == ("c",)
        assert g.forced_leaves(w) == ("d", "e")
        # one supporting triple per vertex: all three of its leaves are forced
        g = support_graph(five_leaf, five_leaf_cover)
        assert g.forced_leaves(v) == ("b", "c", "e")


class TestMultiplicity:
    def test_five_leaf(self, five_leaf_cover):
        assert five_leaf_cover.multiplicity("a") == 2
        assert five_leaf_cover.multiplicity("c") == 4
        assert five_leaf_cover.min_multiplicity() == 2

    def test_caterpillar8(self, caterpillar8_cover):
        # counted directly from the 14 pairs
        assert caterpillar8_cover.multiplicity("b") == 3
        assert caterpillar8_cover.multiplicities() == {
            "a": 4, "b": 3, "c": 4, "d": 4, "e": 3, "f": 4, "g": 3, "h": 3,
        }
        assert 2 <= caterpillar8_cover.min_multiplicity() <= 5

    def test_full_pair_set(self, five_leaf):
        c = full_pair_set(five_leaf)
        assert all(c.multiplicity(x) == 4 for x in five_leaf.labels)

    def test_unknown_label(self, five_leaf_cover):
        with pytest.raises(CoverError):
            five_leaf_cover.multiplicity("zz")


class TestRemoveIncident:
    def test_five_leaf(self, five_leaf_cover):
        smaller = five_leaf_cover.remove_incident("a")
        assert smaller.pairs == (
            ("b", "c"),
            ("b", "e"),
            ("c", "d"),
            ("c", "e"),
            ("d", "e"),
        )
        assert smaller.universe == frozenset("bcde")

    def test_degree_one_reduction_is_cover(self, five_leaf, five_leaf_cover):
        g = support_graph(five_leaf, five_leaf_cover)
        assert g.leaf_degree("a") == 1
        assert is_triplet_cover(
            five_leaf.remove_leaf("a"), five_leaf_cover.remove_incident("a")
        )
        assert len(five_leaf_cover) >= len(five_leaf_cover.remove_incident("a")) + 2


class TestMinimalMinimum:
    def test_five_leaf_cover(self, five_leaf, five_leaf_cover):
        assert is_minimal(five_leaf, five_leaf_cover)
        assert is_minimum(five_leaf, five_leaf_cover)

    def test_caterpillar8_cover(self, caterpillar8, caterpillar8_cover):
        assert is_minimal(caterpillar8, caterpillar8_cover)
        assert not is_minimum(caterpillar8, caterpillar8_cover)

    def test_extra_pair_breaks_minimality(self, five_leaf, five_leaf_cover):
        padded = five_leaf_cover.with_pairs([("a", "d")])
        assert not is_minimal(five_leaf, padded)

    def test_full_pair_set_on_quartet(self):
        t = parse_newick("((a,b),c,d);")
        assert not is_minimum(t, full_pair_set(t))

    def test_non_cover_raises(self, caterpillar7, caterpillar7_lasso):
        with pytest.raises(NotACoverError):
            is_minimal(caterpillar7, caterpillar7_lasso)
        with pytest.raises(NotACoverError):
            is_minimum(caterpillar7, caterpillar7_lasso)


class TestReport:
    def test_schema(self, five_leaf, five_leaf_cover):
        report = cover_report(five_leaf, five_leaf_cover)
        assert set(report) == {
            "cover_size",
            "is_cover",
            "is_minimal",
            "is_minimum",
            "min_multiplicity",
            "unsupported_vertices",
        }
        assert report["cover_size"] == 7
        assert report["is_cover"] and report["is_minimal"] and report["is_minimum"]
        assert report["min_multiplicity"] == 2
        assert report["unsupported_vertices"] == []

    def test_non_cover_report(self, caterpillar7, caterpillar7_lasso):
        report = cover_report(caterpillar7, caterpillar7_lasso)
        assert report["is_cover"] is False
        assert report["is_minimal"] is None and report["is_minimum"] is None
        assert report["unsupported_vertices"]
