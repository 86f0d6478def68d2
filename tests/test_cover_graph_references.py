"""The reads of a cover's graph against plain computations on its pairs.

A ``TripletCover`` holds its cover graph and answers every question from
that one adjacency.  The references below use only the sorted pair list
and the universe: triangles by testing every label triple, the graph by
building a fresh ``SimpleGraph``, multiplicities by counting pairs.  The
oracle's mask counter is checked against the enumerated cover list.
"""

import random
from itertools import combinations

import pytest

from tripletcover import (
    SimpleGraph,
    TripletCover,
    enumerate_covers,
    enumerate_trees,
    minimum_cover,
    per_vertex_cover,
    random_tree,
    triangles,
)
from tripletcover.oracle import _count_covers


def pair_sets(n):
    """Minimum, per-vertex, random-half, empty and complete pair sets on
    two random trees with ``n`` leaves."""
    for seed in range(2):
        tree = random_tree(n, seed)
        everything = list(combinations(tree.labels, 2))
        rng = random.Random(1000 * n + seed)
        yield minimum_cover(tree)
        yield per_vertex_cover(tree)
        yield TripletCover(rng.sample(everything, len(everything) // 2), tree.labels)
        yield TripletCover([], tree.labels)
        yield TripletCover(everything, tree.labels)


@pytest.mark.parametrize("n", range(3, 25))
def test_triangles_match_brute_force(n):
    for cover in pair_sets(n):
        pairs = set(cover.pairs)
        expected = tuple(
            t
            for t in combinations(sorted(cover.universe), 3)
            if all(p in pairs for p in combinations(t, 2))
        )
        assert triangles(cover) == expected


@pytest.mark.parametrize("n", [3, 4, 7, 12, 24])
def test_cover_graph_matches_a_fresh_graph(n):
    for cover in pair_sets(n):
        graph = cover.cover_graph()
        fresh = SimpleGraph(cover.universe, cover.pairs)
        assert graph.vertices == fresh.vertices == cover.universe
        assert graph.edges == fresh.edges == cover.pairs
        for x in cover.universe:
            assert graph.neighbors(x) == fresh.neighbors(x)


@pytest.mark.parametrize("n", [3, 4, 7, 12, 24])
def test_multiplicity_counts_pairs(n):
    for cover in pair_sets(n):
        for x in cover.universe:
            assert cover.multiplicity(x) == sum(x in p for p in cover.pairs)
        assert cover.min_multiplicity() == min(cover.multiplicities().values())


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_mask_counter_matches_enumeration(n):
    for tree in enumerate_trees("abcdef"[:n]):
        for size in range(n * (n - 1) // 2 + 1):
            assert _count_covers(tree, size) == len(enumerate_covers(tree, size))
