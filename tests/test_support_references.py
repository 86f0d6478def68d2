"""The support-table predicates against slow references.

``is_minimal`` and ``minimalize`` read one table of supporting triples
per (tree, cover).  The references below are the direct definitions:
delete each pair and re-check coverage, or greedily delete pairs in
lexicographic order while coverage holds.  Their coverage check uses
only ``tree.median`` (each triangle of the cover graph supports exactly
its median), so it shares no code with the table.
"""

import random
from collections import defaultdict
from itertools import combinations

import pytest

from tripletcover import (
    NotACoverError,
    TripletCover,
    enumerate_covers,
    enumerate_trees,
    is_minimal,
    minimalize,
    minimum_cover,
    per_vertex_cover,
    random_tree,
    support_set,
)


class MedianCoverCheck:
    """Triplet-cover test on one tree from the medians of cover triangles."""

    def __init__(self, tree):
        self.tree = tree
        self.interior = set(tree.interior_ids)
        self.medians = {}

    def triangles(self, pairs):
        """Each triangle once, labels sorted; ``pairs`` are sorted pairs."""
        adj = defaultdict(set)
        for a, b in pairs:
            adj[a].add(b)
            adj[b].add(a)
        return [(a, b, c) for a, b in pairs for c in adj[a] & adj[b] if c > b]

    def median(self, triple):
        if triple not in self.medians:
            self.medians[triple] = self.tree.median(*triple)
        return self.medians[triple]

    def __call__(self, pairs) -> bool:
        return {self.median(t) for t in self.triangles(pairs)} == self.interior


def reference_is_minimal(check, cover):
    if not check(cover.pairs):
        raise NotACoverError("not a triplet cover")
    return not any(check(set(cover.pairs) - {pair}) for pair in cover.pairs)


def reference_minimalize(check, cover):
    if not check(cover.pairs):
        raise NotACoverError("not a triplet cover")
    current = set(cover.pairs)
    for pair in cover.pairs:
        if check(current - {pair}):
            current -= {pair}
    return TripletCover(current, cover.universe)


def assert_agree(tree, cover, check):
    try:
        minimal = reference_is_minimal(check, cover)
    except NotACoverError:
        with pytest.raises(NotACoverError):
            is_minimal(tree, cover)
        with pytest.raises(NotACoverError):
            minimalize(tree, cover)
        return
    assert is_minimal(tree, cover) == minimal
    # greedy deletion from a minimal cover deletes nothing
    expected = cover if minimal else reference_minimalize(check, cover)
    assert minimalize(tree, cover) == expected


def test_every_minimum_cover_up_to_six_leaves():
    for n in (3, 4, 5, 6):
        for tree in enumerate_trees("abcdef"[:n]):
            check = MedianCoverCheck(tree)
            for cover in enumerate_covers(tree, 2 * n - 3):
                assert_agree(tree, cover, check)


def random_covers(tree, seed):
    """The minimum and per-vertex covers, the minimum cover plus three
    pairs, and the minimum cover minus one pair."""
    base = minimum_cover(tree)
    missing = [p for p in combinations(tree.labels, 2) if p not in base]
    extra = random.Random(seed).sample(missing, min(3, len(missing)))
    yield base
    yield per_vertex_cover(tree)
    yield base.with_pairs(extra)
    yield base.without_pair(base.pairs[seed % len(base)])


@pytest.mark.parametrize("n", [4, 5, 7, 9, 12, 16, 20, 24, 32])
def test_random_trees(n):
    for seed in range(3):
        tree = random_tree(n, 1000 * n + seed)
        check = MedianCoverCheck(tree)
        for cover in random_covers(tree, seed):
            assert_agree(tree, cover, check)


@pytest.mark.parametrize("n", [3, 4, 6, 8, 11, 16])
def test_support_set_counts_triangles_by_median(n):
    for seed in range(4):
        tree = random_tree(n, 77 * n + seed)
        rng = random.Random(seed)
        population = list(combinations(tree.labels, 2))
        sampled = rng.sample(population, rng.randint(1, len(population)))
        for cover in (
            minimum_cover(tree),
            per_vertex_cover(tree),
            TripletCover(sampled, tree.labels),
        ):
            check = MedianCoverCheck(tree)
            by_median = defaultdict(set)
            for t in check.triangles(cover.pairs):
                by_median[check.median(t)].add(t)
            for v in tree.interior_ids:
                assert support_set(tree, cover, v).triples == by_median[v]
