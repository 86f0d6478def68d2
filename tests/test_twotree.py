"""2-tree and 2d-tree recognition against brute-force order search."""

import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tripletcover import (
    SimpleGraph,
    degree_two_vertices,
    is_two_d_tree,
    is_two_tree,
)

from conftest import brute_force_two_d_tree, brute_force_two_tree

K3 = SimpleGraph.from_edges([("1", "2"), ("1", "3"), ("2", "3")])
C4 = SimpleGraph.from_edges([("1", "2"), ("2", "3"), ("3", "4"), ("1", "4")])
# 2d-tree but not 2-tree: vertex 5 attaches to the non-adjacent pair 3, 4
D5 = SimpleGraph.from_edges(
    [("1", "2"), ("1", "3"), ("2", "3"), ("1", "4"), ("2", "4"), ("3", "5"), ("4", "5")]
)


def random_sparse_graph(seed: int) -> SimpleGraph:
    """A random graph with the 2-tree edge count 2|V| - 3."""
    rng = random.Random(seed)
    k = rng.randint(4, 7)
    verts = [str(i) for i in range(1, k + 1)]
    edges = rng.sample(list(combinations(verts, 2)), 2 * k - 3)
    return SimpleGraph(verts, edges)


def grown_two_tree(k: int, seed: int) -> SimpleGraph:
    """A random 2-tree on ``k`` vertices, each new vertex joined to both
    ends of a random existing edge."""
    rng = random.Random(seed)
    edges = [("1", "2")]
    for i in range(3, k + 1):
        p, q = rng.choice(edges)
        edges.extend([(p, str(i)), (q, str(i))])
    return SimpleGraph.from_edges(edges)


def recursive_two_d_tree(g: SimpleGraph) -> tuple[str, ...] | None:
    """The recursive backtracking search that ``is_two_d_tree`` replaced:
    the same candidate order and dead-end memo, one Python frame per
    peeled vertex."""
    if g.n_edges != 2 * g.n_vertices - 3:
        return None
    if g.n_vertices == 2:
        return tuple(sorted(g.vertices))
    adj = {v: set(g.neighbors(v)) for v in g.vertices}
    dead_ends: set[frozenset[str]] = set()

    def peel(active: set[str]) -> list[str] | None:
        if len(active) == 2:
            a, b = sorted(active)
            return [a, b] if b in adj[a] else None
        key = frozenset(active)
        if key in dead_ends:
            return None
        for v in sorted(active):
            if len(adj[v]) != 2:
                continue
            saved = tuple(adj[v])
            for u in saved:
                adj[u].discard(v)
            active.remove(v)
            result = peel(active)
            active.add(v)
            for u in saved:
                adj[u].add(v)
            if result is not None:
                result.append(v)
                return result
        dead_ends.add(key)
        return None

    order = peel(set(g.vertices))
    return tuple(order) if order is not None else None


class TestIsTwoTree:
    def test_triangle(self):
        order = is_two_tree(K3)
        assert order is not None
        assert len(order.order) == 3
        assert order.validate(K3)

    def test_single_edge(self):
        g = SimpleGraph.from_edges([("a", "b")])
        assert is_two_tree(g) is not None

    def test_four_cycle_rejected(self):
        assert is_two_tree(C4) is None

    def test_five_leaf_cover_graph(self, five_leaf_cover):
        order = is_two_tree(five_leaf_cover.cover_graph())
        assert order is not None
        assert order.validate(five_leaf_cover.cover_graph())

    def test_caterpillar8_cover_graph(self, caterpillar8_cover):
        assert is_two_tree(caterpillar8_cover.cover_graph()) is None

    def test_d5_rejected(self):
        assert is_two_tree(D5) is None

    def test_too_few_vertices(self):
        with pytest.raises(ValueError):
            is_two_tree(SimpleGraph("a", []))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 100_000))
    def test_agrees_with_brute_force(self, seed):
        g = random_sparse_graph(seed)
        order = is_two_tree(g)
        assert (order is not None) == brute_force_two_tree(g)
        if order is not None:
            assert order.validate(g)

    @pytest.mark.parametrize("k", [4, 5])
    def test_exhaustive_oracle_equivalence(self, k):
        # every graph on k vertices with 2k-3 edges, against the order search
        verts = [str(i) for i in range(1, k + 1)]
        for edges in combinations(list(combinations(verts, 2)), 2 * k - 3):
            g = SimpleGraph(verts, edges)
            assert (is_two_tree(g) is not None) == brute_force_two_tree(g)
            assert (is_two_d_tree(g) is not None) == brute_force_two_d_tree(g)

    def test_growing_two_trees_always_accepted(self):
        # grow genuine 2-trees and check the greedy never rejects one
        for seed in range(40):
            rng = random.Random(seed)
            verts = ["1", "2"]
            edges = [("1", "2")]
            for i in range(3, rng.randint(4, 10)):
                p, q = rng.choice(edges)
                v = str(i)
                verts.append(v)
                edges.extend([(p, v), (q, v)])
            g = SimpleGraph(verts, edges)
            order = is_two_tree(g)
            assert order is not None and order.validate(g)


class TestIsTwoDTree:
    def test_every_two_tree_is_a_2d_tree(self, five_leaf_cover):
        for g in (K3, five_leaf_cover.cover_graph()):
            assert is_two_tree(g) is not None
            assert is_two_d_tree(g) is not None

    def test_witness_graph(self):
        order = is_two_d_tree(D5)
        assert order is not None
        # replay: each vertex after the first two has exactly 2 earlier neighbors
        placed = {order[0], order[1]}
        assert D5.has_edge(order[0], order[1])
        for v in order[2:]:
            assert len(D5.neighbors(v) & placed) == 2
            placed.add(v)

    def test_four_cycle_rejected(self):
        assert is_two_d_tree(C4) is None

    def test_too_few_vertices(self):
        with pytest.raises(ValueError):
            is_two_d_tree(SimpleGraph("a", []))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 100_000))
    def test_agrees_with_brute_force(self, seed):
        g = random_sparse_graph(seed)
        assert (is_two_d_tree(g) is not None) == brute_force_two_d_tree(g)

    def test_orders_match_the_recursive_search(self):
        graphs = [random_sparse_graph(seed) for seed in range(400)]
        graphs += [grown_two_tree(k, seed) for k in (3, 8, 40) for seed in range(5)]
        graphs += [K3, C4, D5]
        assert sum(recursive_two_d_tree(g) is not None for g in graphs) > 40
        for g in graphs:
            assert is_two_d_tree(g) == recursive_two_d_tree(g)

    def test_deep_peel_without_recursion_error(self):
        # a 2-tree on 1200 vertices peels 1198 levels deep, past Python's
        # default recursion limit; so does the graph of a 1200-leaf minimum cover
        g = grown_two_tree(1200, 1)
        order = is_two_d_tree(g)
        assert order is not None and sorted(order) == sorted(g.vertices)


class TestDegreeTwoVertices:
    def test_triangle(self):
        assert degree_two_vertices(K3) == ("1", "2", "3")

    def test_five_leaf_cover_graph(self, five_leaf_cover):
        assert "a" in degree_two_vertices(five_leaf_cover.cover_graph())

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 100_000))
    def test_accepted_two_trees_have_two_degree_two_vertices(self, seed):
        g = random_sparse_graph(seed)
        if is_two_tree(g) is not None and g.n_vertices >= 3:
            assert len(degree_two_vertices(g)) >= 2
