"""Shared fixtures plus independent brute-force oracles.

The oracles deliberately avoid the library's own algorithms: quartets by
path intersection, distances by explicit path walking, 2-tree and
2d-tree status by searching all vertex orderings, and isomorphism by
comparing split sets.
"""

import json
from itertools import permutations
from pathlib import Path

import pytest

from tripletcover import PhyloTree, SimpleGraph, TripletCover, parse_newick, parse_pairs

FIXTURES = Path(__file__).parent / "fixtures"


def load_tree(name: str) -> PhyloTree:
    return parse_newick((FIXTURES / name).read_text())


def load_cover(name: str, tree: PhyloTree) -> TripletCover:
    return TripletCover(parse_pairs((FIXTURES / name).read_text()), tree.labels)


@pytest.fixture(scope="session")
def five_leaf():
    return load_tree("five_leaf.nwk")


@pytest.fixture(scope="session")
def five_leaf_cover(five_leaf):
    return load_cover("five_leaf_cover.pairs", five_leaf)


@pytest.fixture(scope="session")
def caterpillar8():
    return load_tree("caterpillar8.nwk")


@pytest.fixture(scope="session")
def caterpillar8_cover(caterpillar8):
    return load_cover("caterpillar8_cover.pairs", caterpillar8)


@pytest.fixture(scope="session")
def caterpillar7():
    return load_tree("caterpillar7.nwk")


@pytest.fixture(scope="session")
def caterpillar7_lasso(caterpillar7):
    return load_cover("caterpillar7_lasso.pairs", caterpillar7)


@pytest.fixture(scope="session")
def frozen_counts():
    return json.loads((FIXTURES / "frozen_counts.json").read_text())


def caterpillar(labels) -> PhyloTree:
    """The caterpillar on n >= 4 ``labels``: a spine of interior vertices
    0..n-3 with labels[0] and labels[1] on the first, labels[i+1] on spine
    vertex i, and the last two labels on the last spine vertex."""
    n = len(labels)
    spine = n - 2
    edges = [(i, i + 1) for i in range(spine - 1)]
    hang = [0, 0, *range(1, spine - 1), spine - 1, spine - 1]
    edges += [(at, spine + k) for k, at in enumerate(hang)]
    return PhyloTree(edges, {spine + k: label for k, label in enumerate(labels)})


# ----------------------------------------------------------------------
# oracles
# ----------------------------------------------------------------------


def tree_path(tree: PhyloTree, a: str, b: str) -> list[int]:
    """Vertex path between two leaves by exhaustive DFS (no BFS reuse)."""

    def dfs(u, target, seen):
        if u == target:
            return [u]
        seen.add(u)
        for w in tree.neighbors(u):
            if w not in seen:
                rest = dfs(w, target, seen)
                if rest is not None:
                    return [u] + rest
        return None

    path = dfs(tree.leaf_id(a), tree.leaf_id(b), set())
    assert path is not None
    return path


def quartet_split_oracle(tree: PhyloTree, four) -> frozenset:
    """The unique pairing whose two paths are vertex-disjoint."""
    a, b, c, d = sorted(four)
    for (p, q), (r, s) in (((a, b), (c, d)), ((a, c), (b, d)), ((a, d), (b, c))):
        if not set(tree_path(tree, p, q)) & set(tree_path(tree, r, s)):
            return frozenset({frozenset((p, q)), frozenset((r, s))})
    raise AssertionError("no vertex-disjoint pairing found")


def path_distance_oracle(tree: PhyloTree, a: str, b: str) -> float:
    path = tree_path(tree, a, b)
    return sum(tree.edge_length(u, v) for u, v in zip(path, path[1:]))


def splits_oracle(tree: PhyloTree) -> frozenset:
    """All nontrivial leaf bipartitions, each keyed by the side away from
    the smallest label.  Equal sets mean isomorphic trees."""
    smallest = tree.labels[0]
    out = set()
    for u, v in tree.edges:
        if tree.is_leaf(u) or tree.is_leaf(v):
            continue
        seen = {v}
        stack = [u]
        side = set()
        while stack:
            w = stack.pop()
            if w in seen:
                continue
            seen.add(w)
            if tree.is_leaf(w):
                side.add(tree.label_of(w))
            stack.extend(tree.neighbors(w))
        if smallest in side:
            side = set(tree.labels) - side
        out.add(frozenset(side))
    return frozenset(out)


def trees_isomorphic(t1: PhyloTree, t2: PhyloTree) -> bool:
    return set(t1.labels) == set(t2.labels) and splits_oracle(t1) == splits_oracle(t2)


def brute_force_two_tree(g: SimpleGraph) -> bool:
    """Search every vertex ordering for a valid 2-tree build order."""
    verts = sorted(g.vertices)
    if len(verts) == 2:
        return g.has_edge(*verts)
    for perm in permutations(verts):
        if not g.has_edge(perm[0], perm[1]):
            continue
        placed = {perm[0], perm[1]}
        ok = True
        for v in perm[2:]:
            back = g.neighbors(v) & placed
            if len(back) != 2:
                ok = False
                break
            p, q = back
            if not g.has_edge(p, q):
                ok = False
                break
            placed.add(v)
        if ok:
            return True
    return False


def brute_force_two_d_tree(g: SimpleGraph) -> bool:
    """Like brute_force_two_tree but without requiring the two earlier
    neighbors to be adjacent."""
    verts = sorted(g.vertices)
    if len(verts) == 2:
        return g.has_edge(*verts)
    for perm in permutations(verts):
        if not g.has_edge(perm[0], perm[1]):
            continue
        placed = {perm[0], perm[1]}
        ok = True
        for v in perm[2:]:
            if len(g.neighbors(v) & placed) != 2:
                ok = False
                break
            placed.add(v)
        if ok:
            return True
    return False
