"""The two cached tree walks against the per-query searches they replace.

``find_witness`` reads one table of leaf-to-leaf edge counts per tree;
``components_at``, ``split_lengths`` and ``to_newick`` read one walk
from the canonical Newick root.  The references below are the direct
forms: a witness search that checks five label pairs and asks
``quartet_topology`` for every candidate (x, y), and blocks, splits and
Newick from one BFS per (vertex, neighbour) and a recursive render.
"""

import random
from collections import deque
from itertools import combinations

import pytest

from tripletcover import (
    enumerate_covers,
    enumerate_trees,
    minimum_cover,
    per_vertex_cover,
    random_tree,
    shelling_closure,
)

from conftest import caterpillar


def pair(u, v):
    return (u, v) if u < v else (v, u)


def reference_find_witness(tree, known, a, b):
    others = [z for z in tree.labels if z != a and z != b]
    for x in others:
        if pair(a, x) not in known:
            continue
        for y in others:
            if y == x:
                continue
            if (
                pair(a, y) in known
                and pair(b, x) in known
                and pair(b, y) in known
                and pair(x, y) in known
            ):
                quartet = tree.quartet_topology(a, b, x, y)
                if quartet.split() == {frozenset((x, a)), frozenset((y, b))}:
                    return (x, y)
    return None


def reference_closure(tree, cover):
    """The trace as ``ShellingTrace.to_json`` prints it, and the residual."""
    known = set(cover.pairs)
    missing = [p for p in combinations(tree.labels, 2) if p not in known]
    steps = []
    while missing:
        for a, b in missing:
            witness = reference_find_witness(tree, known, a, b)
            if witness is not None:
                break
        else:
            break
        x, y = witness
        quartet = tree.quartet_topology(a, b, x, y)
        steps.append({"pair": [a, b], "x": x, "y": y, "quartet": str(quartet)})
        known.add((a, b))
        missing.remove((a, b))
    return steps, frozenset(missing)


def assert_same_closure(tree, cover):
    trace, residual = shelling_closure(tree, cover, require_cover=False)
    assert (trace.to_json(), residual) == reference_closure(tree, cover)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_closure_on_every_swept_cover(n):
    """Every minimum cover and the sampled next-size covers of the sweep."""
    for tree in enumerate_trees("abcdef"[:n]):
        for cover in enumerate_covers(tree, 2 * n - 3):
            assert_same_closure(tree, cover)
        for cover in enumerate_covers(tree, 2 * n - 2)[:50]:
            assert_same_closure(tree, cover)


@pytest.mark.parametrize("n", [4, 5, 7, 9, 12, 16, 20, 24, 32])
def test_closure_on_random_trees(n):
    for seed in range(2):
        tree = random_tree(n, 500 * n + seed)
        base = minimum_cover(tree)
        dropped = base.without_pair(base.pairs[seed % len(base)])
        for cover in (base, per_vertex_cover(tree), dropped):
            assert_same_closure(tree, cover)


def leaves_toward(tree, start, banned):
    """Labels of leaves reachable from ``start`` without crossing ``banned``."""
    out = []
    seen = {banned, start}
    queue = deque([start])
    while queue:
        u = queue.popleft()
        if tree.is_leaf(u):
            out.append(tree.label_of(u))
        for w in tree.neighbors(u):
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return out


def reference_blocks(tree, v):
    blocks = [tuple(sorted(leaves_toward(tree, u, v))) for u in tree.neighbors(v)]
    return tuple(sorted(blocks, key=lambda block: block[0]))


def reference_split_lengths(tree):
    smallest = tree.labels[0]
    out = {}
    for u, v in tree.edges:
        if tree.is_leaf(u):
            out[tree.label_of(u)] = tree.edge_length(u, v)
        elif tree.is_leaf(v):
            out[tree.label_of(v)] = tree.edge_length(u, v)
        else:
            side = frozenset(leaves_toward(tree, u, v))
            if smallest in side:
                side = frozenset(tree.labels) - side
            out[side] = tree.edge_length(u, v)
    return out


def reference_newick(tree, include_lengths):
    def render(v, parent):
        suffix = f":{tree.edge_length(v, parent)!r}" if include_lengths else ""
        if tree.is_leaf(v):
            name = tree.label_of(v)
            return name + suffix, name
        parts = sorted(
            (render(u, v) for u in tree.neighbors(v) if u != parent),
            key=lambda item: item[1],
        )
        return "(" + ",".join(text for text, _ in parts) + ")" + suffix, parts[0][1]

    root = tree.neighbors(tree.leaf_id(tree.labels[0]))[0]
    parts = sorted((render(u, root) for u in tree.neighbors(root)), key=lambda item: item[1])
    return "(" + ",".join(text for text, _ in parts) + ");"


def walk_trees(n):
    """Two random trees and a caterpillar with shuffled labels, all with lengths."""
    for seed in range(2):
        yield random_tree(n, 900 * n + seed, (0.1, 10.0))
    if n >= 4:
        rng = random.Random(n)
        labels = [f"t{i:02d}" for i in range(n)]
        rng.shuffle(labels)
        tree = caterpillar(labels)
        yield tree.with_edge_lengths({e: rng.uniform(0.1, 10.0) for e in tree.edges})


@pytest.mark.parametrize("n", [3, 4, 5, 6, 8, 11, 16, 23, 32, 47, 64])
def test_rooted_walk_facts(n):
    for tree in walk_trees(n):
        for v in tree.interior_ids:
            assert tree.components_at(v) == reference_blocks(tree, v)
        assert tree.split_lengths() == reference_split_lengths(tree)
        for include_lengths in (False, True):
            assert tree.to_newick(include_lengths) == reference_newick(
                tree, include_lengths
            )
