"""Constructors for triplet covers.

Three routes: the one-triple-per-vertex cover (always valid, at most
3(|X|-2) pairs), a cherry-induction cover of the minimum size 2|X|-3,
and greedy minimalization of an arbitrary cover.
"""

from __future__ import annotations

from itertools import combinations

from .cover import TripletCover, _require_cover
from .tree import PhyloTree, _norm_pair


def per_vertex_cover(tree: PhyloTree) -> TripletCover:
    """Pairs of the smallest leaf from each component at every interior
    vertex.  The selected triple supports its vertex by construction, so
    the result is always a triplet cover."""
    pairs = set()
    for v in tree.interior_ids:
        reps = [block[0] for block in tree.components_at(v)]
        pairs.update(_norm_pair(a, b) for a, b in combinations(reps, 2))
    return TripletCover(pairs, tree.labels)


def minimum_cover(tree: PhyloTree) -> TripletCover:
    """A triplet cover of size exactly 2|X|-3, built by cherry induction.

    Peel the smallest cherry leaf x (partner y) down to three leaves,
    then rebuild: given the smaller cover, take its lexicographically
    smallest pair yb and add xy and xb.  The triple xyb supports the
    vertex adjacent to x, and every other vertex keeps its old support
    because removing x does not split any remaining component.
    """
    removals: list[tuple[str, str]] = []
    t = tree
    while t.n_leaves > 3:
        x, y, _ = min(t.cherries())
        removals.append((x, y))
        t = t.remove_leaf(x)

    pairs = {_norm_pair(a, b) for a, b in combinations(t.labels, 2)}
    for x, y in reversed(removals):
        yb = min(p for p in pairs if y in p)
        b = yb[0] if yb[1] == y else yb[1]
        pairs.add(_norm_pair(x, y))
        pairs.add(_norm_pair(x, b))
    return TripletCover(pairs, tree.labels)


def minimalize(tree: PhyloTree, cover: TripletCover) -> TripletCover:
    """Greedily delete pairs (in lexicographic order) while coverage holds.

    The result is minimal: coverage is monotone, so a pair that could not
    be deleted against a larger set cannot become deletable later.
    Different deletion orders may reach different minimal covers; the
    fixed order makes this one reproducible.
    """
    live = list(_require_cover(tree, cover).values())
    kept = []
    for a, b in cover.pairs:
        if all(any(a not in t or b not in t for t in triples) for triples in live):
            live = [[t for t in triples if a not in t or b not in t] for triples in live]
        else:
            kept.append((a, b))
    return TripletCover(kept, cover.universe)
