"""Recognition of 2-trees and 2d-trees by elimination orderings.

A 2-tree is built from a single edge by repeatedly attaching a new
vertex to both endpoints of an existing edge; a 2d-tree relaxes this so
the two attachment vertices need not be adjacent.  Recognition runs the
construction backwards: peel vertices of degree two, greedily for
2-trees (safe, since removing a degree-2 simplicial vertex of a 2-tree
leaves a 2-tree) and with backtracking for 2d-trees.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable


class SimpleGraph:
    """An undirected simple graph on string-labelled vertices."""

    __slots__ = ("_vertices", "_edges", "_adj")

    def __init__(self, vertices: Iterable[str], edges: Iterable[tuple[str, str]]):
        vset = frozenset(vertices)
        eset = set()
        for a, b in edges:
            if a == b:
                raise ValueError(f"loop at {a!r}")
            if a not in vset or b not in vset:
                raise ValueError(f"edge {a, b} uses a vertex outside the vertex set")
            eset.add((a, b) if a < b else (b, a))
        self._fill(vset, eset)

    def _fill(self, vset: frozenset[str], eset: set[tuple[str, str]]) -> None:
        """Store ``eset``, checked sorted pairs of distinct members of ``vset``."""
        adj: dict[str, set[str]] = {v: set() for v in vset}
        for a, b in eset:
            adj[a].add(b)
            adj[b].add(a)
        self._vertices = vset
        self._edges = tuple(sorted(eset))
        self._adj = {v: frozenset(adj[v]) for v in vset}

    @staticmethod
    def from_edges(edges: Iterable[tuple[str, str]]) -> "SimpleGraph":
        edges = list(edges)
        return SimpleGraph({x for e in edges for x in e}, edges)

    @property
    def vertices(self) -> frozenset[str]:
        return self._vertices

    @property
    def edges(self) -> tuple[tuple[str, str], ...]:
        return self._edges

    @property
    def n_vertices(self) -> int:
        return len(self._vertices)

    @property
    def n_edges(self) -> int:
        return len(self._edges)

    def has_edge(self, a: str, b: str) -> bool:
        return b in self._adj.get(a, frozenset())

    def neighbors(self, v: str) -> frozenset[str]:
        return self._adj[v]

    def degree(self, v: str) -> int:
        return len(self._adj[v])

    def __repr__(self) -> str:
        return f"SimpleGraph({self.n_vertices} vertices, {self.n_edges} edges)"


@dataclass(frozen=True)
class EliminationOrder:
    """A 2-tree build order: ``order[0], order[1]`` span an edge and each
    later vertex attaches to the adjacent pair recorded in ``triangles``."""

    order: tuple[str, ...]
    triangles: tuple[tuple[str, str, str], ...]  # (vertex, p, q), aligned to order[2:]

    def validate(self, graph: SimpleGraph) -> bool:
        """Replay the order against ``graph`` and check every condition."""
        if len(self.order) != graph.n_vertices or set(self.order) != graph.vertices:
            return False
        if len(self.order) < 2 or len(self.triangles) != len(self.order) - 2:
            return False
        if not graph.has_edge(self.order[0], self.order[1]):
            return False
        placed = {self.order[0], self.order[1]}
        for v, (tv, p, q) in zip(self.order[2:], self.triangles):
            if tv != v or not graph.has_edge(p, q):
                return False
            if graph.neighbors(v) & placed != {p, q}:
                return False
            placed.add(v)
        return True


def degree_two_vertices(g: SimpleGraph) -> tuple[str, ...]:
    """All vertices of degree exactly two, sorted."""
    return tuple(sorted(v for v in g.vertices if g.degree(v) == 2))


def is_two_tree(g: SimpleGraph) -> EliminationOrder | None:
    """An elimination order if ``g`` is a 2-tree, else None.

    Rejects early unless ``|E| == 2|V| - 3``, then greedily peels the
    smallest degree-2 vertex whose two neighbors are adjacent.
    """
    if g.n_vertices < 2:
        raise ValueError("is_two_tree needs at least two vertices")
    if g.n_edges != 2 * g.n_vertices - 3:
        return None
    if g.n_vertices == 2:
        a, b = sorted(g.vertices)
        return EliminationOrder((a, b), ())

    adj = {v: set(g.neighbors(v)) for v in g.vertices}
    active = set(g.vertices)
    peeled: list[tuple[str, str, str]] = []
    while len(active) > 2:
        pick = None
        for v in sorted(active):
            if len(adj[v]) == 2:
                p, q = sorted(adj[v])
                if q in adj[p]:
                    pick = (v, p, q)
                    break
        if pick is None:
            return None
        v, p, q = pick
        adj[p].discard(v)
        adj[q].discard(v)
        del adj[v]
        active.remove(v)
        peeled.append(pick)

    a, b = sorted(active)
    if b not in adj[a]:
        return None
    order = (a, b) + tuple(v for v, _, _ in reversed(peeled))
    triangles = tuple(reversed(peeled))
    return EliminationOrder(order, triangles)


def is_two_d_tree(g: SimpleGraph) -> tuple[str, ...] | None:
    """A build order if ``g`` is a 2d-tree, else None.

    Every added vertex must have exactly two earlier neighbors, which
    need not be adjacent, so greedy peeling is not known to be safe and a
    full backtracking search over peel choices is used (graphs here are
    small).  ``|E| == 2|V| - 3`` is still necessary: each added vertex
    contributes exactly two edges.
    """
    if g.n_vertices < 2:
        raise ValueError("is_two_d_tree needs at least two vertices")
    if g.n_edges != 2 * g.n_vertices - 3:
        return None
    if g.n_vertices == 2:
        a, b = sorted(g.vertices)
        return (a, b)

    adj = {v: set(g.neighbors(v)) for v in g.vertices}
    active = set(g.vertices)
    dead_ends: set[frozenset[str]] = set()
    # levels[i] yields the peel candidates left at depth i (the sorted active
    # set on entry); peeled[i] is the vertex depth i removed, with its
    # neighbours then.  Depth-first, so orders match a recursive search.
    levels = [iter(sorted(active))]
    peeled: list[tuple[str, tuple[str, ...]]] = []
    while levels:
        v = next((v for v in levels[-1] if len(adj[v]) == 2), None)
        if v is None:
            dead_ends.add(frozenset(active))
            levels.pop()
            if peeled:
                v, saved = peeled.pop()
                active.add(v)
                for u in saved:
                    adj[u].add(v)
            continue
        saved = tuple(adj[v])
        for u in saved:
            adj[u].discard(v)
        active.remove(v)
        peeled.append((v, saved))
        if len(active) == 2:
            a, b = sorted(active)
            if b in adj[a]:
                return (a, b) + tuple(v for v, _ in reversed(peeled))
        # a two-vertex set without its edge, or a known dead end, has no candidates
        dead = len(active) == 2 or frozenset(active) in dead_ends
        levels.append(iter(() if dead else sorted(active)))
    return None
