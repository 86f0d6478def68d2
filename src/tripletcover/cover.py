"""Triplet covers of binary X-trees: support sets, support graphs,
multiplicities, and the cover predicates.

A pair set covers a tree when every interior vertex is *supported*: some
triple of leaves, one from each component hanging off the vertex, has
all three of its pairs in the set.  Supporting triples are exactly the
triangles of the cover graph that are transversal to the vertex's
3-partition, so enumeration walks the triangle list rather than all
leaf triples.

A ``TripletCover`` is its own cover graph: a ``SimpleGraph`` on the
universe whose edges are the pairs, checked and built once per cover.
Pairs, multiplicities (vertex degrees), membership and the triangle
list (common neighbours along each edge) all read that one adjacency.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .tree import PhyloTree, TreeError, _norm_pair
from .twotree import SimpleGraph


class CoverError(ValueError):
    """Invalid pair-set input."""


class UniverseMismatchError(CoverError):
    """The cover's universe differs from the tree's leaf set."""


class NotACoverError(CoverError):
    """An operation requiring a triplet cover received a non-cover."""


class TripletCover(SimpleGraph):
    """An unordered set of leaf pairs over a fixed label universe.  A cover
    is its own cover graph: the universe is the vertex set and the pairs
    are the edges, so every graph read works on the cover directly."""

    __slots__ = ()

    def __init__(self, pairs: Iterable[tuple[str, str]], universe: Iterable[str]):
        universe = frozenset(universe)
        if not universe:
            raise CoverError("empty universe")
        norm = set()
        for a, b in pairs:
            pair = _norm_pair(a, b)
            if pair[0] not in universe or pair[1] not in universe:
                raise CoverError(f"pair {pair} uses labels outside the universe")
            norm.add(pair)
        self._fill(universe, norm)

    pairs = SimpleGraph.edges
    universe = SimpleGraph.vertices

    def multiplicity(self, x: str) -> int:
        """Number of pairs containing ``x`` (its cover-graph degree)."""
        if x not in self.universe:
            raise CoverError(f"unknown label {x!r}")
        return self.degree(x)

    def min_multiplicity(self) -> int:
        """Smallest multiplicity over the whole universe."""
        return min(map(self.degree, self.universe))

    def multiplicities(self) -> dict[str, int]:
        return {x: self.degree(x) for x in sorted(self.universe)}

    def remove_incident(self, x: str) -> "TripletCover":
        """Drop every pair containing ``x``; the universe shrinks by ``x``."""
        if x not in self.universe:
            raise CoverError(f"unknown label {x!r}")
        return TripletCover((p for p in self.pairs if x not in p), self.universe - {x})

    def with_pairs(self, extra: Iterable[tuple[str, str]]) -> "TripletCover":
        return TripletCover(self.pairs + tuple(extra), self.universe)

    def without_pair(self, pair: tuple[str, str]) -> "TripletCover":
        pair = _norm_pair(*pair)
        return TripletCover((p for p in self.pairs if p != pair), self.universe)

    def cover_graph(self) -> SimpleGraph:
        """The cover itself: the graph on the universe whose edges are the pairs."""
        return self

    def to_text(self) -> str:
        return "\n".join(f"{a} {b}" for a, b in self.pairs) + "\n"

    @classmethod
    def from_text(cls, text: str, universe: Iterable[str]) -> "TripletCover":
        return cls(parse_pairs(text), universe)

    def __contains__(self, pair: tuple[str, str]) -> bool:
        return self.has_edge(*_norm_pair(*pair))

    def __len__(self) -> int:
        return len(self._edges)

    def __iter__(self) -> Iterator[tuple[str, str]]:
        return iter(self.pairs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TripletCover):
            return NotImplemented
        return self.pairs == other.pairs and self.universe == other.universe

    def __hash__(self) -> int:
        return hash((self.pairs, self.universe))

    def __repr__(self) -> str:
        return f"TripletCover({len(self)} pairs on {len(self.universe)} labels)"


def parse_pairs(text: str) -> tuple[tuple[str, str], ...]:
    """Read the pair-set text format: one 'a b' per line, '#' comments."""
    pairs: list[tuple[str, str]] = []
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if len(tokens) != 2:
            raise CoverError(
                f"line {lineno}: expected two whitespace-separated labels, got {raw!r}"
            )
        pair = _norm_pair(*tokens)
        if pair in seen:
            raise CoverError(f"line {lineno}: duplicate pair {pair}")
        seen.add(pair)
        pairs.append(pair)
    return tuple(pairs)


@dataclass(frozen=True)
class SupportSet:
    """All triples supporting one interior vertex."""

    vertex: int
    triples: frozenset[tuple[str, str, str]]

    def sorted_triples(self) -> tuple[tuple[str, str, str], ...]:
        return tuple(sorted(self.triples))

    def __len__(self) -> int:
        return len(self.triples)


class SupportGraph:
    """Bipartite graph joining leaf x to interior vertex v whenever x lies
    in every triple that supports v."""

    __slots__ = ("_leaves", "_vertices", "_edges", "_leaf_deg", "_vertex_deg")

    def __init__(
        self,
        leaves: Iterable[str],
        vertices: Iterable[int],
        edges: Iterable[tuple[str, int]],
    ):
        self._leaves = frozenset(leaves)
        self._vertices = frozenset(vertices)
        eset = set()
        for x, v in edges:
            if x not in self._leaves or v not in self._vertices:
                raise CoverError(f"support edge {x, v} outside the vertex sets")
            eset.add((x, v))
        self._edges = frozenset(eset)
        self._leaf_deg = {x: 0 for x in self._leaves}
        self._vertex_deg = {v: 0 for v in self._vertices}
        for x, v in eset:
            self._leaf_deg[x] += 1
            self._vertex_deg[v] += 1

    @property
    def edges(self) -> tuple[tuple[str, int], ...]:
        return tuple(sorted(self._edges))

    def has_edge(self, x: str, v: int) -> bool:
        return (x, v) in self._edges

    def leaf_degree(self, x: str) -> int:
        return self._leaf_deg[x]

    def vertex_degree(self, v: int) -> int:
        return self._vertex_deg[v]

    def forced_leaves(self, v: int) -> tuple[str, ...]:
        """Leaves joined to ``v``, i.e. present in all its support triples."""
        return tuple(sorted(x for x, w in self._edges if w == v))

    def __repr__(self) -> str:
        return f"SupportGraph({len(self._edges)} edges)"


def _check_universe(tree: PhyloTree, cover: TripletCover) -> None:
    if cover.universe != set(tree.labels):
        raise UniverseMismatchError(
            "cover universe does not equal the tree's leaf set"
        )


def triangles(cover: TripletCover) -> tuple[tuple[str, str, str], ...]:
    """All triangles (a, b, c), a < b < c, of the cover graph in
    lexicographic order: the common neighbours c > b of each sorted edge
    (a, b)."""
    g = cover.cover_graph()
    return tuple(
        (a, b, c)
        for a, b in g.edges
        for c in sorted(g.neighbors(a) & g.neighbors(b))
        if c > b
    )


def _supports(
    tree: PhyloTree, cover: TripletCover, vertices: Iterable[int] | None = None
) -> dict[int, list[tuple[str, str, str]]]:
    """Each interior vertex (all by default) mapped to its supporting
    triples: the cover triangles with one leaf in each of its leaf blocks."""
    _check_universe(tree, cover)
    tris = triangles(cover)
    out = {}
    for v in tree.interior_ids if vertices is None else vertices:
        block_of = {x: i for i, block in enumerate(tree.components_at(v)) for x in block}
        out[v] = [
            t for t in tris if len({block_of[t[0]], block_of[t[1]], block_of[t[2]]}) == 3
        ]
    return out


def _unsupported(supports: dict[int, list]) -> tuple[int, ...]:
    return tuple(sorted(v for v, triples in supports.items() if not triples))


def _require_cover(
    tree: PhyloTree, cover: TripletCover
) -> dict[int, list[tuple[str, str, str]]]:
    """The support table, or NotACoverError if some vertex is unsupported."""
    supports = _supports(tree, cover)
    bad = _unsupported(supports)
    if bad:
        raise NotACoverError(
            f"not a triplet cover: unsupported interior vertices {list(bad)}"
        )
    return supports


def _all_indispensable(supports: dict[int, list], cover: TripletCover) -> bool:
    """Minimality on a cover's support table: deleting a pair kills exactly
    the triangles through it, so a pair is indispensable iff it lies in
    every supporting triple of some vertex."""
    needed = set()
    for triples in supports.values():
        needed |= set.intersection(*({(a, b), (a, c), (b, c)} for a, b, c in triples))
    return len(needed) == len(cover)


def support_set(tree: PhyloTree, cover: TripletCover, v: int) -> SupportSet:
    """The exact set of triples supporting interior vertex ``v``."""
    if not tree.is_interior(v):
        raise TreeError(f"vertex {v} is not interior")
    return SupportSet(v, frozenset(_supports(tree, cover, (v,))[v]))


def unsupported_vertices(tree: PhyloTree, cover: TripletCover) -> tuple[int, ...]:
    """Interior vertices with empty support, sorted by id."""
    return _unsupported(_supports(tree, cover))


def is_triplet_cover(tree: PhyloTree, cover: TripletCover) -> bool:
    """True iff every interior vertex of the tree has nonempty support."""
    return not unsupported_vertices(tree, cover)


def support_graph(tree: PhyloTree, cover: TripletCover) -> SupportGraph:
    """The bipartite support graph of the cover on leaves and interiors.

    Vertices with empty support contribute no edges.
    """
    edges = []
    for v, triples in _supports(tree, cover).items():
        if triples:
            edges.extend((x, v) for x in set(triples[0]).intersection(*triples[1:]))
    return SupportGraph(tree.labels, tree.interior_ids, edges)


def is_minimal(tree: PhyloTree, cover: TripletCover) -> bool:
    """True iff no single pair can be deleted while preserving coverage.

    Raises NotACoverError when the input is not a triplet cover.
    """
    return _all_indispensable(_require_cover(tree, cover), cover)


def is_minimum(tree: PhyloTree, cover: TripletCover) -> bool:
    """True iff the cover has the smallest possible size, ``2|X| - 3``.

    Cardinality is a valid criterion because no triplet cover is smaller;
    the 2-tree route stays available as an independent cross-check.
    Raises NotACoverError when the input is not a triplet cover.
    """
    _require_cover(tree, cover)
    return len(cover) == 2 * tree.n_leaves - 3


def cover_report(tree: PhyloTree, cover: TripletCover) -> dict:
    """The predicate report: cover size, cover/minimal/minimum status,
    minimum multiplicity, and any unsupported vertices."""
    supports = _supports(tree, cover)
    bad = _unsupported(supports)
    covered = not bad
    return {
        "cover_size": len(cover),
        "is_cover": covered,
        "is_minimal": _all_indispensable(supports, cover) if covered else None,
        "is_minimum": len(cover) == 2 * tree.n_leaves - 3 if covered else None,
        "min_multiplicity": cover.min_multiplicity(),
        "unsupported_vertices": list(bad),
    }
