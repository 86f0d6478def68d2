"""Unrooted binary phylogenetic trees with labelled leaves.

A tree here always has every vertex of degree 1 (a labelled leaf) or
degree 3 (an anonymous interior vertex), at least three leaves, and
optionally a strictly positive length on every edge.  Trees are
immutable after construction; all derived trees (leaf removal,
relabelling, random generation) are new objects.

Leaves are addressed by their label, interior vertices by an opaque
integer id.  Serialization uses a canonical Newick form so that equal
trees always produce byte-identical text.
"""

from __future__ import annotations

import math
import random
import re
import string
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Iterable, Iterator, Mapping, Sequence

_LABEL_RE = re.compile(r"[A-Za-z0-9_.\-]+")
_NUMBER_RE = re.compile(r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")


class TreeError(ValueError):
    """Violation of the binary X-tree invariants."""


class NewickParseError(TreeError):
    """Malformed Newick input; carries the offending text position."""

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


def _norm_pair(a: str, b: str) -> tuple[str, str]:
    if a == b:
        raise TreeError(f"pair endpoints must be distinct, got {a!r} twice")
    return (a, b) if a < b else (b, a)


def _norm_edge(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Quartet:
    """Topology of four leaves: the leaf split ``pair_one | pair_two``.

    Canonical form: labels sorted within each pair, and the pair with the
    smallest leading label first.
    """

    pair_one: tuple[str, str]
    pair_two: tuple[str, str]

    @classmethod
    def of(cls, first: Iterable[str], second: Iterable[str]) -> "Quartet":
        one = tuple(sorted(first))
        two = tuple(sorted(second))
        if len(one) != 2 or len(two) != 2:
            raise TreeError("a quartet consists of two leaf pairs")
        if one > two:
            one, two = two, one
        if len({*one, *two}) != 4:
            raise TreeError(f"quartet labels must be distinct: {one} | {two}")
        return cls(one, two)

    def split(self) -> frozenset[frozenset[str]]:
        """The split as a set of two label sets (orientation-free)."""
        return frozenset({frozenset(self.pair_one), frozenset(self.pair_two)})

    def labels(self) -> tuple[str, ...]:
        return tuple(sorted(self.pair_one + self.pair_two))

    def __str__(self) -> str:
        sep = "" if all(len(x) == 1 for x in self.labels()) else ","
        return f"{sep.join(self.pair_one)}|{sep.join(self.pair_two)}"


class DistanceMap:
    """Nonnegative distances on unordered leaf pairs.

    Keys are normalized to sorted label tuples, so the map is symmetric
    by construction; self-distances are not representable.
    """

    __slots__ = ("_entries",)

    def __init__(self, entries: Mapping[tuple[str, str], float]):
        norm: dict[tuple[str, str], float] = {}
        for (a, b), value in entries.items():
            key = _norm_pair(a, b)
            value = float(value)
            if not value >= 0.0:
                raise ValueError(f"distance for {key} must be >= 0, got {value}")
            if not math.isfinite(value):
                raise ValueError(f"distance for {key} must be finite, got {value}")
            if key in norm and norm[key] != value:
                raise ValueError(f"conflicting distances for pair {key}")
            norm[key] = value
        self._entries = norm

    def get(self, a: str, b: str) -> float:
        return self._entries[_norm_pair(a, b)]

    def pairs(self) -> tuple[tuple[str, str], ...]:
        return tuple(sorted(self._entries))

    def items(self) -> list[tuple[tuple[str, str], float]]:
        return sorted(self._entries.items())

    def labels(self) -> tuple[str, ...]:
        seen = {x for pair in self._entries for x in pair}
        return tuple(sorted(seen))

    def restrict(self, pairs: Iterable[tuple[str, str]]) -> "DistanceMap":
        keys = {_norm_pair(a, b) for a, b in pairs}
        missing = keys - set(self._entries)
        if missing:
            raise KeyError(f"pairs not present: {sorted(missing)}")
        return DistanceMap({k: self._entries[k] for k in keys})

    def max_difference(self, other: "DistanceMap") -> float:
        if set(self._entries) != set(other._entries):
            raise ValueError("distance maps are defined on different pair sets")
        return max(
            (abs(v - other._entries[k]) for k, v in self._entries.items()),
            default=0.0,
        )

    def to_csv(self) -> str:
        lines = [f"{a},{b},{v!r}" for (a, b), v in self.items()]
        return "\n".join(lines) + "\n"

    @classmethod
    def from_csv(cls, text: str) -> "DistanceMap":
        entries: dict[tuple[str, str], float] = {}
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            fields = [f.strip() for f in line.split(",")]
            if len(fields) != 3:
                raise ValueError(
                    f"line {lineno}: expected 'label1,label2,distance', got {raw!r}"
                )
            a, b, value = fields
            try:
                d = float(value)
            except ValueError:
                raise ValueError(f"line {lineno}: bad distance {value!r}") from None
            key = _norm_pair(a, b)
            if key in entries:
                raise ValueError(f"line {lineno}: duplicate pair {key}")
            entries[key] = d
        return cls(entries)

    def __contains__(self, pair: tuple[str, str]) -> bool:
        a, b = pair
        return _norm_pair(a, b) in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[tuple[str, str]]:
        return iter(self.pairs())

    def __repr__(self) -> str:
        return f"DistanceMap({len(self)} pairs on {len(self.labels())} labels)"


class PhyloTree:
    """An unrooted binary tree on a labelled leaf set.

    Construct with an undirected edge list over integer vertex ids, a
    mapping from leaf id to label, and (optionally) a map from edge to
    strictly positive length.  All invariants are checked eagerly:
    connectivity, degrees in {1, 3}, |X| >= 3, distinct valid labels,
    ``|edges| == 2|X| - 3`` and ``|interior| == |X| - 2``.
    """

    def __init__(
        self,
        edges: Iterable[tuple[int, int]],
        leaf_labels: Mapping[int, str],
        edge_lengths: Mapping[tuple[int, int], float] | None = None,
    ):
        edge_list = [_norm_edge(int(u), int(v)) for u, v in edges]
        if len(set(edge_list)) != len(edge_list):
            raise TreeError("duplicate edge")
        adj: dict[int, list[int]] = {}
        for u, v in edge_list:
            if u == v:
                raise TreeError(f"self-loop at vertex {u}")
            adj.setdefault(u, []).append(v)
            adj.setdefault(v, []).append(u)
        if not adj:
            raise TreeError("a tree needs at least one edge")

        vertices = sorted(adj)
        if len(edge_list) != len(vertices) - 1:
            raise TreeError("edge count does not match an acyclic graph")
        # connectivity: BFS from an arbitrary vertex must reach everything
        seen = {vertices[0]}
        queue = deque([vertices[0]])
        while queue:
            for w in adj[queue.popleft()]:
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        if len(seen) != len(vertices):
            raise TreeError("graph is not connected")

        leaves = {v for v in vertices if len(adj[v]) == 1}
        for v in vertices:
            if len(adj[v]) not in (1, 3):
                raise TreeError(
                    f"vertex {v} has degree {len(adj[v])}; only degrees 1 and 3 are allowed"
                )
        if len(leaves) < 3:
            raise TreeError("at least three leaves are required")

        labels = dict(leaf_labels)
        if set(labels) != leaves:
            raise TreeError("leaf_labels must map exactly the degree-1 vertices")
        for v, name in labels.items():
            if not isinstance(name, str) or not _LABEL_RE.fullmatch(name):
                raise TreeError(
                    f"invalid label {name!r}: labels are nonempty over [A-Za-z0-9_.-]"
                )
        if len(set(labels.values())) != len(labels):
            raise TreeError("duplicate leaf label")

        n = len(leaves)
        if len(edge_list) != 2 * n - 3 or len(vertices) - n != n - 2:
            raise TreeError("vertex/edge counts violate the binary X-tree shape")

        lengths: dict[tuple[int, int], float] | None = None
        if edge_lengths is not None:
            lengths = {}
            for (u, v), value in edge_lengths.items():
                key = _norm_edge(int(u), int(v))
                value = float(value)
                if not value > 0.0:
                    raise TreeError(f"edge length for {key} must be > 0, got {value}")
                if not math.isfinite(value):
                    raise TreeError(f"edge length for {key} must be finite, got {value}")
                lengths[key] = value
            if set(lengths) != set(edge_list):
                raise TreeError("edge_lengths must cover exactly the edge set")

        self._adj = {v: tuple(sorted(adj[v])) for v in vertices}
        self._edges = tuple(sorted(edge_list))
        self._leaf_label = dict(sorted(labels.items()))
        self._label_leaf = {name: v for v, name in labels.items()}
        self._lengths = lengths

    # ------------------------------------------------------------------
    # basic queries
    # ------------------------------------------------------------------

    @property
    def labels(self) -> tuple[str, ...]:
        """All leaf labels, sorted."""
        return tuple(sorted(self._label_leaf))

    @property
    def n_leaves(self) -> int:
        return len(self._leaf_label)

    @property
    def leaf_ids(self) -> tuple[int, ...]:
        return tuple(sorted(self._leaf_label))

    @property
    def interior_ids(self) -> tuple[int, ...]:
        return tuple(v for v in self._adj if v not in self._leaf_label)

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        return self._edges

    @property
    def has_lengths(self) -> bool:
        return self._lengths is not None

    def neighbors(self, v: int) -> tuple[int, ...]:
        try:
            return self._adj[v]
        except KeyError:
            raise TreeError(f"unknown vertex id {v}") from None

    def is_leaf(self, v: int) -> bool:
        return v in self._leaf_label

    def is_interior(self, v: int) -> bool:
        return v in self._adj and v not in self._leaf_label

    def label_of(self, v: int) -> str:
        try:
            return self._leaf_label[v]
        except KeyError:
            raise TreeError(f"vertex {v} is not a leaf") from None

    def leaf_id(self, label: str) -> int:
        try:
            return self._label_leaf[label]
        except KeyError:
            raise TreeError(f"unknown leaf label {label!r}") from None

    def edge_length(self, u: int, v: int) -> float:
        if self._lengths is None:
            raise TreeError("tree has no edge lengths")
        try:
            return self._lengths[_norm_edge(u, v)]
        except KeyError:
            raise TreeError(f"no edge between {u} and {v}") from None

    # ------------------------------------------------------------------
    # structural operations
    # ------------------------------------------------------------------

    def _path(self, src: int, dst: int) -> list[int]:
        """Vertex path from src to dst, endpoints included."""
        parent: dict[int, int] = {src: src}
        queue = deque([src])
        while queue:
            u = queue.popleft()
            if u == dst:
                break
            for w in self._adj[u]:
                if w not in parent:
                    parent[w] = u
                    queue.append(w)
        path = [dst]
        while path[-1] != src:
            path.append(parent[path[-1]])
        path.reverse()
        return path

    def median(self, a: str, b: str, c: str) -> int:
        """The unique vertex lying on all three pairwise leaf paths."""
        if len({a, b, c}) != 3:
            raise TreeError(f"median needs three distinct leaves, got {a, b, c}")
        ia, ib, ic = self.leaf_id(a), self.leaf_id(b), self.leaf_id(c)
        common = (
            set(self._path(ia, ib)) & set(self._path(ib, ic)) & set(self._path(ia, ic))
        )
        assert len(common) == 1, "pairwise paths in a tree meet in one vertex"
        return common.pop()

    def components_at(self, v: int) -> tuple[tuple[str, ...], ...]:
        """The partition of X into the three leaf sets hanging off ``v``.

        Blocks are internally sorted and ordered by their smallest label.
        """
        if not self.is_interior(v):
            raise TreeError(f"vertex {v} is not interior")
        return self._blocks[v]

    @cached_property
    def _rooted(self) -> tuple[list[int], dict[int, int | None], dict[int, list[int]]]:
        """The tree hung from the canonical Newick root, the interior vertex
        next to the smallest leaf, as (order, parent, children): vertices
        parents first, the root's parent None, and the children of each
        interior vertex ordered by the smallest leaf below them (cached;
        tree is immutable)."""
        root = self._adj[self._label_leaf[self.labels[0]]][0]
        parent: dict[int, int | None] = {root: None}
        order = [root]
        for u in order:
            for w in self._adj[u]:
                if w != parent[u]:
                    parent[w] = u
                    order.append(w)
        first = dict(self._leaf_label)
        children = {}
        for v in reversed(order):
            if v not in first:
                kids = sorted((w for w in self._adj[v] if w != parent[v]), key=first.get)
                children[v], first[v] = kids, first[kids[0]]
        return order, parent, children

    @cached_property
    def _blocks(self) -> dict[int, tuple[tuple[str, ...], ...]]:
        """components_at for every interior vertex: the leaves below each
        child in the rooted walk plus, off the root, all other leaves
        (cached; tree is immutable)."""
        order, parent, children = self._rooted
        labels = self.labels
        below = {v: (label,) for v, label in self._leaf_label.items()}
        out = {}
        for v in reversed(order):
            if v in below:
                continue
            blocks = [below[w] for w in children[v]]
            below[v] = tuple(sorted(x for block in blocks for x in block))
            if parent[v] is not None:
                inside = set(below[v])
                # from a list: tuple() of a generator grows by realloc, which
                # fragments the heap when many trees are built
                blocks.append(tuple([x for x in labels if x not in inside]))
            out[v] = tuple(sorted(blocks, key=lambda block: block[0]))
        return out

    def _walk_from(self, src: str, lengths: dict | None = None) -> dict[str, float]:
        """Path length from leaf ``src`` to every leaf, keyed by label: edge
        counts, or sums of ``lengths`` along the path."""
        start = self._label_leaf[src]
        dist = {start: 0}
        queue = [start]
        for u in queue:
            for w in self._adj[u]:
                if w not in dist:
                    step = 1 if lengths is None else lengths[_norm_edge(u, w)]
                    dist[w] = dist[u] + step
                    queue.append(w)
        return {label: dist[v] for v, label in self._leaf_label.items()}

    @cached_property
    def _hops(self) -> dict[str, dict[str, int]]:
        """Edge counts between leaves, as ``h[a][b]`` (cached; tree is immutable)."""
        return {label: self._walk_from(label) for label in self._label_leaf}

    def quartet_topology(self, a: str, b: str, c: str, d: str) -> Quartet:
        """The induced split of the tree restricted to four leaves.

        Decided by the four-point condition on topological (edge-count)
        distances: the true split gives the strictly smallest pair-sum.
        """
        four = (a, b, c, d)
        if len(set(four)) != 4:
            raise TreeError(f"quartet needs four distinct leaves, got {four}")
        for x in four:
            self.leaf_id(x)
        h = self._hops
        pairings = [
            ((a, b), (c, d)),
            ((a, c), (b, d)),
            ((a, d), (b, c)),
        ]
        sums = [h[p][q] + h[r][s] for (p, q), (r, s) in pairings]
        best = min(range(3), key=lambda i: sums[i])
        assert sums.count(sums[best]) == 1, "binary trees induce a unique minimum"
        return Quartet.of(*pairings[best])

    def cherries(self) -> tuple[tuple[str, str, int], ...]:
        """All cherries as (label, label, interior id), sorted by label pair."""
        found = []
        for v in self.interior_ids:
            leaf_nbrs = sorted(
                self._leaf_label[u] for u in self._adj[v] if u in self._leaf_label
            )
            for x, y in combinations(leaf_nbrs, 2):
                found.append((x, y, v))
        return tuple(sorted(found))

    def remove_leaf(self, x: str) -> "PhyloTree":
        """The tree on X - {x}: drop the leaf, suppress its neighbor.

        The two edges merged at the suppressed vertex have their lengths
        summed, which preserves distances between the remaining leaves.
        """
        if self.n_leaves < 4:
            raise TreeError("cannot remove a leaf from a 3-leaf tree")
        leaf = self.leaf_id(x)
        mid = self._adj[leaf][0]
        p, q = (u for u in self._adj[mid] if u != leaf)

        new_edges = [e for e in self._edges if leaf not in e and mid not in e]
        new_edges.append(_norm_edge(p, q))
        keep = sorted(v for v in self._adj if v not in (leaf, mid))
        remap = {old: new for new, old in enumerate(keep)}

        lengths = None
        if self._lengths is not None:
            lengths = {}
            merged = self.edge_length(p, mid) + self.edge_length(mid, q)
            for u, v in new_edges:
                key = (remap[u], remap[v])
                if _norm_edge(u, v) == _norm_edge(p, q):
                    lengths[key] = merged
                else:
                    lengths[key] = self._lengths[_norm_edge(u, v)]
        labels = {
            remap[v]: lbl for v, lbl in self._leaf_label.items() if v != leaf
        }
        return PhyloTree(
            [(remap[u], remap[v]) for u, v in new_edges], labels, lengths
        )

    def leaf_distances(
        self, pairs: Iterable[tuple[str, str]] | str = "all"
    ) -> DistanceMap:
        """Path-length distances for the requested label pairs.

        Requires edge lengths.  ``pairs`` may be the string ``"all"``.
        """
        if self._lengths is None:
            raise TreeError("leaf_distances requires edge lengths")
        if isinstance(pairs, str):
            if pairs != "all":
                raise TreeError(f"unknown pair selector {pairs!r}")
            wanted = set(combinations(self.labels, 2))
        else:
            wanted = {_norm_pair(a, b) for a, b in pairs}
            for a, b in wanted:
                self.leaf_id(a)
                self.leaf_id(b)
        walks = {a: self._walk_from(a, self._lengths) for a in {a for a, _ in wanted}}
        return DistanceMap({(a, b): walks[a][b] for a, b in wanted})

    # ------------------------------------------------------------------
    # serialization and derived trees
    # ------------------------------------------------------------------

    def to_newick(self, include_lengths: bool | None = None) -> str:
        """Canonical Newick: rooted at the interior vertex adjacent to the
        smallest leaf, children ordered by smallest descendant label."""
        if include_lengths is None:
            include_lengths = self.has_lengths
        if include_lengths and not self.has_lengths:
            raise TreeError("tree has no edge lengths to serialize")

        order, parent, children = self._rooted
        text: dict[int, str] = {}
        for v in reversed(order):
            if v in self._leaf_label:
                text[v] = self._leaf_label[v]
            else:
                text[v] = "(" + ",".join(text.pop(w) for w in children[v]) + ")"
            if include_lengths and parent[v] is not None:
                text[v] += f":{self._lengths[_norm_edge(v, parent[v])]!r}"
        return text[order[0]] + ";"

    def topology_key(self) -> str:
        """Canonical Newick without lengths; equal iff trees are isomorphic."""
        return self.to_newick(include_lengths=False)

    def relabel(self, mapping: Mapping[str, str]) -> "PhyloTree":
        """A copy with leaves renamed through a bijection on labels."""
        if set(mapping) != set(self.labels):
            raise TreeError("relabel mapping must cover exactly the leaf set")
        if len(set(mapping.values())) != len(mapping):
            raise TreeError("relabel mapping must be a bijection")
        labels = {v: mapping[lbl] for v, lbl in self._leaf_label.items()}
        return PhyloTree(self._edges, labels, self._lengths)

    def with_edge_lengths(
        self, lengths: float | Mapping[tuple[int, int], float]
    ) -> "PhyloTree":
        """A copy carrying the given lengths (a scalar applies to every edge)."""
        if isinstance(lengths, (int, float)):
            table = {e: float(lengths) for e in self._edges}
        else:
            table = dict(lengths)
        return PhyloTree(self._edges, self._leaf_label, table)

    def split_lengths(self) -> dict[object, float]:
        """Edge lengths keyed by the leaf bipartition each edge induces.

        Pendant edges are keyed by their leaf label, interior edges by the
        frozenset of labels on the side away from the smallest leaf.  Two
        isomorphic trees have equal maps iff their lengths agree.
        """
        if self._lengths is None:
            raise TreeError("tree has no edge lengths")
        parent = self._rooted[1]
        out: dict[object, float] = {}
        for u, v in self._edges:
            child = u if parent[u] == v else v
            if child in self._leaf_label:
                out[self._leaf_label[child]] = self._lengths[(u, v)]
            else:
                # the first block at a non-root vertex holds the smallest leaf
                _, left, right = self._blocks[child]
                out[frozenset(left + right)] = self._lengths[(u, v)]
        return out

    def __repr__(self) -> str:
        return f"PhyloTree({self.n_leaves} leaves: {','.join(self.labels)})"


# ----------------------------------------------------------------------
# Newick parsing
# ----------------------------------------------------------------------


class _NewickParser:
    """Single-pass parser for trifurcating Newick text.  Open groups live
    on an explicit stack, so nesting depth is not bounded by the
    interpreter's recursion limit; vertex ids are handed out in preorder."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.next_id = 0
        self.edges: list[tuple[int, int]] = []
        self.edge_length: dict[tuple[int, int], float | None] = {}
        self.leaf_labels: dict[int, str] = {}
        self.seen_labels: set[str] = set()

    def error(self, message: str) -> NewickParseError:
        return NewickParseError(message, self.pos)

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def fresh_id(self) -> int:
        v = self.next_id
        self.next_id += 1
        return v

    def parse(self) -> PhyloTree:
        self.skip_ws()
        if self.peek() != "(":
            raise self.error("expected '(' to open the tree")
        self.pos += 1
        # open groups, innermost last: [vertex id, children parsed so far]
        groups = [[self.fresh_id(), 0]]
        while groups:
            self.skip_ws()
            node = self.fresh_id()
            if self.peek() == "(":
                self.pos += 1
                groups.append([node, 0])
                continue
            match = _LABEL_RE.match(self.text, self.pos)
            if not match:
                raise self.error("expected a leaf label or '('")
            label = match.group()
            self.pos = match.end()
            if label in self.seen_labels:
                raise self.error(f"duplicate label {label!r}")
            self.seen_labels.add(label)
            self.leaf_labels[node] = label
            self.add_edge(groups[-1][0], node)
            # close every group that ends after this leaf
            while True:
                groups[-1][1] += 1
                self.skip_ws()
                ch = self.peek()
                if ch == ",":
                    self.pos += 1
                    break
                if ch != ")":
                    raise self.error("expected ',' or ')'")
                self.pos += 1
                node, count = groups.pop()
                if count != (2 if groups else 3):
                    where = "an internal group" if groups else "the root trifurcation"
                    raise self.error(f"non-binary vertex: {where} has {count} children")
                if not groups:
                    break
                self.add_edge(groups[-1][0], node)
        self.skip_ws()
        if self.peek() != ";":
            raise self.error("expected ';' terminator")
        self.pos += 1
        self.skip_ws()
        if self.pos != len(self.text):
            raise self.error("trailing characters after ';'")

        given = [v for v in self.edge_length.values() if v is not None]
        if given and len(given) != len(self.edges):
            raise NewickParseError(
                "mixed edge lengths: every edge must carry a ':length' or none"
            )
        lengths = dict(self.edge_length) if given else None
        return PhyloTree(self.edges, self.leaf_labels, lengths)

    def add_edge(self, parent: int, node: int) -> None:
        """Record the edge above a complete subtree, with its optional length."""
        length = self.parse_optional_length()
        edge = _norm_edge(parent, node)
        self.edges.append(edge)
        self.edge_length[edge] = length

    def parse_optional_length(self) -> float | None:
        self.skip_ws()
        if self.peek() != ":":
            return None
        self.pos += 1
        self.skip_ws()
        match = _NUMBER_RE.match(self.text, self.pos)
        if not match:
            raise self.error("expected a number after ':'")
        value = float(match.group())
        if not value > 0.0:
            raise self.error(f"nonpositive edge length {match.group()}")
        self.pos = match.end()
        return value


def parse_newick(text: str) -> PhyloTree:
    """Parse a ';'-terminated trifurcating Newick string.

    Accepts exactly the unrooted-binary form: a three-child root group,
    two-child internal groups, labels over ``[A-Za-z0-9_.-]``, and either
    a ``:length`` on every edge or on none.
    """
    return _NewickParser(text).parse()


def serialize_newick(tree: PhyloTree, include_lengths: bool | None = None) -> str:
    """Canonical Newick text for ``tree`` (see PhyloTree.to_newick)."""
    return tree.to_newick(include_lengths)


# ----------------------------------------------------------------------
# random generation
# ----------------------------------------------------------------------


def default_labels(n: int) -> tuple[str, ...]:
    """Leaf label scheme for generated trees: a..z, or t001.. beyond 26."""
    if n <= 26:
        return tuple(string.ascii_lowercase[:n])
    width = len(str(n))
    return tuple(f"t{i:0{width}d}" for i in range(1, n + 1))


def _grow_tree(
    labels: Sequence[str], choices: Iterable[int]
) -> tuple[list[tuple[int, int]], dict[int, str]]:
    """Edges and leaf ids of a tree grown one leaf at a time.

    Starts from the star on ``labels[:3]`` (centre 0, leaves 1-3); then
    leaf ``labels[k]`` subdivides edge ``choices[k-3]`` of the k-leaf tree
    with vertex 2k-2 and hangs from it as vertex 2k-1.  The split edge
    keeps its position and the two new edges are appended, so equal
    choices always give equal ids and edge order.
    """
    edges = [(0, 1), (0, 2), (0, 3)]
    leaf_ids = {1: labels[0], 2: labels[1], 3: labels[2]}
    for k, i in enumerate(choices, start=3):
        u, v = edges[i]
        mid, leaf = 2 * k - 2, 2 * k - 1
        edges[i] = _norm_edge(u, mid)
        edges.append(_norm_edge(mid, v))
        edges.append(_norm_edge(mid, leaf))
        leaf_ids[leaf] = labels[k]
    return edges, leaf_ids


def random_tree(
    n: int,
    seed: int,
    length_range: tuple[float, float] | None = None,
) -> PhyloTree:
    """A uniformly random labelled topology on ``n`` leaves.

    Grown by attaching leaf i+1 to a uniformly chosen edge of the i-leaf
    tree, which makes each of the (2n-5)!! labelled topologies equally
    likely.  Deterministic for a fixed seed; lengths, when requested, are
    drawn uniformly from ``length_range`` after the topology is fixed.
    """
    if n < 3:
        raise TreeError(f"need at least 3 leaves, got {n}")
    if length_range is not None:
        lo, hi = (float(length_range[0]), float(length_range[1]))
        if not (0.0 < lo <= hi):
            raise TreeError(f"invalid length range {length_range}")
    rng = random.Random(seed)
    # the k-leaf tree has 2k-3 edges
    choices = [rng.randrange(2 * k - 3) for k in range(3, n)]
    edges, leaf_ids = _grow_tree(default_labels(n), choices)

    lengths = None
    if length_range is not None:
        lo, hi = float(length_range[0]), float(length_range[1])
        lengths = {e: rng.uniform(lo, hi) for e in sorted(edges)}
    return PhyloTree(edges, leaf_ids, lengths)
