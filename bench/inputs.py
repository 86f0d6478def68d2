"""Seeded input generation and library-independent output checks.

Everything here uses only the standard library, so the inputs of a
workload depend on the seed alone and never on the version of
``tripletcover`` being measured.  Trees are plain adjacency maps:
``adj[v]`` lists the neighbours of vertex ``v``; leaves are the
vertices in ``labels`` (vertex -> label) and every other vertex has
degree 3.
"""

from __future__ import annotations

import hashlib
import random
from itertools import combinations

LENGTH_RANGE = (0.1, 10.0)
SHAPES = ("rnd", "cat")


class Tree:
    """A generated unrooted binary tree with optional edge lengths."""

    def __init__(self, adj: dict[int, list[int]], labels: dict[int, str], lengths=None):
        self.adj = adj
        self.labels = labels
        self.lengths = lengths  # {(u, v) with u < v: length} or None

    @property
    def leaf_names(self) -> list[str]:
        return sorted(self.labels.values())

    def length(self, u: int, v: int) -> float:
        return self.lengths[(u, v) if u < v else (v, u)]

    def newick(self) -> str:
        """Newick text rooted at an interior vertex, in the form the
        library parses: a three-child root and two-child groups."""
        root = next(v for v in self.adj if v not in self.labels)
        out: list[str] = []
        # explicit stack of pending text and (vertex, parent) frames, so
        # deep caterpillars need no recursion
        stack: list = [(root, None)]
        while stack:
            item = stack.pop()
            if isinstance(item, str):
                out.append(item)
                continue
            v, parent = item
            suffix = ""
            if parent is not None and self.lengths is not None:
                suffix = f":{self.length(v, parent)!r}"
            if v in self.labels:
                out.append(self.labels[v] + suffix)
                continue
            out.append("(")
            stack.append(")" + suffix)
            children = [u for u in self.adj[v] if u != parent]
            for i in reversed(range(len(children))):
                stack.append((children[i], v))
                if i:
                    stack.append(",")
        return "".join(out) + ";"

    def components(self) -> dict[int, list[frozenset[str]]]:
        """For each interior vertex, the leaf sets of its three branches."""
        order = _rooted_order(self)
        below = _leaves_below(self, order)
        everything = frozenset(self.labels.values())
        return {
            v: [below[u] for u in self.adj[v] if u != p] + [everything - below[v]]
            for v, p in order
            if v not in self.labels
        }


def _rooted_order(tree: Tree) -> list[tuple[int, int | None]]:
    """(vertex, parent) pairs in pre-order from the smallest leaf."""
    smallest = min(tree.labels.values())
    root = next(v for v, name in tree.labels.items() if name == smallest)
    order, stack = [], [(root, None)]
    while stack:
        v, p = stack.pop()
        order.append((v, p))
        stack.extend((u, v) for u in tree.adj[v] if u != p)
    return order


def _leaves_below(tree: Tree, order) -> dict[int, frozenset[str]]:
    below: dict[int, frozenset[str]] = {}
    for v, p in reversed(order):
        if v in tree.labels:
            below[v] = frozenset((tree.labels[v],))
        else:
            below[v] = frozenset().union(*(below[u] for u in tree.adj[v] if u != p))
    return below


def _random_topology(rng: random.Random, n: int) -> dict[int, list[int]]:
    """Uniform labelled topology: attach each new leaf to a uniform edge."""
    edges = [(0, 1), (0, 2), (0, 3)]
    nxt = 4
    for _ in range(3, n):
        i = rng.randrange(len(edges))
        u, v = edges[i]
        mid, leaf = nxt, nxt + 1
        nxt += 2
        edges[i] = (u, mid)
        edges.extend(((mid, v), (mid, leaf)))
    return _adjacency(edges)


def _caterpillar(n: int) -> dict[int, list[int]]:
    """Spine of n-2 interior vertices, one leaf on each, two at each end."""
    spine = list(range(n - 2))
    leaf = n - 2
    edges = [(spine[i], spine[i + 1]) for i in range(n - 3)]
    for s in spine:
        edges.append((s, leaf))
        leaf += 1
    edges.extend(((spine[0], leaf), (spine[-1], leaf + 1)))
    return _adjacency(edges)


def _adjacency(edges) -> dict[int, list[int]]:
    adj: dict[int, list[int]] = {}
    for u, v in edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    return adj


def make_tree(rng: random.Random, n: int, shape: str, lengths: bool = True) -> Tree:
    """A tree of the given shape on n leaves with shuffled labels and,
    if asked, edge lengths drawn uniformly from LENGTH_RANGE."""
    adj = _random_topology(rng, n) if shape == "rnd" else _caterpillar(n)
    leaves = sorted(v for v in adj if len(adj[v]) == 1)
    width = len(str(n))
    names = [f"x{i:0{width}d}" for i in range(n)]
    rng.shuffle(names)
    labels = dict(zip(leaves, names))
    table = None
    if lengths:
        lo, hi = LENGTH_RANGE
        table = {
            (u, v): rng.uniform(lo, hi)
            for u in sorted(adj)
            for v in adj[u]
            if u < v
        }
    return Tree(adj, labels, table)


def all_topologies(names: list[str]) -> list[Tree]:
    """Every labelled unrooted binary topology on ``names``, without lengths."""
    states = [[(0, 1), (0, 2), (0, 3)]]
    for _ in range(3, len(names)):
        grown = []
        for edges in states:
            nxt = len(edges) + 1  # a tree with |E| edges has |E| + 1 vertices
            for i, (u, v) in enumerate(edges):
                new = list(edges)
                new[i] = (u, nxt)
                new.extend(((nxt, v), (nxt, nxt + 1)))
                grown.append(new)
        states = grown
    trees = []
    for edges in states:
        adj = _adjacency(edges)
        leaves = sorted(v for v in adj if len(adj[v]) == 1)
        trees.append(Tree(adj, dict(zip(leaves, names))))
    return trees


def n_cherries(tree: Tree) -> int:
    return sum(
        1
        for v, nbrs in tree.adj.items()
        if v not in tree.labels and sum(u in tree.labels for u in nbrs) >= 2
    )


# ----------------------------------------------------------------------
# pair sets
# ----------------------------------------------------------------------


def _pair(a: str, b: str) -> tuple[str, str]:
    return (a, b) if a < b else (b, a)


def pairs_text(pairs) -> str:
    return "".join(f"{a} {b}\n" for a, b in sorted(pairs))


def per_vertex_pairs(tree: Tree) -> set[tuple[str, str]]:
    """The smallest leaf of each branch at every interior vertex, paired."""
    out = set()
    for blocks in tree.components().values():
        reps = sorted(min(block) for block in blocks)
        out.update(_pair(a, b) for a, b in combinations(reps, 2))
    return out


def cherry_cover_pairs(tree: Tree) -> set[tuple[str, str]]:
    """A cover of the minimum size 2n-3, by cherry induction: peel the
    smallest cherry down to three leaves, then add back each peeled leaf
    x (cherry partner y) with the pairs xy and xb, where yb is the
    smallest pair at y."""
    adj = {v: set(nbrs) for v, nbrs in tree.adj.items()}
    leaf = dict(tree.labels)
    removals = []
    while len(leaf) > 3:
        x, y = min(
            _pair(leaf[a], leaf[b])
            for v in adj
            if v not in leaf
            for a, b in combinations(sorted(u for u in adj[v] if u in leaf), 2)
        )
        removals.append((x, y))
        xv = next(v for v, name in leaf.items() if name == x)
        (mid,) = adj.pop(xv)
        del leaf[xv]
        p, q = (u for u in adj.pop(mid) if u != xv)
        adj[p].discard(mid)
        adj[q].discard(mid)
        adj[p].add(q)
        adj[q].add(p)
    pairs = {_pair(a, b) for a, b in combinations(sorted(leaf.values()), 2)}
    for x, y in reversed(removals):
        yb = min(p for p in pairs if y in p)
        b = yb[0] if yb[1] == y else yb[1]
        pairs.add(_pair(x, y))
        pairs.add(_pair(x, b))
    return pairs


def supported_by(tree_components, pairs) -> tuple[int, set[tuple[str, str]]]:
    """The number of interior vertices that ``pairs`` leaves unsupported,
    and the indispensable pairs: those lying in every supporting
    triangle of some vertex.  A cover is minimal iff all its pairs are
    indispensable."""
    nbr: dict[str, set[str]] = {}
    for a, b in pairs:
        nbr.setdefault(a, set()).add(b)
        nbr.setdefault(b, set()).add(a)
    unsupported = 0
    indispensable: set[tuple[str, str]] = set()
    for first, second, third in tree_components.values():
        common = None
        for a in first:
            for b in nbr.get(a, set()) & second:
                for c in nbr[a] & nbr[b] & third:
                    tri = {_pair(a, b), _pair(a, c), _pair(b, c)}
                    common = tri if common is None else common & tri
        if common is None:
            unsupported += 1
        else:
            indispensable |= common
    return unsupported, indispensable


# ----------------------------------------------------------------------
# reading the library's Newick output back
# ----------------------------------------------------------------------


def parse_splits(text: str) -> dict[frozenset[str], float]:
    """``tree_splits`` of the tree a Newick string with lengths describes."""
    return tree_splits(Tree(*_parse(text)))


def tree_splits(tree: Tree) -> dict[frozenset[str], float]:
    """Edge lengths keyed by the leaf set on the side of the edge away
    from the smallest label."""
    order = _rooted_order(tree)
    below = _leaves_below(tree, order)
    return {
        below[v]: tree.length(v, p)
        for v, p in order
        if p is not None
    }


def _parse(text: str):
    text = text.strip()
    if not text.endswith(";"):
        raise ValueError("Newick text must end with ';'")
    adj: dict[int, list[int]] = {}
    labels: dict[int, str] = {}
    lengths: dict[tuple[int, int], float] = {}
    parent_of: dict[int, int] = {}
    stack: list[int] = []
    last = None
    nxt = 0
    i = 0
    body = text[:-1]
    while i < len(body):
        ch = body[i]
        if ch == "(":
            v = nxt
            nxt += 1
            adj[v] = []
            if stack:
                _link(adj, parent_of, stack[-1], v)
            stack.append(v)
            i += 1
        elif ch == ")":
            last = stack.pop()
            i += 1
        elif ch == ",":
            i += 1
        elif ch == ":":
            j = i + 1
            while j < len(body) and body[j] not in ",():":
                j += 1
            u = parent_of[last]
            lengths[(u, last) if u < last else (last, u)] = float(body[i + 1 : j])
            i = j
        else:
            j = i
            while j < len(body) and body[j] not in ",():":
                j += 1
            v = nxt
            nxt += 1
            adj[v] = []
            labels[v] = body[i:j]
            _link(adj, parent_of, stack[-1], v)
            last = v
            i = j
    return adj, labels, lengths


def _link(adj, parent_of, parent: int, child: int) -> None:
    adj[parent].append(child)
    adj[child].append(parent)
    parent_of[child] = parent


def same_splits(expected, got, tol: float) -> bool:
    """Same topology, and every edge length within ``tol``."""
    return set(expected) == set(got) and all(
        abs(expected[k] - got[k]) <= tol for k in expected
    )


def digest(texts) -> str:
    """Short SHA-256 of a sequence of input texts, in order."""
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode("utf-8"))
        h.update(b"\0")
    return h.hexdigest()[:16]
