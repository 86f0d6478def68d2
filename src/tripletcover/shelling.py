"""Shelling closures, distance completion, and exact tree reconstruction.

A missing pair ab is *derivable* from a set of known pairs when two
witnesses x, y exist such that the tree restricted to {a, b, x, y} is
the quartet xa|yb and the five other pairs over that quartet are all
known.  In that situation the four-point equality pins down the
distance: d(a,b) = d(a,y) + d(b,x) - d(x,y).

The quartet is read off the tree's table of edge counts h by the strict
four-point inequality: the tree restricts to xa|yb exactly when
h(a,x) + h(b,y) < min(h(a,b) + h(x,y), h(a,y) + h(b,x)).

The closure greedily saturates the known set.  Derivability is monotone
in the known set, so the fixpoint (and hence the residual) does not
depend on the scan order; the lexicographic scan below only fixes which
trace is produced.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator

from .cover import TripletCover, _require_cover
from .tree import DistanceMap, PhyloTree, Quartet, _norm_pair


class NotShellableError(ValueError):
    """Closure left some pairs unreachable; carries the residual set."""

    def __init__(self, residual: Iterable[tuple[str, str]]):
        self.residual = tuple(sorted(residual))
        super().__init__(
            f"set is not shellable for this tree; residual pairs {list(self.residual)}"
        )


class NotAdditiveError(ValueError):
    """Distances cannot be realized by a positive-length binary tree."""


@dataclass(frozen=True)
class ShellingStep:
    """One derived pair with the witnesses that force it.

    ``witness_x`` sides with ``pair[0]`` and ``witness_y`` with
    ``pair[1]``: the tree restricted to the four leaves is the quartet
    ``witness_x pair[0] | witness_y pair[1]``.
    """

    pair: tuple[str, str]
    witness_x: str
    witness_y: str
    quartet: Quartet

    def prerequisite_pairs(self) -> tuple[tuple[str, str], ...]:
        a, b = self.pair
        x, y = self.witness_x, self.witness_y
        return tuple(
            sorted(
                (
                    _norm_pair(a, x),
                    _norm_pair(a, y),
                    _norm_pair(b, x),
                    _norm_pair(b, y),
                    _norm_pair(x, y),
                )
            )
        )

    def to_dict(self) -> dict:
        return {
            "pair": list(self.pair),
            "x": self.witness_x,
            "y": self.witness_y,
            "quartet": str(self.quartet),
        }


@dataclass(frozen=True)
class ShellingTrace:
    """The ordered steps of a closure run, replayable from the cover."""

    steps: tuple[ShellingStep, ...]

    def pairs(self) -> tuple[tuple[str, str], ...]:
        return tuple(step.pair for step in self.steps)

    def to_json(self) -> list[dict]:
        return [step.to_dict() for step in self.steps]

    def validate(self, tree: PhyloTree, cover: TripletCover) -> bool:
        """Replay: each step's five prerequisite pairs must already be
        known and its quartet must match the tree restriction."""
        known = set(cover.pairs)
        for step in self.steps:
            if step.pair in known:
                return False
            if any(p not in known for p in step.prerequisite_pairs()):
                return False
            a, b = step.pair
            x, y = step.witness_x, step.witness_y
            actual = tree.quartet_topology(a, b, x, y)
            if actual.split() != {frozenset((x, a)), frozenset((y, b))}:
                return False
            if step.quartet != actual:
                return False
            known.add(step.pair)
        return True

    def __len__(self) -> int:
        return len(self.steps)

    def __iter__(self) -> Iterator[ShellingStep]:
        return iter(self.steps)


def find_witness(
    tree: PhyloTree, known: set[tuple[str, str]], a: str, b: str
) -> tuple[str, str] | None:
    """First witness pair (x, y), scanning lexicographically, such that the
    tree restricts to xa|yb on {a,b,x,y} and the other five pairs are in
    ``known``.  Returns None when the pair is not yet derivable."""
    return _witness(tree, _partner_sets(tree.labels, known), a, b)


def _partner_sets(labels: tuple[str, ...], known: set) -> dict[str, set[str]]:
    """Each leaf's partners: the leaves it forms a sorted pair in ``known`` with."""
    partners: dict[str, set[str]] = {z: set() for z in labels}
    for a, b in known:
        if a < b and a in partners and b in partners:
            partners[a].add(b)
            partners[b].add(a)
    return partners


def _witness(
    tree: PhyloTree, partners: dict[str, set[str]], a: str, b: str
) -> tuple[str, str] | None:
    h = tree._hops
    ha, hb = h[a], h[b]
    both = sorted(partners[a] & partners[b])
    for x in both:
        hx, px = h[x], partners[x]
        for y in both:
            # xa|yb is the strictly smallest of the three pair sums
            if y != x and ha[x] + hb[y] < min(ha[b] + hx[y], ha[y] + hb[x]):
                if y in px:
                    return (x, y)
    return None


def shelling_closure(
    tree: PhyloTree, cover: TripletCover, require_cover: bool = True
) -> tuple[ShellingTrace, frozenset[tuple[str, str]]]:
    """Greedy saturation of the missing pairs.

    Repeatedly scans the missing pairs in lexicographic order for one
    that is derivable, appends it, and stops at a fixpoint.  Returns the
    trace plus the residual; an empty residual means the set is
    shellable for the tree.
    """
    if require_cover:
        _require_cover(tree, cover)
    known = set(cover.pairs)
    partners = _partner_sets(tree.labels, known)
    missing = [p for p in combinations(tree.labels, 2) if p not in known]
    steps: list[ShellingStep] = []
    while missing:
        hit = None
        for a, b in missing:
            witness = _witness(tree, partners, a, b)
            if witness is not None:
                hit = ((a, b), witness)
                break
        if hit is None:
            break
        (a, b), (x, y) = hit
        steps.append(
            ShellingStep(
                pair=(a, b),
                witness_x=x,
                witness_y=y,
                quartet=Quartet.of((a, x), (b, y)),
            )
        )
        partners[a].add(b)
        partners[b].add(a)
        missing.remove((a, b))
    return ShellingTrace(tuple(steps)), frozenset(missing)


def is_shellable(tree: PhyloTree, cover: TripletCover) -> bool:
    """Whether closure reaches every pair.  Runs without the cover
    precondition so that arbitrary pair sets can be probed."""
    _, residual = shelling_closure(tree, cover, require_cover=False)
    return not residual


def complete_distances(
    tree: PhyloTree, cover: TripletCover, partial: DistanceMap
) -> DistanceMap:
    """Extend distances given on exactly the cover's pairs to all pairs.

    Each closure step fixes one value through the four-point equality;
    when the input distances are additive on the tree every witness
    yields the same number, and the output equals the true leaf metric.
    Inputs are not checked for additivity here; reconstruct_tree is the
    validation site.
    """
    given = set(partial.pairs())
    expected = set(cover.pairs)
    if given != expected:
        missing = sorted(expected - given)
        extra = sorted(given - expected)
        raise ValueError(
            f"partial distances must cover exactly the cover pairs; "
            f"missing={missing}, extra={extra}"
        )
    trace, residual = shelling_closure(tree, cover, require_cover=False)
    if residual:
        raise NotShellableError(residual)
    values = dict(partial.items())
    for step in trace:
        a, b = step.pair
        x, y = step.witness_x, step.witness_y
        values[step.pair] = (
            values[_norm_pair(a, y)]
            + values[_norm_pair(b, x)]
            - values[_norm_pair(x, y)]
        )
    return DistanceMap(values)


def reconstruct_tree(
    full: DistanceMap, labels: Iterable[str], tolerance: float = 1e-9
) -> PhyloTree:
    """The unique positive-length binary tree realizing an additive metric.

    Works by iterative cherry extraction: a pair (i, j) of active nodes
    is a cherry iff d(i,k) - d(j,k) is the same for every other k; the
    cherry is replaced by its attachment vertex and the metric reduced
    exactly.  Raises NotAdditiveError when no cherry exists, when an
    implied edge length is not strictly positive, or when the rebuilt
    tree fails to reproduce the input within ``tolerance``, and
    ValueError unless ``tolerance`` is finite and nonnegative.
    """
    if not 0.0 <= tolerance < math.inf:
        raise ValueError(f"tolerance must be finite and >= 0, got {tolerance!r}")
    names = sorted(set(labels))
    if len(names) < 3:
        raise ValueError("reconstruction needs at least three labels")
    wanted = {_norm_pair(a, b) for a, b in combinations(names, 2)}
    have = set(full.pairs())
    if wanted - have:
        raise ValueError(f"distances missing for pairs {sorted(wanted - have)}")
    if have - wanted:
        raise ValueError(f"distances given for unknown pairs {sorted(have - wanted)}")

    # node ids: leaves in label order, then attachment vertices; d[i][k] == d[k][i]
    leaf_ids = {name: i for i, name in enumerate(names)}
    d: list[dict[int, float]] = [{} for _ in names]
    for (a, b), value in full.items():
        d[leaf_ids[a]][leaf_ids[b]] = d[leaf_ids[b]][leaf_ids[a]] = value
    active = list(range(len(names)))
    edges: list[tuple[int, int]] = []
    lengths: dict[tuple[int, int], float] = {}

    while len(active) > 3:
        for i, j in combinations(active, 2):
            gaps = [d[i][k] - d[j][k] for k in active if k != i and k != j]
            if max(gaps) - min(gaps) <= tolerance:
                break
        else:
            raise NotAdditiveError(
                "no cherry found: distances violate the four-point condition"
            )
        k0 = next(k for k in active if k != i and k != j)
        li = (d[i][j] + d[i][k0] - d[j][k0]) / 2.0
        lj = d[i][j] - li
        if li <= tolerance or lj <= tolerance:
            raise NotAdditiveError(
                f"implied nonpositive edge length ({li!r} / {lj!r})"
            )
        # m outnumbers every id so far, so appending it keeps active sorted
        m = len(d)
        d.append({})
        edges.append((m, i))
        edges.append((m, j))
        lengths[(i, m)] = li
        lengths[(j, m)] = lj
        active.remove(i)
        active.remove(j)
        for k in active:
            d[m][k] = d[k][m] = (d[i][k] + d[j][k] - d[i][j]) / 2.0
        active.append(m)

    i, j, k = active
    center = len(d)
    for tip, other1, other2 in ((i, j, k), (j, i, k), (k, i, j)):
        pendant = (d[tip][other1] + d[tip][other2] - d[other1][other2]) / 2.0
        if pendant <= tolerance:
            raise NotAdditiveError(
                f"implied nonpositive edge length ({pendant!r}) at the final vertex"
            )
        edges.append((center, tip))
        lengths[(tip, center)] = pendant

    tree = PhyloTree(edges, {v: name for name, v in leaf_ids.items()}, lengths)
    rebuilt = tree.leaf_distances("all")
    deviation = rebuilt.max_difference(full)
    if deviation > tolerance:
        raise NotAdditiveError(
            f"distances are not additive: max deviation {deviation!r} "
            f"exceeds tolerance {tolerance!r}"
        )
    return tree

