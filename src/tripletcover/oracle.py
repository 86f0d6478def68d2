"""Exhaustive small-instance enumeration and theorem sweeps.

Pair sets are encoded as bitmasks over the at most C(8,2) = 28 possible
pairs.  Pair i of ``combinations(labels, 2)`` is bit m-1-i, where m is
the number of pairs, so the lexicographic (combination-rank) order of
the subsets of one size is descending mask order.  For a fixed tree, a
subset is a triplet cover iff for every interior vertex at least one of
its transversal triples (precomputed as a 3-bit mask) is contained in
the subset, which turns the cover check into a handful of vectorized
mask comparisons over a whole chunk of subsets at once.

The subsets of one size are generated in chunks, one for each value H
of the bits above the lowest ``_LOW_BITS``, in descending order of H: the
chunk is H joined with every subset of the low bits that completes the
size, laid out once per process in descending order.  Chunks therefore
come in rank order, and none holds more than C(18, 9) = 48,620 masks.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from functools import cache
from itertools import combinations, product
from math import comb
from typing import Iterator, Sequence

import numpy as np

from .cover import TripletCover, is_minimum
from .shelling import is_shellable
from .tree import PhyloTree, _grow_tree
from .twotree import is_two_tree

COUNT_LIMIT_DEFAULT = 7
COUNT_LIMIT_HARD = 8
SWEEP_LIMIT = 6
SAMPLE_LIMIT = 50  # covers of size 2n-2 that verify_theorems also tests in full

_LOW_BITS = 18


def enumerate_trees(labels: Sequence[str]) -> Iterator[PhyloTree]:
    """Every labelled topology on the given leaves, exactly once.

    Builds by attaching each successive label to every edge of every
    smaller tree, which yields all (2n-5)!! labelled topologies.
    """
    if len(labels) < 3:
        raise ValueError("need at least 3 labels")
    # the k-leaf tree has 2k-3 edges to attach leaf k+1 to
    for choices in product(*(range(2 * k - 3) for k in range(3, len(labels)))):
        yield PhyloTree(*_grow_tree(labels, choices))


class _PairContext:
    """Per-tree bitmask tables for the enumeration hot path."""

    def __init__(self, tree: PhyloTree):
        self.tree = tree
        self.labels = tree.labels
        self.pair_list = list(combinations(self.labels, 2))
        self.n_pairs = len(self.pair_list)
        bit: dict[str, dict[str, int]] = {z: {} for z in self.labels}
        for i, (a, b) in enumerate(self.pair_list):
            bit[a][b] = bit[b][a] = 1 << (self.n_pairs - 1 - i)
        self.vertex_triple_masks = [
            [bit[a][b] | bit[a][c] | bit[b][c] for a in xs for b in ys for c in zs]
            for xs, ys, zs in map(tree.components_at, tree.interior_ids)
        ]

    def covers(self, masks: np.ndarray) -> np.ndarray:
        """The subset masks that are triplet covers, in their given order."""
        for triple_masks in self.vertex_triple_masks:
            supported = np.zeros(len(masks), dtype=bool)
            for t in triple_masks:
                supported |= (masks & t) == t
            masks = masks[supported]
        return masks

    def pairs_of_mask(self, mask: int) -> tuple[tuple[str, str], ...]:
        top = self.n_pairs - 1
        return tuple(
            pair for i, pair in enumerate(self.pair_list) if mask >> (top - i) & 1
        )

    def cover_of_mask(self, mask: int) -> TripletCover:
        return TripletCover(self.pairs_of_mask(mask), self.labels)


@cache
def _low_rows(low: int) -> tuple[np.ndarray, ...]:
    """Every subset of the lowest ``low`` bits; entry j holds those of
    size j in descending order.  Read-only, shared by all callers."""
    empty = np.empty(0, dtype=np.int64)
    rows = [np.zeros(1, dtype=np.int64)]
    for i in range(low):
        # bit i is the highest so far: the subsets holding it come first
        padded = [empty, *rows, empty]
        rows = [np.concatenate((padded[j] | 1 << i, padded[j + 1])) for j in range(i + 2)]
    for row in rows:
        row.flags.writeable = False
    return tuple(rows)


def _mask_chunks(n_pairs: int, size: int) -> Iterator[np.ndarray]:
    """All C(n_pairs, size) subset masks, in combination-rank order
    (descending), as one chunk per value of the bits above the low ones."""
    low = min(n_pairs, _LOW_BITS)
    rows = _low_rows(low)
    for high in range((1 << (n_pairs - low)) - 1, -1, -1):
        rest = size - high.bit_count()
        if 0 <= rest <= low:
            yield (high << low) | rows[rest]


def _covers_in(ctx: _PairContext, size: int) -> np.ndarray:
    """Masks of all size-``size`` covers, in rank order."""
    if not 0 <= size <= ctx.n_pairs:
        raise ValueError(f"size must lie in [0, {ctx.n_pairs}], got {size}")
    return np.concatenate(
        [ctx.covers(chunk) for chunk in _mask_chunks(ctx.n_pairs, size)]
    )


def _check_enumeration_size(tree: PhyloTree, limit: int) -> None:
    n = tree.n_leaves
    if not 3 <= n <= limit:
        raise ValueError(
            f"enumeration supports 3 <= |X| <= {limit} leaves, got {n}"
        )


def enumerate_covers(tree: PhyloTree, size: int) -> list[TripletCover]:
    """All triplet covers of exactly ``size`` pairs, in combination-rank
    order.  Supported for trees with up to 8 leaves."""
    _check_enumeration_size(tree, COUNT_LIMIT_HARD)
    ctx = _PairContext(tree)
    return [ctx.cover_of_mask(int(m)) for m in _covers_in(ctx, size)]


def _count_covers(tree: PhyloTree, size: int, allow_large: bool = False) -> int:
    """Number of covers of exactly ``size`` pairs, counted on the masks
    alone; limited to 7 leaves, or 8 with ``allow_large``."""
    _check_enumeration_size(tree, COUNT_LIMIT_HARD if allow_large else COUNT_LIMIT_DEFAULT)
    return len(_covers_in(_PairContext(tree), size))


def count_minimum_covers(tree: PhyloTree, allow_large: bool = False) -> int:
    """Number of covers of the minimum size 2|X|-3, by exhaustive scan.

    Limited to 7 leaves by default (already 352,716 subsets); pass
    ``allow_large=True`` to permit 8.
    """
    return _count_covers(tree, 2 * tree.n_leaves - 3, allow_large)


@dataclass
class EnumerationReport:
    """Result of one exhaustive sweep over a single tree."""

    tree: str
    n: int
    subsets_examined: int
    covers_at_minimum: int
    min_cover_size: int | None
    counterexamples: tuple[str, ...]
    covers_by_size: dict[int, int] = field(default_factory=dict)
    shellable_at_minimum: int = 0
    larger_sampled: int = 0
    larger_shellable: int = 0

    def to_dict(self) -> dict:
        d = asdict(self)  # keys in field order
        d["counterexamples"] = list(self.counterexamples)
        d["covers_by_size"] = {str(k): v for k, v in sorted(self.covers_by_size.items())}
        return d


def verify_theorems(tree: PhyloTree) -> EnumerationReport:
    """Brute-force check of the size bound, the 2-tree characterization,
    the minimum-multiplicity value, and shellability on one tree.

    Enumerates every subset of size up to 2n-2.  Expected outcome, with
    any deviation recorded as a counterexample string:

    * no cover has fewer than 2n-3 pairs (sizes below need not be
      scanned beyond 2n-4 thanks to monotonicity, but all are);
    * every cover of size 2n-3 has a 2-tree cover graph with a replaying
      elimination order, minimum multiplicity exactly 2, and is
      shellable;
    * no enumerated cover of any other size has a 2-tree cover graph;
    * the first ``SAMPLE_LIMIT`` covers of size 2n-2 fail is_minimum.
    """
    _check_enumeration_size(tree, SWEEP_LIMIT)
    n = tree.n_leaves
    target = 2 * n - 3
    ctx = _PairContext(tree)
    counterexamples: list[str] = []
    covers_by_size: dict[int, int] = {}
    subsets_examined = 0
    min_cover_size: int | None = None
    covers_at_minimum = 0
    shellable_at_minimum = 0
    larger_sampled = 0
    larger_shellable = 0

    def note(problem: str) -> None:
        if len(counterexamples) < 20:
            counterexamples.append(problem)

    for size in range(1, min(target + 2, ctx.n_pairs + 1)):
        subsets_examined += comb(ctx.n_pairs, size)
        cover_masks = _covers_in(ctx, size)
        covers_by_size[size] = len(cover_masks)
        if len(cover_masks) and min_cover_size is None:
            min_cover_size = size
        if size < target:
            for m in cover_masks[:20]:
                note(
                    f"size-{size} cover below the 2n-3 bound: "
                    f"{ctx.pairs_of_mask(int(m))}"
                )
            continue
        if size == target:
            covers_at_minimum = len(cover_masks)
            for m in cover_masks:
                cov = ctx.cover_of_mask(int(m))
                graph = cov.cover_graph()
                order = is_two_tree(graph)
                if order is None:
                    note(f"minimum cover with non-2-tree graph: {cov.pairs}")
                elif not order.validate(graph):
                    note(f"elimination order fails to replay: {cov.pairs}")
                if cov.min_multiplicity() != 2:
                    note(
                        f"minimum cover with min multiplicity "
                        f"{cov.min_multiplicity()}: {cov.pairs}"
                    )
                if is_shellable(tree, cov):
                    shellable_at_minimum += 1
                else:
                    note(f"minimum cover not shellable: {cov.pairs}")
        else:
            for rank, m in enumerate(cover_masks):
                cov = ctx.cover_of_mask(int(m))
                if is_two_tree(cov.cover_graph()) is not None:
                    note(f"size-{size} cover with a 2-tree graph: {cov.pairs}")
                if rank < SAMPLE_LIMIT:
                    larger_sampled += 1
                    if is_minimum(tree, cov):
                        note(f"size-{size} cover classified minimum: {cov.pairs}")
                    if is_shellable(tree, cov):
                        larger_shellable += 1

    return EnumerationReport(
        tree=tree.topology_key(),
        n=n,
        subsets_examined=subsets_examined,
        covers_at_minimum=covers_at_minimum,
        min_cover_size=min_cover_size,
        counterexamples=tuple(counterexamples),
        covers_by_size=covers_by_size,
        shellable_at_minimum=shellable_at_minimum,
        larger_sampled=larger_sampled,
        larger_shellable=larger_shellable,
    )
