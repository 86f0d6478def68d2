"""Exhaustive small-instance enumeration and theorem sweeps.

Pair sets are encoded as bitmasks over the at most C(8,2) = 28 possible
pairs.  For a fixed tree, a subset is a triplet cover iff for every
interior vertex at least one of its transversal triples (precomputed as
a 3-bit mask) is contained in the subset, which turns the cover check
into a handful of vectorized mask comparisons over the whole
combination block at once.

The combination space is processed in contiguous rank chunks whose
results are concatenated in rank order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, islice, product
from math import comb
from typing import Iterator, Sequence

import numpy as np

from .cover import TripletCover, is_minimum
from .shelling import is_shellable
from .tree import PhyloTree, _grow_tree, _norm_pair
from .twotree import is_two_tree

COUNT_LIMIT_DEFAULT = 7
COUNT_LIMIT_HARD = 8
SWEEP_LIMIT = 6

_CHUNK = 1 << 16
_CACHE_LIMIT = 1 << 21  # combination blocks above ~2M masks are streamed, not cached
_mask_cache: dict[tuple[int, int], np.ndarray] = {}


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
        self.bit = {pair: 1 << i for i, pair in enumerate(self.pair_list)}
        self.n_pairs = len(self.pair_list)
        self.vertex_triple_masks: list[list[int]] = []
        for v in tree.interior_ids:
            blocks = tree.components_at(v)
            masks = []
            for a in blocks[0]:
                for b in blocks[1]:
                    for c in blocks[2]:
                        masks.append(
                            self.bit[_norm_pair(a, b)]
                            | self.bit[_norm_pair(a, c)]
                            | self.bit[_norm_pair(b, c)]
                        )
            self.vertex_triple_masks.append(sorted(masks))

    def cover_flags(self, masks: np.ndarray) -> np.ndarray:
        """Boolean array: which subset masks are triplet covers."""
        ok = np.ones(len(masks), dtype=bool)
        for triple_masks in self.vertex_triple_masks:
            supported = np.zeros(len(masks), dtype=bool)
            for t in triple_masks:
                supported |= (masks & t) == t
            ok &= supported
            if not ok.any():
                break
        return ok

    def pairs_of_mask(self, mask: int) -> tuple[tuple[str, str], ...]:
        return tuple(
            pair for i, pair in enumerate(self.pair_list) if mask >> i & 1
        )

    def cover_of_mask(self, mask: int) -> TripletCover:
        return TripletCover(self.pairs_of_mask(mask), self.labels)


def _mask_chunks(n_pairs: int, size: int) -> Iterator[np.ndarray]:
    """All C(n_pairs, size) subset masks, in combination-rank order, as
    contiguous chunks.  Small blocks are cached whole; huge ones (only the
    8-leaf override reaches them) are streamed one chunk at a time."""
    key = (n_pairs, size)
    cached = _mask_cache.get(key)
    if cached is None:
        combos = combinations(range(n_pairs), size)
        total = comb(n_pairs, size)
        if total > _CACHE_LIMIT:
            while True:
                block = list(islice(combos, _CHUNK))
                if not block:
                    return
                yield np.fromiter(
                    (sum(1 << i for i in c) for c in block),
                    dtype=np.int64,
                    count=len(block),
                )
        cached = np.fromiter(
            (sum(1 << i for i in c) for c in combos), dtype=np.int64, count=total
        )
        _mask_cache[key] = cached
    for i in range(0, len(cached), _CHUNK):
        yield cached[i : i + _CHUNK]


def _covers_in(ctx: _PairContext, size: int) -> np.ndarray:
    """Masks of all size-``size`` covers, in rank order."""
    survivors = [
        chunk[ctx.cover_flags(chunk)] for chunk in _mask_chunks(ctx.n_pairs, size)
    ]
    if not survivors:
        return np.empty(0, dtype=np.int64)
    return np.concatenate(survivors)


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
    if not 0 <= size <= ctx.n_pairs:
        raise ValueError(f"size must lie in [0, {ctx.n_pairs}], got {size}")
    return [ctx.cover_of_mask(int(m)) for m in _covers_in(ctx, size)]


def count_minimum_covers(tree: PhyloTree, allow_large: bool = False) -> int:
    """Number of covers of the minimum size 2|X|-3, by exhaustive scan.

    Limited to 7 leaves by default (already 352,716 subsets); pass
    ``allow_large=True`` to permit 8.
    """
    limit = COUNT_LIMIT_HARD if allow_large else COUNT_LIMIT_DEFAULT
    _check_enumeration_size(tree, limit)
    ctx = _PairContext(tree)
    return len(_covers_in(ctx, 2 * tree.n_leaves - 3))


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
        return {
            "tree": self.tree,
            "n": self.n,
            "subsets_examined": self.subsets_examined,
            "covers_at_minimum": self.covers_at_minimum,
            "min_cover_size": self.min_cover_size,
            "counterexamples": list(self.counterexamples),
            "covers_by_size": {str(k): v for k, v in sorted(self.covers_by_size.items())},
            "shellable_at_minimum": self.shellable_at_minimum,
            "larger_sampled": self.larger_sampled,
            "larger_shellable": self.larger_shellable,
        }


def verify_theorems(tree: PhyloTree, sample_limit: int = 50) -> EnumerationReport:
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
    * sampled covers of size 2n-2 fail is_minimum.
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
                if rank < sample_limit:
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
