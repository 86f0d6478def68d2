"""Exhaustive enumeration: tree generation, cover counting, theorem sweeps."""

from itertools import combinations

import pytest

from tripletcover import (
    count_minimum_covers,
    enumerate_covers,
    enumerate_trees,
    is_triplet_cover,
    parse_newick,
    random_tree,
    verify_theorems,
)

QUARTET = parse_newick("((a,b),c,d);")


class TestEnumerateTrees:
    @pytest.mark.parametrize("n,expected", [(3, 1), (4, 3), (5, 15), (6, 105)])
    def test_double_factorial_counts(self, n, expected):
        labels = "abcdefgh"[:n]
        trees = list(enumerate_trees(labels))
        assert len(trees) == expected
        keys = {t.topology_key() for t in trees}
        assert len(keys) == expected  # no labelled topology repeats

    def test_covers_all_random_topologies(self):
        keys = {t.topology_key() for t in enumerate_trees("abcde")}
        sampled = {random_tree(5, seed).topology_key() for seed in range(500)}
        assert sampled <= keys
        assert sampled == keys  # 500 draws hit all 15 with overwhelming margin


class TestEnumerateCovers:
    def test_quartet_has_no_cover_below_bound(self):
        assert enumerate_covers(QUARTET, 4) == []

    def test_quartet_covers_at_bound(self):
        covers = enumerate_covers(QUARTET, 5)
        assert len(covers) == 4
        # ab and cd are forced; each cover omits one of ac, ad, bc, bd
        for cover in covers:
            assert ("a", "b") in cover and ("c", "d") in cover
        omitted = {
            (set(combinations("abcd", 2)) - set(c.pairs)).pop() for c in covers
        }
        assert omitted == {("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")}

    def test_three_leaf(self):
        t = parse_newick("(a,b,c);")
        covers = enumerate_covers(t, 3)
        assert len(covers) == 1
        assert covers[0].pairs == (("a", "b"), ("a", "c"), ("b", "c"))

    def test_agrees_with_direct_cover_check(self, five_leaf):
        # independent route: test every 7-subset with the library predicate
        from tripletcover import TripletCover

        direct = [
            subset
            for subset in combinations(combinations(five_leaf.labels, 2), 7)
            if is_triplet_cover(five_leaf, TripletCover(subset, five_leaf.labels))
        ]
        enumerated = [c.pairs for c in enumerate_covers(five_leaf, 7)]
        assert sorted(direct) == sorted(enumerated)

    def test_range_guard(self):
        big = random_tree(9, 0)
        with pytest.raises(ValueError):
            enumerate_covers(big, 15)


class TestCountMinimumCovers:
    def test_known_counts(self, frozen_counts):
        t3 = parse_newick("(a,b,c);")
        assert count_minimum_covers(t3) == frozen_counts[
            "three_leaf_minimum_cover_count"
        ]["value"]
        assert count_minimum_covers(QUARTET) == frozen_counts[
            "quartet_minimum_cover_count"
        ]["value"]

    def test_five_leaf_frozen_and_stable(self, five_leaf, frozen_counts):
        expected = frozen_counts["five_leaf_minimum_cover_count"]["value"]
        assert count_minimum_covers(five_leaf) == expected
        assert count_minimum_covers(five_leaf) == expected  # re-run

    def test_invariant_under_relabeling(self, five_leaf, frozen_counts):
        expected = frozen_counts["five_leaf_minimum_cover_count"]["value"]
        for perm in (
            {"a": "b", "b": "a", "c": "c", "d": "d", "e": "e"},  # automorphism
            {"a": "d", "b": "e", "c": "c", "d": "a", "e": "b"},  # automorphism
            {"a": "e", "b": "c", "c": "a", "d": "b", "e": "d"},  # arbitrary bijection
        ):
            assert count_minimum_covers(five_leaf.relabel(perm)) == expected

    def test_automorphism_preserves_cover_set(self, five_leaf):
        perm = {"a": "b", "b": "a", "c": "c", "d": "e", "e": "d"}
        originals = {c.pairs for c in enumerate_covers(five_leaf, 7)}
        relabeled = {
            tuple(sorted(tuple(sorted((perm[a], perm[b]))) for a, b in c))
            for c in originals
        }
        assert relabeled == originals

    def test_eight_leaf_frozen(self, caterpillar8, frozen_counts):
        expected = frozen_counts["caterpillar8_minimum_cover_count"]["value"]
        assert count_minimum_covers(caterpillar8, allow_large=True) == expected

    def test_size_guard_without_override(self):
        with pytest.raises(ValueError):
            count_minimum_covers(random_tree(8, 0))


class TestVerifyTheorems:
    def test_five_leaf_clean(self, five_leaf, frozen_counts):
        report = verify_theorems(five_leaf)
        assert report.counterexamples == ()
        assert report.min_cover_size == 7
        assert (
            report.covers_at_minimum
            == frozen_counts["five_leaf_minimum_cover_count"]["value"]
        )
        assert report.shellable_at_minimum == report.covers_at_minimum

    def test_quartet_clean(self):
        report = verify_theorems(QUARTET)
        assert report.counterexamples == ()
        assert report.covers_at_minimum == 4
        assert report.min_cover_size == 5

    def test_report_dict_shape(self):
        report = verify_theorems(QUARTET).to_dict()
        assert {
            "tree",
            "n",
            "subsets_examined",
            "covers_at_minimum",
            "min_cover_size",
            "counterexamples",
        } <= set(report)

    def test_rejects_large_trees(self):
        with pytest.raises(ValueError):
            verify_theorems(random_tree(7, 0))


def reference_masks(m, size):
    """Subsets of size ``size`` in combination-rank order, pair i as bit m-1-i."""
    return [sum(1 << (m - 1 - i) for i in c) for c in combinations(range(m), size)]


class TestMaskGenerator:
    @pytest.mark.parametrize("low_bits", [0, 1, 3, None])
    def test_matches_combinations(self, low_bits, monkeypatch):
        import numpy as np

        import tripletcover.oracle as oracle

        if low_bits is not None:
            monkeypatch.setattr(oracle, "_LOW_BITS", low_bits)
        for m in range(13):
            for size in range(m + 1):
                chunks = list(oracle._mask_chunks(m, size))
                assert np.concatenate(chunks).tolist() == reference_masks(m, size)

    def test_low_layout_is_read_only(self):
        import tripletcover.oracle as oracle

        for row in oracle._low_rows(5):
            assert not row.flags.writeable


class TestThreads:
    def test_chunked_run_matches_sequential(self, five_leaf, monkeypatch):
        import tripletcover.oracle as oracle

        sequential = count_minimum_covers(five_leaf)
        baseline = [c.pairs for c in enumerate_covers(five_leaf, 7)]
        monkeypatch.setattr(oracle, "_LOW_BITS", 4)  # a chunk per value of the 6 high bits
        assert count_minimum_covers(five_leaf) == sequential
        assert [c.pairs for c in enumerate_covers(five_leaf, 7)] == baseline

    def test_streamed_blocks_match_cached(self, five_leaf, monkeypatch):
        import tripletcover.oracle as oracle

        baseline = [c.pairs for c in enumerate_covers(five_leaf, 7)]
        monkeypatch.setattr(oracle, "_LOW_BITS", 0)  # one mask per chunk
        assert [c.pairs for c in enumerate_covers(five_leaf, 7)] == baseline
