"""Shelling closure, distance completion, and exact reconstruction."""

import math
import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tripletcover import (
    DistanceMap,
    NotACoverError,
    NotAdditiveError,
    NotShellableError,
    TripletCover,
    complete_distances,
    find_witness,
    is_shellable,
    minimum_cover,
    parse_newick,
    random_tree,
    reconstruct_tree,
    shelling_closure,
)

from conftest import trees_isomorphic

TOL = 1e-9


class TestClosure:
    def test_five_leaf_trace_matches_known_ordering(self, five_leaf, five_leaf_cover):
        trace, residual = shelling_closure(five_leaf, five_leaf_cover)
        assert not residual
        assert trace.pairs() == (("a", "e"), ("a", "d"), ("b", "d"))
        first = trace.steps[0]
        assert (first.witness_x, first.witness_y) == ("b", "c")
        assert str(first.quartet) == "ab|ce"
        assert trace.validate(five_leaf, five_leaf_cover)

    def test_full_pair_set_empty_trace(self, five_leaf):
        full = TripletCover(combinations(five_leaf.labels, 2), five_leaf.labels)
        trace, residual = shelling_closure(five_leaf, full)
        assert len(trace) == 0 and not residual

    def test_lasso_not_shellable(self, caterpillar7, caterpillar7_lasso):
        trace, residual = shelling_closure(
            caterpillar7, caterpillar7_lasso, require_cover=False
        )
        assert residual
        assert not is_shellable(caterpillar7, caterpillar7_lasso)

    def test_cover_precondition_enforced(self, caterpillar7, caterpillar7_lasso):
        with pytest.raises(NotACoverError):
            shelling_closure(caterpillar7, caterpillar7_lasso)

    def test_minimum_covers_shellable(self):
        for seed in range(25):
            tree = random_tree(4 + seed % 8, seed)
            assert is_shellable(tree, minimum_cover(tree))

    def test_supersets_of_shellable_remain_shellable(self):
        for seed in range(15):
            tree = random_tree(5 + seed % 6, seed)
            cover = minimum_cover(tree)
            missing = [
                p
                for p in combinations(tree.labels, 2)
                if p not in cover
            ]
            rng = random.Random(seed)
            extra = rng.sample(missing, min(2, len(missing)))
            assert is_shellable(tree, cover.with_pairs(extra))

    def test_reduction_shellable_implies_shellable(self):
        # build covers with a degree-1 leaf x: reduction is a minimum cover
        for seed in range(15):
            tree = random_tree(5 + seed % 6, seed)
            x, y, _ = min(tree.cherries())
            rest = tree.remove_leaf(x)
            sub = minimum_cover(rest)
            yb = min(p for p in sub.pairs if y in p)
            b = yb[0] if yb[1] == y else yb[1]
            lifted = TripletCover(
                list(sub.pairs) + [tuple(sorted((x, y))), tuple(sorted((x, b)))],
                tree.labels,
            )
            assert is_shellable(rest, sub)
            assert is_shellable(tree, lifted)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(4, 9), st.integers(0, 3000), st.integers(0, 100))
    def test_residual_independent_of_scan_order(self, n, seed, shuffle_seed):
        tree = random_tree(n, seed)
        cover = minimum_cover(tree)
        # drop pairs to create sets that may or may not be shellable
        rng = random.Random(shuffle_seed)
        pairs = list(cover.pairs)
        rng.shuffle(pairs)
        trial = TripletCover(pairs[: max(3, len(pairs) - 2)], tree.labels)
        _, residual = shelling_closure(tree, trial, require_cover=False)

        # shuffled-scan closure using the public witness finder
        known = set(trial.pairs)
        missing = [p for p in combinations(tree.labels, 2) if p not in known]
        while True:
            rng.shuffle(missing)
            hit = next(
                (p for p in missing if find_witness(tree, known, *p) is not None),
                None,
            )
            if hit is None:
                break
            known.add(hit)
            missing.remove(hit)
        assert frozenset(missing) == residual


class TestCompleteDistances:
    def test_five_leaf_unit_lengths(self, five_leaf, five_leaf_cover):
        tree = five_leaf.with_edge_lengths(1.0)
        partial = tree.leaf_distances(five_leaf_cover.pairs)
        full = complete_distances(tree, five_leaf_cover, partial)
        assert full.get("a", "e") == 4.0  # = d(a,c) + d(e,b) - d(b,c) = 3 + 4 - 3
        assert full.get("a", "d") == 4.0
        assert full.get("b", "d") == 4.0
        assert full.max_difference(tree.leaf_distances("all")) <= TOL

    def test_three_leaf_identity(self):
        tree = parse_newick("(a:1,b:2,c:3);")
        cover = TripletCover(combinations("abc", 2), "abc")
        partial = tree.leaf_distances("all")
        full = complete_distances(tree, cover, partial)
        assert full.items() == partial.items()

    def test_requires_exact_key_set(self, five_leaf, five_leaf_cover):
        tree = five_leaf.with_edge_lengths(1.0)
        partial = tree.leaf_distances(five_leaf_cover.pairs[:-1])
        with pytest.raises(ValueError, match="missing"):
            complete_distances(tree, five_leaf_cover, partial)
        padded = tree.leaf_distances(list(five_leaf_cover.pairs) + [("a", "d")])
        with pytest.raises(ValueError, match="extra"):
            complete_distances(tree, five_leaf_cover, padded)

    def test_not_shellable_reports_residual(self, caterpillar7, caterpillar7_lasso):
        tree = caterpillar7.with_edge_lengths(1.0)
        partial = tree.leaf_distances(caterpillar7_lasso.pairs)
        with pytest.raises(NotShellableError) as info:
            complete_distances(tree, caterpillar7_lasso, partial)
        assert info.value.residual

    @settings(max_examples=40, deadline=None)
    @given(st.integers(4, 12), st.integers(0, 5000))
    def test_matches_true_distances(self, n, seed):
        tree = random_tree(n, seed, (0.1, 10.0))
        cover = minimum_cover(tree)
        full = complete_distances(tree, cover, tree.leaf_distances(cover.pairs))
        assert full.max_difference(tree.leaf_distances("all")) <= TOL


class TestReconstruct:
    def test_five_leaf_round_trip(self, five_leaf):
        tree = five_leaf.with_edge_lengths(1.0)
        rebuilt = reconstruct_tree(tree.leaf_distances("all"), tree.labels)
        assert trees_isomorphic(tree, rebuilt)
        assert rebuilt.split_lengths() == pytest.approx(tree.split_lengths(), abs=TOL)

    def test_degenerate_star_rejected(self):
        # pendant for a would be (2 + 3 - 5) / 2 = 0
        d = DistanceMap({("a", "b"): 2.0, ("a", "c"): 3.0, ("b", "c"): 5.0})
        with pytest.raises(NotAdditiveError, match="nonpositive"):
            reconstruct_tree(d, "abc")

    def test_non_additive_rejected(self):
        entries = {
            ("a", "b"): 2.0,
            ("a", "c"): 2.0,
            ("a", "d"): 2.0,
            ("b", "c"): 2.0,
            ("b", "d"): 2.0,
            ("c", "d"): 3.5,
        }
        with pytest.raises(NotAdditiveError):
            reconstruct_tree(DistanceMap(entries), "abcd")

    @pytest.mark.parametrize("tolerance", [math.nan, -1.0, math.inf])
    def test_bad_tolerance_rejected(self, five_leaf, tolerance):
        full = five_leaf.with_edge_lengths(1.0).leaf_distances("all")
        with pytest.raises(ValueError, match="tolerance") as info:
            reconstruct_tree(full, five_leaf.labels, tolerance=tolerance)
        assert not isinstance(info.value, NotAdditiveError)

    def test_missing_pairs_rejected(self):
        d = DistanceMap({("a", "b"): 1.0, ("a", "c"): 1.0})
        with pytest.raises(ValueError, match="missing"):
            reconstruct_tree(d, "abc")

    @settings(max_examples=50, deadline=None)
    @given(st.integers(3, 12), st.integers(0, 5000))
    def test_random_round_trip(self, n, seed):
        tree = random_tree(n, seed, (0.1, 10.0))
        rebuilt = reconstruct_tree(tree.leaf_distances("all"), tree.labels)
        assert trees_isomorphic(tree, rebuilt)
        original = tree.split_lengths()
        recovered = rebuilt.split_lengths()
        assert set(original) == set(recovered)
        assert all(
            math.isclose(original[k], recovered[k], abs_tol=TOL) for k in original
        )


class TestEndToEnd:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(4, 12), st.integers(0, 5000))
    def test_restrict_complete_reconstruct(self, n, seed):
        tree = random_tree(n, seed, (0.1, 10.0))
        cover = minimum_cover(tree)
        partial = tree.leaf_distances(cover.pairs)
        full = complete_distances(tree, cover, partial)
        rebuilt = reconstruct_tree(full, tree.labels)
        assert trees_isomorphic(tree, rebuilt)
        original = tree.split_lengths()
        recovered = rebuilt.split_lengths()
        assert all(
            math.isclose(original[k], recovered[k], abs_tol=TOL) for k in original
        )
