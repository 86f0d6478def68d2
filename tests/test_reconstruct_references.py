"""``reconstruct_tree`` against the keyed-dict version it replaced.

The library holds the metric as one symmetric table ``d[i][k]``.  The
reference below keeps the earlier form: one dict keyed by sorted id
pairs behind ``d``/``put`` helpers, a ``find_cherry`` closure, an id
counter, and a gate that compares the rebuilt metric with a restricted
copy of the input.  Both must give the same Newick with lengths, or the
same exception type and message, on exact and perturbed metrics at
every tolerance.
"""

import math
import random
from itertools import combinations

import pytest

from tripletcover import NotAdditiveError, random_tree, reconstruct_tree
from tripletcover.tree import DistanceMap, PhyloTree, _norm_pair

from conftest import caterpillar


def reference_reconstruct_tree(full, labels, tolerance=1e-9):
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

    leaf_ids = {name: i for i, name in enumerate(names)}
    dist = {(leaf_ids[a], leaf_ids[b]): full.get(a, b) for a, b in wanted}
    active = sorted(leaf_ids.values())
    next_id = len(names)
    edges = []
    lengths = {}

    def d(i, j):
        return dist[(i, j) if i < j else (j, i)]

    def put(i, j, value):
        dist[(i, j) if i < j else (j, i)] = value

    def find_cherry():
        for pos, i in enumerate(active):
            for j in active[pos + 1 :]:
                gaps = [d(i, k) - d(j, k) for k in active if k != i and k != j]
                if max(gaps) - min(gaps) <= tolerance:
                    return (i, j)
        return None

    while len(active) > 3:
        cherry = find_cherry()
        if cherry is None:
            raise NotAdditiveError(
                "no cherry found: distances violate the four-point condition"
            )
        i, j = cherry
        k0 = next(k for k in active if k != i and k != j)
        li = (d(i, j) + d(i, k0) - d(j, k0)) / 2.0
        lj = d(i, j) - li
        if li <= tolerance or lj <= tolerance:
            raise NotAdditiveError(f"implied nonpositive edge length ({li!r} / {lj!r})")
        m = next_id
        next_id += 1
        edges.append((m, i))
        edges.append((m, j))
        lengths[(i, m) if i < m else (m, i)] = li
        lengths[(j, m) if j < m else (m, j)] = lj
        for k in active:
            if k != i and k != j:
                put(m, k, (d(i, k) + d(j, k) - d(i, j)) / 2.0)
        active = sorted(set(active) - {i, j} | {m})

    i, j, k = active
    center = next_id
    for tip, other1, other2 in ((i, j, k), (j, i, k), (k, i, j)):
        pendant = (d(tip, other1) + d(tip, other2) - d(other1, other2)) / 2.0
        if pendant <= tolerance:
            raise NotAdditiveError(
                f"implied nonpositive edge length ({pendant!r}) at the final vertex"
            )
        edges.append((center, tip))
        lengths[(tip, center) if tip < center else (center, tip)] = pendant

    tree = PhyloTree(edges, {v: name for name, v in leaf_ids.items()}, lengths)
    rebuilt = tree.leaf_distances("all")
    deviation = rebuilt.max_difference(full.restrict(rebuilt.pairs()))
    if deviation > tolerance:
        raise NotAdditiveError(
            f"distances are not additive: max deviation {deviation!r} "
            f"exceeds tolerance {tolerance!r}"
        )
    return tree


TOLERANCES = (0.0, 1e-9, 1e-6, 1e-2)
EPSILONS = (1e-12, 1e-6, 5e-2)


def shuffled_caterpillar(n, seed):
    """A caterpillar with shuffled labels and lengths from U(0.001, 1), so
    that some edges fall below the larger tolerances."""
    rng = random.Random(seed)
    labels = [f"t{i}" for i in range(n)]
    rng.shuffle(labels)
    tree = caterpillar(labels)
    return tree.with_edge_lengths({e: rng.uniform(0.001, 1) for e in tree.edges})


def tree_of_size(n):
    """A random tree for odd ``n``, a shuffled caterpillar for even ``n``."""
    return random_tree(n, n, (0.1, 10)) if n % 2 else shuffled_caterpillar(n, n)


def cases(tree, seed):
    """(metric, tolerance) pairs: the exact metric and three copies with a
    tenth of the entries (at least one) scaled by 1 + eps, each at a
    tolerance that rotates with ``seed``; then a copy with every entry
    shifted by up to 0.3 of a positive tolerance, which mostly passes the
    cherry tests and sometimes fails the final gate."""
    rng = random.Random(seed)
    exact = tree.leaf_distances("all")
    items = exact.items()
    yield exact, TOLERANCES[seed % len(TOLERANCES)]
    for variant, eps in enumerate(EPSILONS, start=1):
        hit = set(rng.sample(range(len(items)), max(1, len(items) // 10)))
        scaled = {p: v * (1 + eps) if r in hit else v for r, (p, v) in enumerate(items)}
        yield DistanceMap(scaled), TOLERANCES[(seed + variant) % len(TOLERANCES)]
    tolerance = TOLERANCES[1 + seed % (len(TOLERANCES) - 1)]
    shifted = {p: v + rng.uniform(-0.3, 0.3) * tolerance for p, v in items}
    yield DistanceMap(shifted), tolerance


def outcome(reconstruct, full, labels, tolerance):
    try:
        return reconstruct(full, labels, tolerance).to_newick(include_lengths=True)
    except ValueError as exc:
        return (type(exc), str(exc))


@pytest.mark.parametrize("n", range(3, 33))
def test_same_newick_or_error_as_reference(n):
    tree = tree_of_size(n)
    for full, tolerance in cases(tree, n):
        got = outcome(reconstruct_tree, full, tree.labels, tolerance)
        want = outcome(reference_reconstruct_tree, full, tree.labels, tolerance)
        assert got == want, (n, tolerance)


def test_cases_reach_every_outcome():
    kinds = set()
    for n in range(3, 33):
        tree = tree_of_size(n)
        for full, tolerance in cases(tree, n):
            result = outcome(reconstruct_tree, full, tree.labels, tolerance)
            kinds.add("newick" if isinstance(result, str) else result[1][:16])
    assert kinds == {
        "newick",
        "no cherry found:",
        "implied nonposit",
        "distances are no",
    }
