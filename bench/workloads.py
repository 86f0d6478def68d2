"""The four benchmark workloads.

A workload turns a seed into a fixed list of ops, made of blocks.  A
block holds freshly generated inputs in fixed proportions (``mix``: leaf
count -> trees of each shape), shuffled, so any whole number of blocks
has the same mix; runs stop only at block boundaries and cycle through
the list if they outlast it.  An op is every call made on one input;
``run`` makes those calls through ``call(span, fn, *args)`` so the
traced and untraced runs execute the same code, and ``check`` verifies
the output against the generator's own independent computation.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import random
from math import comb
from pathlib import Path

from tripletcover import (
    DistanceMap,
    TripletCover,
    cli,
    complete_distances,
    count_minimum_covers,
    cover_report,
    is_triplet_cover,
    is_two_tree,
    minimalize,
    minimum_cover,
    parse_newick,
    per_vertex_cover,
    reconstruct_tree,
    verify_theorems,
)

import inputs

# every span name a workload can emit, in the order they are reported
SPAN_NAMES = (
    "tree.parse_newick",
    "tree.leaf_distances",
    "tree.DistanceMap.to_csv",
    "tree.DistanceMap.from_csv",
    "tree.to_newick",
    "cover.from_text",
    "cover.cover_report",
    "cover.multiplicities",
    "cover.cover_graph",
    "cover.is_triplet_cover",
    "twotree.is_two_tree",
    "construct.minimum_cover",
    "construct.per_vertex_cover",
    "construct.minimalize",
    "shelling.complete_distances",
    "shelling.reconstruct_tree",
    "oracle.verify_theorems",
    "oracle.count_minimum_covers",
)
EXPECTED_ORACLE = Path(__file__).with_name("expected_oracle.json")
SPLIT_TOLERANCE = 1e-6  # as in the randomized-pipeline acceptance test


class Workload:
    """Inputs of one workload plus how to run and check an op on them."""

    name = ""
    why = ""
    default_mix: dict[int, int] = {}
    default_blocks = 1
    warmup_size = 16  # leaf count of the warm-up trees

    def __init__(self, seed: int, mix=None, blocks=None, workdir: Path | None = None):
        mix = self.default_mix if mix is None else mix
        n_blocks = self.default_blocks if blocks is None else blocks
        self.workdir = workdir  # where checks that need files write them
        self.rng = random.Random(f"{self.name}:{seed}")
        self.ops = [op for _ in range(n_blocks) for op in self.make_block(mix)]
        self.block_size = len(self.ops) // n_blocks
        # run once, untimed, during set-up: one small tree of each shape
        self.warmup_ops = self.make_block({self.warmup_size: 1})

    def make_block(self, mix: dict[int, int]) -> list:
        return [_TreeOp(t) for t in self._trees(mix)]

    def input_texts(self) -> list[str]:
        """Every generated text, in op order, for the input digest."""
        return [op.text for op in self.ops]

    def run(self, op, call):
        raise NotImplementedError

    def check(self, op, out) -> bool:
        raise NotImplementedError

    def counts(self, op, out) -> dict[str, float]:
        """Per-layer counters this op contributes (traced runs only)."""
        return {}

    def _trees(self, mix):
        trees = [
            inputs.make_tree(self.rng, n, shape)
            for n, count in sorted(mix.items())
            for shape in inputs.SHAPES
            for _ in range(count)
        ]
        self.rng.shuffle(trees)
        return trees


class _TreeOp:
    """One generated tree with its Newick text."""

    def __init__(self, tree: inputs.Tree):
        self.tree = tree
        self.text = tree.newick()
        self.n = len(tree.labels)


class Pipeline(Workload):
    name = "pipeline"
    why = (
        "a few large shelling closures: cover, complete distances, CSV "
        "round trip, reconstruct; never components_at or the oracle"
    )
    # Op cost varies by a quarter or more between trees of one size, so
    # the mix puts the median in the middle of the n=24 class (as many
    # n=16 ops below it as n>=32 ops above) and the tail (ten samples
    # beyond) near the middle of the n=48 class, which takes most of the
    # time: three or four blocks give 18 to 24 of those ops.
    default_mix = {16: 5, 24: 6, 32: 1, 40: 1, 48: 3}
    default_blocks = 6

    def run(self, op, call):
        tree = call("tree.parse_newick", parse_newick, op.text)
        cover = call("construct.minimum_cover", minimum_cover, tree)
        partial = call("tree.leaf_distances", tree.leaf_distances, cover.pairs)
        full = call("shelling.complete_distances", complete_distances, tree, cover, partial)
        csv = call("tree.DistanceMap.to_csv", full.to_csv)
        back = call("tree.DistanceMap.from_csv", DistanceMap.from_csv, csv)
        rebuilt = call("shelling.reconstruct_tree", reconstruct_tree, back, tree.labels)
        newick = call("tree.to_newick", rebuilt.to_newick)
        return newick, len(cover)

    def check(self, op, out):
        newick, cover_size = out
        return cover_size == 2 * op.n - 3 and inputs.same_splits(
            inputs.tree_splits(op.tree), inputs.parse_splits(newick), SPLIT_TOLERANCE
        )

    def counts(self, op, out):
        return {"shelling.pairs_derived": comb(op.n, 2) - out[1]}


class _VerifyOp:
    """One tree and one pair file: the input of a single ``tck verify``,
    or for kind ``minimalize`` of ``tck construct --strategy minimalize``."""

    def __init__(self, tree_op: _TreeOp, kind: str, pairs):
        self.tree_op = tree_op
        self.kind = kind
        self.pairs = frozenset(pairs)
        self.pairs_text = inputs.pairs_text(pairs)


class Verify(Workload):
    name = "verify"
    why = (
        "cover predicates and components_at asked many times about one tree: "
        "four verify runs and a minimalize per tree; no shelling"
    )
    default_mix = {32: 2, 48: 1, 64: 1}
    default_blocks = 4
    EXTRA_PAIRS = 3
    # (is_cover, is_minimal) each kind must produce; None: not fixed
    VERDICTS = {
        "minimum": (True, True),
        "per_vertex": (True, None),
        "minimum_plus": (True, False),
        "minimum_minus": (False, None),
    }

    def __init__(self, seed, mix=None, blocks=None, workdir=None):
        super().__init__(seed, mix, blocks, workdir)
        # running the CLI costs as much as the op, so only the first op of
        # each kind is also compared with ``tck verify``
        first = {}
        for op in self.ops:
            first.setdefault(op.kind, op)
        first.pop("minimalize")
        self._cli_pending = {id(op) for op in first.values()}

    def make_block(self, mix):
        ops = []
        for tree in self._trees(mix):
            tree_op = _TreeOp(tree)
            minimum = inputs.cherry_cover_pairs(tree)
            per_vertex = inputs.per_vertex_pairs(tree)
            names = tree.leaf_names
            absent = [
                (a, b)
                for i, a in enumerate(names)
                for b in names[i + 1 :]
                if (a, b) not in minimum
            ]
            plus = minimum | set(self.rng.sample(absent, self.EXTRA_PAIRS))
            minus = minimum - {min(minimum)}
            for kind, pairs in (
                ("minimum", minimum),
                ("per_vertex", per_vertex),
                ("minimum_plus", plus),
                ("minimum_minus", minus),
                ("minimalize", per_vertex),
            ):
                ops.append(_VerifyOp(tree_op, kind, pairs))
        self.rng.shuffle(ops)
        return ops

    def input_texts(self):
        return [t for op in self.ops for t in (op.tree_op.text, op.pairs_text)]

    def run(self, op, call):
        tree = call("tree.parse_newick", parse_newick, op.tree_op.text)
        cover = call("cover.from_text", TripletCover.from_text, op.pairs_text, tree.labels)
        if op.kind == "minimalize":
            return call("construct.minimalize", minimalize, tree, cover).pairs
        # the calls and the assembly of ``tck verify``
        report = call("cover.cover_report", cover_report, tree, cover)
        report["multiplicities"] = call("cover.multiplicities", cover.multiplicities)
        graph = call("cover.cover_graph", cover.cover_graph)
        report["two_tree"] = call("twotree.is_two_tree", is_two_tree, graph) is not None
        return json.dumps(report, indent=2, sort_keys=True) + "\n"

    def check(self, op, out):
        if id(op) in self._cli_pending:
            self._cli_pending.discard(id(op))
            if not self.check_against_cli(op, out):
                return False
        components = op.tree_op.tree.components()
        if op.kind == "minimalize":
            result = frozenset(out)
            unsupported, indispensable = inputs.supported_by(components, result)
            return result <= op.pairs and unsupported == 0 and indispensable == result
        report = json.loads(out)
        unsupported_ids = report.pop("unsupported_vertices")
        unsupported, indispensable = inputs.supported_by(components, op.pairs)
        expected = self._expected_report(op, unsupported == 0, indispensable)
        want_cover, want_minimal = self.VERDICTS[op.kind]
        return (
            report == expected
            and len(unsupported_ids) == unsupported
            and report["is_cover"] == want_cover
            and want_minimal in (None, report["is_minimal"])
        )

    @staticmethod
    def _expected_report(op, covered: bool, indispensable) -> dict:
        n = op.tree_op.n
        size = len(op.pairs)
        degree = {x: 0 for x in op.tree_op.tree.leaf_names}
        for a, b in op.pairs:
            degree[a] += 1
            degree[b] += 1
        return {
            "cover_size": size,
            "is_cover": covered,
            "is_minimal": indispensable == op.pairs if covered else None,
            "is_minimum": size == 2 * n - 3 if covered else None,
            "min_multiplicity": min(degree.values()),
            "multiplicities": degree,
            # a cover is minimum iff its graph is a 2-tree; the non-covers
            # here have 2n-4 pairs, too few edges for a 2-tree
            "two_tree": covered and size == 2 * n - 3,
        }

    def check_against_cli(self, op, out) -> bool:
        """Whether ``tck verify`` on op's files prints exactly ``out`` and
        exits with the status its verdict calls for."""
        self.workdir.mkdir(parents=True, exist_ok=True)
        tree_path = self.workdir / "tree.nwk"
        pairs_path = self.workdir / "pairs.txt"
        tree_path.write_text(op.tree_op.text, encoding="utf-8")
        pairs_path.write_text(op.pairs_text, encoding="utf-8")
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            status = cli.main(["verify", "--tree", str(tree_path), "--pairs", str(pairs_path)])
        return buffer.getvalue() == out and status == (0 if self.VERDICTS[op.kind][0] else 1)


class Build(Workload):
    name = "build"
    why = (
        "fresh large trees each queried once: parse, minimum and per-vertex "
        "covers, one cover check, 2-tree test, Newick out"
    )
    default_mix = {256: 1}
    default_blocks = 30

    def run(self, op, call):
        tree = call("tree.parse_newick", parse_newick, op.text)
        minimum = call("construct.minimum_cover", minimum_cover, tree)
        per_vertex = call("construct.per_vertex_cover", per_vertex_cover, tree)
        covered = call("cover.is_triplet_cover", is_triplet_cover, tree, minimum)
        graph = call("cover.cover_graph", minimum.cover_graph)
        two_tree = call("twotree.is_two_tree", is_two_tree, graph) is not None
        newick = call("tree.to_newick", tree.to_newick)
        return minimum.pairs, per_vertex.pairs, covered, two_tree, newick

    def check(self, op, out):
        minimum, per_vertex, covered, two_tree, newick = out
        unsupported, _ = inputs.supported_by(op.tree.components(), minimum)
        return (
            len(minimum) == 2 * op.n - 3
            and unsupported == 0
            and covered
            and two_tree
            and set(per_vertex) == inputs.per_vertex_pairs(op.tree)
            and inputs.same_splits(
                inputs.tree_splits(op.tree), inputs.parse_splits(newick), 0.0
            )
        )


class _OracleOp:
    def __init__(self, six: inputs.Tree, seven: inputs.Tree):
        self.six_text = six.newick()
        self.six_shape = inputs.n_cherries(six)
        self.seven_text = seven.newick()
        self.seven_shape = inputs.n_cherries(seven)


class Oracle(Workload):
    name = "oracle"
    why = (
        "thousands of tiny closures plus numpy mask filtering: verify_theorems "
        "on each six-leaf topology, paired with count_minimum_covers at n=7"
    )
    # mix {6: k}: a block takes the next k topologies of a shuffled sweep
    default_mix = {6: 15}
    default_blocks = 14
    warmup_size = 6  # one op fills the mask caches for n=6 and n=7
    SIX = list("abcdef")

    def __init__(self, seed, mix=None, blocks=None, workdir=None):
        self._sweep: list[inputs.Tree] = []
        super().__init__(seed, mix, blocks, workdir)

    def make_block(self, mix):
        ops = []
        for _ in range(mix[6]):
            if not self._sweep:
                self._sweep = inputs.all_topologies(self.SIX)
                self.rng.shuffle(self._sweep)
            seven = inputs.make_tree(self.rng, 7, "rnd", lengths=False)
            ops.append(_OracleOp(self._sweep.pop(), seven))
        return ops

    def input_texts(self):
        return [t for op in self.ops for t in (op.six_text, op.seven_text)]

    def run(self, op, call):
        six = call("tree.parse_newick", parse_newick, op.six_text)
        report = call("oracle.verify_theorems", verify_theorems, six)
        seven = call("tree.parse_newick", parse_newick, op.seven_text)
        count = call("oracle.count_minimum_covers", count_minimum_covers, seven)
        return report.to_dict(), count

    def check(self, op, out):
        report, count = out
        expected = _expected_oracle()
        want = expected["six"][str(op.six_shape)]
        return (
            not report["counterexamples"]
            and all(report[key] == value for key, value in want.items())
            and count == expected["seven"][str(op.seven_shape)]
        )

    def counts(self, op, out):
        report, count = out
        return {
            "oracle.subsets_examined": report["subsets_examined"],
            "oracle.minimum_covers_found": report["covers_at_minimum"] + count,
            "oracle.minimum_size_subsets": comb(comb(6, 2), 2 * 6 - 3)
            + comb(comb(7, 2), 2 * 7 - 3),
        }


@functools.cache
def _expected_oracle() -> dict:
    return json.loads(EXPECTED_ORACLE.read_text(encoding="utf-8"))


WORKLOADS = {w.name: w for w in (Pipeline, Verify, Build, Oracle)}
