"""The ``tck`` command line: verify, construct, shell, complete,
reconstruct, enumerate, and random.

Exit status 0 means success (and, for predicates, "true"); 1 means the
queried property is false (not a cover, not shellable, not additive);
2 means malformed input.  JSON output is byte-stable for identical
inputs and seed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .construct import minimalize, minimum_cover, per_vertex_cover
from .cover import (
    CoverError,
    NotACoverError,
    TripletCover,
    cover_report,
)
from .oracle import COUNT_LIMIT_HARD, _count_covers, verify_theorems
from .shelling import (
    NotAdditiveError,
    NotShellableError,
    complete_distances,
    reconstruct_tree,
    shelling_closure,
)
from .tree import DistanceMap, TreeError, parse_newick, random_tree
from .twotree import is_two_tree

EXIT_OK = 0
EXIT_PROPERTY_FALSE = 1
EXIT_INPUT_ERROR = 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tck", description="Triplet covers of binary phylogenetic X-trees."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--format", choices=("json", "text"), default="json", dest="fmt"
        )

    p = sub.add_parser("verify", help="cover / minimal / minimum / 2-tree checks")
    p.add_argument("--tree", required=True)
    p.add_argument("--pairs", required=True)
    add_format(p)

    p = sub.add_parser("construct", help="build a triplet cover")
    p.add_argument("--tree", required=True)
    p.add_argument(
        "--strategy",
        required=True,
        choices=("per-vertex", "minimum", "minimalize"),
    )
    p.add_argument("--pairs", help="input cover (minimalize only)")
    add_format(p)

    p = sub.add_parser("shell", help="shelling closure: trace and residual")
    p.add_argument("--tree", required=True)
    p.add_argument("--pairs", required=True)
    p.add_argument(
        "--force",
        action="store_true",
        help="run the closure even if the pair set is not a triplet cover",
    )
    add_format(p)

    p = sub.add_parser("complete", help="complete cover distances to all pairs")
    p.add_argument("--tree", required=True)
    p.add_argument("--pairs", required=True)
    p.add_argument("--dist", required=True)
    add_format(p)

    p = sub.add_parser("reconstruct", help="tree from a full additive metric")
    p.add_argument("--dist", required=True)
    p.add_argument("--tolerance", type=float, default=1e-9)
    add_format(p)

    p = sub.add_parser("enumerate", help="exhaustive oracle sweep")
    p.add_argument("--tree", required=True)
    p.add_argument("--size", type=int, help="count covers of one size only")
    guard = f"raise the leaf-count guard (<= {COUNT_LIMIT_HARD})"
    p.add_argument("--max-n", type=int, dest="max_n", help=guard)
    add_format(p)

    p = sub.add_parser("random", help="generate a uniform random tree")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--lengths", help="sample edge lengths uniformly from LO,HI")
    add_format(p)

    return parser


def _load_tree(path: str):
    return parse_newick(Path(path).read_text(encoding="utf-8"))


def _load_cover(path: str, universe) -> TripletCover:
    return TripletCover.from_text(Path(path).read_text(encoding="utf-8"), universe)


def _load_distances(path: str) -> DistanceMap:
    return DistanceMap.from_csv(Path(path).read_text(encoding="utf-8"))


def _emit(payload: dict, fmt: str, text_lines) -> None:
    if fmt == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in text_lines(payload):
            print(line)


def _scalar_lines(payload: dict):
    for key in sorted(payload):
        value = payload[key]
        if isinstance(value, (dict, list)):
            yield f"{key}: {json.dumps(value, sort_keys=True)}"
        else:
            yield f"{key}: {value}"


def _run_verify(args: argparse.Namespace) -> int:
    tree = _load_tree(args.tree)
    cover = _load_cover(args.pairs, tree.labels)
    report = cover_report(tree, cover)
    report["multiplicities"] = cover.multiplicities()
    report["two_tree"] = is_two_tree(cover.cover_graph()) is not None
    _emit(report, args.fmt, _scalar_lines)
    return EXIT_OK if report["is_cover"] else EXIT_PROPERTY_FALSE


def _run_construct(args: argparse.Namespace) -> int:
    tree = _load_tree(args.tree)
    if args.strategy == "per-vertex":
        cover = per_vertex_cover(tree)
    elif args.strategy == "minimum":
        cover = minimum_cover(tree)
    else:
        if not args.pairs:
            raise ValueError("--strategy minimalize requires --pairs")
        cover = minimalize(tree, _load_cover(args.pairs, tree.labels))
    payload = {
        "strategy": args.strategy,
        "size": len(cover),
        "pairs": [list(p) for p in cover.pairs],
    }
    _emit(payload, args.fmt, lambda p: (f"{a} {b}" for a, b in cover.pairs))
    return EXIT_OK


def _run_shell(args: argparse.Namespace) -> int:
    tree = _load_tree(args.tree)
    cover = _load_cover(args.pairs, tree.labels)
    trace, residual = shelling_closure(tree, cover, require_cover=not args.force)
    payload = {
        "shellable": not residual,
        "trace": trace.to_json(),
        "residual": [list(p) for p in sorted(residual)],
    }
    _emit(payload, args.fmt, _scalar_lines)
    return EXIT_OK if not residual else EXIT_PROPERTY_FALSE


def _run_complete(args: argparse.Namespace) -> int:
    tree = _load_tree(args.tree)
    cover = _load_cover(args.pairs, tree.labels)
    partial = _load_distances(args.dist)
    full = complete_distances(tree, cover, partial)
    payload = {"distances": [[a, b, v] for (a, b), v in full.items()]}
    _emit(
        payload,
        args.fmt,
        lambda p: (f"{a},{b},{v!r}" for (a, b), v in full.items()),
    )
    return EXIT_OK


def _run_reconstruct(args: argparse.Namespace) -> int:
    dist = _load_distances(args.dist)
    tree = reconstruct_tree(dist, dist.labels(), tolerance=args.tolerance)
    payload = {"newick": tree.to_newick()}
    _emit(payload, args.fmt, lambda p: (p["newick"],))
    return EXIT_OK


def _run_enumerate(args: argparse.Namespace) -> int:
    tree = _load_tree(args.tree)
    if args.max_n is not None and args.max_n > COUNT_LIMIT_HARD:
        raise ValueError(f"--max-n cannot exceed {COUNT_LIMIT_HARD}")
    if args.max_n is not None and tree.n_leaves > args.max_n:
        raise ValueError(f"tree has {tree.n_leaves} leaves, above --max-n {args.max_n}")
    if args.size is not None:
        count = _count_covers(tree, args.size, allow_large=args.max_n == COUNT_LIMIT_HARD)
        payload = {"n": tree.n_leaves, "size": args.size, "cover_count": count}
        _emit(payload, args.fmt, _scalar_lines)
        return EXIT_OK
    report = verify_theorems(tree).to_dict()
    _emit(report, args.fmt, _scalar_lines)
    return EXIT_OK if not report["counterexamples"] else EXIT_PROPERTY_FALSE


def _run_random(args: argparse.Namespace) -> int:
    lengths = None
    if args.lengths:
        parts = args.lengths.split(",")
        if len(parts) != 2:
            raise ValueError(f"--lengths expects 'LO,HI', got {args.lengths!r}")
        lengths = (float(parts[0]), float(parts[1]))
    tree = random_tree(args.n, args.seed, lengths)
    payload = {"n": args.n, "seed": args.seed, "newick": tree.to_newick()}
    _emit(payload, args.fmt, lambda p: (p["newick"],))
    return EXIT_OK


_RUNNERS = {
    "verify": _run_verify,
    "construct": _run_construct,
    "shell": _run_shell,
    "complete": _run_complete,
    "reconstruct": _run_reconstruct,
    "enumerate": _run_enumerate,
    "random": _run_random,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _RUNNERS[args.command](args)
    except (NotACoverError, NotShellableError, NotAdditiveError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PROPERTY_FALSE
    except (TreeError, CoverError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
