"""The exit-code contract under mutated input files.

Every subcommand that reads a file must exit 0 (success), 1 (property
false) or 2 (bad input) on any input, and no exception may escape
``main``.  The inputs are the committed fixtures, their pair files and
distance CSVs made from them, each mutated under a fixed seed by byte
flips, deletions, duplications and truncations.
"""

import random
from pathlib import Path

import pytest

from tripletcover import TripletCover, parse_newick, parse_pairs
from tripletcover.cli import main

FIXTURES = Path(__file__).parent / "fixtures"
FIXTURE_SETS = (
    ("five_leaf.nwk", "five_leaf_cover.pairs"),
    ("caterpillar7.nwk", "caterpillar7_lasso.pairs"),
    ("caterpillar8.nwk", "caterpillar8_cover.pairs"),
)
ROUNDS = 160

# each command names the files it reads: tree, pairs, partial or full
COMMANDS = (
    ("verify", "--tree", "tree", "--pairs", "pairs"),
    ("construct", "--tree", "tree", "--strategy", "per-vertex"),
    ("construct", "--tree", "tree", "--strategy", "minimum"),
    ("construct", "--tree", "tree", "--strategy", "minimalize", "--pairs", "pairs"),
    ("shell", "--tree", "tree", "--pairs", "pairs"),
    ("shell", "--tree", "tree", "--pairs", "pairs", "--force"),
    ("complete", "--tree", "tree", "--pairs", "pairs", "--dist", "partial"),
    ("reconstruct", "--dist", "full"),
    ("reconstruct", "--dist", "partial", "--tolerance", "0"),
    ("enumerate", "--tree", "tree"),
    ("enumerate", "--tree", "tree", "--size", "7", "--format", "text"),
)


def fixture_files(tree_name, pairs_name, rng):
    """The four input files of one fixture set as bytes: the Newick tree,
    its pair file, and the distances of a copy with random edge lengths
    on the pairs (partial) and on all pairs (full)."""
    tree_text = (FIXTURES / tree_name).read_text(encoding="utf-8")
    pairs_text = (FIXTURES / pairs_name).read_text(encoding="utf-8")
    tree = parse_newick(tree_text)
    tree = tree.with_edge_lengths({e: rng.uniform(0.1, 10) for e in tree.edges})
    cover = TripletCover(parse_pairs(pairs_text), tree.labels)
    texts = {
        "tree": tree_text,
        "pairs": pairs_text,
        "partial": tree.leaf_distances(cover.pairs).to_csv(),
        "full": tree.leaf_distances("all").to_csv(),
    }
    return {role: text.encode("utf-8") for role, text in texts.items()}


def mutate(data: bytes, rng: random.Random) -> bytes:
    """One to three random edits of ``data``."""
    for _ in range(rng.randint(1, 3)):
        if not data:
            break
        i = rng.randrange(len(data))
        j = min(len(data), i + rng.randint(1, 8))
        kind = rng.randrange(4)
        if kind == 0:
            data = data[:i] + bytes([data[i] ^ 1 << rng.randrange(8)]) + data[i + 1 :]
        elif kind == 1:
            data = data[:i] + data[j:]
        elif kind == 2:
            data = data[:j] + data[i:j] + data[j:]
        else:
            data = data[:i]
    return data


def test_mutated_inputs_keep_the_exit_code_contract(tmp_path, capsys):
    rng = random.Random(20161)
    bases = [fixture_files(*names, rng) for names in FIXTURE_SETS]
    codes = set()
    for _ in range(ROUNDS):
        files = dict(rng.choice(bases))
        role = rng.choice(sorted(files))
        files[role] = mutate(files[role], rng)
        paths = {}
        for name, data in files.items():
            paths[name] = tmp_path / name
            paths[name].write_bytes(data)
        for command in COMMANDS:
            if role not in command:
                continue
            argv = [str(paths[arg]) if arg in paths else arg for arg in command]
            try:
                code = main(argv)
            except Exception as exc:  # the contract: nothing escapes main
                pytest.fail(f"{command} raised {exc!r} on {role} = {files[role]!r}")
            assert code in (0, 1, 2), (command, role, files[role])
            codes.add(code)
        capsys.readouterr()
    assert codes == {0, 1, 2}
