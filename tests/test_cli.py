"""Command-line interface: exit codes, formats, determinism, docs commands."""

import json
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from tripletcover.cli import main

from conftest import caterpillar

FIXTURES = Path(__file__).parent / "fixtures"
EXPECTED = FIXTURES / "expected"
REPO = Path(__file__).parent.parent

FIVE = str(FIXTURES / "five_leaf.nwk")
FIVE_PAIRS = str(FIXTURES / "five_leaf_cover.pairs")
CAT8 = str(FIXTURES / "caterpillar8.nwk")
CAT8_PAIRS = str(FIXTURES / "caterpillar8_cover.pairs")
CAT7 = str(FIXTURES / "caterpillar7.nwk")
CAT7_PAIRS = str(FIXTURES / "caterpillar7_lasso.pairs")

# commands quoted in README.md, each checked byte-exactly against a frozen file
DOCUMENTED = [
    (
        "verify --tree tests/fixtures/five_leaf.nwk"
        " --pairs tests/fixtures/five_leaf_cover.pairs",
        "verify_five_leaf.json",
        0,
    ),
    (
        "construct --tree tests/fixtures/five_leaf.nwk --strategy minimum"
        " --format text",
        "construct_minimum_five_leaf.txt",
        0,
    ),
    (
        "shell --tree tests/fixtures/five_leaf.nwk"
        " --pairs tests/fixtures/five_leaf_cover.pairs",
        "shell_five_leaf.json",
        0,
    ),
    ("random --n 5 --seed 7 --format text", "random_n5_seed7.txt", 0),
]


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


class TestVerify:
    def test_five_leaf(self, capsys):
        code, out = run_cli(["verify", "--tree", FIVE, "--pairs", FIVE_PAIRS], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["is_cover"] and report["is_minimal"] and report["is_minimum"]
        assert report["two_tree"] is True
        assert report["cover_size"] == 7

    def test_caterpillar8(self, capsys):
        code, out = run_cli(["verify", "--tree", CAT8, "--pairs", CAT8_PAIRS], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["is_cover"] and report["is_minimal"]
        assert report["is_minimum"] is False
        assert report["two_tree"] is False

    def test_lasso_not_a_cover(self, capsys):
        code, out = run_cli(["verify", "--tree", CAT7, "--pairs", CAT7_PAIRS], capsys)
        assert code == 1
        report = json.loads(out)
        assert report["is_cover"] is False
        assert report["unsupported_vertices"]

    def test_text_format(self, capsys):
        code, out = run_cli(
            ["verify", "--tree", FIVE, "--pairs", FIVE_PAIRS, "--format", "text"],
            capsys,
        )
        assert code == 0
        assert "is_cover: True" in out

    def test_missing_file_is_input_error(self, capsys):
        code, _ = run_cli(["verify", "--tree", FIVE, "--pairs", "/no/such"], capsys)
        assert code == 2

    def test_foreign_labels_are_input_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.pairs"
        bad.write_text("a zz\n")
        code, _ = run_cli(["verify", "--tree", FIVE, "--pairs", str(bad)], capsys)
        assert code == 2

    def test_malformed_newick_is_input_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.nwk"
        bad.write_text("((a,b),c,(d,e)\n")
        code, _ = run_cli(["verify", "--tree", str(bad), "--pairs", FIVE_PAIRS], capsys)
        assert code == 2


class TestConstruct:
    @pytest.mark.parametrize("strategy", ["per-vertex", "minimum"])
    def test_strategies(self, strategy, capsys):
        code, out = run_cli(
            ["construct", "--tree", FIVE, "--strategy", strategy], capsys
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["strategy"] == strategy
        assert payload["size"] == len(payload["pairs"])

    def test_minimalize_needs_pairs(self, capsys):
        code, _ = run_cli(["construct", "--tree", FIVE, "--strategy", "minimalize"], capsys)
        assert code == 2

    def test_minimalize(self, capsys):
        code, out = run_cli(
            [
                "construct", "--tree", CAT8, "--strategy", "minimalize",
                "--pairs", CAT8_PAIRS,
            ],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["size"] == 14  # already minimal

    def test_minimalize_of_non_cover_is_property_false(self, capsys):
        code, _ = run_cli(
            [
                "construct", "--tree", CAT7, "--strategy", "minimalize",
                "--pairs", CAT7_PAIRS,
            ],
            capsys,
        )
        assert code == 1


class TestShell:
    def test_five_leaf_trace(self, capsys):
        code, out = run_cli(["shell", "--tree", FIVE, "--pairs", FIVE_PAIRS], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["shellable"] is True
        assert [step["pair"] for step in payload["trace"]] == [
            ["a", "e"], ["a", "d"], ["b", "d"],
        ]

    def test_lasso_requires_force(self, capsys):
        code, _ = run_cli(["shell", "--tree", CAT7, "--pairs", CAT7_PAIRS], capsys)
        assert code == 1

    def test_lasso_forced_residual(self, capsys):
        code, out = run_cli(
            ["shell", "--tree", CAT7, "--pairs", CAT7_PAIRS, "--force"], capsys
        )
        assert code == 1
        payload = json.loads(out)
        assert payload["shellable"] is False
        assert payload["residual"]


class TestCompleteReconstruct:
    @pytest.fixture()
    def unit_csvs(self, tmp_path, five_leaf, five_leaf_cover):
        tree = five_leaf.with_edge_lengths(1.0)
        partial = tmp_path / "partial.csv"
        partial.write_text(tree.leaf_distances(five_leaf_cover.pairs).to_csv())
        full = tmp_path / "full.csv"
        full.write_text(tree.leaf_distances("all").to_csv())
        return str(partial), str(full)

    def test_complete(self, unit_csvs, capsys):
        partial, _ = unit_csvs
        code, out = run_cli(
            [
                "complete", "--tree", FIVE, "--pairs", FIVE_PAIRS,
                "--dist", partial, "--format", "text",
            ],
            capsys,
        )
        assert code == 0
        rows = dict()
        for line in out.strip().splitlines():
            a, b, d = line.split(",")
            rows[(a, b)] = float(d)
        assert rows[("a", "e")] == 4.0
        assert len(rows) == 10

    def test_complete_wrong_keys_is_input_error(self, unit_csvs, capsys):
        _, full = unit_csvs
        code, _ = run_cli(
            ["complete", "--tree", FIVE, "--pairs", FIVE_PAIRS, "--dist", full],
            capsys,
        )
        assert code == 2

    def test_complete_unshellable_is_property_false(self, tmp_path, capsys, caterpillar7, caterpillar7_lasso):
        tree = caterpillar7.with_edge_lengths(1.0)
        partial = tmp_path / "partial.csv"
        partial.write_text(tree.leaf_distances(caterpillar7_lasso.pairs).to_csv())
        code, _ = run_cli(
            ["complete", "--tree", CAT7, "--pairs", CAT7_PAIRS, "--dist", str(partial)],
            capsys,
        )
        assert code == 1

    def test_reconstruct_infinite_distance_is_input_error(self, tmp_path, capsys):
        csv = tmp_path / "inf.csv"
        csv.write_text("a,b,inf\na,c,1\nb,c,1\n")
        code, _ = run_cli(["reconstruct", "--dist", str(csv)], capsys)
        assert code == 2

    def test_reconstruct(self, unit_csvs, capsys):
        _, full = unit_csvs
        code, out = run_cli(
            ["reconstruct", "--dist", full, "--format", "text"], capsys
        )
        assert code == 0
        assert out.strip() == "(a:1.0,b:1.0,(c:1.0,(d:1.0,e:1.0):1.0):1.0);"

    @pytest.mark.parametrize("tolerance", ["nan", "-1", "inf"])
    def test_reconstruct_bad_tolerance_is_input_error(self, unit_csvs, tolerance, capsys):
        _, full = unit_csvs
        code = main(["reconstruct", "--dist", full, "--tolerance", tolerance])
        assert code == 2
        assert "tolerance must be finite and >= 0" in capsys.readouterr().err

    def test_reconstruct_degenerate_is_property_false(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b,2.0\na,c,3.0\nb,c,5.0\n")
        code, _ = run_cli(["reconstruct", "--dist", str(bad)], capsys)
        assert code == 1


class TestEnumerate:
    def test_sweep(self, capsys):
        code, out = run_cli(["enumerate", "--tree", FIVE], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["counterexamples"] == []
        assert report["covers_at_minimum"] == 24

    def test_size_mode(self, capsys):
        code, out = run_cli(["enumerate", "--tree", FIVE, "--size", "7"], capsys)
        assert code == 0
        assert json.loads(out)["cover_count"] == 24

    def test_max_n_guard(self, capsys):
        code, _ = run_cli(["enumerate", "--tree", FIVE, "--max-n", "9"], capsys)
        assert code == 2

    def test_deep_tree_is_input_error(self, tmp_path, capsys):
        deep = tmp_path / "deep.nwk"
        deep.write_text(caterpillar([f"x{i:04d}" for i in range(1500)]).to_newick())
        code = main(["enumerate", "--tree", str(deep)])
        err = capsys.readouterr().err
        assert code == 2
        assert err == "error: enumeration supports 3 <= |X| <= 6 leaves, got 1500\n"

    @pytest.mark.parametrize("size,count", [("5", 0), ("12", 0), ("13", 15892)])
    def test_eight_leaves_need_max_n_for_every_size(self, size, count, capsys):
        code = main(["enumerate", "--tree", CAT8, "--size", size])
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert err == "error: enumeration supports 3 <= |X| <= 7 leaves, got 8\n"
        code, out = run_cli(["enumerate", "--tree", CAT8, "--size", size, "--max-n", "8"], capsys)
        assert code == 0
        assert json.loads(out) == {"n": 8, "size": int(size), "cover_count": count}

    @pytest.mark.parametrize("extra", [[], ["--size", "7"]])
    def test_max_n_below_leaf_count(self, extra, capsys):
        code, out = run_cli(["enumerate", "--tree", FIVE, "--max-n", "4"] + extra, capsys)
        assert code == 2
        assert out == ""


class TestRandom:
    def test_deterministic_json(self, capsys):
        code1, out1 = run_cli(["random", "--n", "6", "--seed", "3"], capsys)
        code2, out2 = run_cli(["random", "--n", "6", "--seed", "3"], capsys)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_bad_n_is_input_error(self, capsys):
        code, _ = run_cli(["random", "--n", "2"], capsys)
        assert code == 2

    def test_bad_lengths_is_input_error(self, capsys):
        code, _ = run_cli(["random", "--n", "5", "--lengths", "3,1"], capsys)
        assert code == 2


class TestDocumentedCommands:
    @pytest.mark.parametrize("command,expected,code", DOCUMENTED)
    def test_bit_exact(self, command, expected, code, capsys, monkeypatch):
        monkeypatch.chdir(REPO)
        got_code, out = run_cli(shlex.split(command), capsys)
        assert got_code == code
        assert out == (EXPECTED / expected).read_text()

    @pytest.mark.parametrize("command,expected,code", DOCUMENTED)
    def test_quoted_in_readme(self, command, expected, code):
        readme = (REPO / "README.md").read_text()
        assert f"tck {command}" in readme

    def test_console_script_matches_in_process(self):
        result = subprocess.run(
            [sys.executable, "-m", "tripletcover.cli"]
            + shlex.split(DOCUMENTED[0][0]),
            capture_output=True,
            text=True,
            cwd=REPO,
        )
        assert result.returncode == 0
        assert result.stdout == (EXPECTED / DOCUMENTED[0][1]).read_text()
