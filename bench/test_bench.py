"""Tests of the benchmark itself, on tiny inputs.

    python -m pytest bench

They are not part of the library's test suite (``tests/``).
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import pytest

import inputs
import run
import spans
import speed

sys.path.insert(0, str(run.ROOT / "src"))
import workloads  # noqa: E402  (needs src/ on the path)
from tripletcover import parse_newick, per_vertex_cover  # noqa: E402

TINY = {
    "pipeline": {6: 1, 9: 1},
    "verify": {8: 1},
    "build": {12: 1},
    "oracle": {6: 3},
}
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def tiny(name: str, seed: int, tmp_path: Path, blocks: int = 1):
    return run.set_up(name, seed, tmp_path, TINY[name], blocks)


@pytest.mark.parametrize("name", sorted(TINY))
def test_smoke_run_passes_its_checks(name, tmp_path):
    workload = tiny(name, 1, tmp_path)
    result = run.measure(workload, 0.0, trace=False)
    assert result["attempted"] == workload.block_size > 0
    assert result["failed"] == 0


@pytest.mark.parametrize("name", sorted(TINY))
def test_seed_fixes_the_inputs(name, tmp_path):
    def digest(seed):
        return inputs.digest(tiny(name, seed, tmp_path, blocks=2).input_texts())

    assert digest(3) == digest(3)
    assert digest(3) != digest(4)


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_run_gives_the_untraced_outputs(name, tmp_path):
    untraced = run.measure(tiny(name, 5, tmp_path), 0.0, trace=False)
    traced = run.measure(tiny(name, 5, tmp_path), 0.0, trace=True)
    assert traced["failed"] == 0
    assert traced["digests"][True] == traced["digests"][False] == untraced["digests"][False]


def test_a_failing_check_is_counted_not_raised(tmp_path, monkeypatch):
    workload = tiny("build", 1, tmp_path)

    def broken(op, out):
        raise AssertionError("check fails")

    monkeypatch.setattr(workload, "check", broken)
    result = run.measure(workload, 0.0, trace=False)
    assert result["failed"] == result["attempted"] > 0


def test_cli_comparison_catches_a_different_report(tmp_path):
    workload = tiny("verify", 1, tmp_path)
    op = next(op for op in workload.ops if op.kind == "minimum")
    out = workload.run(op, spans.untraced)
    assert workload.check_against_cli(op, out)
    assert not workload.check_against_cli(op, out.replace("true", "false", 1))


def test_tail_has_ten_samples_beyond():
    samples = [float(i) for i in range(100)]
    p, value, beyond = run.tail(samples)
    assert (value, beyond) == (89.0, 10)
    assert p == pytest.approx(100 * 89 / 99)


def test_times_are_scaled_to_the_reference_speed(tmp_path):
    result = run.measure(tiny("oracle", 1, tmp_path), 0.0, trace=False)
    # a sample right before each op, and one after the block's last op
    assert result["task_at"] == list(range(result["attempted"]))
    assert len(result["task_s"]) == result["attempted"] + 1
    # a host that runs the reference task twice as slowly doubles each op
    result["task_s"] = [2 * speed.REFERENCE_S] * len(result["task_s"])
    metrics, details = run.end_to_end(result, [(1.0, 0.5)])
    assert metrics["op_p50_ms"][0] == pytest.approx(details["measured"]["op_p50_ms"] / 2)
    assert metrics["setup_s"][0] == 0.5 and details["measured"]["setup_s"] == 1.0


def test_each_op_is_scaled_by_the_samples_on_its_two_sides(tmp_path):
    result = run.measure(tiny("oracle", 1, tmp_path), 0.0, trace=False)
    ops = result["attempted"]
    result["latencies"][False] = [1.0] * ops
    # the host halves its speed after the first op
    result["task_s"] = [speed.REFERENCE_S] + [2 * speed.REFERENCE_S] * ops
    metrics, _ = run.end_to_end(result, [(1.0, 1.0)])
    assert metrics["op_p50_ms"][0] == pytest.approx(1e3 / 2)
    assert metrics["ops_per_s"][0] == pytest.approx(ops / (1 / 1.5 + (ops - 1) / 2))


def test_reported_metrics_match_the_spec(tmp_path):
    result = run.measure(tiny("pipeline", 1, tmp_path), 0.0, trace=True)
    end_to_end, _ = run.end_to_end(result, [(0.5, 0.5)])
    per_layer, _ = run.per_layer(result, workloads.SPAN_NAMES)
    for reported, spec in ((end_to_end, SPEC["end_to_end"]), (per_layer, SPEC["per_layer"])):
        assert {m["name"]: m["unit"] for m in spec} == {k: u for k, (_, u) in reported.items()}
    assert {w["name"] for w in SPEC["workloads"]} == set(TINY)


def test_spans_account_for_the_op(tmp_path):
    result = run.measure(tiny("pipeline", 2, tmp_path), 0.0, trace=True)
    metrics, _ = run.per_layer(result, workloads.SPAN_NAMES)
    assert 0.5 < metrics["op.span_coverage"][0] <= 1.0
    assert metrics["shelling.complete_distances.calls"][0] == 1.0


def test_generated_trees_round_trip_through_the_library():
    for shape in inputs.SHAPES:
        tree = inputs.make_tree(random.Random(7), 20, shape)
        parsed = parse_newick(tree.newick())
        assert inputs.same_splits(
            inputs.tree_splits(tree), inputs.parse_splits(parsed.to_newick()), 0.0
        )
        assert set(per_vertex_cover(parsed).pairs) == inputs.per_vertex_pairs(tree)
        assert len(inputs.cherry_cover_pairs(tree)) == 2 * 20 - 3
    assert len(inputs.all_topologies(list("abcdef"))) == 105
