"""Benchmark of the tripletcover library: four workloads, each timed end
to end, with an optional traced run that times every library call.

    python3 bench/run.py --workload pipeline --seed 1 --seconds 20 --trace 0

Run from the repository root.  Inputs come from ``--seed`` alone (see
``inputs.py``).  Ops run one after another on one thread, in a closed
loop over the workload's op list, and the run stops at the first block
boundary (see ``workloads.py``) after ``--seconds`` of op time.  Every
op's output is checked, outside the timed op.  The last line of stdout
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  End-to-end times are given at a reference
host speed (see ``speed.py``).  The line before it holds details: input
and output digests, the tail percentile and its sample counts, the
set-up samples and the end-to-end times as measured.  Traced runs also
write their spans to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"

SETUP_PROBES = 5
TAIL_BEYOND = 10  # samples above the reported tail latency


def load_workload(name: str, seed: int, workdir: Path, mix=None, blocks=None):
    """Import the library from ``src/`` and generate the workload's inputs."""
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    import workloads

    return workloads.WORKLOADS[name](seed, mix, blocks, workdir)


def set_up(name: str, seed: int, workdir: Path, mix=None, blocks=None):
    """Imports, input generation and warm-up ops: everything before the
    first timed op."""
    from spans import untraced

    workload = load_workload(name, seed, workdir, mix, blocks)
    for op in workload.warmup_ops:
        try:
            workload.run(op, untraced)
        except Exception:  # the timed ops record the failure
            pass
    return workload


def probe_setup(name: str, seed: int) -> tuple[float, float]:
    """Wall time of a fresh interpreter that only sets up, then exits,
    and that time at the reference speed, sampled just before and just
    after."""
    import speed

    command = [
        sys.executable,
        str(BENCH / "run.py"),
        "--workload",
        name,
        "--seed",
        str(seed),
        "--setup-only",
    ]
    task_s = [speed.sample()]
    start = perf_counter()
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.DEVNULL, timeout=150)
    elapsed = perf_counter() - start
    task_s.append(speed.sample())
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe exited with status {done.returncode}")
    return elapsed, elapsed * speed.scale(task_s)


def _checked(workload, op, out) -> bool:
    try:
        return bool(workload.check(op, out))
    except Exception:
        return False


def _sample_speed(task_s: list[float]) -> float:
    """Append a host speed sample; returns the time it took."""
    import speed

    start = perf_counter()
    task_s.append(speed.sample())
    return perf_counter() - start


def measure(workload, seconds: float, trace: bool) -> dict:
    """Closed loop over whole blocks of the op list until ``seconds`` of
    op time have passed.  With ``trace`` each block runs twice, untraced
    and then traced, so both latencies come from the same ops."""
    import speed
    from spans import Tracer, untraced

    tracer = Tracer()
    latencies: dict[bool, list[float]] = {False: [], True: []}
    # host speed samples, and for each untraced op the index of the one
    # taken right before it; the next one is taken right after it
    task_s: list[float] = []
    task_at: list[int] = []
    outputs = {False: hashlib.sha256(), True: hashlib.sha256()}
    counts: dict[str, float] = defaultdict(float)
    attempted = failed = blocks = 0
    checking = 0.0  # checks and speed samples, left out of the op time
    speed.warm_up()
    start = perf_counter()
    while perf_counter() - start - checking < seconds or blocks == 0:
        first = blocks * workload.block_size % len(workload.ops)
        block = workload.ops[first : first + workload.block_size]
        for traced in (False, True) if trace else (False,):
            for op in block:
                if not traced:
                    checking += _sample_speed(task_s)
                    task_at.append(len(task_s) - 1)
                t0 = perf_counter()
                try:
                    if traced:
                        out = tracer.op(attempted, lambda call: workload.run(op, call))
                    else:
                        out = workload.run(op, untraced)
                    ok = True
                except Exception:
                    out, ok = None, False
                t1 = perf_counter()
                latencies[traced].append(t1 - t0)
                attempted += 1
                ok = ok and _checked(workload, op, out)
                failed += not ok
                outputs[traced].update(repr(out).encode("utf-8"))
                if traced and ok:
                    for key, value in workload.counts(op, out).items():
                        counts[key] += value
                checking += perf_counter() - t1
            if not traced:
                checking += _sample_speed(task_s)
        blocks += 1
    return {
        "latencies": latencies,
        "task_s": task_s,
        "task_at": task_at,
        "timed_s": perf_counter() - start - checking,
        "attempted": attempted,
        "failed": failed,
        "blocks": blocks,
        "digests": {mode: h.hexdigest()[:16] for mode, h in outputs.items()},
        "counts": dict(counts),
        "tracer": tracer,
    }


def tail(samples: list[float]) -> tuple[float, float, int]:
    """The sample with TAIL_BEYOND samples above it, which sits at the
    highest percentile that has at least that many samples beyond it:
    (percentile, value, samples beyond)."""
    ordered = sorted(samples)
    rank = max(len(ordered) - 1 - TAIL_BEYOND, 0)
    p = 100 * rank / (len(ordered) - 1) if len(ordered) > 1 else 100.0
    return p, ordered[rank], len(ordered) - 1 - rank


def end_to_end(result: dict, setup_samples: list[tuple[float, float]]) -> tuple[dict, dict]:
    """End-to-end metrics, every time at the reference speed (see
    ``speed.py``); the details keep the times as measured."""
    import speed

    measured = result["latencies"][False]
    task_s = result["task_s"]
    samples = [t * speed.scale(task_s[i : i + 2]) for t, i in zip(measured, result["task_at"])]
    p, value, beyond = tail(samples)
    metrics = {
        "ops_per_s": (len(samples) / sum(samples), "1/s"),
        "op_p50_ms": (statistics.median(samples) * 1e3, "ms"),
        "op_tail_ms": (value * 1e3, "ms"),
        "setup_s": (statistics.median(scaled for _, scaled in setup_samples), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    _, measured_tail, _ = tail(measured)
    details = {
        "tail_percentile": p,
        "tail_samples_beyond": beyond,
        "samples": len(samples),
        "reference_task_ms": statistics.median(task_s) * 1e3,
        "measured": {
            "ops_per_s": len(measured) / result["timed_s"],
            "op_p50_ms": statistics.median(measured) * 1e3,
            "op_tail_ms": measured_tail * 1e3,
            "setup_s": statistics.median(elapsed for elapsed, _ in setup_samples),
        },
        "setup_samples_s": [scaled for _, scaled in setup_samples],
    }
    return metrics, details


def per_layer(result: dict, span_names) -> tuple[dict, dict]:
    tracer = result["tracer"]
    ops = len(result["latencies"][True])
    self_s, calls = tracer.self_times()
    metrics = {}
    for name in span_names:
        metrics[f"{name}.self_s"] = (self_s.get(name, 0.0) / ops, "s")
        metrics[f"{name}.calls"] = (calls.get(name, 0) / ops, "calls/op")
    op_total = sum(end - start for name, start, end, _, _ in tracer.spans if name == "op")
    counts = result["counts"]
    found = counts.get("oracle.minimum_covers_found", 0)
    examined = counts.get("oracle.minimum_size_subsets", 0)
    overhead = statistics.median(result["latencies"][True]) - statistics.median(
        result["latencies"][False]
    )
    metrics.update(
        {
            "op.self_s": (self_s["op"] / ops, "s"),
            "op.span_coverage": (1 - self_s["op"] / op_total, "ratio"),
            "trace.overhead_ms": (overhead * 1e3, "ms"),
            "shelling.pairs_derived": (counts.get("shelling.pairs_derived", 0) / ops, "pairs/op"),
            "oracle.subsets_examined": (
                counts.get("oracle.subsets_examined", 0) / ops,
                "subsets/op",
            ),
            "oracle.minimum_cover_yield": (found / examined if examined else 0.0, "ratio"),
        }
    )
    return metrics, {"traced_samples": ops, "untraced_samples": len(result["latencies"][False])}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("pipeline", "verify", "build", "oracle"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    # the default single-threaded enumeration path is the one measured
    os.environ.pop("TCK_THREADS", None)
    workdir = OUT / f"work-{os.getpid()}"
    try:
        if args.setup_only:
            set_up(args.workload, args.seed, workdir)
            return 0
        setup_samples = [] if args.trace else [
            probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)
        ]
        workload = set_up(args.workload, args.seed, workdir)
        result = measure(workload, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    import inputs
    import workloads

    details = {
        "workload": args.workload,
        "seed": args.seed,
        "inputs_digest": inputs.digest(workload.input_texts()),
        "outputs_digest": result["digests"][False],
        "ops_per_block": workload.block_size,
        "blocks": result["blocks"],
        "failed_ratio": result["failed"] / result["attempted"],
    }
    if args.trace:
        metrics, extra = per_layer(result, workloads.SPAN_NAMES)
        details["traced_outputs_digest"] = result["digests"][True]
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        result["tracer"].write(spans_path)
        details["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        metrics, extra = end_to_end(result, setup_samples)
    details.update(extra)
    print(json.dumps({"details": details}, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
