"""The host's speed, measured with a fixed reference task.

The benchmark runs on shared machines whose speed changes by a fifth or
more from one second to the next, which no run length averages away.
So the measuring loop samples the host's speed right before each op and
once more after the last op of a block, and every timing the benchmark
reports end to end is scaled to the host speed at which the task takes
``REFERENCE_S``:

    scaled = measured * REFERENCE_S / (mean of the samples on each side)

Wider windows of samples track the host worse: its speed changes within
a second.  The task uses no library code, so a change to the library
moves the scaled times exactly as it moves the measured ones.
"""

from __future__ import annotations

import statistics
from time import perf_counter

TIMINGS = 3  # task timings in one sample, of which the median is taken
REFERENCE_S = 2.5e-3  # task time at the reference speed


def task() -> int:
    """Dict, set and tuple work, hashing and a sort: the kind of work the
    library does, at a fixed size."""
    counts: dict[int, int] = {}
    seen = set()
    for i in range(3000):
        key = i * 7919 % 211
        counts[key] = counts.get(key, 0) + 1
        seen.add((key, i & 15))
    return len(sorted(seen)) + sum(counts.values())


def time_task() -> float:
    start = perf_counter()
    task()
    return perf_counter() - start


def sample() -> float:
    """The task's time at the host's current speed."""
    return statistics.median(time_task() for _ in range(TIMINGS))


def warm_up() -> None:
    for _ in range(20):
        task()


def scale(samples: list[float]) -> float:
    """Factor that takes a time measured while the task took ``samples``
    to the reference speed."""
    return REFERENCE_S / statistics.mean(samples)
